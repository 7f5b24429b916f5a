#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <set>
#include <utility>
#include <vector>

#include "gen/synthetic.h"
#include "graph/generators.h"
#include "repair/cliques.h"
#include "repair/repairer.h"
#include "test_util.h"

namespace idrepair {
namespace {

using testutil::MakeTable2Trajectories;
using testutil::RunningExampleOptions;

using Clique = std::vector<TrajIndex>;

std::set<Clique> EnumerateAll(const TrajectorySet& set,
                              const TransitionGraph& graph,
                              RepairOptions options,
                              CliqueEnumerator::Stats* stats = nullptr) {
  PredicateEvaluator pred(graph, options.theta, options.eta);
  TrajectoryGraph gm(set, pred, options);
  CliqueEnumerator enumerator(set, gm, pred, options);
  std::set<Clique> out;
  auto s = enumerator.Enumerate(
      [&](const Clique& c, const std::vector<MergedPoint>&) { out.insert(c); });
  if (stats != nullptr) *stats = s;
  return out;
}

TEST(CliqueTest, RunningExampleCliquesWithoutPruning) {
  TransitionGraph graph = MakePaperExampleGraph();
  TrajectorySet set = MakeTable2Trajectories();
  RepairOptions options = RunningExampleOptions();
  options.use_mcp_pruning = false;
  // Example 3.3: five cliques {v1},{v2},{v3},{v1,v2},{v2,v3}.
  std::set<Clique> expected = {{0}, {1}, {2}, {0, 1}, {1, 2}};
  EXPECT_EQ(EnumerateAll(set, graph, options), expected);
}

TEST(CliqueTest, McpPruningDropsOnlyNonJoinableCliques) {
  TransitionGraph graph = MakePaperExampleGraph();
  TrajectorySet set = MakeTable2Trajectories();
  RepairOptions options = RunningExampleOptions();
  options.use_mcp_pruning = true;
  CliqueEnumerator::Stats stats;
  auto got = EnumerateAll(set, graph, options, &stats);
  // Example 5.4 logic: {v3} fails the MCP condition (D is no entrance), so
  // it is pruned; everything else survives.
  std::set<Clique> expected = {{0}, {1}, {0, 1}, {1, 2}};
  EXPECT_EQ(got, expected);
  EXPECT_EQ(stats.pck_pruned, 1u);
}

TEST(CliqueTest, ZetaBoundsCliqueSize) {
  // A clique of 4 mutually compatible single-record trajectories.
  TransitionGraph graph = MakePaperExampleGraph();
  std::vector<TrackingRecord> records = {
      {"w", 0, 0}, {"x", 1, 100}, {"y", 3, 200}, {"z", 4, 300}};
  TrajectorySet set = TrajectorySet::FromRecords(records);
  RepairOptions options = RunningExampleOptions();
  options.use_mcp_pruning = false;

  options.zeta = 4;
  auto all = EnumerateAll(set, graph, options);
  // 4 singletons + 6 pairs + 4 triples + 1 quad = 15 (Figure 5 with n=4).
  EXPECT_EQ(all.size(), 15u);

  options.zeta = 2;
  auto capped = EnumerateAll(set, graph, options);
  EXPECT_EQ(capped.size(), 10u);  // singletons + pairs only
  for (const auto& c : capped) EXPECT_LE(c.size(), 2u);

  options.zeta = 1;
  auto singles = EnumerateAll(set, graph, options);
  EXPECT_EQ(singles.size(), 4u);
}

TEST(CliqueTest, ThetaBoundsTotalRecords) {
  TransitionGraph graph = MakePaperExampleGraph();
  // Two 2-record trajectories + one 1-record one, all compatible.
  std::vector<TrackingRecord> records = {
      {"w", 0, 0},   {"w", 1, 100},  // A,B
      {"x", 2, 200},                 // C
      {"y", 3, 300}, {"y", 4, 400},  // D,E
  };
  TrajectorySet set = TrajectorySet::FromRecords(records);
  RepairOptions options = RunningExampleOptions();
  options.use_mcp_pruning = false;
  options.theta = 4;  // the {w,x,y} triple holds 5 records: excluded
  auto cliques = EnumerateAll(set, graph, options);
  EXPECT_EQ(cliques.count({0, 1, 2}), 0u);
  EXPECT_EQ(cliques.count({0, 1}), 1u);   // 3 records
  EXPECT_EQ(cliques.count({1, 2}), 1u);   // 3 records
  for (const auto& c : cliques) {
    size_t total = 0;
    for (TrajIndex m : c) total += set.at(m).size();
    EXPECT_LE(total, options.theta);
  }
}

TEST(CliqueTest, MembersAreAscendingAndFormCliques) {
  TransitionGraph graph = MakeRealLikeGraph();
  std::vector<TrackingRecord> records = {
      {"a", 0, 0},   {"a", 1, 100},  // A,B
      {"b", 2, 200},                 // C
      {"c", 3, 300},                 // D
      {"d", 0, 350},                 // A (second wave)
      {"e", 1, 450},                 // B
  };
  TrajectorySet set = TrajectorySet::FromRecords(records);
  RepairOptions options;
  options.theta = 4;
  options.eta = 600;
  options.zeta = 4;
  options.use_mcp_pruning = false;
  PredicateEvaluator pred(graph, options.theta, options.eta);
  TrajectoryGraph gm(set, pred, options);
  CliqueEnumerator enumerator(set, gm, pred, options);
  enumerator.Enumerate([&](const Clique& c,
                           const std::vector<MergedPoint>& merged) {
    EXPECT_EQ(merged.size(), [&] {
      size_t total = 0;
      for (TrajIndex m : c) total += set.at(m).size();
      return total;
    }());
    for (size_t i = 0; i + 1 < merged.size(); ++i) {
      EXPECT_LE(merged[i].ts, merged[i + 1].ts);
    }
    EXPECT_TRUE(std::is_sorted(c.begin(), c.end()));
    for (size_t i = 0; i < c.size(); ++i) {
      for (size_t j = i + 1; j < c.size(); ++j) {
        EXPECT_TRUE(gm.HasEdge(c[i], c[j]))
            << "not a clique: " << c[i] << "," << c[j];
      }
    }
  });
}

TEST(CliqueTest, EachCliqueEmittedExactlyOnce) {
  TransitionGraph graph = MakeRealLikeGraph();
  std::vector<TrackingRecord> records = {
      {"a", 0, 0},  {"b", 1, 100}, {"c", 2, 200}, {"d", 3, 300}};
  TrajectorySet set = TrajectorySet::FromRecords(records);
  RepairOptions options;
  options.theta = 4;
  options.eta = 600;
  options.zeta = 4;
  options.use_mcp_pruning = false;
  PredicateEvaluator pred(graph, options.theta, options.eta);
  TrajectoryGraph gm(set, pred, options);
  CliqueEnumerator enumerator(set, gm, pred, options);
  std::vector<Clique> all;
  auto stats = enumerator.Enumerate(
      [&](const Clique& c, const std::vector<MergedPoint>&) {
        all.push_back(c);
      });
  std::set<Clique> unique(all.begin(), all.end());
  EXPECT_EQ(unique.size(), all.size());
  EXPECT_EQ(stats.cliques_emitted, all.size());
}

TEST(CliqueTest, InfeasibleTrajectoriesAreSkippedEntirely) {
  TransitionGraph graph = MakePaperExampleGraph();
  std::vector<TrackingRecord> records = {
      {"ok", 0, 0},
      {"bad", 4, 100}, {"bad", 0, 200},  // E -> A unreachable: infeasible
  };
  TrajectorySet set = TrajectorySet::FromRecords(records);
  RepairOptions options = RunningExampleOptions();
  options.use_mcp_pruning = false;
  auto cliques = EnumerateAll(set, graph, options);
  auto idx = set.BuildIdIndex();
  for (const auto& c : cliques) {
    for (TrajIndex m : c) EXPECT_NE(m, idx.at("bad"));
  }
}

TEST(CliqueTest, PruningNeverLosesAJoinableSubset) {
  // Property: the joinable subsets derived from the pruned enumeration are
  // identical to those from the full enumeration (Theorem 5.3 soundness).
  TransitionGraph graph = MakeRealLikeGraph();
  for (uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    SyntheticConfig config;
    config.num_trajectories = 60;
    config.max_path_len = 4;
    config.seed = seed;
    auto ds = GenerateSyntheticDataset(graph, config);
    ASSERT_TRUE(ds.ok());
    TrajectorySet set = ds->BuildObservedTrajectories();
    RepairOptions options;
    options.theta = 4;
    options.eta = 600;
    options.zeta = 4;
    PredicateEvaluator pred(graph, options.theta, options.eta);

    auto joinable_from = [&](bool prune) {
      RepairOptions o = options;
      o.use_mcp_pruning = prune;
      std::set<Clique> joinable;
      TrajectoryGraph gm(set, pred, o);
      CliqueEnumerator enumerator(set, gm, pred, o);
      enumerator.Enumerate(
          [&](const Clique& c, const std::vector<MergedPoint>& merged) {
            if (pred.JnbMerged(merged)) joinable.insert(c);
          });
      return joinable;
    };

    auto with = joinable_from(true);
    auto without = joinable_from(false);
    EXPECT_EQ(with, without) << "seed " << seed;
  }
}

// Independent oracle for the qualified-clique set: every vertex subset of
// at most ζ members, all feasible, pairwise adjacent, holding at most θ
// records — found by brute force over all index combinations, without the
// enumerator's adjacency-driven search. Ascending combinations come out in
// lexicographic order, which is also the enumerator's depth-first order.
std::vector<Clique> BruteForceQualifiedCliques(const TrajectorySet& set,
                                               const TrajectoryGraph& gm,
                                               const RepairOptions& options) {
  std::vector<Clique> out;
  Clique current;
  std::function<void(TrajIndex, size_t)> extend = [&](TrajIndex from,
                                                      size_t records) {
    for (TrajIndex v = from; v < set.size(); ++v) {
      if (!gm.IsFeasible(v)) continue;
      size_t total = records + set.at(v).size();
      if (total > options.theta) continue;
      bool adjacent = true;
      for (TrajIndex u : current) adjacent = adjacent && gm.HasEdge(u, v);
      if (!adjacent) continue;
      current.push_back(v);
      out.push_back(current);
      if (current.size() < options.zeta) extend(v + 1, total);
      current.pop_back();
    }
  };
  extend(0, 0);
  return out;
}

std::vector<Clique> Enumerated(const TrajectorySet& set,
                               const TrajectoryGraph& gm,
                               const PredicateEvaluator& pred,
                               const RepairOptions& options) {
  std::vector<Clique> out;
  CliqueEnumerator(set, gm, pred, options)
      .Enumerate([&](const Clique& c, const std::vector<MergedPoint>&) {
        out.push_back(c);
      });
  return out;
}

// A small sparse set that splits into several chain components.
TrajectorySet SmallMultiComponentSet(const TransitionGraph& graph) {
  SyntheticConfig config;
  config.num_trajectories = 40;
  config.max_path_len = 4;
  config.window_seconds = 16000;
  config.record_error_rate = 0.3;
  config.seed = 31;
  auto ds = GenerateSyntheticDataset(graph, config);
  EXPECT_TRUE(ds.ok()) << ds.status();
  return ds->BuildObservedTrajectories();
}

TEST(CliqueTest, EnumerationEqualsBruteForceOnMultiComponentSet) {
  TransitionGraph graph = MakeRealLikeGraph();
  TrajectorySet set = SmallMultiComponentSet(graph);
  RepairOptions options;
  options.theta = 6;
  options.eta = 600;
  options.zeta = 4;
  options.use_mcp_pruning = false;
  ASSERT_GT(IdRepairer(graph, options).Partition(set).size(), 1u);
  PredicateEvaluator pred(graph, options.theta, options.eta);
  TrajectoryGraph gm(set, pred, options);
  auto expected = BruteForceQualifiedCliques(set, gm, options);
  ASSERT_GT(expected.size(), set.size()) << "no multi-member cliques";
  EXPECT_EQ(Enumerated(set, gm, pred, options), expected);
}

// Streaming hands the enumerator graphs it maintained itself. The root
// expansion walks each vertex's adjacency, so it must follow whatever edges
// such a graph holds — here Gm with every third edge dropped plus extra
// edges between nearby feasible vertices.
TEST(CliqueTest, EnumerationEqualsBruteForceOnFromAdjacencyGraph) {
  TransitionGraph graph = MakeRealLikeGraph();
  TrajectorySet set = SmallMultiComponentSet(graph);
  RepairOptions options;
  options.theta = 6;
  options.eta = 600;
  options.zeta = 4;
  options.use_mcp_pruning = false;
  PredicateEvaluator pred(graph, options.theta, options.eta);
  TrajectoryGraph built(set, pred, options);

  std::set<std::pair<TrajIndex, TrajIndex>> edges;
  size_t edge_no = 0;
  for (TrajIndex v = 0; v < built.num_vertices(); ++v) {
    for (TrajIndex w : built.Neighbors(v)) {
      if (w > v && ++edge_no % 3 != 0) edges.insert({v, w});
    }
  }
  for (TrajIndex v = 0; v + 2 < set.size(); ++v) {
    if (built.IsFeasible(v) && built.IsFeasible(v + 2)) {
      edges.insert({v, v + 2});
    }
  }
  std::vector<std::vector<TrajIndex>> adj(set.size());
  for (const auto& [v, w] : edges) {
    adj[v].push_back(w);
    adj[w].push_back(v);
  }
  TrajectoryGraph gm =
      TrajectoryGraph::FromAdjacency(set, pred, std::move(adj));
  ASSERT_EQ(gm.num_edges(), edges.size());

  auto expected = BruteForceQualifiedCliques(set, gm, options);
  ASSERT_GT(expected.size(), set.size()) << "no multi-member cliques";
  EXPECT_EQ(Enumerated(set, gm, pred, options), expected);
}

}  // namespace
}  // namespace idrepair
