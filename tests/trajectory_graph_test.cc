// Gm construction through the location-keyed probe, which reads
// time-disjoint pairs from the θ−1 reachability balls instead of calling
// cex on them. On a bounded-reachability graph (more than 512 locations)
// the balls are the matrix's CSR; on a dense one they are cut from its hop
// rows. Either way the built edge set must equal an all-pairs cex oracle
// and a hand-driven §5.1 LIG probe, at any thread count, including on
// crafted pairs at every boundary of the reduction.

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "graph/generators.h"
#include "lig/length_indexed_grids.h"
#include "repair/trajectory_graph.h"

namespace idrepair {
namespace {

constexpr size_t kTheta = 6;
constexpr Timestamp kEta = 600;

using EdgeSet = std::set<std::pair<TrajIndex, TrajIndex>>;

struct Fixture {
  TransitionGraph graph;
  std::vector<TrackingRecord> records;
  // Crafted pairs: (id of a, id of b, expected Gm edge).
  std::vector<std::tuple<std::string, std::string, bool>> crafted;

  LocationId At(size_t row, size_t col) const {
    std::string name = "x";
    name += std::to_string(row);
    name += 'y';
    name += std::to_string(col);
    return *graph.FindLocation(name);
  }

  void Add(const std::string& id,
           std::vector<std::pair<LocationId, Timestamp>> points) {
    for (const auto& [loc, ts] : points) records.push_back({id, loc, ts});
  }

  // Adds a pair of one-or-more-record trajectories and what cex must say.
  void Pair(const std::string& name,
            std::vector<std::pair<LocationId, Timestamp>> a,
            std::vector<std::pair<LocationId, Timestamp>> b, bool edge) {
    Add(name + "_a", std::move(a));
    Add(name + "_b", std::move(b));
    crafted.emplace_back(name + "_a", name + "_b", edge);
  }
};

/// A side x side one-way grid with one back edge, so x10y10 lies on a
/// 2-cycle. Rows only run east and south, so a same-row hop count is the
/// column difference. 24 gives 576 locations (past the dense-reachability
/// limit), 22 gives 484 (dense).
Fixture MakeFixture(size_t side) {
  Fixture f;
  f.graph = MakeGridNetwork(side, side);
  EXPECT_TRUE(f.graph.AddEdge(f.At(10, 11), f.At(10, 10)).ok());

  // Random traffic: short walks (some too long for θ, some jumping to an
  // unreachable location) over a window a few η wide, so overlapping and
  // disjoint spans, feasible and infeasible rows all occur.
  Rng rng(16);
  for (int t = 0; t < 1200; ++t) {
    std::vector<std::pair<LocationId, Timestamp>> points;
    LocationId loc =
        static_cast<LocationId>(rng.UniformIndex(f.graph.num_locations()));
    Timestamp ts = static_cast<Timestamp>(rng.UniformInt(0, 6000));
    size_t len = static_cast<size_t>(rng.UniformInt(1, 7));
    for (size_t k = 0; k < len; ++k) {
      points.emplace_back(loc, ts);
      auto next = f.graph.OutNeighbors(loc);
      if (next.size() == 0) break;
      loc = rng.UniformIndex(10) == 0
                ? static_cast<LocationId>(
                      rng.UniformIndex(f.graph.num_locations()))
                : next[rng.UniformIndex(next.size())];
      ts += 10 * rng.UniformInt(1, 12);
    }
    std::string id = "r";
    id += std::to_string(t);
    f.Add(id, std::move(points));
  }

  // Crafted boundary pairs, each in its own rows and time slot.
  Timestamp t = 100000;
  // start(b) == end(a): the equal-timestamp cross records are adjacent.
  f.Pair("touch", {{f.At(0, 0), t}, {f.At(0, 1), t + 100}},
         {{f.At(0, 2), t + 100}, {f.At(0, 3), t + 200}}, false);
  // One record later it is a disjoint pair one hop apart.
  f.Pair("after", {{f.At(1, 0), t}, {f.At(1, 1), t + 100}},
         {{f.At(1, 2), t + 101}, {f.At(1, 3), t + 200}}, true);
  t += 10000;
  // Equal start times can never share a path.
  f.Pair("same_start", {{f.At(2, 0), t}, {f.At(2, 2), t + 100}},
         {{f.At(2, 1), t}}, false);
  f.Pair("same_start_single", {{f.At(3, 0), t}}, {{f.At(3, 1), t}}, false);
  t += 10000;
  // |a| + |b| == θ joins; θ + 1 does not.
  f.Pair("len_theta", {{f.At(4, 0), t}, {f.At(4, 1), t + 10}, {f.At(4, 2), t + 20}},
         {{f.At(4, 3), t + 30}, {f.At(4, 4), t + 40}, {f.At(4, 5), t + 50}},
         true);
  f.Pair("len_theta1", {{f.At(5, 0), t}, {f.At(5, 1), t + 10}, {f.At(5, 2), t + 20}},
         {{f.At(5, 3), t + 30}, {f.At(5, 4), t + 40}, {f.At(5, 5), t + 50},
          {f.At(5, 6), t + 60}},
         false);
  t += 10000;
  // end(b) − start(a) == η joins; η + 1 does not.
  f.Pair("span_eta", {{f.At(6, 0), t}}, {{f.At(6, 1), t + kEta}}, true);
  f.Pair("span_eta1", {{f.At(7, 0), t}}, {{f.At(7, 1), t + kEta + 1}}, false);
  // The same bounds when the pair overlaps: b nested inside a's span.
  f.Pair("nest_eta", {{f.At(6, 4), t}, {f.At(6, 6), t + kEta}},
         {{f.At(6, 5), t + 300}}, true);
  f.Pair("overlap_eta1", {{f.At(7, 4), t}, {f.At(7, 6), t + 300}},
         {{f.At(7, 5), t + 200}, {f.At(7, 7), t + kEta + 1}}, false);
  t += 10000;
  // last(a) == first(b): needs a cycle through that location.
  f.Pair("revisit_acyclic", {{f.At(8, 0), t}}, {{f.At(8, 0), t + 100}}, false);
  f.Pair("revisit_cycle", {{f.At(10, 10), t}}, {{f.At(10, 10), t + 100}},
         true);
  t += 10000;
  // Hop distance θ−1 is within the ball; θ is not.
  f.Pair("hops_theta1", {{f.At(12, 0), t}}, {{f.At(12, 5), t + 100}}, true);
  f.Pair("hops_theta", {{f.At(14, 0), t}}, {{f.At(14, 6), t + 100}}, false);
  // Interleaved spans: every adjacency is a cross one.
  t += 10000;
  f.Pair("interleave", {{f.At(16, 0), t}, {f.At(16, 2), t + 200}},
         {{f.At(16, 1), t + 100}, {f.At(16, 3), t + 300}}, true);
  return f;
}

EdgeSet EdgesOf(const TrajectoryGraph& gm) {
  EdgeSet edges;
  for (TrajIndex u = 0; u < gm.num_vertices(); ++u) {
    for (TrajIndex v : gm.Neighbors(u)) {
      if (u < v) edges.emplace(u, v);
    }
  }
  return edges;
}

RepairOptions Options(int threads) {
  RepairOptions options;
  options.theta = kTheta;
  options.eta = kEta;
  options.exec.num_threads = threads;
  options.exec.min_partition_grain = 16;
  return options;
}

struct Pins {
  size_t cex_evaluations;
  size_t ball_hits;
  size_t edges;
};

void ExpectProbeMatchesOracles(size_t side, bool dense, Pins pins) {
  Fixture f = MakeFixture(side);
  PredicateEvaluator pred(f.graph, kTheta, kEta);
  ASSERT_EQ(pred.reachability().dense(), dense);
  TrajectorySet set = TrajectorySet::FromRecords(f.records);

  std::vector<bool> feasible(set.size());
  for (TrajIndex i = 0; i < set.size(); ++i) {
    feasible[i] = pred.InternallyFeasible(set.at(i));
  }
  EdgeSet all_pairs;
  for (TrajIndex i = 0; i < set.size(); ++i) {
    for (TrajIndex j = i + 1; j < set.size() && feasible[i]; ++j) {
      if (feasible[j] && pred.Cex(set.at(i), set.at(j))) {
        all_pairs.emplace(i, j);
      }
    }
  }
  LengthIndexedGrids lig(
      set, LengthIndexedGrids::Options{kTheta, kEta, Options(1).time_bin});
  EdgeSet lig_probe;
  std::vector<TrajIndex> candidates;
  for (TrajIndex i = 0; i < set.size(); ++i) {
    if (!feasible[i]) continue;
    candidates.clear();
    lig.CollectCandidates(i, &candidates);
    for (TrajIndex j : candidates) {
      if (j > i && feasible[j] && pred.Cex(set.at(i), set.at(j))) {
        lig_probe.emplace(i, j);
      }
    }
  }
  ASSERT_EQ(lig_probe, all_pairs);

  TrajectoryGraph one(set, pred, Options(1));
  TrajectoryGraph four(set, pred, Options(4));
  EXPECT_EQ(EdgesOf(one), all_pairs);
  EXPECT_EQ(one.num_edges(), all_pairs.size());
  for (TrajIndex v = 0; v < set.size(); ++v) {
    ASSERT_EQ(one.Neighbors(v), four.Neighbors(v)) << "vertex " << v;
  }
  EXPECT_EQ(one.stats().cex_evaluations, four.stats().cex_evaluations);
  EXPECT_EQ(one.stats().candidate_pairs, four.stats().candidate_pairs);

  auto ids = set.BuildIdIndex();
  for (const auto& [a, b, edge] : f.crafted) {
    SCOPED_TRACE(a);
    ASSERT_TRUE(feasible[ids.at(a)] && feasible[ids.at(b)]);
    EXPECT_EQ(one.HasEdge(ids.at(a), ids.at(b)), edge);
    EXPECT_EQ(pred.Cex(set.at(ids.at(a)), set.at(ids.at(b))), edge);
  }

  // Work counts are a pure function of the instance: cex runs only on
  // overlapping-span pairs, and ball hits add the disjoint pairs read.
  EXPECT_EQ(one.stats().cex_evaluations, pins.cex_evaluations);
  EXPECT_EQ(one.stats().candidate_pairs,
            pins.cex_evaluations + pins.ball_hits);
  EXPECT_EQ(one.num_edges(), pins.edges);
}

TEST(TrajectoryGraphTest, LocationKeyedProbeMatchesOraclesOnBoundedGraph) {
  ExpectProbeMatchesOracles(24, /*dense=*/false, {4908, 1833, 1214});
}

TEST(TrajectoryGraphTest, LocationKeyedProbeMatchesOraclesOnDenseGraph) {
  ExpectProbeMatchesOracles(22, /*dense=*/true, {5181, 2239, 1491});
}

}  // namespace
}  // namespace idrepair
