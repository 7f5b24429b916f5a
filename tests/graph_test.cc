#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/bitset.h"
#include "common/rng.h"
#include "graph/generators.h"
#include "graph/paths.h"
#include "graph/reachability.h"
#include "graph/transition_graph.h"

namespace idrepair {
namespace {

// --------------------------------------------------------- TransitionGraph

TEST(TransitionGraphTest, AddLocationAssignsDenseIds) {
  TransitionGraph g;
  EXPECT_EQ(g.AddLocation("A"), 0u);
  EXPECT_EQ(g.AddLocation("B"), 1u);
  EXPECT_EQ(g.num_locations(), 2u);
  EXPECT_EQ(g.LocationName(0), "A");
  EXPECT_EQ(g.LocationName(1), "B");
}

TEST(TransitionGraphTest, AddLocationIsIdempotentPerName) {
  TransitionGraph g;
  LocationId a1 = g.AddLocation("A");
  LocationId a2 = g.AddLocation("A");
  EXPECT_EQ(a1, a2);
  EXPECT_EQ(g.num_locations(), 1u);
}

TEST(TransitionGraphTest, FindLocation) {
  TransitionGraph g;
  g.AddLocation("X");
  EXPECT_EQ(g.FindLocation("X"), std::optional<LocationId>(0));
  EXPECT_EQ(g.FindLocation("Y"), std::nullopt);
}

TEST(TransitionGraphTest, AddEdgeAndHasEdge) {
  TransitionGraph g;
  LocationId a = g.AddLocation("A");
  LocationId b = g.AddLocation("B");
  EXPECT_FALSE(g.HasEdge(a, b));
  ASSERT_TRUE(g.AddEdge(a, b).ok());
  EXPECT_TRUE(g.HasEdge(a, b));
  EXPECT_FALSE(g.HasEdge(b, a));  // directed
  EXPECT_EQ(g.num_edges(), 1u);
}

TEST(TransitionGraphTest, AddEdgeIsIdempotent) {
  TransitionGraph g;
  LocationId a = g.AddLocation("A");
  LocationId b = g.AddLocation("B");
  ASSERT_TRUE(g.AddEdge(a, b).ok());
  ASSERT_TRUE(g.AddEdge(a, b).ok());
  EXPECT_EQ(g.num_edges(), 1u);
  EXPECT_EQ(g.OutNeighbors(a).size(), 1u);
}

TEST(TransitionGraphTest, AddEdgeRejectsOutOfRangeIds) {
  TransitionGraph g;
  g.AddLocation("A");
  EXPECT_EQ(g.AddEdge(0, 5).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(g.AddEdge(5, 0).code(), StatusCode::kInvalidArgument);
}

TEST(TransitionGraphTest, AddEdgeByNameResolvesOrFails) {
  TransitionGraph g;
  g.AddLocation("A");
  g.AddLocation("B");
  EXPECT_TRUE(g.AddEdge("A", "B").ok());
  EXPECT_TRUE(g.HasEdge(0, 1));
  EXPECT_EQ(g.AddEdge("A", "Z").code(), StatusCode::kNotFound);
}

TEST(TransitionGraphTest, EdgeMatrixSurvivesLaterLocationGrowth) {
  TransitionGraph g;
  LocationId a = g.AddLocation("A");
  LocationId b = g.AddLocation("B");
  ASSERT_TRUE(g.AddEdge(a, b).ok());
  LocationId c = g.AddLocation("C");  // grows the dense matrix
  EXPECT_TRUE(g.HasEdge(a, b));
  EXPECT_FALSE(g.HasEdge(a, c));
  ASSERT_TRUE(g.AddEdge(b, c).ok());
  EXPECT_TRUE(g.HasEdge(b, c));
}

TEST(TransitionGraphTest, InAndOutNeighbors) {
  TransitionGraph g = MakePaperExampleGraph();
  // B has out-neighbors C and D; D has in-neighbors B and C.
  EXPECT_EQ(g.OutNeighbors(1), (std::vector<LocationId>{2, 3}));
  EXPECT_EQ(g.InNeighbors(3), (std::vector<LocationId>{1, 2}));
}

TEST(TransitionGraphTest, EntrancesAndExits) {
  TransitionGraph g = MakePaperExampleGraph();
  EXPECT_EQ(g.entrances(), (std::vector<LocationId>{0, 2}));
  EXPECT_EQ(g.exits(), (std::vector<LocationId>{4}));
  EXPECT_TRUE(g.IsEntrance(0));
  EXPECT_TRUE(g.IsEntrance(2));
  EXPECT_FALSE(g.IsEntrance(1));
  EXPECT_TRUE(g.IsExit(4));
  EXPECT_FALSE(g.IsExit(3));
}

TEST(TransitionGraphTest, MarkEntranceIsIdempotent) {
  TransitionGraph g;
  LocationId a = g.AddLocation("A");
  ASSERT_TRUE(g.MarkEntrance(a).ok());
  ASSERT_TRUE(g.MarkEntrance(a).ok());
  EXPECT_EQ(g.entrances().size(), 1u);
  EXPECT_EQ(g.MarkEntrance(9).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(g.MarkExit(9).code(), StatusCode::kInvalidArgument);
}

TEST(TransitionGraphTest, ValidateRequiresEntranceAndExit) {
  TransitionGraph g;
  EXPECT_FALSE(g.Validate().ok());  // empty
  LocationId a = g.AddLocation("A");
  EXPECT_FALSE(g.Validate().ok());  // no entrance
  ASSERT_TRUE(g.MarkEntrance(a).ok());
  EXPECT_FALSE(g.Validate().ok());  // no exit
  ASSERT_TRUE(g.MarkExit(a).ok());
  EXPECT_TRUE(g.Validate().ok());
}

// Valid paths on the Figure 1(b) graph: A=0, B=1, C=2, D=3, E=4.
TEST(TransitionGraphTest, IsValidPathAcceptsPaperPaths) {
  TransitionGraph g = MakePaperExampleGraph();
  std::vector<LocationId> abde = {0, 1, 3, 4};
  std::vector<LocationId> abcde = {0, 1, 2, 3, 4};
  std::vector<LocationId> cde = {2, 3, 4};
  EXPECT_TRUE(g.IsValidPath(abde));
  EXPECT_TRUE(g.IsValidPath(abcde));
  EXPECT_TRUE(g.IsValidPath(cde));
}

TEST(TransitionGraphTest, IsValidPathRejectsViolations) {
  TransitionGraph g = MakePaperExampleGraph();
  std::vector<LocationId> starts_mid = {1, 3, 4};     // B not an entrance
  std::vector<LocationId> ends_mid = {0, 1, 3};       // D not an exit
  std::vector<LocationId> skips_edge = {0, 3, 4};     // no A->D edge
  std::vector<LocationId> single_entrance = {2};      // C entrance, not exit
  std::vector<LocationId> empty;
  EXPECT_FALSE(g.IsValidPath(starts_mid));
  EXPECT_FALSE(g.IsValidPath(ends_mid));
  EXPECT_FALSE(g.IsValidPath(skips_edge));
  EXPECT_FALSE(g.IsValidPath(single_entrance));
  EXPECT_FALSE(g.IsValidPath(empty));
}

TEST(TransitionGraphTest, IsValidPathPrefix) {
  TransitionGraph g = MakePaperExampleGraph();
  std::vector<LocationId> ab = {0, 1};
  std::vector<LocationId> a = {0};
  std::vector<LocationId> bd = {1, 3};      // starts mid-graph
  std::vector<LocationId> ad = {0, 3};      // missing edge
  std::vector<LocationId> full = {0, 1, 2, 3, 4};
  EXPECT_TRUE(g.IsValidPathPrefix(ab));
  EXPECT_TRUE(g.IsValidPathPrefix(a));
  EXPECT_TRUE(g.IsValidPathPrefix(full));
  EXPECT_FALSE(g.IsValidPathPrefix(bd));
  EXPECT_FALSE(g.IsValidPathPrefix(ad));
}

TEST(TransitionGraphTest, PrefixRequiresExitStillReachable) {
  TransitionGraph g;
  LocationId a = g.AddLocation("A");
  LocationId b = g.AddLocation("B");
  LocationId dead = g.AddLocation("dead");
  ASSERT_TRUE(g.AddEdge(a, b).ok());
  ASSERT_TRUE(g.AddEdge(a, dead).ok());
  ASSERT_TRUE(g.MarkEntrance(a).ok());
  ASSERT_TRUE(g.MarkExit(b).ok());
  std::vector<LocationId> into_dead = {a, dead};
  EXPECT_FALSE(g.IsValidPathPrefix(into_dead));
}

TEST(TransitionGraphTest, CanReachExitUpdatesAfterMutation) {
  TransitionGraph g;
  LocationId a = g.AddLocation("A");
  LocationId b = g.AddLocation("B");
  ASSERT_TRUE(g.MarkExit(b).ok());
  EXPECT_FALSE(g.CanReachExit(a));
  EXPECT_TRUE(g.CanReachExit(b));
  ASSERT_TRUE(g.AddEdge(a, b).ok());
  EXPECT_TRUE(g.CanReachExit(a));
}

// A TransitionGraph driven in lockstep with an independent test-side model
// (dense adjacency plus exit flags), so the write-time invariants can be
// checked against a from-scratch answer after every mutation.
class ModelledGraph {
 public:
  static std::string Name(size_t loc) {
    std::string name = "L";
    name += std::to_string(loc);
    return name;
  }

  size_t size() const { return exit_.size(); }
  const TransitionGraph& graph() const { return graph_; }

  void AddLocation() {
    LocationId id = graph_.AddLocation(Name(size()));
    ASSERT_EQ(id, size());
    for (auto& row : adj_) row.push_back(false);
    adj_.emplace_back(size() + 1, false);
    exit_.push_back(false);
  }

  void ReAddLocation(LocationId loc) {
    ASSERT_EQ(graph_.AddLocation(Name(loc)), loc);
    ASSERT_EQ(graph_.num_locations(), size());
  }

  void AddEdge(LocationId from, LocationId to) {
    ASSERT_TRUE(graph_.AddEdge(from, to).ok());
    adj_[from][to] = true;
  }

  void MarkExit(LocationId loc) {
    ASSERT_TRUE(graph_.MarkExit(loc).ok());
    exit_[loc] = true;
  }

  void MarkEntrance(LocationId loc) {
    ASSERT_TRUE(graph_.MarkEntrance(loc).ok());
  }

  bool HasInEdge(LocationId loc) const {
    return std::any_of(adj_.begin(), adj_.end(),
                       [&](const std::vector<bool>& row) { return row[loc]; });
  }

  // CanReachExit against a reverse BFS from the exit set, HasEdge against
  // the model, and EdgeMatrix() bit (u * n + v) against HasEdge(u, v).
  testing::AssertionResult Matches() const {
    size_t n = size();
    if (graph_.num_locations() != n) {
      return testing::AssertionFailure() << "num_locations "
                                         << graph_.num_locations();
    }
    std::vector<bool> reach = exit_;
    std::deque<size_t> queue;
    for (size_t v = 0; v < n; ++v) {
      if (reach[v]) queue.push_back(v);
    }
    while (!queue.empty()) {
      size_t v = queue.front();
      queue.pop_front();
      for (size_t u = 0; u < n; ++u) {
        if (adj_[u][v] && !reach[u]) {
          reach[u] = true;
          queue.push_back(u);
        }
      }
    }
    DynamicBitset matrix = graph_.EdgeMatrix();
    if (matrix.size() != n * n) {
      return testing::AssertionFailure() << "EdgeMatrix size "
                                         << matrix.size() << " for n=" << n;
    }
    for (LocationId u = 0; u < n; ++u) {
      if (graph_.CanReachExit(u) != reach[u]) {
        return testing::AssertionFailure() << "CanReachExit(" << u << ")";
      }
      for (LocationId v = 0; v < n; ++v) {
        bool edge = graph_.HasEdge(u, v);
        if (edge != adj_[u][v]) {
          return testing::AssertionFailure()
                 << "HasEdge(" << u << ", " << v << ")";
        }
        if (matrix.Test(u * n + v) != edge) {
          return testing::AssertionFailure()
                 << "EdgeMatrix bit (" << u << ", " << v << ")";
        }
      }
    }
    return testing::AssertionSuccess();
  }

 private:
  TransitionGraph graph_;
  std::vector<std::vector<bool>> adj_;
  std::vector<bool> exit_;
};

// How often MarkExit hit a location with and without in-edges, so the test
// can require both orders (exit before / after its in-edges) to occur.
struct ExitOrderCounts {
  size_t before_in_edges = 0;
  size_t after_in_edges = 0;
};

// One random mutation: a new or repeated location, an edge (fresh, repeated
// or a self-loop), an exit or an entrance. Grows the graph up to `target`
// locations.
void RandomMutation(ModelledGraph& mg, size_t target, Rng& rng,
                    std::vector<std::pair<LocationId, LocationId>>& edges,
                    ExitOrderCounts& counts) {
  if (mg.size() == 0 || (mg.size() < target && rng.Bernoulli(0.3))) {
    mg.AddLocation();
    return;
  }
  auto pick = [&] {
    return static_cast<LocationId>(rng.UniformIndex(mg.size()));
  };
  double r = rng.UniformReal();
  if (r < 0.05) {
    mg.ReAddLocation(pick());
  } else if (r < 0.15 && !edges.empty()) {
    auto [from, to] = edges[rng.UniformIndex(edges.size())];
    mg.AddEdge(from, to);  // duplicate
  } else if (r < 0.22) {
    LocationId loc = pick();
    mg.AddEdge(loc, loc);  // self-loop
  } else if (r < 0.75) {
    LocationId from = pick();
    LocationId to = pick();
    mg.AddEdge(from, to);
    edges.emplace_back(from, to);
  } else if (r < 0.88) {
    LocationId loc = pick();
    ++(mg.HasInEdge(loc) ? counts.after_in_edges : counts.before_in_edges);
    mg.MarkExit(loc);
  } else {
    mg.MarkEntrance(pick());
  }
}

TEST(TransitionGraphTest, WriteTimeInvariantsHoldUnderRandomInterleaving) {
  // Sizes from one location to 140, so EdgeMatrix() rows straddle its
  // 64-bit words.
  for (size_t target : {1u, 7u, 30u, 70u, 140u}) {
    for (uint64_t seed : {1u, 2u, 3u}) {
      SCOPED_TRACE(testing::Message() << "target=" << target
                                      << " seed=" << seed);
      Rng rng(seed * 1000 + target);
      ModelledGraph mg;
      std::vector<std::pair<LocationId, LocationId>> edges;
      ExitOrderCounts counts;
      size_t ops = 4 * target + 8;
      for (size_t op = 0; op < ops; ++op) {
        RandomMutation(mg, target, rng, edges, counts);
        ASSERT_TRUE(mg.Matches()) << "after op " << op;
      }
      EXPECT_EQ(mg.size(), target);
      if (target >= 30) {
        EXPECT_GT(counts.before_in_edges, 0u);
        EXPECT_GT(counts.after_in_edges, 0u);
      }
    }
  }
}

TEST(TransitionGraphTest, CopiesDivergeIndependently) {
  Rng rng(77);
  ModelledGraph original;
  std::vector<std::pair<LocationId, LocationId>> edges;
  ExitOrderCounts counts;
  for (int op = 0; op < 60; ++op) {
    RandomMutation(original, 40, rng, edges, counts);
  }
  ASSERT_TRUE(original.Matches());

  // Copy construction and copy assignment over a non-empty graph.
  ModelledGraph copied = original;
  ModelledGraph assigned;
  assigned.AddLocation();
  assigned = original;
  auto original_edges = edges;
  auto copied_edges = edges;
  auto assigned_edges = edges;
  Rng rng_original(1);
  Rng rng_copied(2);
  Rng rng_assigned(3);
  for (int op = 0; op < 200; ++op) {
    RandomMutation(original, 50, rng_original, original_edges, counts);
    RandomMutation(copied, 90, rng_copied, copied_edges, counts);
    RandomMutation(assigned, 70, rng_assigned, assigned_edges, counts);
    ASSERT_TRUE(original.Matches()) << "original after op " << op;
    ASSERT_TRUE(copied.Matches()) << "copy after op " << op;
    ASSERT_TRUE(assigned.Matches()) << "assigned after op " << op;
  }

  // A targeted divergence on one shared location: a fresh exit reached
  // through a new edge in the copy only.
  LocationId shared = 0;
  copied.AddLocation();
  LocationId copy_exit = static_cast<LocationId>(copied.size() - 1);
  copied.MarkExit(copy_exit);
  copied.AddEdge(shared, copy_exit);
  EXPECT_TRUE(copied.graph().CanReachExit(shared));
  EXPECT_TRUE(copied.graph().HasEdge(shared, copy_exit));
  EXPECT_FALSE(original.graph().HasEdge(shared, copy_exit));
  EXPECT_TRUE(original.Matches());
  EXPECT_TRUE(copied.Matches());
}

// ------------------------------------------------------ ReachabilityMatrix

TEST(ReachabilityTest, HopCountsOnPaperGraph) {
  TransitionGraph g = MakePaperExampleGraph();
  auto m = ReachabilityMatrix::Build(g);
  EXPECT_EQ(m.Hops(0, 1), 1u);  // A->B
  EXPECT_EQ(m.Hops(0, 2), 2u);  // A->B->C
  EXPECT_EQ(m.Hops(0, 3), 2u);  // A->B->D
  EXPECT_EQ(m.Hops(0, 4), 3u);  // A->B->D->E
  EXPECT_EQ(m.Hops(2, 4), 2u);  // C->D->E
  EXPECT_EQ(m.Hops(4, 0), ReachabilityMatrix::kUnreachable);
}

TEST(ReachabilityTest, DiagonalIsUnreachableInAcyclicGraph) {
  TransitionGraph g = MakePaperExampleGraph();
  auto m = ReachabilityMatrix::Build(g);
  for (LocationId v = 0; v < g.num_locations(); ++v) {
    EXPECT_EQ(m.Hops(v, v), ReachabilityMatrix::kUnreachable);
  }
}

TEST(ReachabilityTest, DiagonalIsShortestCycleLength) {
  TransitionGraph g;
  LocationId a = g.AddLocation("A");
  LocationId b = g.AddLocation("B");
  LocationId c = g.AddLocation("C");
  ASSERT_TRUE(g.AddEdge(a, b).ok());
  ASSERT_TRUE(g.AddEdge(b, c).ok());
  ASSERT_TRUE(g.AddEdge(c, a).ok());
  auto m = ReachabilityMatrix::Build(g);
  EXPECT_EQ(m.Hops(a, a), 3u);
  EXPECT_EQ(m.Hops(b, b), 3u);
  EXPECT_EQ(m.Hops(c, c), 3u);
}

TEST(ReachabilityTest, SelfLoopGivesCycleLengthOne) {
  TransitionGraph g;
  LocationId a = g.AddLocation("A");
  ASSERT_TRUE(g.AddEdge(a, a).ok());
  auto m = ReachabilityMatrix::Build(g);
  EXPECT_EQ(m.Hops(a, a), 1u);
}

TEST(ReachabilityTest, ReachableRespectsHopBudget) {
  TransitionGraph g = MakePaperExampleGraph();
  auto m = ReachabilityMatrix::Build(g);
  EXPECT_TRUE(m.Reachable(0, 4, 3));   // A->E in 3 hops
  EXPECT_FALSE(m.Reachable(0, 4, 2));  // not in 2
  EXPECT_FALSE(m.Reachable(4, 0, 100));
}

TEST(ReachabilityTest, MatchesBfsOnRandomDags) {
  // Property: Floyd–Warshall hop counts equal a per-source BFS.
  Rng rng(99);
  for (int trial = 0; trial < 10; ++trial) {
    TransitionGraph g = MakeChainGraph(8);
    AddRandomForwardEdges(g, 6, rng);
    auto m = ReachabilityMatrix::Build(g);
    size_t n = g.num_locations();
    for (LocationId s = 0; s < n; ++s) {
      // BFS over non-empty walks from s.
      std::vector<uint32_t> dist(n, ReachabilityMatrix::kUnreachable);
      std::vector<LocationId> frontier = {s};
      uint32_t depth = 0;
      std::vector<bool> visited(n, false);
      while (!frontier.empty()) {
        ++depth;
        std::vector<LocationId> next;
        for (LocationId u : frontier) {
          for (LocationId v : g.OutNeighbors(u)) {
            if (dist[v] == ReachabilityMatrix::kUnreachable) {
              dist[v] = depth;
              next.push_back(v);
            }
          }
        }
        frontier = std::move(next);
        if (depth > n + 1) break;
      }
      (void)visited;
      for (LocationId t = 0; t < n; ++t) {
        EXPECT_EQ(m.Hops(s, t), dist[t]) << "s=" << s << " t=" << t;
      }
    }
  }
}

TEST(ReachabilityTest, BoundedBuildMatchesDenseWithinBound) {
  // Property: for every hop budget <= the build bound, the sparse BFS
  // build answers Hops/Reachable exactly like the dense Floyd–Warshall —
  // including the diagonal-as-shortest-cycle semantics — on both cyclic and
  // acyclic shapes. This is the contract that lets PredicateEvaluator swap
  // builds on city-scale graphs.
  Rng rng(123);
  for (int trial = 0; trial < 8; ++trial) {
    TransitionGraph g = MakeChainGraph(9);
    AddRandomEdges(g, 10, rng);  // backward edges create cycles
    auto dense = ReachabilityMatrix::Build(g);
    for (uint32_t bound : {0u, 1u, 3u, 5u, 12u}) {
      auto sparse = ReachabilityMatrix::BuildBounded(g, bound);
      EXPECT_FALSE(sparse.dense());
      EXPECT_EQ(sparse.bound(), bound);
      size_t n = g.num_locations();
      for (LocationId s = 0; s < n; ++s) {
        for (LocationId t = 0; t < n; ++t) {
          uint32_t want = dense.Hops(s, t);
          uint32_t got = sparse.Hops(s, t);
          if (want != ReachabilityMatrix::kUnreachable && want <= bound) {
            EXPECT_EQ(got, want) << "s=" << s << " t=" << t;
          } else {
            EXPECT_EQ(got, ReachabilityMatrix::kUnreachable)
                << "s=" << s << " t=" << t << " bound=" << bound;
          }
          for (uint32_t h = 0; h <= bound; ++h) {
            EXPECT_EQ(sparse.Reachable(s, t, h), dense.Reachable(s, t, h))
                << "s=" << s << " t=" << t << " h=" << h;
          }
        }
      }
    }
  }
}

// ----------------------------------------------------------------- Paths

TEST(PathsTest, EnumerateValidPathsOnPaperGraph) {
  TransitionGraph g = MakePaperExampleGraph();
  auto paths = EnumerateValidPaths(g, 5);
  ASSERT_TRUE(paths.ok());
  // Exactly three valid paths: ABCDE, ABDE, CDE.
  ASSERT_EQ(paths->size(), 3u);
  std::set<std::vector<LocationId>> expected = {
      {0, 1, 2, 3, 4}, {0, 1, 3, 4}, {2, 3, 4}};
  std::set<std::vector<LocationId>> got(paths->begin(), paths->end());
  EXPECT_EQ(got, expected);
}

TEST(PathsTest, MaxLenLimitsPaths) {
  TransitionGraph g = MakePaperExampleGraph();
  auto paths = EnumerateValidPaths(g, 4);
  ASSERT_TRUE(paths.ok());
  EXPECT_EQ(paths->size(), 2u);  // ABCDE excluded
  auto paths3 = EnumerateValidPaths(g, 3);
  ASSERT_TRUE(paths3.ok());
  EXPECT_EQ(paths3->size(), 1u);  // only CDE
}

TEST(PathsTest, EveryEnumeratedPathIsValid) {
  TransitionGraph g = MakeGridNetwork(3, 4);
  auto paths = EnumerateValidPaths(g, 7);
  ASSERT_TRUE(paths.ok());
  EXPECT_GT(paths->size(), 0u);
  for (const auto& p : *paths) {
    EXPECT_TRUE(g.IsValidPath(p));
    EXPECT_LE(p.size(), 7u);
  }
}

TEST(PathsTest, EnumerationCapsPathExplosion) {
  TransitionGraph g = MakeGridNetwork(6, 6);
  auto paths = EnumerateValidPaths(g, 12, /*max_paths=*/10);
  EXPECT_FALSE(paths.ok());
  EXPECT_EQ(paths.status().code(), StatusCode::kOutOfRange);
}

TEST(PathsTest, EnumerationRejectsInvalidGraph) {
  TransitionGraph g;
  g.AddLocation("A");
  auto paths = EnumerateValidPaths(g, 3);
  EXPECT_FALSE(paths.ok());
}

TEST(PathsTest, SamplerDrawsOnlyValidPaths) {
  TransitionGraph g = MakePaperExampleGraph();
  auto sampler = ValidPathSampler::Create(g, 5);
  ASSERT_TRUE(sampler.ok());
  EXPECT_EQ(sampler->num_paths(), 3u);
  Rng rng(4);
  std::set<size_t> lengths;
  for (int i = 0; i < 100; ++i) {
    const auto& p = sampler->Sample(rng);
    EXPECT_TRUE(g.IsValidPath(p));
    lengths.insert(p.size());
  }
  EXPECT_EQ(lengths, (std::set<size_t>{3, 4, 5}));  // all paths drawn
}

TEST(PathsTest, SamplerFailsWithoutValidPaths) {
  TransitionGraph g;
  LocationId a = g.AddLocation("A");
  LocationId b = g.AddLocation("B");
  ASSERT_TRUE(g.MarkEntrance(a).ok());
  ASSERT_TRUE(g.MarkExit(b).ok());
  // No edge A->B: no valid path exists.
  auto sampler = ValidPathSampler::Create(g, 5);
  EXPECT_FALSE(sampler.ok());
  EXPECT_EQ(sampler.status().code(), StatusCode::kNotFound);
}

// ------------------------------------------------------------- Generators

TEST(GeneratorsTest, PaperExampleGraphShape) {
  TransitionGraph g = MakePaperExampleGraph();
  EXPECT_EQ(g.num_locations(), 5u);
  EXPECT_EQ(g.num_edges(), 5u);
  EXPECT_TRUE(g.Validate().ok());
}

TEST(GeneratorsTest, RealLikeGraphShape) {
  TransitionGraph g = MakeRealLikeGraph();
  EXPECT_EQ(g.num_locations(), 4u);
  EXPECT_EQ(g.num_edges(), 4u);
  EXPECT_TRUE(g.Validate().ok());
  auto paths = EnumerateValidPaths(g, 4);
  ASSERT_TRUE(paths.ok());
  EXPECT_EQ(paths->size(), 3u);  // ABCD, ABD, CD
}

TEST(GeneratorsTest, ChainGraphShape) {
  for (size_t n : {2u, 6u, 10u}) {
    TransitionGraph g = MakeChainGraph(n);
    EXPECT_EQ(g.num_locations(), n);
    EXPECT_EQ(g.num_edges(), n - 1);
    EXPECT_TRUE(g.Validate().ok());
    auto paths = EnumerateValidPaths(g, n);
    ASSERT_TRUE(paths.ok());
    EXPECT_EQ(paths->size(), 1u);  // the chain itself
  }
}

TEST(GeneratorsTest, AddRandomForwardEdgesAddsExactlyCount) {
  Rng rng(8);
  TransitionGraph g = MakeChainGraph(8);
  size_t before = g.num_edges();
  size_t added = AddRandomForwardEdges(g, 3, rng);
  EXPECT_EQ(added, 3u);
  EXPECT_EQ(g.num_edges(), before + 3);
}

TEST(GeneratorsTest, AddRandomForwardEdgesOnlyAddsForward) {
  Rng rng(8);
  TransitionGraph g = MakeChainGraph(6);
  AddRandomForwardEdges(g, 100, rng);  // saturate
  for (LocationId u = 0; u < g.num_locations(); ++u) {
    for (LocationId v : g.OutNeighbors(u)) {
      EXPECT_LT(u, v);
    }
  }
  // Saturated DAG on 6 vertices has 15 edges.
  EXPECT_EQ(g.num_edges(), 15u);
}

TEST(GeneratorsTest, AddRandomForwardEdgesSaturates) {
  Rng rng(8);
  TransitionGraph g = MakeChainGraph(4);
  size_t added = AddRandomForwardEdges(g, 100, rng);
  EXPECT_EQ(added, 3u);  // 6 possible forward edges, 3 already in the chain
}

TEST(GeneratorsTest, GridNetworkValidates) {
  TransitionGraph g = MakeGridNetwork(3, 5);
  EXPECT_EQ(g.num_locations(), 15u);
  EXPECT_TRUE(g.Validate().ok());
  EXPECT_EQ(g.entrances().size(), 3u);
  EXPECT_EQ(g.exits().size(), 3u);
  // Every vertex can reach an exit (east column is absorbing).
  for (LocationId v = 0; v < g.num_locations(); ++v) {
    EXPECT_TRUE(g.CanReachExit(v)) << g.LocationName(v);
  }
}

}  // namespace
}  // namespace idrepair
