#include <gtest/gtest.h>

#include "common/rng.h"
#include "graph/generators.h"
#include "repair/predicates.h"
#include "test_util.h"
#include "traj/merge.h"

namespace idrepair {
namespace {

using testutil::MakeTable2Trajectories;
using testutil::RunningExampleOptions;

class RunningExampleFixture : public ::testing::Test {
 protected:
  RunningExampleFixture()
      : graph_(MakePaperExampleGraph()),
        set_(MakeTable2Trajectories()),
        pred_(graph_, RunningExampleOptions().theta,
              RunningExampleOptions().eta) {}

  const Trajectory& T1() const { return set_.at(0); }  // GL21348<A B D E>
  const Trajectory& T2() const { return set_.at(1); }  // GL03245<C>
  const Trajectory& T3() const { return set_.at(2); }  // GL83248<D E>

  TransitionGraph graph_;
  TrajectorySet set_;
  PredicateEvaluator pred_;
};

// ------------------------------------------------------- InternallyFeasible

TEST_F(RunningExampleFixture, AllTableTrajectoriesAreInternallyFeasible) {
  EXPECT_TRUE(pred_.InternallyFeasible(T1()));
  EXPECT_TRUE(pred_.InternallyFeasible(T2()));
  EXPECT_TRUE(pred_.InternallyFeasible(T3()));
}

TEST_F(RunningExampleFixture, OverlongTrajectoryIsInfeasible) {
  Trajectory t("x", {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {0, 6}});
  EXPECT_FALSE(pred_.InternallyFeasible(t));  // 6 records > θ=5
}

TEST_F(RunningExampleFixture, OverlongSpanIsInfeasible) {
  Trajectory t("x", {{0, 0}, {1, 5000}});  // span > η=1200
  EXPECT_FALSE(pred_.InternallyFeasible(t));
}

TEST_F(RunningExampleFixture, UnreachableConsecutiveLocationsInfeasible) {
  Trajectory t("x", {{4, 1}, {0, 2}});  // E -> A unreachable
  EXPECT_FALSE(pred_.InternallyFeasible(t));
}

TEST_F(RunningExampleFixture, DuplicateTimestampsInfeasible) {
  Trajectory t("x", {{0, 1}, {1, 1}});
  EXPECT_FALSE(pred_.InternallyFeasible(t));
}

TEST_F(RunningExampleFixture, EmptyTrajectoryInfeasible) {
  EXPECT_FALSE(pred_.InternallyFeasible(Trajectory()));
}

// -------------------------------------------------------------------- cex

TEST_F(RunningExampleFixture, CexMatchesExample31) {
  // Example 3.1: edges (v1,v2) and (v2,v3) only.
  EXPECT_TRUE(pred_.Cex(T1(), T2()));
  EXPECT_TRUE(pred_.Cex(T2(), T3()));
  EXPECT_FALSE(pred_.Cex(T1(), T3()));
}

TEST_F(RunningExampleFixture, CexIsSymmetric) {
  EXPECT_EQ(pred_.Cex(T1(), T2()), pred_.Cex(T2(), T1()));
  EXPECT_EQ(pred_.Cex(T1(), T3()), pred_.Cex(T3(), T1()));
  EXPECT_EQ(pred_.Cex(T2(), T3()), pred_.Cex(T3(), T2()));
}

TEST_F(RunningExampleFixture, CexRejectsLengthBound) {
  PredicateEvaluator tight(graph_, /*theta=*/4, /*eta=*/1200);
  // |T1| + |T2| = 5 > 4.
  EXPECT_FALSE(tight.Cex(T1(), T2()));
  // |T2| + |T3| = 3 <= 4 still fine.
  EXPECT_TRUE(tight.Cex(T2(), T3()));
}

TEST_F(RunningExampleFixture, CexRejectsTimeSpanBound) {
  PredicateEvaluator tight(graph_, /*theta=*/5, /*eta=*/200);
  // T2 (08:17:23) to T3 end (08:21:30) spans 247 s > 200.
  EXPECT_FALSE(tight.Cex(T2(), T3()));
}

TEST_F(RunningExampleFixture, CexRejectsEqualCrossTimestamps) {
  Trajectory a("a", {{2, 100}});
  Trajectory b("b", {{3, 100}});
  EXPECT_FALSE(pred_.Cex(a, b));
}

TEST_F(RunningExampleFixture, CexAllowsGapsFilledByThirdTrajectory) {
  // A@0 followed by D@300: not adjacent, but reachable via B (2 hops).
  Trajectory a("a", {{0, 0}});
  Trajectory b("b", {{3, 300}, {4, 400}});
  EXPECT_TRUE(pred_.Cex(a, b));
}

TEST(CexCycleTest, SameLocationTwiceRequiresACycle) {
  // Acyclic graph: two records at B can never lie on one path.
  TransitionGraph acyclic = MakePaperExampleGraph();
  PredicateEvaluator pred(acyclic, 5, 1000);
  Trajectory a("a", {{1, 100}});
  Trajectory b("b", {{1, 200}});
  EXPECT_FALSE(pred.Cex(a, b));

  // Add a cycle B -> C -> B: now a revisit is possible.
  TransitionGraph cyclic = MakePaperExampleGraph();
  ASSERT_TRUE(cyclic.AddEdge(2, 1).ok());
  PredicateEvaluator pred2(cyclic, 5, 1000);
  EXPECT_TRUE(pred2.Cex(a, b));
}

// The cex merge is walked in place with two cursors. The reference below is
// Algorithm 1 over the materialized MergeChronological sequence; both must
// agree on every pair, in both argument orders.
bool ReferenceCex(const PredicateEvaluator& pred, const Trajectory& a,
                  const Trajectory& b) {
  if (a.size() + b.size() > pred.theta()) return false;
  Timestamp lo = std::min(a.start_time(), b.start_time());
  Timestamp hi = std::max(a.end_time(), b.end_time());
  if (hi - lo > pred.eta()) return false;
  auto merged = MergeChronological(a, b);
  uint32_t max_hops = static_cast<uint32_t>(pred.theta()) - 1;
  for (size_t i = 0; i + 1 < merged.size(); ++i) {
    if (merged[i].source == merged[i + 1].source) continue;
    if (merged[i].ts == merged[i + 1].ts) return false;
    if (!pred.reachability().Reachable(merged[i].loc, merged[i + 1].loc,
                                       max_hops)) {
      return false;
    }
  }
  return true;
}

void ExpectCexMatchesReference(const PredicateEvaluator& pred,
                               const Trajectory& a, const Trajectory& b,
                               bool want) {
  EXPECT_EQ(ReferenceCex(pred, a, b), want);
  EXPECT_EQ(pred.Cex(a, b), want);
  EXPECT_EQ(pred.Cex(b, a), want);
}

TEST_F(RunningExampleFixture, CexWalkMatchesMergeOnCraftedPairs) {
  const LocationId kA = 0, kB = 1, kC = 2, kD = 3, kE = 4;
  // Equal-timestamp cross records at the same location.
  ExpectCexMatchesReference(pred_, Trajectory("a", {{kB, 100}}),
                            Trajectory("b", {{kB, 100}}), false);
  ExpectCexMatchesReference(pred_, Trajectory("a", {{kA, 50}, {kB, 100}}),
                            Trajectory("b", {{kB, 100}, {kD, 200}}), false);
  // Equal-timestamp cross records at different locations; the (ts, loc) tie
  // puts b's B@100 between a's A@50 and D@100.
  ExpectCexMatchesReference(pred_, Trajectory("a", {{kA, 50}, {kD, 100}}),
                            Trajectory("b", {{kB, 100}}), false);
  // Fully interleaved: every adjacency is a cross one, all along A→B→C→D→E.
  Trajectory odd("a", {{kA, 0}, {kC, 200}, {kE, 400}});
  Trajectory even("b", {{kB, 100}, {kD, 300}});
  ExpectCexMatchesReference(pred_, odd, even, true);
  // Interleaved but one cross step runs backwards (D@300 → C@350).
  ExpectCexMatchesReference(pred_, Trajectory("a", {{kA, 0}, {kD, 300}}),
                            Trajectory("b", {{kB, 100}, {kC, 350}}), false);
  // One span nested inside the other: C@200 fills B→D; A@200 cannot follow B.
  Trajectory outer("o", {{kA, 0}, {kB, 100}, {kD, 300}, {kE, 400}});
  ExpectCexMatchesReference(pred_, outer, Trajectory("n", {{kC, 200}}), true);
  ExpectCexMatchesReference(pred_, outer, Trajectory("n", {{kA, 200}}), false);
  // Disjoint spans: the one cross adjacency follows a's last record.
  ExpectCexMatchesReference(pred_, Trajectory("a", {{kB, 0}, {kC, 100}}),
                            Trajectory("b", {{kD, 200}}), true);
  ExpectCexMatchesReference(pred_, Trajectory("a", {{kC, 0}, {kD, 100}}),
                            Trajectory("b", {{kB, 200}}), false);
}

/// A random walk of up to `len` records on `g` from a random start, with
/// timestamps on a 10 s grid so cross ties are common.
Trajectory RandomWalk(const TransitionGraph& g, size_t len, Timestamp start,
                      Rng& rng, const std::string& id) {
  std::vector<TrajectoryPoint> points;
  LocationId loc = static_cast<LocationId>(rng.UniformIndex(g.num_locations()));
  Timestamp ts = start;
  for (size_t k = 0; k < len; ++k) {
    points.push_back({loc, ts});
    auto next = g.OutNeighbors(loc);
    if (next.size() == 0) break;
    loc = next[rng.UniformIndex(next.size())];
    ts += 10 * rng.UniformInt(1, 6);
  }
  return Trajectory(id, std::move(points));
}

TEST(CexDifferentialTest, CursorWalkMatchesMergeOnRandomFeasiblePairs) {
  Rng rng(20180326);
  TransitionGraph g = MakeGridNetwork(5, 5);
  AddRandomEdges(g, 12, rng);  // back edges make some walks re-enterable
  const size_t kTheta = 8;
  PredicateEvaluator pred(g, kTheta, /*eta=*/600);
  size_t accepted = 0;
  size_t rejected = 0;
  size_t pairs = 0;
  while (pairs < 20000) {
    size_t la = static_cast<size_t>(rng.UniformInt(1, kTheta - 1));
    size_t lb = static_cast<size_t>(rng.UniformInt(1, kTheta - la));
    Trajectory a = RandomWalk(g, la, 10 * rng.UniformInt(0, 20), rng, "a");
    Trajectory b = RandomWalk(g, lb, 10 * rng.UniformInt(0, 20), rng, "b");
    if (!pred.InternallyFeasible(a) || !pred.InternallyFeasible(b)) continue;
    ++pairs;
    bool want = ReferenceCex(pred, a, b);
    ASSERT_EQ(pred.Cex(a, b), want) << "pair " << pairs;
    ASSERT_EQ(pred.Cex(b, a), want) << "pair " << pairs;
    if (want) {
      ++accepted;
    } else {
      ++rejected;
    }
  }
  // Both outcomes must be well represented for the comparison to mean much.
  EXPECT_GT(accepted, pairs / 50);
  EXPECT_GT(rejected, pairs / 50);
}

// -------------------------------------------------------------------- jnb

TEST_F(RunningExampleFixture, JnbMatchesExample33) {
  // Joinable subsets: {T1}, {T1,T2}, {T2,T3} — and not {T2}, {T3}.
  const Trajectory* t1[] = {&T1()};
  const Trajectory* t2[] = {&T2()};
  const Trajectory* t3[] = {&T3()};
  const Trajectory* t12[] = {&T1(), &T2()};
  const Trajectory* t23[] = {&T2(), &T3()};
  EXPECT_TRUE(pred_.Jnb(t1));
  EXPECT_FALSE(pred_.Jnb(t2));
  EXPECT_FALSE(pred_.Jnb(t3));
  EXPECT_TRUE(pred_.Jnb(t12));
  EXPECT_TRUE(pred_.Jnb(t23));
}

TEST_F(RunningExampleFixture, JnbRequiresEdgesNotJustReachability) {
  // A@0 then D@300: reachable but not adjacent, and nothing fills the gap.
  Trajectory a("a", {{0, 0}});
  Trajectory b("b", {{3, 300}, {4, 400}});
  const Trajectory* group[] = {&a, &b};
  EXPECT_TRUE(pred_.Cex(a, b));
  EXPECT_FALSE(pred_.Jnb(group));
}

TEST_F(RunningExampleFixture, JnbRejectsEmptyAndOversized) {
  EXPECT_FALSE(pred_.Jnb({}));
  PredicateEvaluator tight(graph_, /*theta=*/2, /*eta=*/1200);
  const Trajectory* t23[] = {&T2(), &T3()};
  EXPECT_FALSE(tight.Jnb(t23));  // 3 records > θ=2
}

TEST_F(RunningExampleFixture, JnbChecksEntranceAndExit) {
  Trajectory bd("x", {{1, 1}, {3, 2}});  // B -> D: neither endpoint special
  const Trajectory* group[] = {&bd};
  EXPECT_FALSE(pred_.Jnb(group));
}

TEST_F(RunningExampleFixture, JnbMergedVariantAgrees) {
  const Trajectory* t23[] = {&T2(), &T3()};
  auto merged = MergeChronological(t23);
  EXPECT_TRUE(pred_.JnbMerged(merged));
}

TEST_F(RunningExampleFixture, JnbRejectsTimestampTies) {
  Trajectory a("a", {{2, 100}});
  Trajectory b("b", {{3, 100}, {4, 200}});
  const Trajectory* group[] = {&a, &b};
  EXPECT_FALSE(pred_.Jnb(group));
}

// -------------------------------------------------------------------- pck

TEST_F(RunningExampleFixture, PckSingletonRequiresEntranceStart) {
  const Trajectory* t1[] = {&T1()};
  const Trajectory* t2[] = {&T2()};
  const Trajectory* t3[] = {&T3()};
  EXPECT_TRUE(pred_.Pck(t1));   // starts at A
  EXPECT_TRUE(pred_.Pck(t2));   // starts at C
  EXPECT_FALSE(pred_.Pck(t3));  // starts at D — never first in a subset
}

TEST_F(RunningExampleFixture, PckOnRunningExamplePairs) {
  const Trajectory* t12[] = {&T1(), &T2()};
  const Trajectory* t23[] = {&T2(), &T3()};
  EXPECT_TRUE(pred_.Pck(t12));  // MCP = A,B,C — prefix of ABCDE
  EXPECT_TRUE(pred_.Pck(t23));  // MCP = C,D — prefix of CDE
}

TEST_F(RunningExampleFixture, PckRequiresEdgeWithinPrefix) {
  // MCP = A@0, D@10 (both sources covered): A->D is not an edge.
  Trajectory a("a", {{0, 0}, {4, 400}});
  Trajectory b("b", {{3, 10}});
  const Trajectory* group[] = {&a, &b};
  EXPECT_FALSE(pred_.Pck(group));
}

TEST_F(RunningExampleFixture, PckIgnoresViolationsAfterThePrefix) {
  // MCP = A@0, B@10 (covers both); the later D@20,D@400 clash is beyond the
  // prefix and must not affect pck (jnb will catch it later).
  Trajectory a("a", {{0, 0}, {3, 400}});
  Trajectory b("b", {{1, 10}, {3, 20}});
  const Trajectory* group[] = {&a, &b};
  EXPECT_TRUE(pred_.Pck(group));
}

TEST_F(RunningExampleFixture, PckRequiresExitReachableFromPrefixEnd) {
  TransitionGraph g;
  LocationId a = g.AddLocation("A");
  LocationId dead = g.AddLocation("dead");
  LocationId exit = g.AddLocation("X");
  ASSERT_TRUE(g.AddEdge(a, dead).ok());
  ASSERT_TRUE(g.AddEdge(a, exit).ok());
  ASSERT_TRUE(g.MarkEntrance(a).ok());
  ASSERT_TRUE(g.MarkExit(exit).ok());
  PredicateEvaluator pred(g, 5, 1000);
  // The MCP of a pair extends to the later trajectory's first record, so
  // the dead-end is inside the checked prefix. (For a singleton the MCP is
  // just its first record — the rest is checked as the clique grows.)
  Trajectory t1("t1", {{a, 0}});
  Trajectory t2("t2", {{dead, 10}});
  const Trajectory* group[] = {&t1, &t2};
  EXPECT_FALSE(pred.Pck(group));
  Trajectory single("s", {{a, 0}, {dead, 10}});
  const Trajectory* singleton[] = {&single};
  EXPECT_TRUE(pred.Pck(singleton));  // MCP = first record only
}

TEST_F(RunningExampleFixture, PckRejectsTimestampTiesInPrefix) {
  Trajectory a("a", {{0, 0}});
  Trajectory b("b", {{1, 0}});
  const Trajectory* group[] = {&a, &b};
  EXPECT_FALSE(pred_.Pck(group));
}

// The predicates also behave on a larger planar road network.
TEST(GridPredicatesTest, CexAndJnbOnGridNetwork) {
  TransitionGraph g = MakeGridNetwork(3, 4);
  PredicateEvaluator pred(g, /*theta=*/7, /*eta=*/2000);
  // A west-to-east traversal split into two fragments.
  LocationId x0y0 = *g.FindLocation("x0y0");
  LocationId x0y1 = *g.FindLocation("x0y1");
  LocationId x0y2 = *g.FindLocation("x0y2");
  LocationId x0y3 = *g.FindLocation("x0y3");
  Trajectory front("f", {{x0y0, 0}, {x0y1, 100}});
  Trajectory back("b", {{x0y2, 200}, {x0y3, 300}});
  EXPECT_TRUE(pred.Cex(front, back));
  const Trajectory* pair[] = {&front, &back};
  EXPECT_TRUE(pred.Jnb(pair));
  // Going backwards (east to west) is impossible on this one-way grid.
  Trajectory reversed("r", {{x0y3, 0}, {x0y2, 100}});
  EXPECT_FALSE(pred.InternallyFeasible(reversed));
}

TEST(GridPredicatesTest, CrossRowFragmentsRequireAConnectingPath) {
  TransitionGraph g = MakeGridNetwork(3, 4);
  PredicateEvaluator pred(g, 7, 2000);
  // Row 2 cannot reach row 0 (only downward edges exist).
  Trajectory low("l", {{*g.FindLocation("x2y0"), 0}});
  Trajectory high("h", {{*g.FindLocation("x0y1"), 100}});
  EXPECT_FALSE(pred.Cex(low, high));
  // The reverse temporal order works: row 0 reaches row 2 going down.
  Trajectory high_first("hf", {{*g.FindLocation("x0y0"), 0}});
  Trajectory low_later("ll", {{*g.FindLocation("x2y1"), 300}});
  EXPECT_TRUE(pred.Cex(high_first, low_later));
}

// pck is necessary for jnb: every joinable subset passes pck.
TEST_F(RunningExampleFixture, PckIsNecessaryForJnb) {
  const Trajectory* groups[][2] = {
      {&T1(), &T2()}, {&T2(), &T3()}, {&T1(), &T3()}};
  for (auto& g : groups) {
    std::span<const Trajectory* const> span(g, 2);
    if (pred_.Jnb(span)) {
      EXPECT_TRUE(pred_.Pck(span));
    }
  }
}

}  // namespace
}  // namespace idrepair
