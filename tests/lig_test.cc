#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <tuple>

#include "common/rng.h"
#include "gen/real_like.h"
#include "gen/synthetic.h"
#include "graph/generators.h"
#include "lig/length_indexed_grids.h"

namespace idrepair {
namespace {

TrajectorySet MakeSmallSet() {
  // Lengths 1..3, assorted start/end times.
  std::vector<TrackingRecord> records = {
      {"t1", 0, 0},    {"t1", 1, 100},  {"t1", 2, 200},  // len 3, [0,200]
      {"t2", 0, 150},                                    // len 1, [150,150]
      {"t3", 1, 400},  {"t3", 2, 500},                   // len 2, [400,500]
      {"t4", 0, 5000},                                   // len 1, far future
  };
  return TrajectorySet::FromRecords(records);
}

LengthIndexedGrids::Options SmallOptions() {
  LengthIndexedGrids::Options o;
  o.theta = 4;
  o.eta = 600;
  o.time_bin = 60;
  return o;
}

std::set<TrajIndex> Candidates(const LengthIndexedGrids& lig, TrajIndex k) {
  std::vector<TrajIndex> out;
  lig.CollectCandidates(k, &out);
  return {out.begin(), out.end()};
}

TEST(LigTest, IndexesAllEligibleTrajectories) {
  TrajectorySet set = MakeSmallSet();
  LengthIndexedGrids lig(set, SmallOptions());
  EXPECT_EQ(lig.num_indexed(), 4u);
}

TEST(LigTest, ExcludesSelf) {
  TrajectorySet set = MakeSmallSet();
  LengthIndexedGrids lig(set, SmallOptions());
  for (TrajIndex k = 0; k < set.size(); ++k) {
    EXPECT_EQ(Candidates(lig, k).count(k), 0u);
  }
}

TEST(LigTest, TimeWindowExcludesFarFutureTrajectory) {
  TrajectorySet set = MakeSmallSet();
  LengthIndexedGrids lig(set, SmallOptions());
  // t4 starts at 5000, far outside every other trajectory's η-window.
  auto idx = set.BuildIdIndex();
  TrajIndex t1 = idx.at("t1");
  TrajIndex t4 = idx.at("t4");
  EXPECT_EQ(Candidates(lig, t1).count(t4), 0u);
  EXPECT_EQ(Candidates(lig, t4).count(t1), 0u);
}

TEST(LigTest, LengthCriterionFiltersCandidates) {
  TrajectorySet set = MakeSmallSet();
  auto idx = set.BuildIdIndex();
  LengthIndexedGrids::Options o = SmallOptions();
  o.theta = 4;
  LengthIndexedGrids lig(set, o);
  // Probe t1 (len 3): only candidates of length <= 1 qualify.
  auto c = Candidates(lig, idx.at("t1"));
  EXPECT_EQ(c.count(idx.at("t3")), 0u);  // len 2: 3+2 > θ
  EXPECT_EQ(c.count(idx.at("t2")), 1u);  // len 1, inside window
}

TEST(LigTest, ProbeAtThetaHasNoCandidates) {
  TrajectorySet set = MakeSmallSet();
  auto idx = set.BuildIdIndex();
  LengthIndexedGrids::Options o = SmallOptions();
  o.theta = 3;
  LengthIndexedGrids lig(set, o);
  EXPECT_TRUE(Candidates(lig, idx.at("t1")).empty());  // len 3 == θ
}

TEST(LigTest, OverlongSpanTrajectoriesAreNotIndexed) {
  std::vector<TrackingRecord> records = {
      {"slow", 0, 0}, {"slow", 1, 10000},  // span 10000 > η
      {"ok", 0, 100},
  };
  TrajectorySet set = TrajectorySet::FromRecords(records);
  LengthIndexedGrids lig(set, SmallOptions());
  EXPECT_EQ(lig.num_indexed(), 1u);
}

// The key correctness property (what makes Fig 14(a) a fair comparison):
// the index never loses a pair that the exhaustive method would test
// successfully.
TEST(LigTest, NeverMissesAFeasiblePair) {
  auto ds = MakeScaledRealLikeDataset(300);
  ASSERT_TRUE(ds.ok());
  TrajectorySet set = ds->BuildObservedTrajectories();
  LengthIndexedGrids::Options o;
  o.theta = 4;
  o.eta = 600;
  o.time_bin = 60;
  LengthIndexedGrids lig(set, o);
  for (TrajIndex i = 0; i < set.size(); ++i) {
    auto candidates = Candidates(lig, i);
    for (TrajIndex j = 0; j < set.size(); ++j) {
      if (i == j) continue;
      const Trajectory& a = set.at(i);
      const Trajectory& b = set.at(j);
      // The exact §5.1 criteria.
      bool feasible =
          a.size() + b.size() <= o.theta && b.TimeSpan() <= o.eta &&
          b.start_time() >= a.end_time() - o.eta &&
          b.start_time() <= a.start_time() + o.eta &&
          b.end_time() >= a.end_time() - o.eta &&
          b.end_time() <= a.start_time() + o.eta;
      if (feasible) {
        EXPECT_EQ(candidates.count(j), 1u)
            << "missed pair " << i << "," << j;
      }
    }
  }
}

TEST(LigTest, CandidateCountIsMuchSmallerThanAllPairs) {
  auto ds = MakeScaledRealLikeDataset(2000);
  ASSERT_TRUE(ds.ok());
  TrajectorySet set = ds->BuildObservedTrajectories();
  LengthIndexedGrids::Options o;
  o.theta = 4;
  o.eta = 600;
  o.time_bin = 60;
  LengthIndexedGrids lig(set, o);
  size_t total = 0;
  std::vector<TrajIndex> out;
  for (TrajIndex i = 0; i < set.size(); ++i) {
    out.clear();
    lig.CollectCandidates(i, &out);
    total += out.size();
  }
  size_t all_pairs = set.size() * (set.size() - 1);
  EXPECT_LT(total, all_pairs / 4) << "index prunes too little";
}

TEST(LigTest, EmptyOutputForSingletonSet) {
  std::vector<TrackingRecord> records = {{"only", 0, 10}};
  TrajectorySet set = TrajectorySet::FromRecords(records);
  LengthIndexedGrids lig(set, SmallOptions());
  EXPECT_TRUE(Candidates(lig, 0).empty());
}

// ---- Incremental maintenance (Insert/Remove, dynamic representation) ----
//
// The streaming engine leans on two fixed points: removing and re-inserting
// every member of a built index reproduces its serialized state bit for
// bit, and a dynamic index fed one member at a time linearizes to exactly
// the CSR a from-scratch build produces. ToParts() is the canonical
// comparison surface (it is also what snapshots persist).

void ExpectSameParts(const LengthIndexedGrids::Parts& got,
                     const LengthIndexedGrids::Parts& want) {
  EXPECT_EQ(got.base_time, want.base_time);
  EXPECT_EQ(got.num_bins, want.num_bins);
  EXPECT_EQ(got.band, want.band);
  EXPECT_EQ(got.num_indexed, want.num_indexed);
  EXPECT_EQ(got.cell_offsets, want.cell_offsets);
  EXPECT_EQ(got.cell_entries, want.cell_entries);
}

/// A set that walks the indexability boundaries of SmallOptions (θ=4,
/// η=600, tb=60): lengths exactly at and beyond θ, spans exactly at and
/// beyond η, and a start landing exactly on a time-bin edge.
TrajectorySet MakeBoundarySet() {
  std::vector<TrackingRecord> records = {
      // len 4 == θ: indexed (a from-scratch build keeps it, so the
      // incremental ops must agree), though no probe can pair with it.
      {"at_theta", 0, 0},
      {"at_theta", 1, 100},
      {"at_theta", 2, 200},
      {"at_theta", 3, 300},
      // len 5 > θ: never indexed.
      {"over_theta", 0, 10},
      {"over_theta", 1, 110},
      {"over_theta", 2, 210},
      {"over_theta", 3, 310},
      {"over_theta", 4, 410},
      // span exactly η: indexed.
      {"at_eta", 0, 20},
      {"at_eta", 1, 620},
      // span η+1: never indexed.
      {"over_eta", 0, 30},
      {"over_eta", 1, 631},
      // start exactly on a bin boundary (600 = 10·tb).
      {"bin_edge", 2, 600},
  };
  return TrajectorySet::FromRecords(records);
}

TEST(LigTest, RemoveInsertRoundTripIsFixedPoint) {
  for (bool boundary : {false, true}) {
    SCOPED_TRACE(boundary ? "boundary set" : "small set");
    TrajectorySet set = boundary ? MakeBoundarySet() : MakeSmallSet();
    LengthIndexedGrids lig(set, SmallOptions());
    LengthIndexedGrids::Parts before = lig.ToParts();
    for (TrajIndex i = 0; i < set.size(); ++i) {
      // Remove and Insert agree, member by member, on what a from-scratch
      // build would index; a round trip restores the exact entry layout.
      bool removed = lig.Remove(i);
      EXPECT_EQ(lig.Insert(i), removed) << "trajectory " << i;
    }
    ExpectSameParts(lig.ToParts(), before);
  }
}

TEST(LigTest, DynamicBuildMatchesConstructorBuild) {
  TrajectorySet set = MakeSmallSet();
  LengthIndexedGrids built(set, SmallOptions());

  LengthIndexedGrids dynamic = LengthIndexedGrids::Dynamic(SmallOptions(), 0);
  // Insertion order must not matter: feed spans newest-first.
  for (TrajIndex i = set.size(); i-- > 0;) {
    const Trajectory& t = set.at(i);
    EXPECT_TRUE(dynamic.InsertSpan(i, t.size(), t.start_time(), t.end_time()));
  }
  ExpectSameParts(dynamic.ToParts(), built.ToParts());
}

TEST(LigTest, DuplicateInsertAndAbsentRemoveAreRejected) {
  TrajectorySet set = MakeSmallSet();
  LengthIndexedGrids lig(set, SmallOptions());
  EXPECT_FALSE(lig.Insert(0));  // already present from the build
  ASSERT_TRUE(lig.Remove(0));
  EXPECT_FALSE(lig.Remove(0));  // already gone
  ASSERT_TRUE(lig.Insert(0));
  EXPECT_EQ(lig.num_indexed(), set.size());
}

TEST(LigTest, BoundarySpansIndexAndProbeConsistently) {
  TrajectorySet set = MakeBoundarySet();
  LengthIndexedGrids lig(set, SmallOptions());
  auto idx = set.BuildIdIndex();
  // Unindexable members reject both Remove (absent) and re-Insert.
  for (const char* id : {"over_theta", "over_eta"}) {
    SCOPED_TRACE(id);
    EXPECT_FALSE(lig.Remove(idx.at(id)));
    EXPECT_FALSE(lig.Insert(idx.at(id)));
  }
  // A span probe at the η boundary still sees the boundary entries: probe
  // as a length-1 fragment starting where "bin_edge" does.
  std::vector<TrajIndex> out;
  lig.CollectCandidatesSpan(1, 600, 600, &out);
  std::set<TrajIndex> got(out.begin(), out.end());
  EXPECT_EQ(got.count(idx.at("at_eta")), 1u);
  // Indexed at length θ, but a join with any probe would exceed θ records —
  // the grid's length criterion excludes it from every probe's answer.
  EXPECT_EQ(got.count(idx.at("at_theta")), 0u);
  // Span probes do not self-exclude: the indexed bin_edge entry appears in
  // its own geometry's answer (streaming callers de-index first).
  EXPECT_EQ(got.count(idx.at("bin_edge")), 1u);
}

// ---- Probe equivalence: CSR and dynamic forms against brute force ----
//
// CollectCandidatesSpan reads contiguous cell runs in CSR form and one map
// seek per length in dynamic form. Both must return exactly the documented
// answer: every indexed member whose length fits beside the probe and whose
// start and end bins lie in the probe's bin window, ordered by
// (len, sbin, off, index).

/// Time bin of `t`, clamped to bin 0 before the base time (the probe's
/// documented window clamp).
size_t BinOf(Timestamp t, Timestamp base, Timestamp tb) {
  return t < base ? 0 : static_cast<size_t>((t - base) / tb);
}

std::vector<TrajIndex> ReferenceProbe(const TrajectorySet& set,
                                      const LengthIndexedGrids::Options& o,
                                      Timestamp base, size_t length,
                                      Timestamp start, Timestamp end) {
  std::vector<TrajIndex> out;
  if (length == 0 || length >= o.theta) return out;
  Timestamp window_lo = end - o.eta;
  Timestamp window_hi = start + o.eta;
  if (window_lo > window_hi) return out;
  size_t lo_bin = BinOf(window_lo, base, o.time_bin);
  size_t hi_bin = BinOf(window_hi, base, o.time_bin);
  std::vector<std::tuple<size_t, size_t, size_t, TrajIndex>> keyed;
  for (TrajIndex i = 0; i < set.size(); ++i) {
    const Trajectory& t = set.at(i);
    // Indexed members: nonempty, at most θ records, span at most η.
    if (t.empty() || t.size() > o.theta || t.TimeSpan() > o.eta) continue;
    if (t.size() > o.theta - length) continue;
    size_t sbin = BinOf(t.start_time(), base, o.time_bin);
    size_t ebin = BinOf(t.end_time(), base, o.time_bin);
    if (sbin < lo_bin || ebin > hi_bin) continue;
    keyed.emplace_back(t.size(), sbin, ebin - sbin, i);
  }
  std::sort(keyed.begin(), keyed.end());
  for (const auto& key : keyed) out.push_back(std::get<3>(key));
  return out;
}

/// Seeded random members over [base, base + window): lengths 1..θ+1 (some
/// unindexable), timestamps on a 10 s grid so spans regularly start and end
/// on bin edges, and step sizes that sometimes push the span past η.
TrajectorySet MakeRandomSet(uint64_t seed, size_t n, size_t theta,
                            Timestamp eta, Timestamp base, Timestamp window) {
  Rng rng(seed);
  std::vector<Trajectory> trajectories;
  for (size_t k = 0; k < n; ++k) {
    size_t len = static_cast<size_t>(rng.UniformInt(1, theta + 1));
    Timestamp ts = base + 10 * rng.UniformInt(0, window / 10);
    std::vector<TrajectoryPoint> points;
    for (size_t p = 0; p < len; ++p) {
      points.push_back({static_cast<LocationId>(rng.UniformInt(0, 9)), ts});
      ts += 10 * rng.UniformInt(1, eta / (5 * static_cast<Timestamp>(theta)));
    }
    trajectories.emplace_back(std::to_string(k), std::move(points));
  }
  return TrajectorySet(std::move(trajectories));
}

TEST(LigTest, ProbesMatchBruteForceInBothForms) {
  struct Case {
    const char* name;
    TrajectorySet set;
    LengthIndexedGrids::Options options;
  };
  LengthIndexedGrids::Options city;  // the city workloads' knobs
  city.theta = 8;
  city.eta = 2400;
  city.time_bin = 60;
  LengthIndexedGrids::Options odd_bin = SmallOptions();
  odd_bin.time_bin = 70;  // η is not a whole number of bins
  std::vector<Case> cases;
  cases.push_back({"boundary", MakeBoundarySet(), SmallOptions()});
  cases.push_back({"small", MakeRandomSet(1, 300, 4, 600, 1000, 20000),
                   SmallOptions()});
  cases.push_back({"odd_bin", MakeRandomSet(2, 300, 4, 600, 0, 20000),
                   odd_bin});
  cases.push_back({"city", MakeRandomSet(3, 400, 8, 2400, 500, 40000), city});
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    const LengthIndexedGrids::Options& o = c.options;
    LengthIndexedGrids csr(c.set, o);
    Timestamp base = csr.ToParts().base_time;
    Timestamp last_end = base;
    LengthIndexedGrids dynamic = LengthIndexedGrids::Dynamic(o, base);
    for (TrajIndex i = c.set.size(); i-- > 0;) {  // newest-first
      const Trajectory& t = c.set.at(i);
      dynamic.InsertSpan(i, t.size(), t.start_time(), t.end_time());
      last_end = std::max(last_end, t.end_time());
    }
    ASSERT_EQ(dynamic.num_indexed(), csr.num_indexed());

    // Probe geometries: every member's own, then crafted ones.
    std::vector<std::tuple<size_t, Timestamp, Timestamp>> probes;
    for (const Trajectory& t : c.set.trajectories()) {
      probes.emplace_back(t.size(), t.start_time(), t.end_time());
    }
    Timestamp tb = o.time_bin;
    for (size_t len = 1; len < o.theta; ++len) {  // includes θ−1
      // Window starting before base_time.
      probes.emplace_back(len, base, base + tb / 2);
      probes.emplace_back(len, base - o.eta, base);
      // hi_bin clipped at num_bins−1.
      probes.emplace_back(len, last_end, last_end);
      probes.emplace_back(len, last_end - tb, last_end + 3 * o.eta);
      // Spans ending exactly on a bin edge, and one second either side.
      for (Timestamp edge : {base + 10 * tb, base + 25 * tb}) {
        for (Timestamp e : {edge - 1, edge, edge + 1}) {
          probes.emplace_back(len, e - 2 * tb, e);
          probes.emplace_back(len, e, e);
        }
      }
    }
    size_t nonempty = 0;
    for (const auto& [len, start, end] : probes) {
      std::vector<TrajIndex> want =
          ReferenceProbe(c.set, o, base, len, start, end);
      std::vector<TrajIndex> got_csr;
      csr.CollectCandidatesSpan(len, start, end, &got_csr);
      std::vector<TrajIndex> got_dyn;
      dynamic.CollectCandidatesSpan(len, start, end, &got_dyn);
      EXPECT_EQ(got_csr, want) << "csr probe len=" << len << " [" << start
                               << ", " << end << "]";
      EXPECT_EQ(got_dyn, want) << "dynamic probe len=" << len << " ["
                               << start << ", " << end << "]";
      if (!want.empty()) ++nonempty;
    }
    EXPECT_GT(nonempty, probes.size() / 4) << "probes must see entries";
  }
}

}  // namespace
}  // namespace idrepair
