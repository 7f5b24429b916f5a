// Randomized robustness tests: throw structurally messy inputs at the whole
// pipeline and check the invariants that must hold regardless of data —
// no crashes, record conservation, compatibility, validity of applied
// joins, and optimization-independence of results.

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "fault/failpoint.h"
#include "gen/scenario_catalog.h"
#include "gen/synthetic.h"
#include "graph/generators.h"
#include "repair/repairer.h"
#include "test_util.h"

namespace idrepair {
namespace {

// Completely unstructured records: random locations, timestamps (with
// collisions), and short IDs (with collisions). Nothing here resembles a
// valid trajectory; the pipeline must cope gracefully.
std::vector<TrackingRecord> RandomChaosRecords(Rng& rng, size_t n,
                                               size_t num_locations) {
  std::vector<TrackingRecord> records;
  records.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    std::string id(1 + rng.UniformIndex(3), 'a');
    for (char& c : id) c = static_cast<char>('a' + rng.UniformIndex(4));
    records.push_back(TrackingRecord{
        std::move(id),
        static_cast<LocationId>(rng.UniformIndex(num_locations)),
        static_cast<Timestamp>(rng.UniformIndex(500))});
  }
  return records;
}

class ChaosFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ChaosFuzzTest, PipelineSurvivesUnstructuredInput) {
  Rng rng(GetParam());
  TransitionGraph graph = MakePaperExampleGraph();
  auto records = RandomChaosRecords(rng, 120, graph.num_locations());
  TrajectorySet set = TrajectorySet::FromRecords(records);

  RepairOptions options;
  options.theta = 5;
  options.eta = 300;
  IdRepairer repairer(graph, options);
  auto result = repairer.Repair(set);
  ASSERT_TRUE(result.ok());

  // Conservation.
  EXPECT_EQ(result->repaired.total_records(), set.total_records());
  // Compatibility.
  std::set<TrajIndex> used;
  for (RepairIndex r : result->selected) {
    for (TrajIndex m : result->candidates.members(r)) {
      EXPECT_TRUE(used.insert(m).second);
    }
  }
  // Selected joins are valid.
  auto idx = result->repaired.BuildIdIndex();
  for (RepairIndex r : result->selected) {
    auto it = idx.find(result->candidates.target_id(r));
    ASSERT_NE(it, idx.end());
    EXPECT_TRUE(result->repaired.at(it->second).IsValid(graph));
  }
}

TEST_P(ChaosFuzzTest, OptimizationsNeverChangeTheAnswer) {
  Rng rng(GetParam() ^ 0xabcdef);
  TransitionGraph graph = MakeRealLikeGraph();
  auto records = RandomChaosRecords(rng, 80, graph.num_locations());
  TrajectorySet set = TrajectorySet::FromRecords(records);

  RepairOptions options;
  options.theta = 4;
  options.eta = 200;
  std::vector<std::unordered_map<TrajIndex, std::string>> rewrites;
  for (bool lig : {true, false}) {
    for (bool mcp : {true, false}) {
      RepairOptions o = options;
      o.use_lig = lig;
      o.use_mcp_pruning = mcp;
      IdRepairer repairer(graph, o);
      auto result = repairer.Repair(set);
      ASSERT_TRUE(result.ok());
      rewrites.push_back(result->rewrites);
    }
  }
  for (size_t i = 1; i < rewrites.size(); ++i) {
    EXPECT_EQ(rewrites[i], rewrites[0]) << "config " << i;
  }
}

TEST_P(ChaosFuzzTest, SelectorsAlwaysReturnCompatibleSets) {
  Rng rng(GetParam() ^ 0x5555);
  TransitionGraph graph = MakeRealLikeGraph();
  auto records = RandomChaosRecords(rng, 60, graph.num_locations());
  TrajectorySet set = TrajectorySet::FromRecords(records);
  RepairOptions options;
  options.theta = 4;
  options.eta = 200;
  for (auto alg : {SelectionAlgorithm::kEmax, SelectionAlgorithm::kDmin,
                   SelectionAlgorithm::kDmax, SelectionAlgorithm::kExact}) {
    RepairOptions o = options;
    o.selection = alg;
    IdRepairer repairer(graph, o);
    auto result = repairer.Repair(set);
    ASSERT_TRUE(result.ok());
    std::set<TrajIndex> used;
    for (RepairIndex r : result->selected) {
      for (TrajIndex m : result->candidates.members(r)) {
        EXPECT_TRUE(used.insert(m).second) << "selector " << (int)alg;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChaosFuzzTest,
                         ::testing::Range<uint64_t>(1, 21));

// Chaos input through every engine at every thread count: no crash, record
// conservation, and — the parallel-engine contract — output independent of
// the thread count. Tiny grains force real sharding even on small inputs.
class EngineChaosTest
    : public ::testing::TestWithParam<std::tuple<std::string, uint64_t>> {};

TEST_P(EngineChaosTest, ThreadCountNeverChangesTheAnswer) {
  const auto& [engine_name, seed] = GetParam();
  Rng rng(seed ^ 0xfeed);
  TransitionGraph graph = MakeRealLikeGraph();
  auto records = RandomChaosRecords(rng, 100, graph.num_locations());
  TrajectorySet set = TrajectorySet::FromRecords(records);

  std::vector<std::unordered_map<TrajIndex, std::string>> rewrites;
  std::vector<size_t> selected_counts;
  for (int threads : {1, 2, 8}) {
    RepairOptions options;
    options.theta = 5;
    options.eta = 300;
    options.exec.num_threads = threads;
    options.exec.min_partition_grain = 8;
    options.exec.min_candidate_grain = 2;
    auto engine = testutil::MakeEngineByName(engine_name, graph, options);
    ASSERT_NE(engine, nullptr) << engine_name;
    auto result = engine->Repair(set);
    ASSERT_TRUE(result.ok()) << engine_name << " @" << threads << " threads: "
                             << result.status();
    EXPECT_EQ(result->repaired.total_records(), set.total_records())
        << engine_name << " @" << threads << " threads";
    rewrites.push_back(result->rewrites);
    selected_counts.push_back(result->selected.size());
  }
  for (size_t i = 1; i < rewrites.size(); ++i) {
    EXPECT_EQ(rewrites[i], rewrites[0])
        << engine_name << ": thread count changed the rewrites";
    EXPECT_EQ(selected_counts[i], selected_counts[0])
        << engine_name << ": thread count changed the selection";
  }
}

INSTANTIATE_TEST_SUITE_P(
    EnginesAndSeeds, EngineChaosTest,
    ::testing::Combine(::testing::Values("core", "streaming", "idsim",
                                         "neighborhood"),
                       ::testing::Range<uint64_t>(1, 6)),
    [](const ::testing::TestParamInfo<EngineChaosTest::ParamType>& info) {
      return std::get<0>(info.param) + "_seed" +
             std::to_string(std::get<1>(info.param));
    });

// The same thread-count contract on an adversarial catalog workload:
// near-miss corruptions (gen/scenario_catalog.h, light variant) collide
// with other live entities, so the candidate landscape is full of
// contested, near-tied repairs — exactly where a schedule-dependent
// tie-break would first surface. Tiny grains force real sharding.
TEST(EngineChaosCatalogTest, NearMissScenarioIsThreadCountInvariant) {
  auto entry = FindScenario("grid_near_miss", /*light=*/true);
  ASSERT_TRUE(entry.ok()) << entry.status();
  auto ds = BuildScenarioDataset(*entry);
  ASSERT_TRUE(ds.ok()) << ds.status();
  TrajectorySet set = ds->BuildObservedTrajectories();

  for (std::string_view engine_name : testutil::AllEngineNames()) {
    std::vector<std::unordered_map<TrajIndex, std::string>> rewrites;
    for (int threads : {1, 2, 8}) {
      RepairOptions options;
      options.theta = entry->theta;
      options.eta = entry->eta;
      options.exec.num_threads = threads;
      options.exec.min_partition_grain = 8;
      options.exec.min_candidate_grain = 2;
      auto engine = testutil::MakeEngineByName(engine_name, ds->graph, options);
      ASSERT_NE(engine, nullptr) << engine_name;
      auto result = engine->Repair(set);
      ASSERT_TRUE(result.ok()) << engine_name << " @" << threads
                               << " threads: " << result.status();
      EXPECT_EQ(result->repaired.total_records(), set.total_records())
          << engine_name << " @" << threads << " threads";
      rewrites.push_back(result->rewrites);
    }
    for (size_t i = 1; i < rewrites.size(); ++i) {
      EXPECT_EQ(rewrites[i], rewrites[0])
          << engine_name << ": thread count changed the rewrites";
    }
  }
}

// Streaming chaos arm: random Append/Poll/Finish interleavings with the
// stream.append and stream.poll failpoints armed probabilistically. The
// engine must only ever fail with a clean, documented status (the injected
// code, or ResourceExhausted from bounded-buffer backpressure), conserve
// every accepted record through to emission, and — once the chaos is
// disarmed — serve a clean replay on the *same* engine object that is
// byte-identical to a fresh engine's, proving Finish() leaves no residue.
TEST_P(ChaosFuzzTest, StreamingInterleavingsSurviveFaults) {
  TransitionGraph graph = MakeRealLikeGraph();
  SyntheticConfig config;
  config.num_trajectories = 50;
  config.max_path_len = 4;
  config.seed = GetParam() ^ 0x515;
  auto ds = GenerateSyntheticDataset(graph, config);
  ASSERT_TRUE(ds.ok());
  auto records = ds->ObservedRecords();
  std::sort(records.begin(), records.end(),
            [](const TrackingRecord& a, const TrackingRecord& b) {
              return std::tie(a.ts, a.id, a.loc) <
                     std::tie(b.ts, b.id, b.loc);
            });
  ASSERT_FALSE(records.empty());

  fault::FailPointRegistry::Global().DisarmAll();
  fault::FaultSpec flaky;
  flaky.one_in = 4;
  flaky.seed = GetParam();
  ASSERT_TRUE(
      fault::FailPointRegistry::Global().Arm("stream.append", flaky).ok());
  ASSERT_TRUE(
      fault::FailPointRegistry::Global().Arm("stream.poll", flaky).ok());

  RepairOptions options;
  options.theta = 4;
  options.eta = 600;
  StreamOptions stream_options;
  stream_options.flush_horizon_multiplier = 1.0;
  stream_options.max_buffered = 32;
  StreamingRepairer stream(graph, options, stream_options);

  Rng rng(GetParam() ^ 0xfeed);
  size_t accepted = 0;
  size_t emitted = 0;
  size_t next = 0;
  while (next < records.size()) {
    size_t roll = rng.UniformIndex(10);
    if (roll < 7) {
      Status appended = stream.Append(records[next]);
      if (appended.ok()) {
        ++accepted;
        ++next;
      } else {
        EXPECT_TRUE(appended.code() == StatusCode::kInternal ||
                    appended.code() == StatusCode::kResourceExhausted)
            << appended;
        if (appended.code() == StatusCode::kResourceExhausted) {
          // Drain and move on; a faulted poll may free nothing, so fall
          // back to a full Finish() when the buffer stays full.
          for (const auto& t : stream.Poll()) emitted += t.size();
          if (stream.pending_records() >= stream_options.max_buffered) {
            for (const auto& t : stream.Finish()) emitted += t.size();
          }
        }
      }
    } else if (roll < 9) {
      for (const auto& t : stream.Poll()) emitted += t.size();
    } else {
      for (const auto& t : stream.Finish()) emitted += t.size();
    }
  }
  for (const auto& t : stream.Finish()) emitted += t.size();
  fault::FailPointRegistry::Global().DisarmAll();
  EXPECT_EQ(emitted, accepted) << "accepted records leaked or duplicated";
  EXPECT_EQ(stream.pending_records(), 0u);

  // No-residue rerun: replay the dataset (time-shifted past the surviving
  // watermark) through the battered engine and a fresh one — outputs must
  // be byte-identical.
  const Timestamp offset = records.back().ts + 10000;
  StreamingRepairer fresh(graph, options, stream_options);
  auto drive = [&](StreamingRepairer& engine, std::vector<Trajectory>* out) {
    for (const auto& r : records) {
      TrackingRecord shifted{r.id, r.loc, r.ts + offset};
      Status appended = engine.Append(shifted);
      if (!appended.ok()) {
        ASSERT_EQ(appended.code(), StatusCode::kResourceExhausted)
            << appended;
        auto drained = engine.Poll();
        out->insert(out->end(), drained.begin(), drained.end());
        if (engine.pending_records() >= stream_options.max_buffered) {
          auto flushed = engine.Finish();
          out->insert(out->end(), flushed.begin(), flushed.end());
        }
        appended = engine.Append(shifted);
        ASSERT_TRUE(appended.ok()) << appended;
      }
    }
    auto tail = engine.Finish();
    out->insert(out->end(), tail.begin(), tail.end());
  };
  std::vector<Trajectory> reused_out;
  std::vector<Trajectory> fresh_out;
  drive(stream, &reused_out);
  drive(fresh, &fresh_out);
  ASSERT_EQ(reused_out.size(), fresh_out.size());
  for (size_t i = 0; i < reused_out.size(); ++i) {
    EXPECT_EQ(reused_out[i].id(), fresh_out[i].id()) << "trajectory " << i;
    ASSERT_EQ(reused_out[i].size(), fresh_out[i].size());
    for (size_t j = 0; j < reused_out[i].size(); ++j) {
      EXPECT_EQ(reused_out[i].points()[j].loc, fresh_out[i].points()[j].loc);
      EXPECT_EQ(reused_out[i].points()[j].ts, fresh_out[i].points()[j].ts);
    }
  }
}

// Structured-but-degenerate datasets: extreme parameter corners.
struct Corner {
  const char* name;
  size_t theta;
  Timestamp eta;
  size_t zeta;
};

class CornerTest : public ::testing::TestWithParam<Corner> {};

TEST_P(CornerTest, DegenerateBoundsNeverCrash) {
  const Corner& corner = GetParam();
  TransitionGraph graph = MakeRealLikeGraph();
  SyntheticConfig config;
  config.num_trajectories = 60;
  config.max_path_len = 4;
  config.seed = 77;
  auto ds = GenerateSyntheticDataset(graph, config);
  ASSERT_TRUE(ds.ok());
  TrajectorySet set = ds->BuildObservedTrajectories();
  RepairOptions options;
  options.theta = corner.theta;
  options.eta = corner.eta;
  options.zeta = corner.zeta;
  IdRepairer repairer(graph, options);
  auto result = repairer.Repair(set);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->repaired.total_records(), set.total_records());
}

INSTANTIATE_TEST_SUITE_P(
    Corners, CornerTest,
    ::testing::Values(Corner{"theta1", 1, 600, 4},
                      Corner{"eta0", 4, 0, 4},
                      Corner{"zeta1", 4, 600, 1},
                      Corner{"huge_theta", 100, 600, 4},
                      Corner{"huge_eta", 4, 1000000, 4},
                      Corner{"all_tight", 1, 0, 1},
                      Corner{"wide_open", 16, 100000, 5}),
    [](const ::testing::TestParamInfo<Corner>& info) {
      return info.param.name;
    });

}  // namespace
}  // namespace idrepair
