// Chaos/soak correctness harness (the fault-injection counterpart of
// differential_test.cc): seeded synthetic datasets run through all four
// engines across a fault × thread-count × graph-shape matrix. Invariants:
//
//  * armed-but-silent failpoints and delay-only chaos leave every engine's
//    output byte-identical to the never-armed run;
//  * an injected error surfaces as a clean non-OK Result (with the injected
//    code) and leaves no residue — the rerun after disarming is again
//    byte-identical;
//  * deadline expiry (forced via fault.deadline.expire) degrades to a
//    well-formed partial RepairResult that conserves records and carries
//    the DeadlineExceeded completion marker;
//  * the attempted-vs-completed obs counters account for every run.
//
// The soak sweep at the bottom reads IDREPAIR_CHAOS_SEED_BASE /
// IDREPAIR_CHAOS_ROUNDS so scripts/soak.sh can stretch it overnight under
// ASan/TSan without code changes.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "eval/metrics.h"
#include "fault/deadline.h"
#include "fault/failpoint.h"
#include "gen/scenario_catalog.h"
#include "gen/synthetic.h"
#include "graph/generators.h"
#include "graph/serialization.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "server/client.h"
#include "server/server.h"
#include "test_util.h"

namespace idrepair {
namespace {

using testutil::AllEngineNames;
using testutil::MakeEngineByName;

// Sites injected on each engine's Repair() path, used to drive the
// error/alloc/cancel matrix. The baselines are deliberately absent: they
// carry obs counters but no failpoints, and the byte-identity tests verify
// chaos armed elsewhere never perturbs them.
const std::map<std::string, std::vector<std::string>>& ErrorSitesByEngine() {
  static const std::map<std::string, std::vector<std::string>> kSites = {
      {"core", {"repair.generation.shard", "repair.selection.shard",
                "repair.selection.commit"}},
      {"streaming", {"stream.append"}},
  };
  return kSites;
}

// Every failpoint the production code evaluates (src/fault/README.md).
const std::vector<std::string>& AllSites() {
  static const std::vector<std::string> kSites = {
      "exec.pool.dispatch",      "exec.pool.steal",
      "exec.task_group.run",     "repair.generation.shard",
      "repair.selection.shard",  "repair.selection.commit",
      "stream.append",           "stream.poll",
      "stream.finish",           "io.csv.read",
      "io.csv.write",            "io.graph.load",
      "io.graph.save",           "io.snapshot.save",
      "io.snapshot.load",        "bench.report.write",
      "eval.metrics.fragment_truth",
      "eval.metrics.evaluate",
      "eval.diagnostics.diagnose",
      fault::kDeadlineExpireSite,
  };
  return kSites;
}

struct Scenario {
  std::string name;
  TransitionGraph graph;
  TrajectorySet set;
  RepairOptions options;
};

// Two graph shapes × one error rate keeps the full matrix (scenario ×
// engine × threads × fault) inside a tier-1 time budget; the soak sweep
// rotates seeds on top.
std::vector<Scenario> MakeScenarios(uint64_t seed_base = 9000) {
  struct Shape {
    const char* name;
    TransitionGraph graph;
    size_t theta;
    int64_t travel_lo, travel_hi;
  };
  std::vector<Shape> shapes;
  shapes.push_back({"paper", MakePaperExampleGraph(), 5, 60, 180});
  shapes.push_back({"grid", MakeGridNetwork(3, 4), 6, 30, 90});

  std::vector<Scenario> scenarios;
  uint64_t seed = seed_base;
  for (auto& shape : shapes) {
    SyntheticConfig config;
    config.num_trajectories = 100;
    config.record_error_rate = 0.2;
    config.max_path_len = shape.theta;
    config.window_seconds = 3600;
    config.travel_median_lo = shape.travel_lo;
    config.travel_median_hi = shape.travel_hi;
    config.seed = ++seed;
    auto ds = GenerateSyntheticDataset(shape.graph, config);
    if (!ds.ok()) {
      ADD_FAILURE() << shape.name << ": " << ds.status();
      continue;
    }
    Scenario s;
    s.name = shape.name;
    s.graph = shape.graph;
    s.set = ds->BuildObservedTrajectories();
    s.options.theta = shape.theta;
    s.options.eta = 600;
    scenarios.push_back(std::move(s));
  }
  return scenarios;
}

// The soak arms additionally carry the adversarial near-miss workload from
// the scenario catalog (light variant): corrupted IDs that collide with
// other live entities produce contested candidates, which stresses
// eviction and selection under chaos in ways the uniform OCR scenarios
// cannot. Kept out of the per-fault matrix tests to hold their budget.
std::vector<Scenario> MakeSoakScenarios() {
  std::vector<Scenario> scenarios = MakeScenarios();
  auto entry = FindScenario("grid_near_miss", /*light=*/true);
  if (!entry.ok()) {
    ADD_FAILURE() << entry.status();
    return scenarios;
  }
  auto ds = BuildScenarioDataset(*entry);
  if (!ds.ok()) {
    ADD_FAILURE() << ds.status();
    return scenarios;
  }
  Scenario s;
  s.name = "catalog_near_miss";
  s.graph = ds->graph;
  s.set = ds->BuildObservedTrajectories();
  s.options.theta = entry->theta;
  s.options.eta = entry->eta;
  scenarios.push_back(std::move(s));
  return scenarios;
}

const std::vector<int>& ThreadCounts() {
  static const std::vector<int> kThreads = {1, 2, 8};
  return kThreads;
}

// Full byte-level digest of a RepairResult: the repaired set point by
// point, the (sorted) rewrite map, the selection, and Ω to full precision.
// Two runs with equal fingerprints produced indistinguishable output.
std::string Fingerprint(const RepairResult& result) {
  std::ostringstream out;
  out.precision(17);
  for (TrajIndex i = 0; i < result.repaired.size(); ++i) {
    const Trajectory& t = result.repaired.at(i);
    out << t.id() << ":";
    for (const auto& p : t.points()) out << p.loc << "@" << p.ts << ",";
    out << ";";
  }
  std::map<TrajIndex, std::string> rewrites(result.rewrites.begin(),
                                            result.rewrites.end());
  out << "|rw:";
  for (const auto& [idx, id] : rewrites) out << idx << "->" << id << ",";
  out << "|sel:";
  for (RepairIndex r : result.selected) out << r << ",";
  out << "|omega:" << result.total_effectiveness;
  out << "|cands:" << result.candidates.size();
  return std::move(out).str();
}

Result<RepairResult> RunEngine(std::string_view engine, const Scenario& s,
                               int threads, int64_t deadline_ms = 0) {
  RepairOptions options = s.options;
  options.exec.num_threads = threads;
  options.deadline_ms = deadline_ms;
  auto repairer = MakeEngineByName(engine, s.graph, options);
  if (repairer == nullptr) {
    return Status::InvalidArgument("unknown engine " + std::string(engine));
  }
  return repairer->Repair(s.set);
}

// Never-armed reference fingerprints, computed once per binary run.
const std::map<std::string, std::string>& BaselineFingerprints() {
  static const std::map<std::string, std::string>* kBaselines = [] {
    auto* baselines = new std::map<std::string, std::string>();
    for (const Scenario& s : MakeSoakScenarios()) {
      for (std::string_view engine : AllEngineNames()) {
        for (int threads : ThreadCounts()) {
          auto result = RunEngine(engine, s, threads);
          std::string key =
              s.name + "/" + std::string(engine) + "/" + std::to_string(threads);
          (*baselines)[key] =
              result.ok() ? Fingerprint(*result) : "error:" + key;
        }
      }
    }
    return baselines;
  }();
  return *kBaselines;
}

std::string BaselineFor(const Scenario& s, std::string_view engine,
                        int threads) {
  return BaselineFingerprints().at(s.name + "/" + std::string(engine) + "/" +
                                   std::to_string(threads));
}

class ChaosTest : public ::testing::Test {
 protected:
  void SetUp() override { fault::FailPointRegistry::Global().DisarmAll(); }
  void TearDown() override {
    fault::FailPointRegistry::Global().DisarmAll();
    ASSERT_FALSE(fault::Armed()) << "chaos leaked out of a test";
  }
};

// Arming every site with a trigger that never fires must not change a
// single byte of any engine's output at any thread count — the subsystem's
// "observation does not disturb" contract.
TEST_F(ChaosTest, ArmedButSilentSitesAreByteInvisible) {
  fault::FaultSpec silent;
  silent.fire_on_hit = 1000000000;  // far beyond any hit count here
  for (const std::string& site : AllSites()) {
    ASSERT_TRUE(fault::FailPointRegistry::Global().Arm(site, silent).ok());
  }
  ASSERT_TRUE(fault::Armed());

  for (const Scenario& s : MakeScenarios()) {
    for (std::string_view engine : AllEngineNames()) {
      for (int threads : ThreadCounts()) {
        SCOPED_TRACE(s.name + "/" + std::string(engine) + "/t" +
                     std::to_string(threads));
        auto result = RunEngine(engine, s, threads);
        ASSERT_TRUE(result.ok()) << result.status();
        EXPECT_TRUE(result->completion.ok());
        EXPECT_EQ(Fingerprint(*result), BaselineFor(s, engine, threads));
      }
    }
  }
}

// Delay fires perturb scheduling but never results: seeded delays on the
// pool and shard sites leave output byte-identical while genuinely firing.
TEST_F(ChaosTest, DelayChaosNeverChangesResults) {
  for (const char* site :
       {"exec.pool.dispatch", "exec.pool.steal", "exec.task_group.run",
        "repair.generation.shard"}) {
    fault::FaultSpec delay;
    delay.action = fault::FaultAction::kDelay;
    delay.one_in = 3;
    delay.seed = 11;
    delay.delay_micros = 200;
    ASSERT_TRUE(fault::FailPointRegistry::Global().Arm(site, delay).ok());
  }

  for (const Scenario& s : MakeScenarios()) {
    for (std::string_view engine : {"core", "streaming"}) {
      for (int threads : ThreadCounts()) {
        SCOPED_TRACE(s.name + "/" + std::string(engine) + "/t" +
                     std::to_string(threads));
        auto result = RunEngine(engine, s, threads);
        ASSERT_TRUE(result.ok()) << result.status();
        EXPECT_EQ(Fingerprint(*result), BaselineFor(s, engine, threads));
      }
    }
  }
  EXPECT_GT(fault::FailPointRegistry::Global().TotalFires(), 0u)
      << "the delay chaos never actually fired";
}

// An injected error must surface as a clean non-OK Result carrying the
// injected code, and must leave no residue: after DisarmAll the rerun is
// byte-identical to the never-armed baseline.
TEST_F(ChaosTest, ErrorInjectionPropagatesCleanlyAndLeavesNoResidue) {
  for (const Scenario& s : MakeScenarios()) {
    for (const auto& [engine, sites] : ErrorSitesByEngine()) {
      for (const std::string& site : sites) {
        for (int threads : ThreadCounts()) {
          SCOPED_TRACE(s.name + "/" + engine + "/" + site + "/t" +
                       std::to_string(threads));
          fault::FaultSpec spec;
          spec.fire_on_hit = 1;
          spec.code = StatusCode::kIoError;
          spec.message = "injected by chaos_test";
          ASSERT_TRUE(
              fault::FailPointRegistry::Global().Arm(site, spec).ok());

          auto result = RunEngine(engine, s, threads);
          ASSERT_FALSE(result.ok())
              << "armed " << site << " but the run succeeded";
          EXPECT_EQ(result.status().code(), StatusCode::kIoError);
          EXPECT_NE(result.status().message().find("injected by chaos_test"),
                    std::string::npos)
              << result.status();
          EXPECT_GE(
              fault::FailPointRegistry::Global().GetPoint(site)->fires(), 1u);

          fault::FailPointRegistry::Global().DisarmAll();
          auto rerun = RunEngine(engine, s, threads);
          ASSERT_TRUE(rerun.ok()) << rerun.status();
          EXPECT_EQ(Fingerprint(*rerun), BaselineFor(s, engine, threads));
        }
      }
    }
  }
}

// Selection-phase faults at real parallel grain: --selection-grain 1 at
// eight threads makes the effectiveness-sort shards, graph shards, and
// invalidation fan-out genuinely parallel, and an error injected at either
// selection site must still surface as one clean non-OK Result (first
// error wins, no torn state). The rerun after disarming keeps the
// never-armed, default-grain fingerprint — grain is a scheduling knob,
// never an output knob.
TEST_F(ChaosTest, SelectionFaultsPropagateCleanlyAtParallelGrain) {
  const Scenario base = MakeScenarios().front();
  Scenario fine = base;
  fine.options.exec.min_selection_grain = 1;
  for (const char* site :
       {"repair.selection.shard", "repair.selection.commit"}) {
    SCOPED_TRACE(site);
    fault::FaultSpec spec;
    spec.fire_on_hit = 1;
    spec.code = StatusCode::kInternal;
    spec.message = "injected selection fault";
    ASSERT_TRUE(fault::FailPointRegistry::Global().Arm(site, spec).ok());

    auto result = RunEngine("core", fine, 8);
    ASSERT_FALSE(result.ok()) << "armed " << site << " but the run passed";
    EXPECT_EQ(result.status().code(), StatusCode::kInternal);
    EXPECT_NE(result.status().message().find("injected selection fault"),
              std::string::npos)
        << result.status();

    fault::FailPointRegistry::Global().DisarmAll();
    auto rerun = RunEngine("core", fine, 8);
    ASSERT_TRUE(rerun.ok()) << rerun.status();
    EXPECT_EQ(Fingerprint(*rerun), BaselineFor(base, "core", 8));
  }
}

// Deadline expiry forced mid-selection (the fourth fault.deadline.expire
// evaluation is the second commit check: generation boundary, selection
// boundary, then one check per commit) cuts the commit loop after exactly
// one commit. The result is a well-formed partial: OK status, completion
// naming the selection-commit boundary, records conserved, and a selection
// that is a non-empty strict prefix of the clean run's.
TEST_F(ChaosTest, DeadlineExpiryMidSelectionKeepsCompatiblePrefix) {
  const Scenario s = MakeScenarios().front();
  auto clean = RunEngine("core", s, 1);
  ASSERT_TRUE(clean.ok()) << clean.status();
  ASSERT_GT(clean->selected.size(), 1u)
      << "scenario too small to interrupt mid-selection";

  fault::FaultSpec expire;
  expire.fire_on_hit = 4;
  ASSERT_TRUE(fault::FailPointRegistry::Global()
                  .Arm(fault::kDeadlineExpireSite, expire)
                  .ok());
  auto partial = RunEngine("core", s, 1, /*deadline_ms=*/600000);
  ASSERT_TRUE(partial.ok()) << partial.status();
  EXPECT_EQ(partial->completion.code(), StatusCode::kDeadlineExceeded);
  EXPECT_NE(partial->completion.message().find("selection commit"),
            std::string::npos)
      << partial->completion;
  EXPECT_EQ(partial->repaired.total_records(), s.set.total_records());
  ASSERT_EQ(partial->selected.size(), 1u);
  // The surviving commit is the globally best candidate — the clean run
  // selected it too, so the partial is a compatible subset, not a detour.
  EXPECT_TRUE(std::find(clean->selected.begin(), clean->selected.end(),
                        partial->selected.front()) != clean->selected.end());
}

// The alloc-failure and cancellation actions map onto their dedicated
// status codes through a full engine run.
TEST_F(ChaosTest, AllocFailureAndCancellationCarryTheirCodes) {
  const Scenario s = MakeScenarios().front();
  const std::pair<fault::FaultAction, StatusCode> kActions[] = {
      {fault::FaultAction::kAllocFail, StatusCode::kResourceExhausted},
      {fault::FaultAction::kCancel, StatusCode::kCancelled},
  };
  for (const auto& [action, code] : kActions) {
    SCOPED_TRACE(StatusCodeToString(code));
    fault::FaultSpec spec;
    spec.action = action;
    spec.fire_on_hit = 1;
    ASSERT_TRUE(fault::FailPointRegistry::Global()
                    .Arm("repair.generation.shard", spec)
                    .ok());
    auto result = RunEngine("core", s, 2);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), code) << result.status();
    fault::FailPointRegistry::Global().DisarmAll();
  }
}

// Forced deadline expiry (the fault.deadline.expire failpoint) degrades
// every deadline-aware engine to a well-formed partial result: OK status,
// DeadlineExceeded completion marker, full record conservation. Single
// thread keeps which-boundary-expired deterministic.
TEST_F(ChaosTest, ForcedDeadlineExpiryDegradesToWellFormedPartial) {
  for (const Scenario& s : MakeScenarios()) {
    for (std::string_view engine : {"core", "streaming"}) {
      SCOPED_TRACE(s.name + "/" + std::string(engine));
      fault::FaultSpec expire;
      expire.one_in = 1;  // every deadline check reports expiry
      ASSERT_TRUE(fault::FailPointRegistry::Global()
                      .Arm(fault::kDeadlineExpireSite, expire)
                      .ok());

      auto result = RunEngine(engine, s, 1, /*deadline_ms=*/600000);
      ASSERT_TRUE(result.ok()) << result.status();
      EXPECT_EQ(result->completion.code(), StatusCode::kDeadlineExceeded)
          << result->completion;
      EXPECT_EQ(result->repaired.total_records(), s.set.total_records());

      // Same options, failpoint disarmed: the (far-future) deadline never
      // actually expires, so output is byte-identical to no deadline at
      // all — deadline_ms alone must not perturb results.
      fault::FailPointRegistry::Global().DisarmAll();
      auto clean = RunEngine(engine, s, 1, /*deadline_ms=*/600000);
      ASSERT_TRUE(clean.ok()) << clean.status();
      EXPECT_TRUE(clean->completion.ok()) << clean->completion;
      EXPECT_EQ(Fingerprint(*clean), BaselineFor(s, engine, 1));
    }
  }
}

uint64_t CounterValue(const std::string& name) {
  for (const auto& m : obs::MetricsRegistry::Global().Collect()) {
    if (m.name == name) return m.counter_value;
  }
  return 0;
}

// Every engine accounts for its runs: attempts ticks at entry, runs only on
// full completion — so injected faults and degraded runs leave a visible
// attempted-but-not-completed gap.
TEST_F(ChaosTest, AttemptedVersusCompletedCountersAccountForEveryRun) {
  const std::map<std::string, std::pair<std::string, std::string>> kCounters =
      {
          {"core",
           {"idrepair_repair_attempts_total", "idrepair_repair_runs_total"}},
          {"streaming",
           {"idrepair_stream_attempts_total", "idrepair_stream_runs_total"}},
          {"idsim",
           {"idrepair_baseline_idsim_attempts_total",
            "idrepair_baseline_idsim_runs_total"}},
          {"neighborhood",
           {"idrepair_baseline_neighborhood_attempts_total",
            "idrepair_baseline_neighborhood_runs_total"}},
      };
  obs::SetEnabled(true);
  const Scenario s = MakeScenarios().front();

  // Clean run: attempts and runs advance in lockstep on all four engines.
  for (const auto& [engine, counters] : kCounters) {
    SCOPED_TRACE(engine + "/clean");
    uint64_t attempts = CounterValue(counters.first);
    uint64_t runs = CounterValue(counters.second);
    ASSERT_TRUE(RunEngine(engine, s, 2).ok());
    EXPECT_EQ(CounterValue(counters.first), attempts + 1);
    EXPECT_EQ(CounterValue(counters.second), runs + 1);
  }

  // Faulted run: attempted, not completed.
  for (const auto& [engine, sites] : ErrorSitesByEngine()) {
    SCOPED_TRACE(engine + "/faulted");
    const auto& counters = kCounters.at(engine);
    fault::FaultSpec spec;
    spec.fire_on_hit = 1;
    ASSERT_TRUE(
        fault::FailPointRegistry::Global().Arm(sites.front(), spec).ok());
    uint64_t attempts = CounterValue(counters.first);
    uint64_t runs = CounterValue(counters.second);
    ASSERT_FALSE(RunEngine(engine, s, 2).ok());
    EXPECT_EQ(CounterValue(counters.first), attempts + 1);
    EXPECT_EQ(CounterValue(counters.second), runs);
    fault::FailPointRegistry::Global().DisarmAll();
  }

  // Degraded run: attempted, and not counted as a completed run either.
  {
    SCOPED_TRACE("core/degraded");
    fault::FaultSpec expire;
    expire.one_in = 1;
    ASSERT_TRUE(fault::FailPointRegistry::Global()
                    .Arm(fault::kDeadlineExpireSite, expire)
                    .ok());
    uint64_t attempts = CounterValue("idrepair_repair_attempts_total");
    uint64_t runs = CounterValue("idrepair_repair_runs_total");
    auto result = RunEngine("core", s, 1, /*deadline_ms=*/600000);
    ASSERT_TRUE(result.ok()) << result.status();
    ASSERT_FALSE(result->completion.ok());
    EXPECT_EQ(CounterValue("idrepair_repair_attempts_total"), attempts + 1);
    EXPECT_EQ(CounterValue("idrepair_repair_runs_total"), runs);
  }
}

// Faults on the incremental streaming surface (Poll returning nothing,
// Finish falling back to passthrough) must never lose or duplicate a
// record: the stream stays conservative under chaos.
TEST_F(ChaosTest, StreamingIncrementalFaultsConserveRecords) {
  const Scenario s = MakeScenarios().front();
  std::vector<TrackingRecord> records;
  for (TrajIndex i = 0; i < s.set.size(); ++i) {
    for (const auto& p : s.set.at(i).points()) {
      records.push_back(TrackingRecord{s.set.at(i).id(), p.loc, p.ts});
    }
  }
  std::stable_sort(records.begin(), records.end(),
                   [](const TrackingRecord& a, const TrackingRecord& b) {
                     return std::tie(a.ts, a.id, a.loc) <
                            std::tie(b.ts, b.id, b.loc);
                   });

  fault::FaultSpec flaky;
  flaky.one_in = 2;
  flaky.seed = 17;
  ASSERT_TRUE(
      fault::FailPointRegistry::Global().Arm("stream.poll", flaky).ok());
  fault::FaultSpec fail_finish;
  fail_finish.fire_on_hit = 1;
  ASSERT_TRUE(fault::FailPointRegistry::Global()
                  .Arm("stream.finish", fail_finish)
                  .ok());

  StreamingRepairer stream(s.graph, s.options);
  size_t emitted_records = 0;
  Timestamp last_poll = records.empty() ? 0 : records.front().ts;
  for (const auto& r : records) {
    ASSERT_TRUE(stream.Append(r).ok());
    if (stream.watermark() - last_poll > s.options.eta) {
      for (const Trajectory& t : stream.Poll()) emitted_records += t.size();
      last_poll = stream.watermark();
    }
  }
  for (const Trajectory& t : stream.Finish()) emitted_records += t.size();

  EXPECT_EQ(emitted_records, records.size());
  EXPECT_EQ(stream.pending_records(), 0u);
}

// Eviction-heavy soak arm: the incremental streaming engine under maximum
// eviction pressure — tightest flush horizon, a small bounded buffer, a
// poll after every append — with the poll failpoint flickering. Forced
// flushes, deferrals, component splits, and backpressure drains all fire
// constantly; every accepted record must still come out exactly once, and
// rounds must not contaminate each other (each reuses the engine object
// after a Finish() drain on a shifted timeline). Stretched by the same
// soak environment knobs as the seeded sweep.
TEST_F(ChaosTest, SoakEvictionHeavyStreaming) {
  uint64_t seed_base = 21;
  int rounds = 2;
  if (const char* env = std::getenv("IDREPAIR_CHAOS_SEED_BASE")) {
    seed_base = static_cast<uint64_t>(std::strtoull(env, nullptr, 10));
  }
  if (const char* env = std::getenv("IDREPAIR_CHAOS_ROUNDS")) {
    rounds = static_cast<int>(std::strtol(env, nullptr, 10));
  }

  for (const Scenario& s : MakeSoakScenarios()) {
    std::vector<TrackingRecord> records;
    for (TrajIndex i = 0; i < s.set.size(); ++i) {
      for (const auto& p : s.set.at(i).points()) {
        records.push_back(TrackingRecord{s.set.at(i).id(), p.loc, p.ts});
      }
    }
    std::stable_sort(records.begin(), records.end(),
                     [](const TrackingRecord& a, const TrackingRecord& b) {
                       return std::tie(a.ts, a.id, a.loc) <
                              std::tie(b.ts, b.id, b.loc);
                     });
    ASSERT_FALSE(records.empty());
    const Timestamp span = records.back().ts - records.front().ts;

    StreamOptions stream_options;
    stream_options.flush_horizon_multiplier = 1.0;
    stream_options.max_buffered = 24;
    StreamingRepairer stream(s.graph, s.options, stream_options);

    Timestamp offset = 0;
    for (int round = 0; round < rounds; ++round) {
      SCOPED_TRACE(s.name + " round " + std::to_string(round));
      fault::FaultSpec flaky;
      flaky.one_in = 3;
      flaky.seed = seed_base + static_cast<uint64_t>(round);
      ASSERT_TRUE(
          fault::FailPointRegistry::Global().Arm("stream.poll", flaky).ok());

      size_t emitted_records = 0;
      for (const auto& r : records) {
        TrackingRecord shifted{r.id, r.loc, r.ts + offset};
        Status appended = stream.Append(shifted);
        if (!appended.ok()) {
          ASSERT_EQ(appended.code(), StatusCode::kResourceExhausted)
              << appended;
          for (const auto& t : stream.Poll()) emitted_records += t.size();
          if (stream.pending_records() >= stream_options.max_buffered) {
            for (const auto& t : stream.Finish()) {
              emitted_records += t.size();
            }
          }
          appended = stream.Append(shifted);
          ASSERT_TRUE(appended.ok()) << appended;
        }
        for (const auto& t : stream.Poll()) emitted_records += t.size();
      }
      for (const auto& t : stream.Finish()) emitted_records += t.size();
      fault::FailPointRegistry::Global().DisarmAll();

      EXPECT_EQ(emitted_records, records.size());
      EXPECT_EQ(stream.pending_records(), 0u);
      offset += span + 2 * s.options.eta + 1;  // next round: fresh timeline
    }
  }
}

// Seeded soak sweep: probabilistic error + delay chaos across the wired
// sites, all engines, all thread counts. Every run must either succeed and
// conserve records or fail with exactly the injected code — and once the
// chaos is disarmed the engines are back to byte-identical, proving no
// cross-run residue. scripts/soak.sh stretches the rounds/seeds via the
// environment.
TEST_F(ChaosTest, SoakSeededProbabilisticChaos) {
  uint64_t seed_base = 1;
  int rounds = 2;
  if (const char* env = std::getenv("IDREPAIR_CHAOS_SEED_BASE")) {
    seed_base = static_cast<uint64_t>(std::strtoull(env, nullptr, 10));
  }
  if (const char* env = std::getenv("IDREPAIR_CHAOS_ROUNDS")) {
    rounds = static_cast<int>(std::strtol(env, nullptr, 10));
  }

  const auto scenarios = MakeSoakScenarios();
  for (int round = 0; round < rounds; ++round) {
    const uint64_t seed = seed_base + static_cast<uint64_t>(round);
    SCOPED_TRACE("seed " + std::to_string(seed));

    auto arm = [&](const char* site, fault::FaultAction action,
                   uint64_t one_in) {
      fault::FaultSpec spec;
      spec.action = action;
      spec.code = StatusCode::kInternal;
      spec.one_in = one_in;
      spec.seed = seed;
      spec.delay_micros = 100;
      ASSERT_TRUE(fault::FailPointRegistry::Global().Arm(site, spec).ok());
    };
    arm("exec.pool.dispatch", fault::FaultAction::kDelay, 5);
    arm("exec.pool.steal", fault::FaultAction::kDelay, 5);
    arm("repair.generation.shard", fault::FaultAction::kError, 4);
    arm("repair.selection.commit", fault::FaultAction::kError, 6);
    arm("repair.selection.shard", fault::FaultAction::kAllocFail, 4);
    arm("stream.append", fault::FaultAction::kCancel, 400);

    for (const Scenario& s : scenarios) {
      for (std::string_view engine : AllEngineNames()) {
        for (int threads : ThreadCounts()) {
          SCOPED_TRACE(s.name + "/" + std::string(engine) + "/t" +
                       std::to_string(threads));
          auto result = RunEngine(engine, s, threads);
          if (result.ok()) {
            EXPECT_TRUE(result->completion.ok());
            EXPECT_EQ(result->repaired.total_records(),
                      s.set.total_records());
          } else {
            const StatusCode code = result.status().code();
            EXPECT_TRUE(code == StatusCode::kInternal ||
                        code == StatusCode::kResourceExhausted ||
                        code == StatusCode::kCancelled)
                << result.status();
          }
        }
      }
    }

    fault::FailPointRegistry::Global().DisarmAll();
    for (const Scenario& s : scenarios) {
      for (std::string_view engine : AllEngineNames()) {
        SCOPED_TRACE(s.name + "/" + std::string(engine) + "/post-chaos");
        auto result = RunEngine(engine, s, 2);
        ASSERT_TRUE(result.ok()) << result.status();
        EXPECT_EQ(Fingerprint(*result), BaselineFor(s, engine, 2));
      }
    }
  }
}

// The eval layer's failpoints are delay-only (fault::MaybePerturb):
// chaos can stall ground-truth computation and metric evaluation, but the
// numbers that come out must be bit-identical to the undisturbed run.
TEST_F(ChaosTest, EvalDelayChaosFiresWithoutChangingMetrics) {
  SyntheticConfig config;
  config.num_trajectories = 60;
  config.record_error_rate = 0.3;
  config.seed = 555;
  auto dataset = GenerateSyntheticDataset(MakePaperExampleGraph(), config);
  ASSERT_TRUE(dataset.ok()) << dataset.status();
  TrajectorySet observed = dataset->BuildObservedTrajectories();

  RepairOptions options;
  options.theta = 5;
  options.eta = 600;
  IdRepairer engine(dataset->graph, options);
  auto result = engine.Repair(observed);
  ASSERT_TRUE(result.ok()) << result.status();

  auto truth_clean = ComputeFragmentTruth(*dataset, observed);
  QualityMetrics clean =
      EvaluateRewrites(truth_clean, observed, result->rewrites);

  fault::FaultSpec delay;
  delay.action = fault::FaultAction::kDelay;
  delay.one_in = 1;
  delay.delay_micros = 100;
  for (const char* site :
       {"eval.metrics.fragment_truth", "eval.metrics.evaluate"}) {
    ASSERT_TRUE(fault::FailPointRegistry::Global().Arm(site, delay).ok());
  }

  auto truth_chaos = ComputeFragmentTruth(*dataset, observed);
  QualityMetrics chaos =
      EvaluateRewrites(truth_chaos, observed, result->rewrites);
  EXPECT_GE(fault::FailPointRegistry::Global()
                .GetPoint("eval.metrics.fragment_truth")
                ->fires(),
            1u);
  EXPECT_GE(fault::FailPointRegistry::Global()
                .GetPoint("eval.metrics.evaluate")
                ->fires(),
            1u);
  EXPECT_EQ(truth_chaos, truth_clean);
  EXPECT_EQ(chaos.precision, clean.precision);
  EXPECT_EQ(chaos.recall, clean.recall);
  EXPECT_EQ(chaos.f_measure, clean.f_measure);
  EXPECT_EQ(chaos.num_correct, clean.num_correct);
}

// The daemon kill-restart arm: a registered-and-snapshotted graph survives
// killing the daemon; the restarted daemon (--load-dir) repairs
// byte-identically to the pre-kill daemon. Chaos rides along twice: an
// io.snapshot.save error makes the Snapshot request fail with the injected
// status (and no partial registry damage), and after disarming the same
// request succeeds — the daemon is fault-transparent, not fault-sticky.
TEST_F(ChaosTest, DaemonKillRestartFromSnapshotIsByteIdentical) {
  namespace fs = std::filesystem;
  const Scenario s = MakeScenarios().front();
  fs::path dir = fs::temp_directory_path() / "idrepair_chaos_daemon";
  fs::remove_all(dir);
  fs::create_directories(dir);

  std::vector<TrackingRecord> records;
  for (TrajIndex i = 0; i < s.set.size(); ++i) {
    for (const auto& p : s.set.at(i).points()) {
      records.push_back(TrackingRecord{s.set.at(i).id(), p.loc, p.ts});
    }
  }

  std::vector<TrackingRecord> before_kill;
  {
    server::ServerOptions server_options;
    server_options.listen = "tcp:127.0.0.1:0";
    auto srv = server::IdRepairServer::Start(std::move(server_options));
    ASSERT_TRUE(srv.ok()) << srv.status();
    auto client = server::RepairClient::Connect((*srv)->address());
    ASSERT_TRUE(client.ok()) << client.status();

    server::RegisterGraphRequest reg;
    reg.name = "chaos";
    std::ostringstream graph_text;
    ASSERT_TRUE(WriteTransitionGraph(graph_text, s.graph).ok());
    reg.graph_text = graph_text.str();
    reg.options = s.options;
    reg.corpus = records;
    ASSERT_TRUE(client->RegisterGraph(reg).ok());

    server::RepairRequest req;
    req.name = "chaos";
    req.use_corpus = true;
    auto reply = client->Repair(req);
    ASSERT_TRUE(reply.ok()) << reply.status();
    ASSERT_EQ(reply->batches.size(), 1u);
    ASSERT_TRUE(reply->batches[0].completion.ok());
    before_kill = reply->batches[0].repaired;

    // Snapshot under an injected save fault: clean failure, nothing saved.
    fault::FaultSpec spec;
    spec.fire_on_hit = 1;
    spec.code = StatusCode::kIoError;
    spec.message = "injected snapshot-save fault";
    ASSERT_TRUE(fault::FailPointRegistry::Global()
                    .Arm("io.snapshot.save", spec)
                    .ok());
    server::SnapshotRequest snap;
    snap.dir = dir.string();
    auto failed = client->Snapshot(snap);
    ASSERT_FALSE(failed.ok());
    EXPECT_EQ(failed.status().code(), StatusCode::kIoError);
    EXPECT_NE(failed.status().message().find("injected snapshot-save fault"),
              std::string::npos)
        << failed.status();

    // Disarmed: the identical request succeeds.
    fault::FailPointRegistry::Global().DisarmAll();
    auto saved = client->Snapshot(snap);
    ASSERT_TRUE(saved.ok()) << saved.status();
    EXPECT_EQ(saved->num_saved, 1u);

    (*srv)->Stop();  // kill: no shutdown persistence
  }

  {
    server::ServerOptions server_options;
    server_options.listen = "tcp:127.0.0.1:0";
    server_options.load_dir = dir.string();
    auto srv = server::IdRepairServer::Start(std::move(server_options));
    ASSERT_TRUE(srv.ok()) << srv.status();
    EXPECT_EQ((*srv)->registry().size(), 1u);

    auto client = server::RepairClient::Connect((*srv)->address());
    ASSERT_TRUE(client.ok()) << client.status();
    server::RepairRequest req;
    req.name = "chaos";
    req.use_corpus = true;
    auto reply = client->Repair(req);
    ASSERT_TRUE(reply.ok()) << reply.status();
    ASSERT_EQ(reply->batches.size(), 1u);
    EXPECT_EQ(reply->batches[0].repaired, before_kill);
    (*srv)->Stop();
  }

  // An injected load fault keeps a fresh daemon from starting on the same
  // snapshot dir — fail-stop, not a silently empty registry.
  {
    fault::FaultSpec spec;
    spec.fire_on_hit = 1;
    spec.code = StatusCode::kIoError;
    spec.message = "injected snapshot-load fault";
    ASSERT_TRUE(fault::FailPointRegistry::Global()
                    .Arm("io.snapshot.load", spec)
                    .ok());
    server::ServerOptions server_options;
    server_options.listen = "tcp:127.0.0.1:0";
    server_options.load_dir = dir.string();
    auto srv = server::IdRepairServer::Start(std::move(server_options));
    ASSERT_FALSE(srv.ok());
    EXPECT_EQ(srv.status().code(), StatusCode::kIoError);
    fault::FailPointRegistry::Global().DisarmAll();
  }

  std::error_code ec;
  fs::remove_all(dir, ec);
}

}  // namespace
}  // namespace idrepair
