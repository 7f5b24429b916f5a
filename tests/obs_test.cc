#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "exec/task_group.h"
#include "exec/thread_pool.h"
#include "gen/synthetic.h"
#include "graph/generators.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "obs/phase.h"
#include "obs/scrape.h"
#include "obs/trace.h"
#include "repair/repairer.h"

namespace idrepair {
namespace {

/// Every test here leaves the process-wide switch the way it found it
/// (off), so the rest of the suite keeps its zero-overhead path.
class ObsTest : public ::testing::Test {
 protected:
  void TearDown() override { obs::SetEnabled(false); }
};

TEST_F(ObsTest, CounterMergesIncrementsFromPoolThreads) {
  obs::Counter counter;
  for (int threads : {1, 2, 8}) {
    counter.Reset();
    ThreadPool pool(threads);
    TaskGroup group(&pool);
    for (int i = 0; i < 64; ++i) {
      group.Spawn([&counter] {
        for (int k = 0; k < 100; ++k) counter.Increment();
        return Status::OK();
      });
    }
    ASSERT_TRUE(group.Wait().ok());
    EXPECT_EQ(counter.Value(), 6400u) << "threads=" << threads;
  }
}

TEST_F(ObsTest, HistogramBucketsBoundsInclusiveAndIntegerTickSum) {
  obs::Histogram h({1.0, 2.0});
  h.Observe(0.5);   // le="1"
  h.Observe(1.0);   // le="1" (bounds are inclusive)
  h.Observe(1.5);   // le="2"
  h.Observe(9.0);   // +Inf
  std::vector<uint64_t> counts = h.BucketCounts();
  ASSERT_EQ(counts.size(), 3u);
  EXPECT_EQ(counts[0], 2u);
  EXPECT_EQ(counts[1], 1u);
  EXPECT_EQ(counts[2], 1u);
  EXPECT_EQ(h.TotalCount(), 4u);
  // 0.5 + 1.0 + 1.5 + 9.0 stored in 1e-9 ticks: exact, no float
  // reassociation.
  EXPECT_DOUBLE_EQ(h.Sum(), 12.0);
  h.Reset();
  EXPECT_EQ(h.TotalCount(), 0u);
  EXPECT_DOUBLE_EQ(h.Sum(), 0.0);
}

TEST_F(ObsTest, ExponentialBucketsGrowGeometrically) {
  std::vector<double> b = obs::ExponentialBuckets(1.0, 2.0, 4);
  ASSERT_EQ(b.size(), 4u);
  EXPECT_DOUBLE_EQ(b[0], 1.0);
  EXPECT_DOUBLE_EQ(b[3], 8.0);
  EXPECT_TRUE(std::is_sorted(b.begin(), b.end()));
  EXPECT_EQ(obs::DefaultLatencyBuckets().size(), 24u);
}

TEST_F(ObsTest, RegistrySnapshotsIdenticalAcrossThreadCounts) {
  // A deterministic workload recorded through 1, 2, and 8 pool threads
  // must render byte-identically: counter merges are integer sums and the
  // histogram sum is kept in integer ticks, so shard assignment (which
  // *does* change with the thread count) never shows in a snapshot.
  obs::MetricsRegistry registry;
  obs::Counter* items = registry.GetCounter(
      "test_items_total", obs::Stability::kStable, "items processed");
  obs::Histogram* weights = registry.GetHistogram(
      "test_weight", obs::Stability::kStable, {0.25, 0.5, 1.0}, "weights");
  std::string reference;
  for (int threads : {1, 2, 8}) {
    registry.Reset();
    ThreadPool pool(threads);
    TaskGroup group(&pool);
    for (int task = 0; task < 16; ++task) {
      group.Spawn([=] {
        for (int i = 0; i < 25; ++i) {
          items->Increment(2);
          weights->Observe(static_cast<double>((task * 25 + i) % 5) * 0.25);
        }
        return Status::OK();
      });
    }
    ASSERT_TRUE(group.Wait().ok());
    std::string rendered = registry.RenderPrometheus();
    if (threads == 1) {
      reference = rendered;
    } else {
      EXPECT_EQ(rendered, reference) << "threads=" << threads;
    }
  }
}

TEST_F(ObsTest, PrometheusRenderGolden) {
  obs::MetricsRegistry registry;
  registry.GetCounter("demo_ops_total", obs::Stability::kStable,
                      "operations")->Increment(3);
  registry.GetGauge("demo_depth", obs::Stability::kRuntime)->Set(-2);
  obs::Histogram* h = registry.GetHistogram(
      "demo_seconds", obs::Stability::kRuntime, {0.1, 1.0}, "latency");
  h->Observe(0.05);
  h->Observe(0.5);
  h->Observe(5.0);
  // Name-sorted, deterministic bound formatting ("0.1", "1", never
  // scientific notation), cumulative buckets, integer-tick-exact sum.
  EXPECT_EQ(registry.RenderPrometheus(),
            "# TYPE demo_depth gauge\n"
            "demo_depth -2\n"
            "# HELP demo_ops_total operations\n"
            "# TYPE demo_ops_total counter\n"
            "demo_ops_total 3\n"
            "# HELP demo_seconds latency\n"
            "# TYPE demo_seconds histogram\n"
            "demo_seconds_bucket{le=\"0.1\"} 1\n"
            "demo_seconds_bucket{le=\"1\"} 2\n"
            "demo_seconds_bucket{le=\"+Inf\"} 3\n"
            "demo_seconds_sum 5.55\n"
            "demo_seconds_count 3\n");
}

TEST_F(ObsTest, StableFilterExcludesRuntimeMetrics) {
  obs::MetricsRegistry registry;
  registry.GetCounter("stable_total", obs::Stability::kStable)->Increment();
  registry.GetCounter("runtime_total", obs::Stability::kRuntime)->Increment();
  auto all = registry.Collect(true);
  auto stable = registry.Collect(false);
  EXPECT_EQ(all.size(), 2u);
  ASSERT_EQ(stable.size(), 1u);
  EXPECT_EQ(stable[0].name, "stable_total");
  std::string rendered = registry.RenderPrometheus(false);
  EXPECT_NE(rendered.find("stable_total"), std::string::npos);
  EXPECT_EQ(rendered.find("runtime_total"), std::string::npos);
}

TEST_F(ObsTest, RegistryResetPreservesRegistrations) {
  obs::MetricsRegistry registry;
  obs::Counter* c = registry.GetCounter("keep_total", obs::Stability::kStable);
  c->Increment(7);
  registry.Reset();
  // Same pointer, value zeroed: cached instrument pointers survive a reset.
  EXPECT_EQ(registry.GetCounter("keep_total", obs::Stability::kStable), c);
  EXPECT_EQ(c->Value(), 0u);
  EXPECT_EQ(registry.NumMetrics(), 1u);
}

TEST_F(ObsTest, TraceSpansNestWithDepth) {
  obs::TraceSink sink(16);
  {
    obs::TraceSpan outer(&sink, "outer");
    { obs::TraceSpan inner(&sink, "inner", 7); }
  }
  std::vector<obs::TraceEvent> events = sink.Events();
  ASSERT_EQ(events.size(), 2u);
  // Sorted by start time: the outer span began first.
  EXPECT_STREQ(events[0].name, "outer");
  EXPECT_EQ(events[0].depth, 0u);
  EXPECT_FALSE(events[0].has_arg);
  EXPECT_STREQ(events[1].name, "inner");
  EXPECT_EQ(events[1].depth, 1u);
  EXPECT_TRUE(events[1].has_arg);
  EXPECT_EQ(events[1].arg, 7u);
  EXPECT_GE(events[0].dur_us, events[1].dur_us);
}

TEST_F(ObsTest, RingBufferWrapsAndKeepsNewestEvents) {
  obs::TraceSink sink(8);
  for (uint64_t i = 0; i < 20; ++i) {
    obs::TraceSpan span(&sink, "span", i);
  }
  std::vector<obs::TraceEvent> events = sink.Events();
  ASSERT_EQ(events.size(), 8u);
  EXPECT_EQ(sink.dropped_events(), 12u);
  // The survivors are exactly the 8 newest spans.
  std::vector<uint64_t> args;
  for (const auto& e : events) args.push_back(e.arg);
  std::sort(args.begin(), args.end());
  for (size_t i = 0; i < args.size(); ++i) EXPECT_EQ(args[i], 12 + i);
  sink.Clear();
  EXPECT_TRUE(sink.Events().empty());
  EXPECT_EQ(sink.dropped_events(), 0u);
}

TEST_F(ObsTest, WriteJsonEmitsChromeTraceEvents) {
  obs::TraceSink sink(16);
  { obs::TraceSpan span(&sink, "alpha", 3); }
  { obs::TraceSpan span(&sink, "beta"); }
  std::ostringstream out;
  sink.WriteJson(out);
  std::string json = out.str();
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"alpha\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"beta\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"args\":{\"n\":3}"), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
}

TEST_F(ObsTest, DisabledSpansRecordNothingGlobally) {
  obs::SetEnabled(false);
  obs::TraceSink::Global().Clear();
  { obs::TraceSpan span("invisible"); }
  EXPECT_TRUE(obs::TraceSink::Global().Events().empty());
}

TEST_F(ObsTest, ObsOptionsValidate) {
  ObsOptions ok;
  EXPECT_TRUE(ok.Validate().ok());
  ObsOptions bad;
  bad.trace_capacity = 0;
  EXPECT_FALSE(bad.Validate().ok());
  EXPECT_FALSE(RepairOptions().WithTraceCapacity(0).Validated().ok());
}

TEST_F(ObsTest, PhaseScopeFeedsStatsHistogramAndTrace) {
  obs::SetEnabled(true);
  obs::TraceSink::Global().Clear();
  obs::MetricsRegistry registry;
  obs::Histogram* h = registry.GetHistogram(
      "phase_seconds", obs::Stability::kRuntime, {10.0}, "");
  double wall = 0.0;
  double cpu = 0.0;
  { obs::PhaseScope phase("test.phase", &wall, &cpu, h); }
  EXPECT_GE(wall, 0.0);
  EXPECT_EQ(h->TotalCount(), 1u);
  std::vector<obs::TraceEvent> events = obs::TraceSink::Global().Events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_STREQ(events[0].name, "test.phase");
  obs::SetEnabled(false);
  // Disabled: stats still accumulate, the obs sinks see nothing.
  double wall2 = 0.0;
  { obs::PhaseScope phase("test.phase", &wall2, nullptr, h); }
  EXPECT_GE(wall2, 0.0);
  EXPECT_EQ(h->TotalCount(), 1u);
}

/// Deterministic sparse dataset that splits into several chain components.
TrajectorySet SparseSet(const TransitionGraph& graph) {
  SyntheticConfig config;
  config.num_trajectories = 150;
  config.max_path_len = 4;
  config.window_seconds = 40000;
  config.seed = 5;
  auto ds = GenerateSyntheticDataset(graph, config);
  EXPECT_TRUE(ds.ok());
  return ds->BuildObservedTrajectories();
}

TEST_F(ObsTest, RepairWithObsEnabledPopulatesMetricsAndTrace) {
  TransitionGraph graph = MakeRealLikeGraph();
  TrajectorySet set = SparseSet(graph);
  obs::MetricsRegistry::Global().Reset();
  obs::TraceSink::Global().Clear();

  RepairOptions options;
  options.theta = 4;
  options.eta = 600;
  options.obs.enabled = true;
  IdRepairer repairer(graph, options);
  auto result = repairer.Repair(set);
  ASSERT_TRUE(result.ok());

  uint64_t runs = 0;
  uint64_t candidates = 0;
  for (const auto& m : obs::MetricsRegistry::Global().Collect()) {
    if (m.name == "idrepair_repair_runs_total") runs = m.counter_value;
    if (m.name == "idrepair_repair_candidates_total") {
      candidates = m.counter_value;
    }
  }
  EXPECT_EQ(runs, 1u);
  EXPECT_EQ(candidates, result->stats.num_candidates);

  std::vector<obs::TraceEvent> events = obs::TraceSink::Global().Events();
  ASSERT_FALSE(events.empty());
  bool saw_run = false;
  for (const auto& e : events) {
    if (std::string(e.name) == "repair.run") saw_run = true;
  }
  EXPECT_TRUE(saw_run);
}

TEST_F(ObsTest, StableMetricsByteIdenticalAcrossRepairThreadCounts) {
  // The acceptance invariant of the subsystem: a full repair of a
  // multi-component set records the *same* stable metric values — rendered
  // byte-for-byte — at 1, 2, and 8 threads. Runtime metrics (latencies,
  // steals) are excluded by the stable filter; everything else must not
  // depend on scheduling.
  TransitionGraph graph = MakeRealLikeGraph();
  TrajectorySet set = SparseSet(graph);
  std::string reference;
  for (int threads : {1, 2, 8}) {
    obs::MetricsRegistry::Global().Reset();
    obs::TraceSink::Global().Clear();
    RepairOptions options;
    options.theta = 4;
    options.eta = 600;
    options.exec.num_threads = threads;
    options.obs.enabled = true;
    IdRepairer repairer(graph, options);
    auto result = repairer.Repair(set);
    ASSERT_TRUE(result.ok()) << "threads=" << threads;
    std::string rendered =
        obs::MetricsRegistry::Global().RenderPrometheus(false);
    EXPECT_NE(rendered.find("idrepair_repair_runs_total"), std::string::npos);
    if (threads == 1) {
      reference = rendered;
    } else {
      EXPECT_EQ(rendered, reference) << "threads=" << threads;
    }
  }
}

TEST_F(ObsTest, MetricsScraperAppendsSelfDelimitingBlocks) {
  namespace fs = std::filesystem;
  fs::path path = fs::temp_directory_path() / "idrepair_obs_scrape_test.prom";
  fs::remove(path);

  obs::SetEnabled(true);
  obs::MetricsRegistry::Global()
      .GetCounter("idrepair_scrape_test_total", obs::Stability::kRuntime,
                  "scrape test marker")
      ->Increment(3);
  {
    obs::MetricsScraper::Options options;
    options.path = path.string();
    options.interval_ms = 20;
    auto scraper = obs::MetricsScraper::Start(options);
    ASSERT_TRUE(scraper.ok()) << scraper.status();
    std::this_thread::sleep_for(std::chrono::milliseconds(70));
    (*scraper)->Stop();
    (*scraper)->Stop();  // idempotent
    EXPECT_TRUE((*scraper)->last_error().ok());
    // At least one timer tick plus the final scrape on Stop().
    EXPECT_GE((*scraper)->scrapes(), 2u);
  }

  std::ifstream in(path);
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  // Sequence-numbered block headers, starting at 1, and every block carries
  // the full exposition (our marker counter included).
  EXPECT_NE(content.find("# idrepair scrape seq=1\n"), std::string::npos)
      << content.substr(0, 400);
  EXPECT_NE(content.find("# idrepair scrape seq=2\n"), std::string::npos);
  EXPECT_NE(content.find("idrepair_scrape_test_total 3"), std::string::npos);

  // A scraper over an unwritable path fails at Start, not on a timer tick.
  obs::MetricsScraper::Options bad;
  bad.path = "/nonexistent-dir/metrics.prom";
  EXPECT_FALSE(obs::MetricsScraper::Start(bad).ok());
  obs::MetricsScraper::Options empty;
  EXPECT_FALSE(obs::MetricsScraper::Start(empty).ok());

  fs::remove(path);
}

}  // namespace
}  // namespace idrepair
