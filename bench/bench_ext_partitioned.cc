// Extension bench (not in the paper): chain components and thread scaling
// of the one batch engine. On workloads whose traffic has quiet gaps, the
// input splits into chain components that are provably independent (Gm has
// no edge between them), and a single whole-set IdRepairer run repairs each
// one on its own without being told about them. This bench reports the
// component shape a distributed deployment (§8) would shard by, the core
// engine's cost on it at 1 and 4 threads, and how the parallel execution
// engine scales sparse, giant-component and selection-heavy workloads with
// bit-identical output.

#include <algorithm>
#include <iostream>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "bench_util.h"
#include "gen/synthetic.h"
#include "graph/generators.h"
#include "repair/repairer.h"

using namespace idrepair;
using namespace idrepair::benchutil;

namespace {

/// Min-of-N repair (the bench_util timing policy): runs the engine
/// kRepetitions times, returns the smallest value of `metric` in *best and
/// moves that repetition's result into *keep. False on any failed run.
bool MinRepair(const Repairer& engine, const TrajectorySet& set,
               double RepairStats::*metric, Result<RepairResult>* keep,
               double* best) {
  bool ok = true;
  *keep = Status::Internal("never ran");
  *best = MinOverReps([&](int rep) {
    auto r = engine.Repair(set);
    if (!r.ok()) {
      std::cerr << engine.name() << " repair failed: " << r.status() << "\n";
      ok = false;
      return 0.0;
    }
    double seconds = (*r).stats.*metric;
    if (rep == 0 || !keep->ok() || seconds < (*keep)->stats.*metric) {
      *keep = std::move(r);
    }
    return seconds;
  });
  return ok;
}

/// The output fields a thread sweep holds fixed. RepairResult is move-only,
/// so the first run of a sweep copies just these.
struct Reference {
  std::unordered_map<TrajIndex, std::string> rewrites;
  std::vector<RepairIndex> selected;
  double omega = 0.0;

  explicit Reference(const RepairResult& r)
      : rewrites(r.rewrites),
        selected(r.selected),
        omega(r.total_effectiveness) {}

  bool Matches(const RepairResult& r) const {
    return r.rewrites == rewrites && r.selected == selected &&
           r.total_effectiveness == omega;
  }
};

Result<TrajectorySet> Workload(const TransitionGraph& graph,
                               size_t trajectories, Timestamp window_seconds,
                               uint64_t seed) {
  SyntheticConfig config;
  config.num_trajectories = trajectories;
  config.max_path_len = 4;
  config.window_seconds = window_seconds;
  config.seed = seed;
  auto ds = GenerateSyntheticDataset(graph, config);
  if (!ds.ok()) return ds.status();
  return ds->BuildObservedTrajectories();
}

size_t Largest(const std::vector<std::vector<TrajIndex>>& components) {
  size_t largest = 0;
  for (const auto& c : components) largest = std::max(largest, c.size());
  return largest;
}

}  // namespace

int main() {
  BenchReport report("ext_partitioned");
  TransitionGraph graph = MakeRealLikeGraph();
  RepairOptions options;
  options.theta = 4;
  options.eta = 600;

  report.Title("Chain components vs window (sparser => more components)");
  report.Header({"window_h", "threads", "trajs", "components", "largest",
                 "core_ms", "identical"});
  for (int window_hours : {1, 4, 16, 48}) {
    auto set = Workload(graph, 1500,
                        static_cast<Timestamp>(window_hours) * 3600, 2024);
    if (!set.ok()) {
      std::cerr << "generation failed: " << set.status() << "\n";
      return 1;
    }
    auto components = IdRepairer(graph, options).Partition(*set);
    std::optional<Reference> reference;
    for (int threads : {1, 4}) {
      RepairOptions run_options = options;
      run_options.exec.num_threads = threads;
      IdRepairer engine(graph, run_options);
      Result<RepairResult> result = Status::Internal("never ran");
      double best = 0.0;
      if (!MinRepair(engine, *set, &RepairStats::seconds_total, &result,
                     &best)) {
        return 1;
      }
      if (!reference) reference.emplace(*result);
      bool identical = reference->Matches(*result);
      report.Row({std::to_string(window_hours), std::to_string(threads),
                  std::to_string(set->size()),
                  std::to_string(components.size()),
                  std::to_string(Largest(components)), FmtMs(best),
                  identical ? "yes" : "NO (BUG)"});
      if (!identical) return 1;
    }
  }
  std::cout << "\n(one whole-set run repairs every component independently; "
               "the largest component bounds per-worker memory in a sharded "
               "deployment)\n";

  // ---------------------------------------------------- thread scaling
  // Fixed sparse workload, varying exec.num_threads. Speedup is relative
  // to the 1-thread run.
  report.Title("Many chain components: thread scaling");
  {
    // Two weeks: mean start gap ~5 min vs η=10 min, so the chain breaks
    // into hundreds of components.
    auto set = Workload(graph, 4000,
                        static_cast<Timestamp>(14 * 24) * 3600, 2025);
    if (!set.ok()) {
      std::cerr << "generation failed: " << set.status() << "\n";
      return 1;
    }
    auto components = IdRepairer(graph, options).Partition(*set);
    report.Header({"threads", "components", "largest", "wall_ms", "cpu_ms",
                   "speedup", "identical"});
    double base_seconds = 0.0;
    std::optional<Reference> reference;
    for (int threads : {1, 2, 4, 8}) {
      RepairOptions run_options = options;
      run_options.exec.num_threads = threads;
      IdRepairer engine(graph, run_options);

      double best = 0.0;
      Result<RepairResult> result = Status::Internal("never ran");
      if (!MinRepair(engine, *set, &RepairStats::seconds_total, &result,
                     &best)) {
        return 1;
      }
      if (!reference) {
        base_seconds = best;
        reference.emplace(*result);
      }
      bool identical = reference->Matches(*result);
      report.Row({std::to_string(result->stats.threads_used),
                  std::to_string(components.size()),
                  std::to_string(Largest(components)), FmtMs(best),
                  FmtMs(result->stats.cpu_seconds_total),
                  FmtRatio(base_seconds / std::max(best, 1e-9)),
                  identical ? "yes" : "NO (BUG)"});
      if (!identical) return 1;
    }
    std::cout << "\n(hardware threads available here: "
              << std::thread::hardware_concurrency()
              << "; output is bit-identical at every width)\n";
  }

  // ------------------------------------ single giant component scaling
  // The opposite workload: dense traffic in one window, so the whole batch
  // is ONE chain component. Intra-component sharding (seed-sharded
  // candidate generation + sharded Gm build) is the only parallel surface.
  report.Title("Single giant chain component: intra-component sharding");
  {
    // Mean start gap ~2 s vs η = 600 s.
    auto set = Workload(graph, 1500, 3600, 2026);
    if (!set.ok()) {
      std::cerr << "generation failed: " << set.status() << "\n";
      return 1;
    }
    auto components = IdRepairer(graph, options).Partition(*set);
    if (components.size() != 1) {
      std::cerr << "expected one giant component, got " << components.size()
                << "\n";
      return 1;
    }
    report.Header({"threads", "components", "gen_ms", "wall_ms", "speedup",
                   "imbalance", "identical"});
    double base_seconds = 0.0;
    std::optional<Reference> reference;
    for (int threads : {1, 2, 4, 8}) {
      RepairOptions run_options = options;
      run_options.exec.num_threads = threads;
      IdRepairer engine(graph, run_options);

      double best = 0.0;
      Result<RepairResult> result = Status::Internal("never ran");
      if (!MinRepair(engine, *set, &RepairStats::seconds_total, &result,
                     &best)) {
        return 1;
      }
      if (!reference) {
        base_seconds = best;
        reference.emplace(*result);
      }
      bool identical = reference->Matches(*result);
      report.Row({std::to_string(threads), std::to_string(components.size()),
                  FmtMs(result->stats.seconds_generation), FmtMs(best),
                  FmtRatio(base_seconds / std::max(best, 1e-9)),
                  Fmt(result->stats.sched_imbalance, 2),
                  identical ? "yes" : "NO (BUG)"});
      if (!identical) return 1;
    }
    std::cout << "\n(one component: all scaling here comes from "
                 "seed-sharded candidate generation and the sharded Gm "
                 "build inside the component)\n";
  }

  // ------------------------------------------- selection-phase scaling
  // Phase 2 in isolation: a dense-window workload under DMIN, which
  // materializes the repair graph and runs the lazy-invalidation degree
  // selector — the surfaces parallelized by the selection sharding
  // (--selection-grain). Gr edge count grows superlinearly with window
  // density (300 trajectories here already mean ~2M conflict edges;
  // 1500 would be hundreds of millions), so the workload stays moderate.
  // sel_ms is Phase 2 wall time only; the identical column re-checks the
  // tentpole claim that thread count and grain never change a byte of
  // the selection.
  report.Title("Selection phase: thread scaling (DMIN, grain 64)");
  {
    auto set = Workload(graph, 300, 3600, 2026);
    if (!set.ok()) {
      std::cerr << "generation failed: " << set.status() << "\n";
      return 1;
    }
    report.Header({"threads", "gr_edges", "sel_ms", "wall_ms", "sel_speedup",
                   "identical"});
    double base_selection = 0.0;
    std::optional<Reference> reference;
    for (int threads : {1, 2, 4, 8}) {
      RepairOptions run_options = options;
      run_options.selection = SelectionAlgorithm::kDmin;
      run_options.exec.num_threads = threads;
      run_options.exec.min_selection_grain = 64;
      IdRepairer engine(graph, run_options);

      double best = 0.0;
      Result<RepairResult> result = Status::Internal("never ran");
      if (!MinRepair(engine, *set, &RepairStats::seconds_selection, &result,
                     &best)) {
        return 1;
      }
      if (!reference) {
        base_selection = best;
        reference.emplace(*result);
      }
      bool identical = reference->Matches(*result);
      report.Row({std::to_string(threads),
                  std::to_string(result->stats.gr_edges), FmtMs(best),
                  FmtMs(result->stats.seconds_total),
                  FmtRatio(base_selection / std::max(best, 1e-9)),
                  identical ? "yes" : "NO (BUG)"});
      if (!identical) return 1;
    }
    std::cout << "\n(Phase 2 only: sharded repair-graph build plus the "
                 "lazy-invalidation degree selector; the serial commit loop "
                 "bounds the speedup, the output never moves)\n";
  }
  return 0;
}
