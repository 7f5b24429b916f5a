// Scenario-catalog bench: the city-scale & adversarial workloads from
// gen/scenario_catalog.h, timed end to end — dataset generation (road
// network + traffic + error model) and a single-thread core repair — with
// the repair-quality outcome of each scenario next to the timings. The
// non-timing columns (vertices, records, erroneous, candidates,
// gm_cex_evals, f_measure, set_dist) are pure functions of the catalog
// seeds, so the CI scenario stage gates them exactly against the committed
// BENCH_scenarios.json; timings are report-only. gm_cex_evals is the Gm
// build's cex call count, so a lost probe pruning fails the gate on any box.

#include <iostream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/stopwatch.h"
#include "eval/metrics.h"
#include "eval/set_distance.h"
#include "gen/scenario_catalog.h"
#include "repair/repairer.h"

using namespace idrepair;
using namespace idrepair::benchutil;

int main() {
  BenchReport report("scenarios");
  report.Title("Scenario catalog — generation and core repair (min of " +
               std::to_string(kRepetitions) + ")");
  report.Header({"scenario", "vertices", "records", "erroneous", "gen_ms",
                 "repair_ms", "candidates", "gm_cex_evals", "f_measure",
                 "set_dist"});

  for (const ScenarioCatalogEntry& entry : ScenarioCatalog(/*light=*/false)) {
    double gen_s = MinOverReps([&](int) {
      Stopwatch watch;
      auto ds = BuildScenarioDataset(entry);
      if (!ds.ok()) {
        std::cerr << entry.name << ": " << ds.status() << "\n";
        std::exit(1);
      }
      return watch.ElapsedSeconds();
    });

    auto ds = BuildScenarioDataset(entry);
    if (!ds.ok()) {
      std::cerr << entry.name << ": " << ds.status() << "\n";
      return 1;
    }
    TrajectorySet observed = ds->BuildObservedTrajectories();

    RepairOptions options;
    options.theta = entry.theta;
    options.eta = entry.eta;
    options.zeta = 4;
    options.lambda = 0.5;
    options.exec.num_threads = 1;

    Result<RepairResult> result = Status::Internal("not run");
    double repair_s = MinOverReps([&](int) {
      Stopwatch watch;
      IdRepairer repairer(ds->graph, options);
      result = repairer.Repair(observed);
      if (!result.ok()) {
        std::cerr << entry.name << ": " << result.status() << "\n";
        std::exit(1);
      }
      return watch.ElapsedSeconds();
    });

    std::vector<std::string> truth = ComputeFragmentTruth(*ds, observed);
    QualityMetrics metrics = EvaluateRewrites(truth, observed, result->rewrites);
    double set_dist =
        TrajectorySetDistance(result->repaired, ds->BuildTrueTrajectories());

    report.Row({entry.name, std::to_string(ds->graph.num_locations()),
                std::to_string(ds->records.size()),
                std::to_string(metrics.num_erroneous), FmtMs(gen_s),
                FmtMs(repair_s),
                std::to_string(result->candidates.size()),
                std::to_string(result->stats.cex_evaluations),
                Fmt(metrics.f_measure, 4), Fmt(set_dist, 4)});
  }

  std::cout << "\n(vertices/records/erroneous/candidates/gm_cex_evals/"
               "f_measure/set_dist are deterministic per catalog seed and "
               "gated by scripts/ci.sh; gen_ms and repair_ms are "
               "report-only)\n";
  return 0;
}
