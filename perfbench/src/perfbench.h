// Shared types of the seeded benchmark: command arguments, generated inputs,
// the metric table every workload fills, and small statistics helpers.
#ifndef PERFBENCH_PERFBENCH_H_
#define PERFBENCH_PERFBENCH_H_

#include <cstdint>
#include <string>
#include <vector>

#include "gen/dataset.h"
#include "repair/options.h"
#include "traj/tracking_record.h"

namespace perfbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string source_digest = "unknown";
  std::string commit = "none";
  std::string scratch = ".bench_build";  // socket and span files go here
};

/// One workload's generated input. The program only ever sees `graph_text`
/// and the observed records (as `csv` for the batch workloads); the truth
/// rows stay with the benchmark's output checker.
struct Inputs {
  std::string name;
  std::string graph_text;
  idrepair::RepairOptions options;
  /// Observed records in generator order (the order the CSV holds).
  std::vector<idrepair::TrackingRecord> observed;
  /// Same rows as `observed`, with the true IDs alongside.
  std::vector<idrepair::GroundTruthRecord> truth;
  std::string csv;  // observed records encoded as the CLI's input file
  size_t num_trajectories = 0;
};

/// Builds the inputs of `workload` from `seed` alone: a fixed number of
/// distinct instances (several where one instance's work varies much with
/// the seed), which the run cycles through. Unknown names fail.
idrepair::Result<std::vector<Inputs>> MakeInputs(const std::string& workload,
                                                 uint64_t seed);

/// `in`'s records in timestamp order (the order a live producer emits
/// them), with the truth rows permuted alongside.
void ChronoOrder(const Inputs& in,
                 std::vector<idrepair::TrackingRecord>* records,
                 std::vector<idrepair::GroundTruthRecord>* truth);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one run reports: the fields of the last-line JSON object.
struct Outcome {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;

  /// Adds or overwrites a metric; an empty `unit` keeps the existing one.
  void Set(const std::string& name, double value, const std::string& unit = "");
  /// Counts one operation; a failed one also clears `correct`.
  void Op(bool ok) {
    ++attempted;
    if (!ok) {
      ++failed;
      correct = false;
    }
  }
};

/// Zero-filled per-layer table, so every workload's traced run reports the
/// same metric names (0 = the layer is not on this workload's path).
void InitLayerMetrics(Outcome* out);

// ---- Statistics over samples (copies; samples stay in arrival order) ----
double Median(std::vector<double> v);
/// Nearest-rank percentile, p in (0, 100].
double Percentile(std::vector<double> v, double p);

/// Seconds of steady-clock time since an arbitrary process-wide origin.
double NowSeconds();
double PeakRssMb();

/// CPUs this process may run on, and the workload thread count min(4, that).
int Nproc();
int ThreadsForRun();

Outcome RunBatch(const Args& args, const std::vector<Inputs>& ins);
Outcome RunStream(const Args& args, const std::vector<Inputs>& ins);
Outcome RunDaemon(const Args& args, const Inputs& in);

}  // namespace perfbench

#endif  // PERFBENCH_PERFBENCH_H_
