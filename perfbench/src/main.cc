// perfbench: one seeded benchmark for batch, streaming and daemon repair.
//
//   perfbench --workload <dense_batch|city_batch|stream_burst|daemon_city>
//             --seed <n> --seconds <s> --trace <0|1>
//             [--source-digest <hex>] [--commit <id>] [--scratch <dir>]
//
// Prints the machine fingerprint, the input digest, a human-readable metric
// table and, as the last line, one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
#include <sched.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>

#include "common/crc32.h"
#include "common/resource.h"
#include "perfbench.h"

namespace perfbench {

void Outcome::Set(const std::string& name, double value,
                  const std::string& unit) {
  for (Metric& m : metrics) {
    if (m.name == name) {
      m.value = value;
      if (!unit.empty()) m.unit = unit;
      return;
    }
  }
  metrics.push_back(Metric{name, value, unit});
}

void InitLayerMetrics(Outcome* out) {
  static const char* const kLayerMetrics[][2] = {
      {"traj.csv_decode_s", "s"},         {"traj.set_build_s", "s"},
      {"traj.csv_encode_s", "s"},         {"graph.parse_s", "s"},
      {"graph.reachability_s", "s"},      {"lig.build_s", "s"},
      {"repair.validity_s", "s"},         {"repair.gm_s", "s"},
      {"repair.gm_cex_evals", "count"},   {"repair.gm_candidate_pairs", "count"},
      {"repair.gm_edges", "count"},       {"repair.gm_edge_yield", "ratio"},
      {"repair.generation_s", "s"},       {"repair.generation_cpu_s", "s"},
      {"repair.cliques", "count"},        {"repair.pck_pruned", "count"},
      {"repair.jnb_checks", "count"},     {"repair.candidates", "count"},
      {"repair.candidate_yield", "ratio"}, {"repair.candidates_mb", "MB"},
      {"repair.effectiveness_s", "s"},    {"repair.selection_s", "s"},
      {"repair.selected", "count"},       {"repair.select_ratio", "ratio"},
      {"repair.apply_s", "s"},            {"repair.partition_s", "s"},
      {"repair.partitions", "count"},     {"repair.largest_partition", "count"},
      {"sim.cache_hit_ratio", "ratio"},   {"exec.sched_blocks", "count"},
      {"exec.sched_workers", "count"},    {"exec.sched_imbalance", "ratio"},
      {"exec.generation_parallel_eff", "ratio"},
      {"stream.append_s", "s"},           {"stream.poll_s", "s"},
      {"stream.finish_s", "s"},           {"stream.append_growth", "ratio"},
      {"stream.append_us_p99", "us"},     {"stream.poll_ms_p95", "ms"},
      {"stream.generation_runs", "count"}, {"stream.dirty_components", "count"},
      {"stream.records_reused", "count"}, {"stream.reuse_ratio", "ratio"},
      {"stream.pending_peak", "count"},   {"stream.live_components_peak", "count"},
      {"server.request_ms_p95", "ms"},    {"server.batch_repair_ms_p50", "ms"},
      {"server.overhead_ms_p50", "ms"},
      {"server.encode_request_us", "us"}, {"server.decode_reply_us", "us"},
      {"server.admitted", "count"},       {"server.rejected", "count"},
      {"server.queue_peak", "count"},     {"trace.overhead", "ratio"},
      {"trace.unaccounted_s", "s"},
  };
  for (const auto& m : kLayerMetrics) out->Set(m[0], 0.0, m[1]);
}

double Median(std::vector<double> v) { return Percentile(std::move(v), 50); }

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * v.size()));
  return v[std::clamp<size_t>(rank, 1, v.size()) - 1];
}

double NowSeconds() {
  static const auto origin = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       origin)
      .count();
}

double PeakRssMb() {
  return static_cast<double>(idrepair::PeakRssBytes()) / (1024.0 * 1024.0);
}

int Nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return std::max(1, CPU_COUNT(&set));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

int ThreadsForRun() { return std::min(4, Nproc()); }

namespace {

std::string CpuModel() {
  std::ifstream f("/proc/cpuinfo");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("model name", 0) == 0) {
      size_t colon = line.find(':');
      if (colon != std::string::npos) {
        size_t start = line.find_first_not_of(' ', colon + 1);
        return start == std::string::npos ? "" : line.substr(start);
      }
    }
  }
  return "unknown";
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

/// Shortest text that reads back as exactly `v`.
std::string Number(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[40];
  auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  return ec == std::errc() ? std::string(buf, end) : "0";
}

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_workload = false;
  for (int i = 1; i < argc; i += 2) {
    if (i + 1 >= argc) return false;
    std::string key = argv[i];
    std::string value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      args->workload = value;
      have_workload = true;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0' || value.empty()) return false;
    } else if (key == "--seconds") {
      args->seconds = static_cast<int>(std::strtol(value.c_str(), &end, 10));
      if (*end != '\0' || args->seconds < 1) return false;
    } else if (key == "--trace") {
      if (value != "0" && value != "1") return false;
      args->trace = value == "1";
    } else if (key == "--source-digest") {
      args->source_digest = value;
    } else if (key == "--commit") {
      args->commit = value;
    } else if (key == "--scratch") {
      args->scratch = value;
    } else {
      return false;
    }
  }
  return have_workload;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::cerr << "usage: perfbench --workload <name> --seed <n> --seconds <s>"
                 " --trace <0|1>\n";
    return 2;
  }
  std::cout << "# machine: {\"nproc\": " << Nproc()
            << ", \"threads\": " << ThreadsForRun() << ", \"cpu_model\": \""
            << JsonEscape(CpuModel()) << "\", \"build_type\": \""
            << PERFBENCH_BUILD_TYPE << "\", \"compiler\": \""
            << PERFBENCH_COMPILER << "\", \"commit\": \""
            << JsonEscape(args.commit) << "\", \"source_crc32\": \""
            << JsonEscape(args.source_digest)
            << "\", \"timing_policy\": \"steady_clock wall and process CPU "
               "clock; medians over the repetitions of one --seconds window; "
               "nearest-rank percentiles; obs off\"}\n";

  double gen_start = NowSeconds();
  auto inputs = MakeInputs(args.workload, args.seed);
  if (!inputs.ok()) {
    std::cerr << "perfbench: " << inputs.status().ToString() << "\n";
    return 1;
  }
  // Digest of what the program receives: totals over the instances and the
  // CRC-32 of their CSV encodings, chained in instance order.
  size_t records = 0, trajectories = 0;
  uint32_t digest = 0;
  for (const Inputs& in : *inputs) {
    records += in.observed.size();
    trajectories += in.num_trajectories;
    digest = idrepair::Crc32(in.csv, digest);
  }
  char crc[16];
  std::snprintf(crc, sizeof(crc), "%08x", digest);
  std::cout << "# input: {\"workload\": \"" << args.workload
            << "\", \"seed\": " << args.seed
            << ", \"instances\": " << inputs->size()
            << ", \"records\": " << records
            << ", \"trajectories\": " << trajectories
            << ", \"csv_crc32\": \"" << crc << "\", \"generate_s\": "
            << Number(NowSeconds() - gen_start) << "}\n";

  Outcome outcome;
  if (args.workload == "stream_burst") {
    outcome = RunStream(args, *inputs);
  } else if (args.workload == "daemon_city") {
    outcome = RunDaemon(args, inputs->front());
  } else {
    outcome = RunBatch(args, *inputs);
  }
  if (outcome.attempted == 0) {
    std::cerr << "perfbench: no operation was attempted\n";
    return 1;
  }

  std::cout << "# error_rate: "
            << Number(static_cast<double>(outcome.failed) /
                      static_cast<double>(outcome.attempted))
            << " (" << outcome.failed << " failed of " << outcome.attempted
            << " operations)\n";
  for (const Metric& m : outcome.metrics) {
    std::printf("# %-32s %16s %s\n", m.name.c_str(), Number(m.value).c_str(),
                m.unit.c_str());
  }
  std::fflush(stdout);
  std::string json = "{\"correct\": ";
  json += outcome.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(outcome.attempted);
  json += ", \"failed\": " + std::to_string(outcome.failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < outcome.metrics.size(); ++i) {
    const Metric& m = outcome.metrics[i];
    if (i > 0) json += ", ";
    json += "\"" + m.name + "\": {\"value\": " + Number(m.value) +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::cout << json << std::endl;
  return 0;
}
