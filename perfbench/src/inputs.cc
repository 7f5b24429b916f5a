// Seeded input generation for the four workloads. Every input is a pure
// function of (workload, seed): the generators below are the repository's
// own (synthetic paper-graph traffic and the scenario catalog), re-seeded
// and scaled here.
#include <algorithm>
#include <fstream>
#include <numeric>
#include <sstream>

#include "gen/scenario_catalog.h"
#include "gen/synthetic.h"
#include "graph/serialization.h"
#include "perfbench.h"
#include "traj/csv.h"
#include "traj/trajectory_set.h"

namespace perfbench {

using idrepair::Dataset;
using idrepair::Result;
using idrepair::Status;

namespace {

uint64_t Mix(uint64_t x) {  // splitmix64 finalizer
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

Result<std::string> ReadFile(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  if (!f) return Status::IoError("cannot read " + path);
  std::ostringstream s;
  s << f.rdbuf();
  return s.str();
}

/// A catalog scenario with traffic scaled `factor`x in trips and window
/// (and burst count), so density and shape stay the catalog's while the
/// input grows. The road network stays the catalog's; traffic and errors
/// are re-seeded from `seed` and the instance index.
Result<Dataset> ScaledScenario(const std::string& name, size_t factor,
                               uint64_t seed, size_t index,
                               idrepair::RepairOptions* opts) {
  auto entry = idrepair::FindScenario(name, /*light=*/false);
  if (!entry.ok()) return entry.status();
  entry->traffic.seed = Mix(seed ^ entry->traffic.seed) + index;
  entry->traffic.num_trips *= factor;
  entry->traffic.window_seconds *= static_cast<idrepair::Timestamp>(factor);
  if (entry->bursty) entry->traffic.burst_count *= factor;
  opts->theta = entry->theta;
  opts->eta = entry->eta;
  return idrepair::BuildScenarioDataset(*entry);
}

/// Instance `index` of `workload` under `seed`.
Result<Inputs> MakeInstance(const std::string& workload, uint64_t seed,
                            size_t index) {
  Inputs in;
  in.name = workload;
  in.options.exec.num_threads = ThreadsForRun();
  Dataset dataset;
  if (workload == "dense_batch") {
    // The ROADMAP's dense instance (1,500 entities over 3,600 s, paths of at
    // most 4 locations) on the paper's running-example graph, at half
    // length and the same density, so a run can average many instances.
    auto text = ReadFile("data/paper_example_graph.txt");
    if (!text.ok()) return text.status();
    std::istringstream s(*text);
    auto graph = idrepair::ReadTransitionGraph(s);
    if (!graph.ok()) return graph.status();
    idrepair::SyntheticConfig config;
    config.num_trajectories = 750;
    config.window_seconds = 1800;
    config.max_path_len = 4;
    config.seed = Mix(seed) + index;
    auto generated = idrepair::GenerateSyntheticDataset(*graph, config);
    if (!generated.ok()) return generated.status();
    dataset = std::move(generated).value();
  } else if (workload == "city_batch") {
    auto d = ScaledScenario("city_grid_10k_diurnal_ocr", 100, seed, index,
                               &in.options);
    if (!d.ok()) return d.status();
    dataset = std::move(d).value();
  } else if (workload == "stream_burst") {
    auto d = ScaledScenario("grid_rush_burst_ocr", 20, seed, index,
                               &in.options);
    if (!d.ok()) return d.status();
    dataset = std::move(d).value();
  } else if (workload == "daemon_city") {
    auto d = ScaledScenario("city_grid_10k_diurnal_ocr", 20, seed, index,
                               &in.options);
    if (!d.ok()) return d.status();
    dataset = std::move(d).value();
  } else {
    return Status::InvalidArgument("unknown workload: " + workload);
  }

  std::ostringstream graph_text;
  IDREPAIR_RETURN_NOT_OK(
      idrepair::WriteTransitionGraph(graph_text, dataset.graph));
  in.graph_text = graph_text.str();
  // Records carry location IDs of the generator's graph; the program parses
  // graph_text, so the two numberings must agree.
  std::istringstream reparse(in.graph_text);
  auto parsed = idrepair::ReadTransitionGraph(reparse);
  if (!parsed.ok()) return parsed.status();
  if (parsed->num_locations() != dataset.graph.num_locations()) {
    return Status::Internal("graph text does not round-trip");
  }
  for (idrepair::LocationId l = 0; l < parsed->num_locations(); ++l) {
    if (parsed->LocationName(l) != dataset.graph.LocationName(l)) {
      return Status::Internal("graph text renumbers locations");
    }
  }

  in.truth = std::move(dataset.records);
  in.observed.reserve(in.truth.size());
  for (const auto& r : in.truth) {
    in.observed.push_back(idrepair::TrackingRecord{r.observed_id, r.loc, r.ts});
  }
  std::ostringstream csv;
  IDREPAIR_RETURN_NOT_OK(idrepair::WriteRecordsCsv(csv, *parsed, in.observed));
  in.csv = csv.str();
  in.num_trajectories =
      idrepair::TrajectorySet::FromRecords(in.observed).size();
  return in;
}

}  // namespace

void ChronoOrder(const Inputs& in,
                 std::vector<idrepair::TrackingRecord>* records,
                 std::vector<idrepair::GroundTruthRecord>* truth) {
  std::vector<size_t> order(in.observed.size());
  std::iota(order.begin(), order.end(), size_t{0});
  std::stable_sort(order.begin(), order.end(), [&in](size_t a, size_t b) {
    return idrepair::RecordChronoLess(in.observed[a], in.observed[b]);
  });
  for (size_t i : order) {
    records->push_back(in.observed[i]);
    truth->push_back(in.truth[i]);
  }
}

size_t InstancesOf(const std::string& workload) {
  if (workload == "dense_batch") return 8;
  if (workload == "stream_burst") return 4;
  return 1;
}

Result<std::vector<Inputs>> MakeInputs(const std::string& workload,
                                       uint64_t seed) {
  std::vector<Inputs> out;
  for (size_t i = 0; i < InstancesOf(workload); ++i) {
    auto in = MakeInstance(workload, seed, i);
    if (!in.ok()) return in.status();
    out.push_back(std::move(in).value());
  }
  return out;
}

}  // namespace perfbench
