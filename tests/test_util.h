#ifndef IDREPAIR_TESTS_TEST_UTIL_H_
#define IDREPAIR_TESTS_TEST_UTIL_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "baselines/id_similarity_repairer.h"
#include "baselines/neighborhood_repairer.h"
#include "graph/generators.h"
#include "graph/transition_graph.h"
#include "repair/options.h"
#include "repair/repairer.h"
#include "stream/streaming_repairer.h"
#include "traj/tracking_record.h"
#include "traj/trajectory_set.h"

namespace idrepair {
namespace testutil {

/// The stable names of every registered repair engine, in a fixed order the
/// differential and fuzz suites iterate over.
inline const std::vector<std::string_view>& AllEngineNames() {
  static const std::vector<std::string_view> kNames = {
      "core", "streaming", "idsim", "neighborhood"};
  return kNames;
}

/// Builds a repair engine by its stable name (the CLI's --engine values),
/// behind the unified Repairer interface. The graph must outlive the
/// engine; `options` is copied.
inline std::unique_ptr<Repairer> MakeEngineByName(
    std::string_view name, const TransitionGraph& graph,
    const RepairOptions& options) {
  if (name == "core") return std::make_unique<IdRepairer>(graph, options);
  if (name == "streaming") {
    return std::make_unique<StreamingRepairer>(graph, options);
  }
  if (name == "idsim") return std::make_unique<IdSimilarityRepairer>();
  if (name == "neighborhood") {
    return std::make_unique<NeighborhoodRepairer>(graph, options);
  }
  return nullptr;
}

/// Seconds since midnight for an HH:MM:SS clock reading.
constexpr Timestamp HMS(int h, int m, int s) {
  return static_cast<Timestamp>(h) * 3600 + m * 60 + s;
}

/// The seven tracking records of Table 1 of the paper, against the
/// Figure 1(b) graph (MakePaperExampleGraph, locations A=0..E=4).
inline std::vector<TrackingRecord> MakeTable1Records() {
  const LocationId A = 0, B = 1, C = 2, D = 3, E = 4;
  return {
      {"GL21348", A, HMS(8, 9, 10)},  {"GL21348", B, HMS(8, 13, 7)},
      {"GL03245", C, HMS(8, 17, 23)}, {"GL21348", D, HMS(8, 19, 13)},
      {"GL83248", D, HMS(8, 19, 40)}, {"GL21348", E, HMS(8, 21, 29)},
      {"GL83248", E, HMS(8, 21, 30)},
  };
}

/// The three trajectories of Table 2 (indices follow TrajectorySet start-time
/// order: 0 = GL21348, 1 = GL03245, 2 = GL83248).
inline TrajectorySet MakeTable2Trajectories() {
  return TrajectorySet::FromRecords(MakeTable1Records());
}

/// Repair options matching the running example: the Figure 1(b) valid paths
/// hold up to 5 records and the example trajectories span ~12 minutes, so
/// θ=5 and η=1200 s (the paper's real-dataset defaults θ=4/η=600 belong to
/// the 4-location Figure 9(b) graph).
inline RepairOptions RunningExampleOptions() {
  RepairOptions options;
  options.theta = 5;
  options.eta = 1200;
  options.zeta = 4;
  options.lambda = 0.5;
  return options;
}

}  // namespace testutil
}  // namespace idrepair

#endif  // IDREPAIR_TESTS_TEST_UTIL_H_
