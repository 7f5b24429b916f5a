#include <gtest/gtest.h>

#include <vector>

#include "gen/real_like.h"
#include "gen/synthetic.h"
#include "graph/generators.h"
#include "repair/repairer.h"
#include "repair/trajectory_graph.h"

namespace idrepair {
namespace {

RepairOptions RealOptions() {
  RepairOptions o;
  o.theta = 4;
  o.eta = 600;
  return o;
}

TrajectorySet SparseSet(const TransitionGraph& graph) {
  SyntheticConfig config;
  config.num_trajectories = 150;
  config.max_path_len = 4;
  config.window_seconds = 40000;  // sparse: gaps occur
  config.seed = 5;
  auto ds = GenerateSyntheticDataset(graph, config);
  EXPECT_TRUE(ds.ok()) << ds.status();
  return ds->BuildObservedTrajectories();
}

TEST(PartitionTest, SplitsAtGapsLargerThanEta) {
  std::vector<TrackingRecord> records = {
      {"a", 0, 0},     {"a", 1, 100},  // starts at 0
      {"b", 2, 200},                    // starts at 200 (gap 200 <= η)
      {"c", 0, 2000},                   // starts at 2000 (gap 1800 > η)
      {"d", 2, 2100},
  };
  TrajectorySet set = TrajectorySet::FromRecords(records);
  IdRepairer repairer(MakeRealLikeGraph(), RealOptions());
  auto partitions = repairer.Partition(set);
  ASSERT_EQ(partitions.size(), 2u);
  EXPECT_EQ(partitions[0].size(), 2u);
  EXPECT_EQ(partitions[1].size(), 2u);
}

TEST(PartitionTest, DenseSetIsOnePartition) {
  auto ds = MakeRealLikeDataset();
  ASSERT_TRUE(ds.ok());
  TrajectorySet set = ds->BuildObservedTrajectories();
  IdRepairer repairer(ds->graph, RealOptions());
  auto partitions = repairer.Partition(set);
  // Rush-hour traffic every few seconds: the chain never breaks.
  EXPECT_EQ(partitions.size(), 1u);
}

TEST(PartitionTest, EmptySetHasNoPartitions) {
  IdRepairer repairer(MakeRealLikeGraph(), RealOptions());
  EXPECT_TRUE(repairer.Partition(TrajectorySet{}).empty());
}

TEST(PartitionTest, EveryTrajectoryInExactlyOnePartition) {
  TransitionGraph graph = MakeRealLikeGraph();
  TrajectorySet set = SparseSet(graph);
  IdRepairer repairer(graph, RealOptions());
  auto partitions = repairer.Partition(set);
  EXPECT_GT(partitions.size(), 1u);
  std::vector<bool> seen(set.size(), false);
  for (const auto& p : partitions) {
    for (TrajIndex t : p) {
      EXPECT_FALSE(seen[t]);
      seen[t] = true;
    }
  }
  for (bool s : seen) EXPECT_TRUE(s);
}

// The property the single batch engine relies on: Gm has no edge between
// two chain components, so cliques (grown along Gm adjacency) never span
// components.
TEST(PartitionTest, NoTrajectoryGraphEdgeCrossesComponents) {
  TransitionGraph graph = MakeRealLikeGraph();
  TrajectorySet set = SparseSet(graph);
  RepairOptions options = RealOptions();
  IdRepairer repairer(graph, options);
  auto partitions = repairer.Partition(set);
  ASSERT_GT(partitions.size(), 1u);
  std::vector<size_t> component(set.size());
  for (size_t p = 0; p < partitions.size(); ++p) {
    for (TrajIndex t : partitions[p]) component[t] = p;
  }
  PredicateEvaluator pred(graph, options.theta, options.eta);
  TrajectoryGraph gm(set, pred, options);
  ASSERT_GT(gm.num_edges(), 0u);
  for (TrajIndex v = 0; v < gm.num_vertices(); ++v) {
    for (TrajIndex w : gm.Neighbors(v)) {
      EXPECT_EQ(component[v], component[w]) << v << " -- " << w;
    }
  }
}

}  // namespace
}  // namespace idrepair
