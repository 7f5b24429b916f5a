// Scaling-regression smoke: the dense single-component workload — where
// only intra-component parallelism can help — run at 1 and 8 threads. The
// 8-thread run must reproduce the 1-thread candidate set, stats and
// selection exactly, per the repo's determinism contract.
//
// Wall-clock speedup is deliberately not asserted here: this region runs
// for tens of milliseconds, where scheduler noise dominates. The
// `scaling` stage of scripts/ci.sh gates the speedup instead, on the
// seconds-long giant-component table of bench_ext_partitioned.

#include <gtest/gtest.h>

#include <vector>

#include "gen/synthetic.h"
#include "graph/generators.h"
#include "repair/candidates.h"
#include "repair/repair_graph.h"
#include "repair/selectors.h"

namespace idrepair {
namespace {

struct GenerationRun {
  CandidateSet candidates;
  GenerationStats stats;
};

TEST(ScalingTest, GiantComponentIsByteIdenticalAcrossThreads) {
  // One dense chain component: every start-time gap far below η, so all
  // parallelism is intra-component.
  TransitionGraph graph = MakeRealLikeGraph();
  SyntheticConfig config;
  config.num_trajectories = 320;
  config.window_seconds = 3600;
  config.max_path_len = 4;
  config.seed = 2026;
  auto ds = GenerateSyntheticDataset(graph, config);
  ASSERT_TRUE(ds.ok()) << ds.status();
  TrajectorySet set = ds->BuildObservedTrajectories();

  RepairOptions options;
  options.theta = 4;
  options.eta = 600;
  PredicateEvaluator pred(graph, options.theta, options.eta);
  NormalizedEditSimilarity similarity;
  std::vector<bool> is_valid(set.size());
  for (TrajIndex i = 0; i < set.size(); ++i) {
    is_valid[i] = set.at(i).IsValid(graph);
  }

  // Gm is input, not the phase under test: build it once and share it (its
  // edge set depends on θ/η only, never on the thread budget).
  TrajectoryGraph gm(set, pred, options);
  auto run_generation = [&](int threads, GenerationRun* out) {
    RepairOptions o = options;
    o.exec.num_threads = threads;  // grains stay `auto`
    auto generated = GenerateCandidates(set, gm, pred, o, similarity,
                                        is_valid, &out->stats);
    ASSERT_TRUE(generated.ok()) << generated.status();
    out->candidates = std::move(generated).value();
    ASSERT_TRUE(ComputeEffectiveness(out->candidates, o, set.size()).ok());
  };

  GenerationRun serial, parallel;
  run_generation(1, &serial);
  run_generation(8, &parallel);
  ASSERT_GT(serial.candidates.size(), 200u)
      << "workload too easy to be a scaling test";

  ASSERT_EQ(parallel.candidates.size(), serial.candidates.size());
  for (size_t i = 0; i < serial.candidates.size(); ++i) {
    ASSERT_EQ(parallel.candidates.members(i), serial.candidates.members(i))
        << "candidate " << i;
    ASSERT_EQ(parallel.candidates.invalid_members(i),
              serial.candidates.invalid_members(i))
        << "candidate " << i;
    ASSERT_EQ(parallel.candidates.target_id(i),
              serial.candidates.target_id(i))
        << "candidate " << i;
    // Bit-identical floats, never approximate.
    ASSERT_EQ(parallel.candidates.similarity(i),
              serial.candidates.similarity(i))
        << "candidate " << i;
    ASSERT_EQ(parallel.candidates.rarity(i), serial.candidates.rarity(i))
        << "candidate " << i;
    ASSERT_EQ(parallel.candidates.effectiveness(i),
              serial.candidates.effectiveness(i))
        << "candidate " << i;
  }
  EXPECT_EQ(parallel.stats.jnb_checks, serial.stats.jnb_checks);
  EXPECT_EQ(parallel.stats.joinable_subsets, serial.stats.joinable_subsets);
  EXPECT_EQ(parallel.stats.clique_stats.cliques_emitted,
            serial.stats.clique_stats.cliques_emitted);

  // Selection rides the same instance: Gr build + DMIN at 8 threads must
  // match the 1-thread reference indices exactly.
  ExecOptions serial_exec;
  serial_exec.num_threads = 1;
  auto gr1 = RepairGraph::Build(serial.candidates, set.size(), serial_exec);
  ASSERT_TRUE(gr1.ok()) << gr1.status();
  ExecOptions parallel_exec;
  parallel_exec.num_threads = 8;
  auto gr8 =
      RepairGraph::Build(parallel.candidates, set.size(), parallel_exec);
  ASSERT_TRUE(gr8.ok()) << gr8.status();
  ASSERT_EQ(gr8->num_edges(), gr1->num_edges());
  DminSelector dmin;
  SelectionContext ctx1, ctx8;
  ctx1.exec = serial_exec;
  ctx8.exec = parallel_exec;
  auto sel1 = dmin.Select(*gr1, serial.candidates, ctx1);
  auto sel8 = dmin.Select(*gr8, parallel.candidates, ctx8);
  ASSERT_TRUE(sel1.ok()) << sel1.status();
  ASSERT_TRUE(sel8.ok()) << sel8.status();
  EXPECT_EQ(*sel8, *sel1);
}

}  // namespace
}  // namespace idrepair
