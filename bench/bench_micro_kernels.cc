// google-benchmark microbenchmarks for the pipeline's hot kernels: edit
// distance, the cex predicate, LIG candidate queries, clique enumeration,
// and the selection heuristics.

#include <benchmark/benchmark.h>

#include <algorithm>

#include "common/rng.h"
#include "gen/real_like.h"
#include "lig/length_indexed_grids.h"
#include "repair/candidates.h"
#include "repair/repair_graph.h"
#include "repair/repairer.h"
#include "repair/selectors.h"
#include "sim/edit_distance.h"

namespace idrepair {
namespace {

std::string RandomId(Rng& rng, size_t len) {
  std::string s(len, 'a');
  for (char& c : s) c = rng.LowercaseLetter();
  return s;
}

void BM_EditDistance(benchmark::State& state) {
  Rng rng(1);
  std::vector<std::pair<std::string, std::string>> pairs;
  for (int i = 0; i < 256; ++i) {
    pairs.emplace_back(RandomId(rng, 8), RandomId(rng, 8));
  }
  size_t i = 0;
  for (auto _ : state) {
    const auto& [a, b] = pairs[i++ & 255];
    benchmark::DoNotOptimize(EditDistance(a, b));
  }
}
BENCHMARK(BM_EditDistance);

void BM_EditDistanceBounded(benchmark::State& state) {
  Rng rng(1);
  std::vector<std::pair<std::string, std::string>> pairs;
  for (int i = 0; i < 256; ++i) {
    pairs.emplace_back(RandomId(rng, 8), RandomId(rng, 8));
  }
  size_t i = 0;
  for (auto _ : state) {
    const auto& [a, b] = pairs[i++ & 255];
    benchmark::DoNotOptimize(EditDistanceBounded(a, b, 3));
  }
}
BENCHMARK(BM_EditDistanceBounded);

struct Workload {
  Dataset dataset;
  TrajectorySet set;
  RepairOptions options;

  static const Workload& Get() {
    static Workload* w = [] {
      auto ds = MakeScaledRealLikeDataset(1000);
      auto* out = new Workload{std::move(*ds), {}, {}};
      out->set = out->dataset.BuildObservedTrajectories();
      out->options.theta = 4;
      out->options.eta = 600;
      return out;
    }();
    return *w;
  }
};

// Pairs come from LIG probes, exactly the pairs a Gm build hands to cex
// (feasible, j > i). Uniformly random pairs almost all fail the η span
// check before the merge and measure only that early exit.
void BM_CexPredicate(benchmark::State& state) {
  const Workload& w = Workload::Get();
  PredicateEvaluator pred(w.dataset.graph, 4, 600);
  LengthIndexedGrids lig(w.set, LengthIndexedGrids::Options{4, 600, 60});
  std::vector<std::pair<TrajIndex, TrajIndex>> pairs;
  std::vector<TrajIndex> candidates;
  for (TrajIndex i = 0; i < w.set.size(); ++i) {
    if (!pred.InternallyFeasible(w.set.at(i))) continue;
    candidates.clear();
    lig.CollectCandidates(i, &candidates);
    for (TrajIndex j : candidates) {
      if (j > i && pred.InternallyFeasible(w.set.at(j))) {
        pairs.emplace_back(i, j);
      }
    }
  }
  Rng rng(2);
  rng.Shuffle(pairs.begin(), pairs.end());
  pairs.resize(std::min<size_t>(pairs.size(), 1024));
  size_t i = 0;
  for (auto _ : state) {
    const auto& [a, b] = pairs[i++ % pairs.size()];
    benchmark::DoNotOptimize(pred.Cex(w.set.at(a), w.set.at(b)));
  }
}
BENCHMARK(BM_CexPredicate);

void BM_LigBuild(benchmark::State& state) {
  const Workload& w = Workload::Get();
  LengthIndexedGrids::Options o{4, 600, 60};
  for (auto _ : state) {
    LengthIndexedGrids lig(w.set, o);
    benchmark::DoNotOptimize(lig.num_indexed());
  }
}
BENCHMARK(BM_LigBuild);

void BM_LigQuery(benchmark::State& state) {
  const Workload& w = Workload::Get();
  LengthIndexedGrids::Options o{4, 600, 60};
  LengthIndexedGrids lig(w.set, o);
  std::vector<TrajIndex> out;
  TrajIndex k = 0;
  for (auto _ : state) {
    out.clear();
    lig.CollectCandidates(k, &out);
    benchmark::DoNotOptimize(out.size());
    k = (k + 1) % w.set.size();
  }
}
BENCHMARK(BM_LigQuery);

// The same probes against the dynamic (per-cell map) form the streaming
// engine maintains. Removing and re-inserting one indexed member switches a
// built index to that form without changing its contents.
void BM_LigQueryDynamic(benchmark::State& state) {
  const Workload& w = Workload::Get();
  LengthIndexedGrids::Options o{4, 600, 60};
  LengthIndexedGrids lig(w.set, o);
  for (TrajIndex i = 0; i < w.set.size(); ++i) {
    if (lig.Remove(i)) {
      lig.Insert(i);
      break;
    }
  }
  std::vector<TrajIndex> out;
  TrajIndex k = 0;
  for (auto _ : state) {
    out.clear();
    lig.CollectCandidates(k, &out);
    benchmark::DoNotOptimize(out.size());
    k = (k + 1) % w.set.size();
  }
}
BENCHMARK(BM_LigQueryDynamic);

void BM_TrajectoryGraphBuild(benchmark::State& state) {
  const Workload& w = Workload::Get();
  PredicateEvaluator pred(w.dataset.graph, 4, 600);
  for (auto _ : state) {
    TrajectoryGraph gm(w.set, pred, w.options);
    benchmark::DoNotOptimize(gm.num_edges());
  }
}
BENCHMARK(BM_TrajectoryGraphBuild);

void BM_CliqueEnumeration(benchmark::State& state) {
  const Workload& w = Workload::Get();
  PredicateEvaluator pred(w.dataset.graph, 4, 600);
  TrajectoryGraph gm(w.set, pred, w.options);
  for (auto _ : state) {
    CliqueEnumerator enumerator(w.set, gm, pred, w.options);
    size_t count = 0;
    enumerator.Enumerate(
        [&](const std::vector<TrajIndex>&, const std::vector<MergedPoint>&) {
          ++count;
        });
    benchmark::DoNotOptimize(count);
  }
}
BENCHMARK(BM_CliqueEnumeration);

// jnb over the merged record sequences of enumerated cliques, as candidate
// generation calls it once per clique: each adjacency is a Gt HasEdge.
void BM_Jnb(benchmark::State& state) {
  const Workload& w = Workload::Get();
  PredicateEvaluator pred(w.dataset.graph, 4, 600);
  TrajectoryGraph gm(w.set, pred, w.options);
  std::vector<std::vector<MergedPoint>> merged;
  CliqueEnumerator enumerator(w.set, gm, pred, w.options);
  enumerator.Enumerate(
      [&](const std::vector<TrajIndex>&, const std::vector<MergedPoint>& m) {
        if (merged.size() < 1024) merged.push_back(m);
      });
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(pred.JnbMerged(merged[i++ % merged.size()]));
  }
}
BENCHMARK(BM_Jnb);

void BM_FullRepair(benchmark::State& state) {
  const Workload& w = Workload::Get();
  IdRepairer repairer(w.dataset.graph, w.options);
  for (auto _ : state) {
    auto result = repairer.Repair(w.set);
    benchmark::DoNotOptimize(result->selected.size());
  }
}
BENCHMARK(BM_FullRepair);

void BM_EmaxSelection(benchmark::State& state) {
  const Workload& w = Workload::Get();
  IdRepairer repairer(w.dataset.graph, w.options);
  auto result = repairer.Repair(w.set);
  auto built = RepairGraph::Build(result->candidates, w.set.size(),
                                 w.options.exec);
  RepairGraph gr = std::move(built).value();
  EmaxSelector emax;
  for (auto _ : state) {
    benchmark::DoNotOptimize(emax.Select(gr, result->candidates).size());
  }
}
BENCHMARK(BM_EmaxSelection);

}  // namespace
}  // namespace idrepair

BENCHMARK_MAIN();
