#include "repair/repairer.h"

#include <algorithm>
#include <optional>

#include "common/stopwatch.h"
#include "fault/deadline.h"
#include "obs/metrics.h"
#include "obs/phase.h"
#include "obs/trace.h"
#include "repair/repair_graph.h"
#include "repair/trajectory_graph.h"

namespace idrepair {

namespace {

/// Core-pipeline instrumentation, resolved once against the global registry
/// so Repair() never takes the registry lock. The work counters are pure
/// functions of the input and options (Stability::kStable) — the obs tests
/// assert they are byte-identical across thread counts; the phase-latency
/// histograms are wall-clock and therefore kRuntime.
struct RepairInstruments {
  obs::Counter* attempts;
  obs::Counter* runs;
  obs::Counter* candidates;
  obs::Counter* cliques;
  obs::Counter* selected;
  obs::Counter* rewrites;
  obs::Histogram* gm_seconds;
  obs::Histogram* generation_seconds;
  obs::Histogram* selection_seconds;
  obs::Histogram* selection_graph_seconds;
  obs::Histogram* selection_pick_seconds;
  obs::Histogram* conflict_degree;
  obs::Histogram* total_seconds;

  static RepairInstruments& Get() {
    static RepairInstruments* m = [] {
      auto& reg = obs::MetricsRegistry::Global();
      auto* ri = new RepairInstruments();
      ri->attempts = reg.GetCounter(
          "idrepair_repair_attempts_total", obs::Stability::kStable,
          "Core-pipeline Repair() entries (attempted, whether or not the "
          "run completed)");
      ri->runs = reg.GetCounter("idrepair_repair_runs_total",
                                obs::Stability::kStable,
                                "Core-pipeline Repair() invocations");
      ri->candidates = reg.GetCounter(
          "idrepair_repair_candidates_total", obs::Stability::kStable,
          "Candidate repairs generated (|R| summed over runs)");
      ri->cliques = reg.GetCounter("idrepair_repair_cliques_total",
                                   obs::Stability::kStable,
                                   "Cliques enumerated during generation");
      ri->selected = reg.GetCounter(
          "idrepair_repair_selected_total", obs::Stability::kStable,
          "Compatible repairs selected (|R'| summed over runs)");
      ri->rewrites = reg.GetCounter("idrepair_repair_rewrites_total",
                                    obs::Stability::kStable,
                                    "Trajectory ID rewrites applied");
      ri->gm_seconds = reg.GetHistogram(
          "idrepair_repair_gm_seconds", obs::Stability::kRuntime,
          obs::DefaultLatencyBuckets(),
          "Trajectory-graph construction wall time");
      ri->generation_seconds = reg.GetHistogram(
          "idrepair_repair_generation_seconds", obs::Stability::kRuntime,
          obs::DefaultLatencyBuckets(),
          "Candidate-generation phase wall time");
      ri->selection_seconds = reg.GetHistogram(
          "idrepair_repair_selection_seconds", obs::Stability::kRuntime,
          obs::DefaultLatencyBuckets(), "Selection phase wall time");
      ri->selection_graph_seconds = reg.GetHistogram(
          "idrepair_repair_selection_graph_seconds", obs::Stability::kRuntime,
          obs::DefaultLatencyBuckets(),
          "Selection sub-phase: repair-graph (Gr) construction wall time");
      ri->selection_pick_seconds = reg.GetHistogram(
          "idrepair_repair_selection_pick_seconds", obs::Stability::kRuntime,
          obs::DefaultLatencyBuckets(),
          "Selection sub-phase: greedy pick/commit loop wall time");
      ri->conflict_degree = reg.GetHistogram(
          "idrepair_selection_conflict_degree", obs::Stability::kStable,
          obs::ExponentialBuckets(1.0, 2.0, 16),
          "Conflict edges per repair-graph vertex (Gr degree distribution; "
          "only observed on the graph-materializing selection path)");
      ri->total_seconds = reg.GetHistogram(
          "idrepair_repair_total_seconds", obs::Stability::kRuntime,
          obs::DefaultLatencyBuckets(), "End-to-end Repair() wall time");
      return ri;
    }();
    return *m;
  }
};

}  // namespace

IdRepairer::IdRepairer(const TransitionGraph& graph, RepairOptions options)
    : graph_(&graph), options_(std::move(options)) {}

Result<RepairResult> IdRepairer::Repair(const TrajectorySet& set,
                                        const RepairSelector* selector) const {
  return RepairImpl(set, selector, nullptr, nullptr);
}

Result<RepairResult> IdRepairer::RepairPrebuilt(
    const TrajectorySet& set, const TrajectoryGraph& gm,
    const PredicateEvaluator& pred) const {
  if (gm.num_vertices() != set.size()) {
    return Status::InvalidArgument(
        "RepairPrebuilt: graph vertex count disagrees with the set");
  }
  return RepairImpl(set, nullptr, &gm, &pred);
}

Result<RepairResult> IdRepairer::RepairImpl(
    const TrajectorySet& set, const RepairSelector* selector,
    const TrajectoryGraph* prebuilt,
    const PredicateEvaluator* external_pred) const {
  IDREPAIR_RETURN_NOT_OK(options_.Validate());
  IDREPAIR_RETURN_NOT_OK(graph_->Validate());
  obs::ApplyOptions(options_.obs);
  RepairInstruments& inst = RepairInstruments::Get();
  obs::TraceSpan run_span("repair.run");
  const IdSimilarity& base_similarity = options_.similarity != nullptr
                                            ? *options_.similarity
                                            : default_similarity_;
#ifndef NDEBUG
  // Debug builds verify the [0, 1] contract at every metric call; see
  // RangeCheckedSimilarity.
  RangeCheckedSimilarity checked_similarity(base_similarity);
  const IdSimilarity& similarity = checked_similarity;
#else
  const IdSimilarity& similarity = base_similarity;
#endif

  if (obs::Enabled()) inst.attempts->Increment();
  fault::Deadline deadline = fault::Deadline::FromMillis(options_.deadline_ms);

  RepairResult result;
  Stopwatch total;
  CpuStopwatch total_cpu;
  result.stats.num_trajectories = set.size();
  result.stats.threads_used = options_.exec.ResolvedThreads();

  // Graceful degradation: seal whatever phases completed into a well-formed
  // partial result (phase granularity — rewrites found so far applied, the
  // rest passed through) with `why` as the completion marker.
  auto finish_degraded = [&](Status why) -> RepairResult {
    result.completion = std::move(why);
    for (RepairIndex r : result.selected) {
      const std::string& target = result.candidates.target_id(r);
      for (TrajIndex m : result.candidates.members(r)) {
        if (set.at(m).id() != target) result.rewrites[m] = target;
      }
    }
    result.repaired = ApplyRewrites(set, result.rewrites);
    result.stats.num_selected = result.selected.size();
    result.stats.seconds_total = total.ElapsedSeconds();
    result.stats.cpu_seconds_total = total_cpu.ElapsedSeconds();
    return std::move(result);
  };

  std::vector<bool> is_valid(set.size(), false);
  for (TrajIndex i = 0; i < set.size(); ++i) {
    is_valid[i] = set.at(i).IsValid(*graph_);
    if (!is_valid[i]) ++result.stats.num_invalid;
  }

  // ---- Phase 1: candidate repair generation (§3.2) ----
  // The evaluator (and its Floyd–Warshall closure) and the trajectory graph
  // are built here unless the caller brought its own — RepairPrebuilt
  // amortizes both across the streaming engine's component repairs.
  if (external_pred == nullptr) {
    std::call_once(pred_once_, [&] {
      shared_pred_.emplace(*graph_, options_.theta, options_.eta);
    });
  }
  const PredicateEvaluator& pred =
      external_pred != nullptr ? *external_pred : *shared_pred_;
  std::optional<TrajectoryGraph> gm_storage;
  if (prebuilt == nullptr) {
    obs::PhaseScope phase("repair.gm", &result.stats.seconds_gm,
                          &result.stats.cpu_seconds_gm, inst.gm_seconds);
    gm_storage.emplace(set, pred, options_);
  }
  const TrajectoryGraph& gm = prebuilt != nullptr ? *prebuilt : *gm_storage;
  result.stats.gm_edges = gm.num_edges();
  result.stats.cex_evaluations = gm.stats().cex_evaluations;

  if (deadline.Expired()) {
    return finish_degraded(deadline.Check("candidate generation"));
  }

  GenerationStats gen_stats;
  {
    obs::PhaseScope phase("repair.generation",
                          &result.stats.seconds_generation,
                          &result.stats.cpu_seconds_generation,
                          inst.generation_seconds);
    auto candidates = GenerateCandidates(set, gm, pred, options_,
                                         similarity, is_valid, &gen_stats);
    IDREPAIR_RETURN_NOT_OK(candidates.status());
    result.candidates = std::move(candidates).value();
    IDREPAIR_RETURN_NOT_OK(
        ComputeEffectiveness(result.candidates, options_, set.size()));
  }
  result.stats.cliques_enumerated = gen_stats.clique_stats.cliques_emitted;
  result.stats.pck_pruned = gen_stats.clique_stats.pck_pruned;
  result.stats.jnb_checks = gen_stats.jnb_checks;
  result.stats.joinable_subsets = gen_stats.joinable_subsets;
  result.stats.sched_blocks = gen_stats.sched_blocks;
  result.stats.sched_workers = gen_stats.sched_workers;
  result.stats.sched_imbalance = gen_stats.sched_imbalance;
  result.stats.num_candidates = result.candidates.size();

  if (deadline.Expired()) {
    // Candidates exist but none were selected: the partial result repairs
    // nothing, which trivially preserves every input record.
    return finish_degraded(deadline.Check("selection"));
  }

  // ---- Phase 2: compatible repair selection (§3.3) ----
  {
    obs::PhaseScope phase("repair.selection", &result.stats.seconds_selection,
                          nullptr, inst.selection_seconds);
    SelectionContext ctx;
    ctx.exec = options_.exec;
    ctx.deadline = &deadline;
    if (selector == nullptr &&
        options_.selection == SelectionAlgorithm::kEmax) {
      // EMAX fast path: greedily taking the highest-ω repair and discarding
      // everything that shares a trajectory never needs the repair graph
      // materialized — incompatibility is checked through a per-trajectory
      // "used" mask, which is exactly "discard all Gr neighbors". On dense
      // datasets Gr can hold hundreds of millions of edges, so this path
      // turns the selection phase from the bottleneck into a linear pass.
      auto selected = SelectEmaxByCover(result.candidates, set.size(), ctx);
      IDREPAIR_RETURN_NOT_OK(selected.status());
      result.selected = std::move(selected).value();
    } else {
      std::optional<RepairGraph> gr;
      {
        obs::PhaseScope sub("repair.selection.graph", nullptr, nullptr,
                            inst.selection_graph_seconds);
        auto built =
            RepairGraph::Build(result.candidates, set.size(), options_.exec);
        IDREPAIR_RETURN_NOT_OK(built.status());
        gr.emplace(std::move(built).value());
      }
      result.stats.gr_edges = gr->num_edges();
      if (obs::Enabled()) {
        for (RepairIndex v = 0; v < gr->num_vertices(); ++v) {
          inst.conflict_degree->Observe(static_cast<double>(gr->Degree(v)));
        }
      }
      std::unique_ptr<RepairSelector> owned;
      if (selector == nullptr) {
        owned = MakeSelector(options_.selection);
        selector = owned.get();
      }
      obs::PhaseScope sub("repair.selection.pick", nullptr, nullptr,
                          inst.selection_pick_seconds);
      auto selected = selector->Select(*gr, result.candidates, ctx);
      IDREPAIR_RETURN_NOT_OK(selected.status());
      result.selected = std::move(selected).value();
    }
  }
  result.stats.num_selected = result.selected.size();
  result.total_effectiveness =
      TotalEffectiveness(result.candidates, result.selected);

  if (deadline.Expired()) {
    // The budget ran out mid-selection: the commit loop stopped at a safe
    // boundary, so `selected` is a compatible prefix of the full greedy
    // sequence — seal it as a partial result.
    return finish_degraded(deadline.Check("selection commit"));
  }

  // ---- Apply: rewrite IDs and join (Definition 2.5) ----
  for (RepairIndex r : result.selected) {
    const std::string& target = result.candidates.target_id(r);
    for (TrajIndex m : result.candidates.members(r)) {
      if (set.at(m).id() != target) result.rewrites[m] = target;
    }
  }
  result.repaired = ApplyRewrites(set, result.rewrites);
  result.candidates.Freeze();  // no further appends; shed the intern index
  result.stats.seconds_total = total.ElapsedSeconds();
  result.stats.cpu_seconds_total = total_cpu.ElapsedSeconds();
  if (obs::Enabled()) {
    inst.runs->Increment();
    inst.candidates->Increment(result.stats.num_candidates);
    inst.cliques->Increment(result.stats.cliques_enumerated);
    inst.selected->Increment(result.stats.num_selected);
    inst.rewrites->Increment(result.rewrites.size());
    inst.total_seconds->Observe(result.stats.seconds_total);
  }
  return result;
}

std::vector<std::vector<TrajIndex>> IdRepairer::Partition(
    const TrajectorySet& set) const {
  // TrajectorySet order is start-time order (FromRecords sorts), so chain
  // components are contiguous index ranges; still sort defensively in case
  // the set was constructed directly from unordered trajectories.
  std::vector<TrajIndex> order(set.size());
  for (TrajIndex i = 0; i < set.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&](TrajIndex a, TrajIndex b) {
                     return set.at(a).start_time() < set.at(b).start_time();
                   });
  std::vector<std::vector<TrajIndex>> components;
  for (size_t i = 0; i < order.size(); ++i) {
    bool new_component =
        i == 0 || set.at(order[i]).start_time() -
                          set.at(order[i - 1]).start_time() >
                      options_.eta;
    if (new_component) components.emplace_back();
    components.back().push_back(order[i]);
  }
  for (auto& c : components) std::sort(c.begin(), c.end());
  return components;
}

TrajectorySet ApplyRewrites(
    const TrajectorySet& set,
    const std::unordered_map<TrajIndex, std::string>& rewrites) {
  std::vector<TrackingRecord> records;
  records.reserve(set.total_records());
  for (TrajIndex i = 0; i < set.size(); ++i) {
    const Trajectory& t = set.at(i);
    auto it = rewrites.find(i);
    const std::string& id = it != rewrites.end() ? it->second : t.id();
    for (const auto& p : t.points()) {
      records.push_back(TrackingRecord{id, p.loc, p.ts});
    }
  }
  return TrajectorySet::FromRecords(records);
}

}  // namespace idrepair
