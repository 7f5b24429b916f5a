#ifndef IDREPAIR_REPAIR_REPAIRER_H_
#define IDREPAIR_REPAIR_REPAIRER_H_

#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "common/stopwatch.h"
#include "repair/candidates.h"
#include "repair/options.h"
#include "repair/predicates.h"
#include "repair/selectors.h"
#include "traj/trajectory_set.h"

namespace idrepair {

class TrajectoryGraph;

/// Per-phase timings and counters of one repair run, powering the paper's
/// running-time plots.
struct RepairStats {
  size_t num_trajectories = 0;
  size_t num_invalid = 0;           // IVTs in the input
  size_t gm_edges = 0;
  size_t cex_evaluations = 0;
  size_t cliques_enumerated = 0;
  size_t pck_pruned = 0;
  size_t jnb_checks = 0;
  size_t joinable_subsets = 0;      // all joinable subsets found (phase 1)
  size_t num_candidates = 0;        // |R| (repairs with |ivt| >= 1)
  size_t gr_edges = 0;              // 0 when the EMAX fast path skips Gr
  size_t num_selected = 0;          // |R'|
  double seconds_gm = 0.0;          // trajectory-graph construction
  double seconds_generation = 0.0;  // cliques + jnb + target assignment
  double seconds_selection = 0.0;   // Gr + selection
  double seconds_total = 0.0;
  // Wall/CPU split of the run: cpu_* sums the CPU seconds of every thread
  // that worked on the phase, so cpu ≈ wall when sequential and
  // cpu ≈ wall × threads when the phase scales. The per-phase cpu entries
  // are only filled by engines that own the phase (IdRepairer).
  double cpu_seconds_gm = 0.0;
  double cpu_seconds_generation = 0.0;  // cliques + jnb + scoring
  double cpu_seconds_total = 0.0;
  // Which clock produced the cpu_seconds_* fields ("process_cputime" or the
  // "std_clock" fallback), so CPU numbers from different platforms are
  // never compared unknowingly. Constant within a process.
  std::string cpu_clock_source = CpuStopwatch::SourceName();
  // Parallel-execution footprint: the decomposition width this run was
  // allowed (ExecOptions::ResolvedThreads, >= 1).
  int threads_used = 1;
  // Dynamic-scheduler footprint of the generation phase (ParallelForDynamic
  // over clique seeds): blocks claimed, worker tasks that claimed at least
  // one, and the worst max/mean busy-time ratio (1.0 = balanced).
  // Observational only — never feeds back into results.
  size_t sched_blocks = 0;
  size_t sched_workers = 0;
  double sched_imbalance = 1.0;
  // Incremental-streaming footprint (StreamingRepairer's batch adapter;
  // all zero for the batch engines): polls the replay issued, component
  // dirty-set invalidations, records that rode through a poll without
  // re-running generation for their component, appends the bounded buffer
  // rejected (backpressure), and component-scoped generation runs.
  size_t stream_polls = 0;
  size_t stream_dirty_components = 0;
  size_t stream_records_reused = 0;
  size_t stream_appends_rejected = 0;
  size_t stream_generation_runs = 0;
};

/// The outcome of one repair run.
///
/// ### Partial-result semantics
/// A Repair() call can end three ways:
///  1. Complete: `completion` is OK and every field is fully populated.
///  2. Degraded (deadline): the RepairOptions::deadline_ms budget ran out
///     mid-run. The engine stopped starting new work at a safe boundary —
///     phase (IdRepairer) or replay batch (StreamingRepairer's batch
///     adapter) — and passed the unprocessed remainder through unrepaired. `completion` carries
///     StatusCode::kDeadlineExceeded; everything populated is still
///     internally consistent (record conservation holds, every emitted
///     repair is a valid merge, `selected` indexes `candidates`,
///     `rewrites` matches `repaired`).
///  3. Error: the Result itself is non-OK (an injected fault, I/O failure,
///     ...). No RepairResult is produced and no caller-visible state was
///     mutated.
/// Consumers that must distinguish 1 from 2 check `completion`; consumers
/// that only need a usable trajectory set can ignore it.
struct RepairResult {
  /// Phase-1 output: every candidate repair with |ivt| >= 1, with rarity and
  /// effectiveness filled in (columnar; set columns interned, DESIGN.md §9).
  CandidateSet candidates;
  /// Phase-2 output: indices into `candidates`, ascending, compatible.
  std::vector<RepairIndex> selected;
  /// ID rewrites the selected repairs apply: trajectory index -> target ID.
  /// Only genuinely changed IDs appear.
  std::unordered_map<TrajIndex, std::string> rewrites;
  /// The repaired trajectory set: selected repairs joined, untouched
  /// trajectories passed through.
  TrajectorySet repaired;
  /// Ω(R') — the objective value of Eq. (4) attained by `selected`.
  double total_effectiveness = 0.0;
  /// OK for a complete run; kDeadlineExceeded for a graceful partial result
  /// (see the partial-result semantics above).
  Status completion = Status::OK();
  RepairStats stats;
};

/// Abstract repair engine: anything that turns a TrajectorySet into a
/// RepairResult. Implemented by the core two-phase pipeline (IdRepairer),
/// the streaming adapter (StreamingRepairer), and both §6.5.2 baselines, so
/// benches, the CLI, and tests can swap engines polymorphically.
///
/// Engines differ in how much of RepairResult they fill: all of them
/// produce `rewrites`, `repaired`, and timing stats; only the candidate-
/// based engine (IdRepairer) exposes `candidates`, `selected`, and
/// `total_effectiveness`.
class Repairer {
 public:
  virtual ~Repairer() = default;

  /// Repairs `set`. Implementations are const — one engine may serve many
  /// concurrent Repair calls.
  virtual Result<RepairResult> Repair(const TrajectorySet& set) const = 0;

  /// Stable engine name for logs and the CLI's --engine flag.
  virtual std::string_view name() const = 0;
};

/// Facade over the two-phase repair paradigm (§3): candidate repair
/// generation followed by compatible repair selection, with the LIG index
/// and MCP pruning optimizations applied per RepairOptions.
///
/// One run repairs every chain component (see Partition) independently
/// without being told about them: Gm has no edge between two components,
/// and clique roots grow along Gm adjacency, so each component's cliques,
/// candidates and rarity degrees are exactly those of a run on the
/// component alone.
///
/// Typical use:
///   IdRepairer repairer(graph, options);
///   auto result = repairer.Repair(trajectories);
class IdRepairer : public Repairer {
 public:
  /// The graph must outlive the repairer. Options are validated at Repair
  /// time.
  IdRepairer(const TransitionGraph& graph, RepairOptions options);

  /// Runs the full pipeline on `set`. When `selector` is non-null it
  /// overrides options.selection (used by the Fig 15 harness to plug in the
  /// oracle).
  Result<RepairResult> Repair(const TrajectorySet& set,
                              const RepairSelector* selector) const;

  Result<RepairResult> Repair(const TrajectorySet& set) const override {
    return Repair(set, nullptr);
  }

  /// Runs the pipeline downstream of Gm construction against a trajectory
  /// graph the caller already holds — the component-scoped entry point of
  /// the incremental streaming engine, which maintains `gm`'s adjacency
  /// edge-by-edge and shares one PredicateEvaluator (and its Floyd–Warshall
  /// closure) across every component repair. `gm` must be a graph over
  /// exactly `set` (num_vertices == set.size()) built against the same θ/η
  /// as `pred`, or InvalidArgument is returned. stats.seconds_gm stays 0.
  Result<RepairResult> RepairPrebuilt(const TrajectorySet& set,
                                      const TrajectoryGraph& gm,
                                      const PredicateEvaluator& pred) const;

  std::string_view name() const override { return "core"; }

  /// The chain components of `set` under the configured η: maximal runs of
  /// trajectories whose consecutive start times are within η. Two
  /// trajectories in different components can never share a joinable
  /// subset (the merged span would exceed η). Each entry lists the
  /// component's TrajectorySet indices, ascending; components are in
  /// start-time order.
  std::vector<std::vector<TrajIndex>> Partition(
      const TrajectorySet& set) const;

  const RepairOptions& options() const { return options_; }
  const TransitionGraph& graph() const { return *graph_; }

 private:
  /// Shared pipeline body: `prebuilt`/`external_pred` are both null on the
  /// building path and both non-null on the RepairPrebuilt path.
  Result<RepairResult> RepairImpl(const TrajectorySet& set,
                                  const RepairSelector* selector,
                                  const TrajectoryGraph* prebuilt,
                                  const PredicateEvaluator* external_pred) const;

  const TransitionGraph* graph_;
  RepairOptions options_;
  NormalizedEditSimilarity default_similarity_;
  // Evaluator shared across Repair() calls: graph and θ/η are fixed per
  // repairer, so the reachability build (the expensive part on city-scale
  // graphs) happens once, not once per call — and Repair() is const and may
  // run concurrently on one repairer, hence the call_once.
  mutable std::once_flag pred_once_;
  mutable std::optional<PredicateEvaluator> shared_pred_;
};

/// Applies `rewrites` to the records of `set` and regroups, yielding the
/// merged (joined) trajectory set. Exposed separately so baselines and the
/// streaming repairer can share it.
TrajectorySet ApplyRewrites(
    const TrajectorySet& set,
    const std::unordered_map<TrajIndex, std::string>& rewrites);

}  // namespace idrepair

#endif  // IDREPAIR_REPAIR_REPAIRER_H_
