#ifndef IDREPAIR_REPAIR_OPTIONS_H_
#define IDREPAIR_REPAIR_OPTIONS_H_

#include <cstdint>

#include "common/status.h"
#include "exec/exec_options.h"
#include "obs/obs.h"
#include "sim/similarity.h"
#include "traj/tracking_record.h"

namespace idrepair {

class LengthIndexedGrids;

/// Which heuristic picks the compatible repair set from the repair graph
/// (§4.2, §6.5.1). kExact solves the weighted-independent-set problem
/// optimally (exponential worst case; use on small inputs only).
enum class SelectionAlgorithm {
  kEmax,   // maximum-effectiveness first (Algorithm 3; the paper's choice)
  kDmin,   // minimum-degree first
  kDmax,   // maximum-degree first
  kExact,  // branch-and-bound optimum of Eq. (4)
};

/// How rarity aggregates the degrees of a repair's invalid trajectories.
enum class RarityAggregation {
  kMin,  // Eq. (2) as written
  kMax,  // alternative consistent with the paper's worked example (see
         // DESIGN.md §3); exposed for the ablation bench
};

/// Tuning knobs of the two-phase repair paradigm. Defaults are the paper's
/// synthetic-dataset defaults (§6.3); the real-dataset experiments use
/// θ=4, η=600, ζ=4, λ=0.5 (§6.1.1).
///
/// Construction: either fill fields directly, or chain the With* setters
/// and finish with Validated(), which surfaces configuration errors at
/// construction time instead of inside the first Repair() call:
///
///   auto options = RepairOptions()
///                      .WithTheta(4).WithEta(600).WithThreads(8)
///                      .Validated();
///   if (!options.ok()) { ... }
///
/// ### Ownership contract
/// RepairOptions never owns pointed-to collaborators. In particular,
/// `similarity` (when non-null) must outlive every repairer constructed
/// from these options — repairers keep the pointer, not a copy. This is
/// the single authoritative statement of that contract; call sites that
/// allocate a metric (e.g. the CLI) keep it alive for the whole run.
struct RepairOptions {
  /// θ — maximum records in a valid trajectory (§2.3).
  size_t theta = 8;
  /// η — maximum time span of a valid trajectory, seconds (§2.3).
  Timestamp eta = 600;
  /// ζ — maximum trajectories in a joinable subset (§2.3).
  size_t zeta = 4;
  /// λ — similarity/potency trade-off in Eq. (3), in (0, 1].
  double lambda = 0.5;

  /// Grid bin width of the LIG index, seconds.
  Timestamp time_bin = 60;
  /// Use the Length-Indexed Grids index when building the trajectory graph
  /// (§5.1). Off = exhaustive pairwise cex.
  bool use_lig = true;
  /// Use minimum-cover-prefix pruning during clique generation (§5.2).
  bool use_mcp_pruning = true;

  /// Effectiveness logarithm base is rarity + this offset (Eq. (3) uses 1).
  uint32_t rarity_base_offset = 1;
  /// Degree aggregation for rarity.
  RarityAggregation rarity_aggregation = RarityAggregation::kMin;

  /// Repair-selection heuristic.
  SelectionAlgorithm selection = SelectionAlgorithm::kEmax;

  /// ID similarity metric for Eq. (1)/(5). Not owned (see the ownership
  /// contract above); nullptr selects the paper's normalized edit
  /// similarity. Implementations must return values in [0, 1]; debug
  /// builds verify this at every use.
  const IdSimilarity* similarity = nullptr;

  /// A prebuilt LIG index the engine may reuse instead of rebuilding one
  /// per Repair() call — the daemon's load-not-rebuild path for repairs
  /// over a registered resident corpus. Not owned (same contract as
  /// `similarity`). The index is consulted only when the set being
  /// repaired *is* the object the index was built over (pointer identity
  /// against LengthIndexedGrids::indexed_set()) and the θ/η/time_bin knobs
  /// match; any mismatch silently falls back to a fresh build, so results
  /// are identical either way.
  const LengthIndexedGrids* resident_lig = nullptr;

  /// Parallel-execution knobs (thread count, task granularity), consumed
  /// by every engine: trajectory-graph sharding, candidate generation and
  /// selection shards, streaming flushes.
  ExecOptions exec;

  /// Runtime-observability knobs (metrics + trace spans), consumed by every
  /// engine via obs::ApplyOptions at Repair entry. Never affects results.
  ObsOptions obs;

  /// Wall-clock budget for one Repair() call, milliseconds; 0 disables.
  /// When the budget runs out mid-run the engine degrades gracefully: it
  /// stops starting new work at the next safe boundary (phase or replay
  /// batch), passes the unprocessed remainder through unrepaired, and
  /// returns a well-formed partial RepairResult whose `completion` Status
  /// is DeadlineExceeded (see repairer.h).
  int64_t deadline_ms = 0;

  // ---- Fluent construction -----------------------------------------
  RepairOptions& WithTheta(size_t v) { theta = v; return *this; }
  RepairOptions& WithEta(Timestamp v) { eta = v; return *this; }
  RepairOptions& WithZeta(size_t v) { zeta = v; return *this; }
  RepairOptions& WithLambda(double v) { lambda = v; return *this; }
  RepairOptions& WithTimeBin(Timestamp v) { time_bin = v; return *this; }
  RepairOptions& WithLig(bool v) { use_lig = v; return *this; }
  RepairOptions& WithMcpPruning(bool v) { use_mcp_pruning = v; return *this; }
  RepairOptions& WithRarityBaseOffset(uint32_t v) {
    rarity_base_offset = v;
    return *this;
  }
  RepairOptions& WithRarityAggregation(RarityAggregation v) {
    rarity_aggregation = v;
    return *this;
  }
  RepairOptions& WithSelection(SelectionAlgorithm v) {
    selection = v;
    return *this;
  }
  RepairOptions& WithSimilarity(const IdSimilarity* v) {
    similarity = v;
    return *this;
  }
  RepairOptions& WithResidentLig(const LengthIndexedGrids* v) {
    resident_lig = v;
    return *this;
  }
  RepairOptions& WithThreads(int v) {
    exec.num_threads = v;
    return *this;
  }
  RepairOptions& WithMinPartitionGrain(size_t v) {
    exec.min_partition_grain = v;
    return *this;
  }
  RepairOptions& WithMinCandidateGrain(size_t v) {
    exec.min_candidate_grain = v;
    return *this;
  }
  RepairOptions& WithMinSelectionGrain(size_t v) {
    exec.min_selection_grain = v;
    return *this;
  }
  RepairOptions& WithObsEnabled(bool v) {
    obs.enabled = v;
    return *this;
  }
  RepairOptions& WithTraceCapacity(size_t v) {
    obs.trace_capacity = v;
    return *this;
  }
  RepairOptions& WithMetricsIntervalMs(int64_t v) {
    obs.metrics_interval_ms = v;
    return *this;
  }
  RepairOptions& WithDeadlineMs(int64_t v) {
    deadline_ms = v;
    return *this;
  }

  /// Rejects nonsensical parameter combinations.
  Status Validate() const {
    if (theta == 0) return Status::InvalidArgument("theta must be >= 1");
    if (zeta == 0) return Status::InvalidArgument("zeta must be >= 1");
    if (eta < 0) return Status::InvalidArgument("eta must be >= 0");
    if (lambda <= 0.0 || lambda > 1.0) {
      return Status::InvalidArgument("lambda must be in (0, 1]");
    }
    if (time_bin <= 0) {
      return Status::InvalidArgument("time_bin must be positive");
    }
    if (rarity_base_offset == 0) {
      return Status::InvalidArgument(
          "rarity_base_offset must be >= 1 (log base must exceed 1)");
    }
    if (deadline_ms < 0) {
      return Status::InvalidArgument("deadline_ms must be >= 0");
    }
    IDREPAIR_RETURN_NOT_OK(exec.Validate());
    IDREPAIR_RETURN_NOT_OK(obs.Validate());
    return Status::OK();
  }

  /// Validate() as a terminal step of a With* chain: returns the finished
  /// options by value, or the validation error.
  Result<RepairOptions> Validated() const {
    IDREPAIR_RETURN_NOT_OK(Validate());
    return *this;
  }
};

}  // namespace idrepair

#endif  // IDREPAIR_REPAIR_OPTIONS_H_
