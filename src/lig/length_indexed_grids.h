#ifndef IDREPAIR_LIG_LENGTH_INDEXED_GRIDS_H_
#define IDREPAIR_LIG_LENGTH_INDEXED_GRIDS_H_

#include <cstdint>
#include <map>
#include <tuple>
#include <vector>

#include "traj/tracking_record.h"
#include "traj/trajectory_set.h"

namespace idrepair {

/// Length-Indexed Grids (LIG, §5.1 of the paper): a three-dimensional index
/// over (trajectory length, start time, end time) that prunes candidate
/// pairs before the cex predicate runs. Given a probe trajectory Tk, only
/// trajectories with |Tu| <= θ − |Tk| and with both start and end times in
/// [Tk.end − η, Tk.start + η] can share a joinable subset with Tk.
///
/// Implementation notes: time is discretized into fixed-size bins of
/// `time_bin` seconds; because an indexed trajectory's span never exceeds η
/// (longer ones cannot join anything and are skipped), the (start, end) grid
/// is stored as a diagonal band, keeping memory linear in the time window
/// rather than quadratic. The index is an over-approximation — cex re-checks
/// the exact bounds — but never misses a feasible candidate.
///
/// ### Two representations
/// A freshly built index is a flat CSR arena (immutable, cache-friendly —
/// the batch pipeline's hot path). The first call to a mutating operation
/// (`Insert`/`Remove`/`InsertSpan`/`RemoveSpan`) explodes the CSR into
/// per-cell buckets keyed by (length, start_bin, span_off), after which the
/// index supports O(log cells + bucket) maintenance — the streaming engine's
/// per-record path. Both representations answer the same probes with the
/// same candidates in the same order (buckets stay ascending), and
/// `ToParts()` of a dynamic index canonically re-linearizes to the CSR a
/// from-scratch build over the same members would produce, which is what the
/// insert∘remove fixed-point tests pin.
class LengthIndexedGrids {
 public:
  struct Options {
    /// Maximum valid-trajectory length θ (records).
    size_t theta = 8;
    /// Maximum valid-trajectory time span η (seconds).
    Timestamp eta = 600;
    /// Grid bin width tb (seconds).
    Timestamp time_bin = 60;
  };

  /// The complete state of a built index in CSR form, the canonical shape
  /// two indexes are compared in.
  struct Parts {
    Options options;
    Timestamp base_time = 0;
    uint64_t num_bins = 0;
    uint64_t band = 0;
    uint64_t num_indexed = 0;
    std::vector<uint32_t> cell_offsets;
    std::vector<TrajIndex> cell_entries;
  };

  /// Builds the index over `set` in Θ(|set|).
  LengthIndexedGrids(const TrajectorySet& set, const Options& options);

  /// An empty dynamic index anchored at `base_time` (every inserted span
  /// must start at or after it). Entries are caller-defined handles fed via
  /// InsertSpan/RemoveSpan; the set-bound probes (`CollectCandidates`,
  /// `Insert`/`Remove` by TrajIndex) are not meaningful on a dynamic index —
  /// use `CollectCandidatesSpan`.
  static LengthIndexedGrids Dynamic(const Options& options,
                                    Timestamp base_time);

  /// Copies out the CSR state. Building a fresh index over the same set
  /// with parts.options yields byte-identical Parts (the CSR fill is
  /// deterministic, and a dynamic index re-linearizes canonically), which
  /// the fixed-point tests rely on.
  Parts ToParts() const;

  /// Appends to `out` all indexed trajectories (other than `k` itself) that
  /// satisfy the grid-level length and time-window criteria for pairing
  /// with trajectory `k`. A superset of the exact answer.
  void CollectCandidates(TrajIndex k, std::vector<TrajIndex>* out) const;

  /// CollectCandidates for an explicit probe geometry instead of a set
  /// member: appends every indexed entry whose bucket passes the grid-level
  /// length and time-window criteria against a probe of `length` records
  /// spanning [start, end]. Works in both representations; does not
  /// self-exclude (a probe that is itself indexed appears in its own
  /// answer — streaming callers de-index before re-probing).
  void CollectCandidatesSpan(size_t length, Timestamp start, Timestamp end,
                             std::vector<TrajIndex>* out) const;

  /// Adds set member `i` to the index (switching to the dynamic
  /// representation on first use). Returns false when the trajectory is not
  /// indexable (empty, longer than θ, span over η, or band-straddling) or
  /// is already present — exactly the trajectories a from-scratch build
  /// would skip, so insert∘remove round-trips are fixed points.
  bool Insert(TrajIndex i);

  /// Removes set member `i` from the index (switching to the dynamic
  /// representation on first use). Returns false when `i` was not indexed.
  bool Remove(TrajIndex i);

  /// Insert/Remove with explicit geometry for caller-defined handles (the
  /// streaming engine indexes fragment handles, not TrajectorySet members).
  /// `start` must be >= the index base time. Same indexability rules and
  /// return-value contract as Insert/Remove.
  bool InsertSpan(TrajIndex handle, size_t length, Timestamp start,
                  Timestamp end);
  bool RemoveSpan(TrajIndex handle, size_t length, Timestamp start,
                  Timestamp end);

  /// Number of trajectories actually indexed (those with length <= θ and
  /// span <= η).
  size_t num_indexed() const { return num_indexed_; }

  /// Heap bytes of the index storage (CSR arena, or the dynamic buckets).
  size_t MemoryBytes() const;

  const Options& options() const { return options_; }

 private:
  size_t CellIndex(size_t length, size_t start_bin, size_t span_off) const {
    return ((length - 1) * num_bins_ + start_bin) * band_ + span_off;
  }

  /// The cell a trajectory indexes into, or SIZE_MAX when it is skipped
  /// (too long, span exceeds η, or straddles the band).
  size_t CellFor(const Trajectory& t) const;

  /// Grid coordinates for an explicit geometry, or false when the span is
  /// not indexable (same skip rules as CellFor). Grows nothing.
  bool SpanGeometry(size_t length, Timestamp start, Timestamp end,
                    size_t* sbin, size_t* off) const;

  /// Switches to the dynamic per-cell representation (no-op when already
  /// dynamic). Buckets keep their CSR (ascending) order.
  void EnterDynamic();

  const TrajectorySet& set_;
  Options options_;
  Timestamp base_time_ = 0;
  size_t num_bins_ = 0;
  size_t band_ = 0;  // max (end_bin - start_bin) + 1 for indexed spans
  size_t num_indexed_ = 0;
  // Grid buckets in CSR form: the trajectories of cell c occupy
  // cell_entries_[cell_offsets_[c] .. cell_offsets_[c+1]). One flat arena
  // replaces a vector-of-vectors whose headers alone dominated the index
  // footprint (most cells are empty).
  std::vector<uint32_t> cell_offsets_;
  std::vector<TrajIndex> cell_entries_;
  // Dynamic representation: only nonempty cells, keyed (length, start_bin,
  // span_off). The ordered map makes ToParts' re-linearization canonical —
  // lexicographic key order is exactly ascending CellIndex order.
  bool dynamic_ = false;
  std::map<std::tuple<size_t, size_t, size_t>, std::vector<TrajIndex>>
      dyn_cells_;
};

}  // namespace idrepair

#endif  // IDREPAIR_LIG_LENGTH_INDEXED_GRIDS_H_
