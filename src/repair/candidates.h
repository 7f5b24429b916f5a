#ifndef IDREPAIR_REPAIR_CANDIDATES_H_
#define IDREPAIR_REPAIR_CANDIDATES_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/span.h"
#include "repair/cliques.h"
#include "repair/member_set_dictionary.h"
#include "repair/options.h"
#include "repair/predicates.h"
#include "repair/trajectory_graph.h"
#include "traj/trajectory_set.h"

namespace idrepair {

/// The candidate repairs R = (T', r) of Definition 2.6 in columnar form:
/// one column per field, indexed by RepairIndex-compatible row number, with
/// the two set-valued columns (jns(R) members and ivt(R) invalid members)
/// interned in a shared MemberSetDictionary instead of one heap vector per
/// candidate per column. On a dense instance this replaces ~2 allocations
/// plus ~48 bytes of vector headers per candidate with two 4-byte set ids
/// into a flat pooled arena — the storage-layer contract is DESIGN.md §9.
///
/// Set accessors return Span views into the arena; views are invalidated by
/// Append/AppendFrom (never by score fills), so hold no view across a
/// mutation.
class CandidateSet {
 public:
  using SetId = MemberSetDictionary::SetId;

  CandidateSet() = default;

  // Movable, not copyable: rows reference the embedded dictionary, and the
  // pipeline only ever hands the set forward.
  CandidateSet(CandidateSet&&) = default;
  CandidateSet& operator=(CandidateSet&&) = default;
  CandidateSet(const CandidateSet&) = delete;
  CandidateSet& operator=(const CandidateSet&) = delete;

  size_t size() const { return member_sets_.size(); }
  bool empty() const { return member_sets_.empty(); }

  /// jns(R): joinable subset of candidate `r`, ascending TrajectorySet
  /// indices. View into the pooled arena.
  Span<const TrajIndex> members(size_t r) const {
    return dict_.Get(member_sets_[r]);
  }

  /// ivt(R): the members that are invalid trajectories, ascending.
  Span<const TrajIndex> invalid_members(size_t r) const {
    return dict_.Get(invalid_sets_[r]);
  }

  size_t num_members(size_t r) const { return dict_.set_size(member_sets_[r]); }
  size_t num_invalid(size_t r) const { return dict_.set_size(invalid_sets_[r]); }

  /// Target ID r (always the ID of one member, per the paper: repairs never
  /// invent new values).
  const std::string& target_id(size_t r) const { return target_ids_[r]; }

  /// sim(R) of Eq. (1): minimum member-to-target similarity.
  double similarity(size_t r) const { return similarity_[r]; }

  /// ra(R) of Eq. (2); filled by ComputeEffectiveness.
  uint32_t rarity(size_t r) const { return rarity_[r]; }

  /// ω(R) of Eq. (3); filled by ComputeEffectiveness.
  double effectiveness(size_t r) const { return effectiveness_[r]; }

  void set_scores(size_t r, uint32_t rarity, double effectiveness) {
    rarity_[r] = rarity;
    effectiveness_[r] = effectiveness;
  }

  /// Appends one candidate. Both sets must be sorted ascending; `invalid`
  /// must be a subset of `members`. Returns the new row index.
  size_t Append(Span<const TrajIndex> members, Span<const TrajIndex> invalid,
                std::string target_id, double similarity);

  /// Appends row `r` of `other` verbatim (re-interning its sets into this
  /// set's dictionary). The deterministic shard-order merge primitive.
  size_t AppendFrom(const CandidateSet& other, size_t r);

  void Reserve(size_t rows);

  /// Drops the dictionary's dedup index once the set is fully built (a
  /// later Append still works but stops deduping against earlier sets).
  /// Engines call this when a result is finalized; it sheds the hash-map
  /// footprint without touching any row or view.
  void Freeze() { dict_.Freeze(); }

  const MemberSetDictionary& dict() const { return dict_; }

  /// Heap bytes of every column plus the pooled dictionary.
  size_t MemoryBytes() const;

 private:
  MemberSetDictionary dict_;
  std::vector<SetId> member_sets_;
  std::vector<SetId> invalid_sets_;
  std::vector<std::string> target_ids_;
  std::vector<double> similarity_;
  std::vector<uint32_t> rarity_;
  std::vector<double> effectiveness_;
};

/// Chooses the target ID for a joinable subset by Eq. (5): the member ID
/// maximizing the length-weighted sum of similarities to all member IDs
/// (longer trajectories get precedence, since repeated misreads across many
/// locations are unlikely). Ties break to the earlier member. `members`
/// must be non-empty.
TrajIndex AssignTargetId(const TrajectorySet& set,
                         Span<const TrajIndex> members,
                         const IdSimilarity& similarity);

/// Phase-1 statistics for the benchmark harness.
struct GenerationStats {
  CliqueEnumerator::Stats clique_stats;
  size_t jnb_checks = 0;
  size_t joinable_subsets = 0;
  /// Pairwise-similarity calls answered from the per-shard memo instead of
  /// recomputed (cliques overlap heavily, so most calls repeat).
  size_t similarity_cache_hits = 0;

  /// Scheduling footprint of the dynamic clique-granularity scheduler
  /// (ParallelForDynamic): seed blocks claimed, worker tasks that claimed
  /// at least one, and the worst max/mean busy-time ratio observed (1.0 =
  /// perfectly balanced). Observational only — results never depend on it.
  size_t sched_blocks = 0;
  size_t sched_workers = 0;
  double sched_imbalance = 1.0;

  /// Deterministic reduction of per-shard stats: every counter adds, so the
  /// merged totals are identical for any shard decomposition — the sharded
  /// generator folds shards in fixed shard order and 1/2/8-thread runs
  /// report the same numbers. The sched_* footprint aggregates across
  /// invocations (blocks add, workers and imbalance take the max); it is a
  /// property of the schedule, not of the output.
  void MergeFrom(const GenerationStats& other) {
    clique_stats.MergeFrom(other.clique_stats);
    jnb_checks += other.jnb_checks;
    joinable_subsets += other.joinable_subsets;
    similarity_cache_hits += other.similarity_cache_hits;
    sched_blocks += other.sched_blocks;
    sched_workers = sched_workers > other.sched_workers
                        ? sched_workers
                        : other.sched_workers;
    sched_imbalance = sched_imbalance > other.sched_imbalance
                          ? sched_imbalance
                          : other.sched_imbalance;
  }
};

/// Phase 1 — candidate repair generation (§3.2): enumerates qualified
/// cliques of Gm, keeps those passing jnb (true joinable subsets), assigns
/// each a target ID, and computes sim(R). Repairs that fix no invalid
/// trajectory (|ivt| = 0, e.g. the identity repair of a valid trajectory)
/// are dropped: their effectiveness is 0 by Eq. (3) and they are never
/// selected (Example 4.2).
///
/// Runs over the clique-enumeration seed vertices on the shared exec pool,
/// split into fixed blocks of `options.exec.min_candidate_grain` seeds
/// (kGrainAuto selects the cost model in exec/grain.h) that workers CLAIM
/// dynamically — a seed rooting a heavy clique subtree delays only the
/// worker that claimed it, so one giant component no longer serializes
/// behind a fixed range split. Each block enumerates, jnb-checks, and
/// scores its subtrees sequentially (AssignTargetId tie-breaks and the
/// sim(R) minimum are per-clique, so no cross-block float order exists);
/// block outputs and stats are merged in fixed block order, making output
/// bit-identical at every thread count and any claim schedule. The
/// pairwise-similarity memo caches a pure function of the two ID strings
/// (cached and recomputed values are the same doubles); its table and the
/// invalid-member buffer live in pool-owned per-thread scratch, reused
/// across blocks instead of reallocated per shard. The schedule's
/// footprint is reported in the sched_* stats fields.
///
/// Rarity and effectiveness are *not* filled here — they depend on the full
/// candidate set; call ComputeEffectiveness next.
///
/// Errors: a shard that fails (today only via the `repair.generation.shard`
/// failpoint) propagates through the TaskGroup's deterministic first-error
/// rule and surfaces here as a non-OK Result; no partial candidate set is
/// returned.
Result<CandidateSet> GenerateCandidates(
    const TrajectorySet& set, const TrajectoryGraph& gm,
    const PredicateEvaluator& pred, const RepairOptions& options,
    const IdSimilarity& similarity, const std::vector<bool>& is_valid,
    GenerationStats* stats = nullptr);

/// Fills rarity (Eq. 2) and effectiveness ω (Eq. 3) across the whole
/// candidate set: d(T) is the number of candidates covering the invalid
/// trajectory T, rarity aggregates member degrees per
/// `options.rarity_aggregation`, and
/// ω = sim + λ · log_{rarity + rarity_base_offset}(|ivt|).
///
/// Shares the generator's sharding (`options.exec`, min_candidate_grain,
/// here over candidates): the degree pass accumulates into per-shard count
/// arrays reduced in index order, and the scoring pass writes each
/// candidate's own fields — both bit-identical at every thread count
/// (degree sums are integers; ω is computed per candidate from its shard-
/// independent inputs). A propagated shard error leaves `candidates` with
/// possibly part-filled rarity/effectiveness fields; callers must discard
/// the set on error.
Status ComputeEffectiveness(CandidateSet& candidates,
                            const RepairOptions& options, size_t num_trajs);

}  // namespace idrepair

#endif  // IDREPAIR_REPAIR_CANDIDATES_H_
