#ifndef IDREPAIR_REPAIR_TRAJECTORY_GRAPH_H_
#define IDREPAIR_REPAIR_TRAJECTORY_GRAPH_H_

#include <cstdint>
#include <vector>

#include "repair/options.h"
#include "repair/predicates.h"
#include "traj/trajectory_set.h"

namespace idrepair {

/// The trajectory graph Gm (§3.1): one vertex per trajectory, an undirected
/// edge wherever the cex predicate holds. Cliques of Gm are the candidate
/// joinable subsets (Theorem 3.2).
///
/// Vertices inherit the TrajectorySet order, which FromRecords makes a
/// start-time order — the property the MCP pruning of clique generation
/// relies on (Theorem 5.3).
class TrajectoryGraph {
 public:
  /// Statistics of one construction, for the Fig 14(a) experiment.
  ///
  /// On the all-pairs path every candidate pair gets one cex call, so the
  /// two counters are equal. On the location-keyed path they differ:
  /// cex_evaluations counts the overlapping-span pairs that pass the exact
  /// length and η pre-checks (the only pairs that still run cex), and
  /// candidate_pairs counts those plus the ball hits — the disjoint pairs
  /// read from the by-first-location index inside the start window.
  struct BuildStats {
    size_t cex_evaluations = 0;   // full predicate evaluations performed
    size_t candidate_pairs = 0;   // pairs surviving the index/pre-filter
    size_t edges = 0;
    bool used_lig = false;        // options.use_lig: an index probe ran
  };

  /// Builds Gm over `set`. With `options.use_lig` off every feasible pair
  /// runs cex (the reference path). With it on, a location-keyed probe:
  /// overlapping-span pairs run cex; a time-disjoint pair is an edge iff
  /// its lengths and span fit θ/η and the later one's first location lies
  /// in the θ−1 hop ball of the earlier one's last — the whole of cex for
  /// such a pair. The balls come from `pred`'s reachability: the CSR of a
  /// bounded matrix, or cut from the rows of a dense one. Both paths give
  /// the same edge set. Internally infeasible trajectories become isolated
  /// vertices.
  TrajectoryGraph(const TrajectorySet& set, const PredicateEvaluator& pred,
                  const RepairOptions& options);

  /// Wraps an adjacency the caller maintained incrementally (the streaming
  /// engine's per-component edge cache) into a Gm over `set`. `adj` must
  /// be symmetric, self-loop-free, with every endpoint < set.size();
  /// feasibility is recomputed from `pred`, neighbor lists are sorted, and
  /// an edge whose endpoint `pred` deems infeasible is a caller bug (the
  /// building constructor never produces one). cex_evaluations stays 0 —
  /// the caller already paid them at append time.
  static TrajectoryGraph FromAdjacency(const TrajectorySet& set,
                                       const PredicateEvaluator& pred,
                                       std::vector<std::vector<TrajIndex>> adj);

  size_t num_vertices() const { return adj_.size(); }
  size_t num_edges() const { return stats_.edges; }

  /// Sorted neighbor list of vertex `v`.
  const std::vector<TrajIndex>& Neighbors(TrajIndex v) const {
    return adj_[v];
  }

  /// O(log deg) adjacency test.
  bool HasEdge(TrajIndex u, TrajIndex v) const;

  /// True iff the trajectory can participate in some joinable subset on its
  /// own merits (InternallyFeasible).
  bool IsFeasible(TrajIndex v) const { return feasible_[v]; }

  const BuildStats& stats() const { return stats_; }

 private:
  TrajectoryGraph() = default;  // FromAdjacency's shell

  void AddEdge(TrajIndex u, TrajIndex v);

  std::vector<std::vector<TrajIndex>> adj_;
  std::vector<bool> feasible_;
  BuildStats stats_;
};

}  // namespace idrepair

#endif  // IDREPAIR_REPAIR_TRAJECTORY_GRAPH_H_
