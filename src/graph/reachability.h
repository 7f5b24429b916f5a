#ifndef IDREPAIR_GRAPH_REACHABILITY_H_
#define IDREPAIR_GRAPH_REACHABILITY_H_

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/span.h"
#include "graph/transition_graph.h"
#include "graph/types.h"

namespace idrepair {

/// Shortest hop counts for a transition graph, answering the cex
/// predicate's reachability queries in O(1)/O(log ball) (the preprocessing
/// step of §4.1.1). Two build modes share one query interface:
///
///  * Build — the dense all-pairs Floyd–Warshall matrix, O(|V|^3) time and
///    O(|V|^2) space. Exact for every hop count; the right choice for the
///    paper-scale graphs (tens to hundreds of locations).
///  * BuildBounded — a per-source breadth-first search capped at `max_hops`,
///    stored sparsely (only the vertices inside each hop ball). O(|V|·ball)
///    time and space, which is what makes 10k+-vertex road networks
///    feasible: every production query is Reachable(u, v, θ−1), and for
///    max_hops >= θ−1 the bounded matrix answers it exactly.
///
/// Semantics differ from the textbook matrix in one deliberate way: the
/// diagonal entry Hops(u, u) is the length of the *shortest directed cycle*
/// through u (kUnreachable when none exists), not 0. The cex predicate asks
/// "can a second visit to this location occur later on the same path?", and
/// in an acyclic graph the answer must be no — this is what makes
/// cex(T1, T3) false in Example 3.1 of the paper.
class ReachabilityMatrix {
 public:
  /// Hop count representing "not reachable by any non-empty walk".
  static constexpr uint32_t kUnreachable =
      std::numeric_limits<uint32_t>::max();

  /// Builds the dense matrix for `graph` in O(|V|^3).
  static ReachabilityMatrix Build(const TransitionGraph& graph);

  /// Builds the hop-bounded sparse matrix: Hops(u, v) is exact whenever the
  /// true value is <= `max_hops` and kUnreachable otherwise, so
  /// Reachable(u, v, h) is exact for every h <= `max_hops`.
  static ReachabilityMatrix BuildBounded(const TransitionGraph& graph,
                                         uint32_t max_hops);

  /// Minimum number of edges on a walk from `from` to `to`; for from == to,
  /// the shortest cycle length. kUnreachable if no such walk exists (or, in
  /// bounded mode, exceeds the build bound).
  uint32_t Hops(LocationId from, LocationId to) const {
    if (dense()) return hops_[static_cast<size_t>(from) * n_ + to];
    size_t lo = offsets_[from];
    size_t hi = offsets_[from + 1];
    auto first = targets_.begin() + static_cast<ptrdiff_t>(lo);
    auto last = targets_.begin() + static_cast<ptrdiff_t>(hi);
    auto it = std::lower_bound(first, last, to);
    if (it == last || *it != to) return kUnreachable;
    return ball_hops_[static_cast<size_t>(it - targets_.begin())];
  }

  /// True iff `to` is reachable from `from` by a non-empty walk of at most
  /// `max_hops` edges. In bounded mode `max_hops` must not exceed the build
  /// bound (the answer would be a false negative beyond it).
  bool Reachable(LocationId from, LocationId to, uint32_t max_hops) const {
    assert(dense() || max_hops <= bound_);
    uint32_t h = Hops(from, to);
    return h != kUnreachable && h <= max_hops;
  }

  /// Bounded mode only: the vertices reachable from `from` by a non-empty
  /// walk of at most bound() edges, ascending by id — `from` itself only
  /// when a cycle through it fits the bound. A view into the ball CSR,
  /// valid for the matrix's lifetime.
  Span<const LocationId> Ball(LocationId from) const {
    assert(!dense());
    return Span<const LocationId>(targets_.data() + offsets_[from],
                                  offsets_[from + 1] - offsets_[from]);
  }

  size_t num_locations() const { return n_; }

  /// True for the dense Floyd–Warshall build (exact at any hop count).
  bool dense() const { return bound_ == kUnreachable; }

  /// The hop cap of a bounded build; kUnreachable for a dense build.
  uint32_t bound() const { return bound_; }

 private:
  ReachabilityMatrix(size_t n, std::vector<uint32_t> hops)
      : n_(n), hops_(std::move(hops)) {}

  ReachabilityMatrix(size_t n, uint32_t bound, std::vector<size_t> offsets,
                     std::vector<LocationId> targets,
                     std::vector<uint32_t> ball_hops)
      : n_(n),
        bound_(bound),
        offsets_(std::move(offsets)),
        targets_(std::move(targets)),
        ball_hops_(std::move(ball_hops)) {}

  size_t n_ = 0;
  uint32_t bound_ = kUnreachable;  // kUnreachable = dense mode
  // Dense mode: row-major n x n hop counts.
  std::vector<uint32_t> hops_;
  // Bounded mode: CSR over hop balls — targets_[offsets_[u]..offsets_[u+1])
  // are the vertices reachable from u within bound_ hops (sorted by id),
  // ball_hops_ the matching hop counts.
  std::vector<size_t> offsets_;
  std::vector<LocationId> targets_;
  std::vector<uint32_t> ball_hops_;
};

}  // namespace idrepair

#endif  // IDREPAIR_GRAPH_REACHABILITY_H_
