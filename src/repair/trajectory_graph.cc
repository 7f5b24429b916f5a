#include "repair/trajectory_graph.h"

#include <algorithm>
#include <utility>

#include "exec/parallel_for.h"
#include "exec/thread_pool.h"
#include "obs/trace.h"

namespace idrepair {

namespace {

/// Per-shard scratch of the parallel build. Each shard owns one slot, so
/// tasks never share mutable state; the constructor merges slots in shard
/// order, which makes the finished graph bit-identical to a sequential
/// build for every thread count.
struct ShardScratch {
  std::vector<std::pair<TrajIndex, TrajIndex>> edges;
  size_t candidate_pairs = 0;
  size_t cex_evaluations = 0;
};

/// Runs probe(i, &scratch) for every feasible vertex i, sharded over i.
/// Shard boundaries depend only on (n, threads, grain), never on timing.
template <typename Probe>
void ProbeShards(const std::vector<std::pair<size_t, size_t>>& shards,
                 const std::vector<bool>& feasible,
                 std::vector<ShardScratch>* scratch, const Probe& probe) {
  (void)ParallelFor(&ThreadPool::Default(), shards,
                    [&](size_t shard, size_t begin, size_t end) {
                      obs::TraceSpan span("gm.shard", shard);
                      ShardScratch& out = (*scratch)[shard];
                      for (size_t i = begin; i < end; ++i) {
                        if (feasible[i]) probe(static_cast<TrajIndex>(i), &out);
                      }
                      return Status::OK();
                    });
}

/// The indexed Gm probe. Each pair is handled once, from its earlier
/// trajectory `a` in (start, index) order, so b starts at or after a:
///
///  * overlapping spans (start(b) <= end(a)) run the full cex walk;
///  * disjoint spans (start(b) > end(a)) merge as all of a, then all of b,
///    so cex reduces to |a|+|b| <= θ, end(b) − start(a) <= η and
///    first(b) ∈ Ball(last(a)), the θ−1 hop ball. Those pairs are read
///    straight from a by-first-location index over the ball, with no cex
///    call.
///
/// A bounded matrix holds the balls as its CSR; on a dense matrix they are
/// cut from its hop rows once per build. Only rows with room for a peer
/// (feasible, shorter than θ) are indexed.
class LocationKeyedProbe {
 public:
  LocationKeyedProbe(const TrajectorySet& set, const PredicateEvaluator& pred,
                     const std::vector<bool>& feasible)
      : set_(set), pred_(pred), rank_(set.size(), 0) {
    const ReachabilityMatrix& reach = pred.reachability();
    if (reach.dense() && pred.theta() > 1) {
      auto max_hops = static_cast<uint32_t>(pred.theta() - 1);
      dense_ball_offsets_.push_back(0);
      for (LocationId u = 0; u < reach.num_locations(); ++u) {
        for (LocationId v = 0; v < reach.num_locations(); ++v) {
          if (reach.Reachable(u, v, max_hops)) dense_balls_.push_back(v);
        }
        dense_ball_offsets_.push_back(
            static_cast<uint32_t>(dense_balls_.size()));
      }
    }
    for (TrajIndex i = 0; i < set.size(); ++i) {
      const Trajectory& t = set.at(i);
      if (!feasible[i] || t.size() >= pred.theta()) continue;
      by_start_.push_back({t.start_time(), t.end_time(), i,
                           static_cast<uint32_t>(t.size())});
    }
    // Stable on an ascending-index list: ties in start keep index order.
    std::stable_sort(by_start_.begin(), by_start_.end(),
                     [](const Row& x, const Row& y) { return x.start < y.start; });
    // By-first-location CSR by counting sort; filling in by_start_ order
    // keeps each location's run sorted by (start, index).
    size_t num_locations = pred.reachability().num_locations();
    loc_offsets_.assign(num_locations + 1, 0);
    for (const Row& r : by_start_) ++loc_offsets_[FirstLocation(r) + 1];
    for (size_t v = 0; v < num_locations; ++v) {
      loc_offsets_[v + 1] += loc_offsets_[v];
    }
    by_loc_.resize(by_start_.size());
    std::vector<uint32_t> cursor(loc_offsets_.begin(), loc_offsets_.end() - 1);
    for (uint32_t k = 0; k < by_start_.size(); ++k) {
      rank_[by_start_[k].index] = k;
      by_loc_[cursor[FirstLocation(by_start_[k])]++] = by_start_[k];
    }
  }

  void Probe(TrajIndex i, ShardScratch* out) const {
    const Trajectory& a = set_.at(i);
    if (a.size() >= pred_.theta()) return;  // no room for a peer
    size_t room = pred_.theta() - a.size();
    Timestamp horizon = a.start_time() + pred_.eta();  // latest end(b)
    for (size_t k = rank_[i] + 1;
         k < by_start_.size() && by_start_[k].start <= a.end_time(); ++k) {
      const Row& b = by_start_[k];
      if (b.length > room || b.end > horizon) continue;
      ++out->candidate_pairs;
      ++out->cex_evaluations;
      if (pred_.Cex(a, set_.at(b.index))) out->edges.emplace_back(i, b.index);
    }
    auto later = [](Timestamp ts, const Row& r) { return ts < r.start; };
    for (LocationId v : Ball(a.points().back().loc)) {
      auto run_end = by_loc_.begin() + loc_offsets_[v + 1];
      auto it = std::upper_bound(by_loc_.begin() + loc_offsets_[v], run_end,
                                 a.end_time(), later);
      for (; it != run_end && it->start <= horizon; ++it) {
        ++out->candidate_pairs;
        if (it->length <= room && it->end <= horizon) {
          out->edges.emplace_back(i, it->index);
        }
      }
    }
  }

 private:
  struct Row {
    Timestamp start;
    Timestamp end;
    TrajIndex index;
    uint32_t length;
  };

  Span<const LocationId> Ball(LocationId u) const {
    if (!pred_.reachability().dense()) return pred_.reachability().Ball(u);
    return Span<const LocationId>(
        dense_balls_.data() + dense_ball_offsets_[u],
        dense_ball_offsets_[u + 1] - dense_ball_offsets_[u]);
  }

  LocationId FirstLocation(const Row& r) const {
    return set_.at(r.index).points().front().loc;
  }

  const TrajectorySet& set_;
  const PredicateEvaluator& pred_;
  std::vector<Row> by_start_;        // indexed rows, (start, index) order
  std::vector<uint32_t> rank_;       // vertex -> position in by_start_
  std::vector<uint32_t> loc_offsets_;  // CSR over first location
  std::vector<Row> by_loc_;          // by_start_ grouped by first location
  std::vector<uint32_t> dense_ball_offsets_;  // dense matrix: ball CSR
  std::vector<LocationId> dense_balls_;
};

}  // namespace

TrajectoryGraph::TrajectoryGraph(const TrajectorySet& set,
                                 const PredicateEvaluator& pred,
                                 const RepairOptions& options) {
  size_t n = set.size();
  adj_.assign(n, {});
  feasible_.assign(n, false);
  for (TrajIndex i = 0; i < n; ++i) {
    feasible_[i] = pred.InternallyFeasible(set.at(i));
  }
  stats_.used_lig = options.use_lig;

  auto shards = SplitRange(n, options.exec.ResolvedThreads(),
                           options.exec.min_partition_grain);
  std::vector<ShardScratch> scratch(shards.size());

  if (!options.use_lig) {
    ProbeShards(shards, feasible_, &scratch,
                [&](TrajIndex i, ShardScratch* out) {
                  for (TrajIndex j = i + 1; j < n; ++j) {
                    if (!feasible_[j]) continue;
                    ++out->candidate_pairs;
                    ++out->cex_evaluations;
                    if (pred.Cex(set.at(i), set.at(j))) {
                      out->edges.emplace_back(i, j);
                    }
                  }
                });
  } else {
    LocationKeyedProbe probe(set, pred, feasible_);
    ProbeShards(shards, feasible_, &scratch,
                [&](TrajIndex i, ShardScratch* out) { probe.Probe(i, out); });
  }

  // Deterministic merge: shard order, then the usual neighbor sort.
  for (const ShardScratch& out : scratch) {
    stats_.candidate_pairs += out.candidate_pairs;
    stats_.cex_evaluations += out.cex_evaluations;
    for (const auto& [i, j] : out.edges) AddEdge(i, j);
  }
  for (auto& nbrs : adj_) std::sort(nbrs.begin(), nbrs.end());
}

TrajectoryGraph TrajectoryGraph::FromAdjacency(
    const TrajectorySet& set, const PredicateEvaluator& pred,
    std::vector<std::vector<TrajIndex>> adj) {
  TrajectoryGraph g;
  size_t n = set.size();
  adj.resize(n);
  g.adj_ = std::move(adj);
  g.feasible_.assign(n, false);
  for (TrajIndex i = 0; i < n; ++i) {
    g.feasible_[i] = pred.InternallyFeasible(set.at(i));
  }
  size_t endpoints = 0;
  for (auto& nbrs : g.adj_) {
    std::sort(nbrs.begin(), nbrs.end());
    endpoints += nbrs.size();
  }
  g.stats_.edges = endpoints / 2;
  return g;
}

void TrajectoryGraph::AddEdge(TrajIndex u, TrajIndex v) {
  adj_[u].push_back(v);
  adj_[v].push_back(u);
  ++stats_.edges;
}

bool TrajectoryGraph::HasEdge(TrajIndex u, TrajIndex v) const {
  const auto& nbrs = adj_[u];
  return std::binary_search(nbrs.begin(), nbrs.end(), v);
}

}  // namespace idrepair
