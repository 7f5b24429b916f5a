#include "repair/cliques.h"

#include <tuple>

namespace idrepair {

namespace {

/// Two-way merge of an already-merged sequence with one more trajectory's
/// points, preserving the (ts, loc, source) order used everywhere. The new
/// trajectory gets the next source ordinal.
std::vector<MergedPoint> MergeInto(const std::vector<MergedPoint>& merged,
                                   const Trajectory& t, uint32_t source) {
  std::vector<MergedPoint> out;
  out.reserve(merged.size() + t.size());
  size_t i = 0;
  size_t j = 0;
  while (i < merged.size() || j < t.size()) {
    bool take_new;
    if (i == merged.size()) {
      take_new = true;
    } else if (j == t.size()) {
      take_new = false;
    } else {
      const MergedPoint& a = merged[i];
      const TrajectoryPoint& b = t.point(j);
      take_new = std::tie(b.ts, b.loc, source) <
                 std::tie(a.ts, a.loc, a.source);
    }
    if (take_new) {
      out.push_back(MergedPoint{t.point(j).loc, t.point(j).ts, source});
      ++j;
    } else {
      out.push_back(merged[i]);
      ++i;
    }
  }
  return out;
}

}  // namespace

std::vector<TrajIndex> CliqueEnumerator::SeedVertices() const {
  std::vector<TrajIndex> all;
  all.reserve(graph_->num_vertices());
  for (TrajIndex v = 0; v < graph_->num_vertices(); ++v) {
    // Isolated infeasible vertices cannot join anything; they would also be
    // filtered by jnb, but skipping them here avoids useless singletons.
    if (graph_->IsFeasible(v)) all.push_back(v);
  }
  return all;
}

CliqueEnumerator::Stats CliqueEnumerator::Enumerate(const Callback& cb) const {
  std::vector<TrajIndex> seeds = SeedVertices();
  return EnumerateSeedRange(seeds, 0, seeds.size(), cb);
}

CliqueEnumerator::Stats CliqueEnumerator::EnumerateSeedRange(
    const std::vector<TrajIndex>& seeds, size_t begin, size_t end,
    const Callback& cb) const {
  Stats stats;
  std::vector<TrajIndex> clique;
  const std::vector<MergedPoint> empty;
  for (size_t idx = begin; idx < end && idx < seeds.size(); ++idx) {
    VisitNode(seeds, idx, clique, empty, cb, &stats);
  }
  return stats;
}

void CliqueEnumerator::Extend(std::vector<TrajIndex>& clique,
                              const std::vector<MergedPoint>& merged,
                              const std::vector<TrajIndex>& candidates,
                              const Callback& cb, Stats* stats) const {
  for (size_t idx = 0; idx < candidates.size(); ++idx) {
    VisitNode(candidates, idx, clique, merged, cb, stats);
  }
}

void CliqueEnumerator::VisitNode(const std::vector<TrajIndex>& candidates,
                                 size_t idx, std::vector<TrajIndex>& clique,
                                 const std::vector<MergedPoint>& merged,
                                 const Callback& cb, Stats* stats) const {
  TrajIndex v = candidates[idx];
  const Trajectory& tv = set_->at(v);
  if (merged.size() + tv.size() > options_->theta) return;
  ++stats->nodes_visited;
  clique.push_back(v);
  std::vector<MergedPoint> next_merged =
      MergeInto(merged, tv, static_cast<uint32_t>(clique.size() - 1));

  bool keep = true;
  if (options_->use_mcp_pruning) {
    // Members are in start-time order, so the MCP condition of
    // Theorem 5.3 applies to the current prefix set.
    keep = pred_->PckMerged(next_merged,
                            static_cast<uint32_t>(clique.size()));
    if (!keep) ++stats->pck_pruned;
  }

  if (keep) {
    ++stats->cliques_emitted;
    cb(clique, next_merged);
    if (clique.size() < options_->zeta) {
      // Candidates after v that are adjacent to v (and, inductively, to
      // every earlier member).
      std::vector<TrajIndex> next;
      if (clique.size() == 1) {
        // Root: the candidates are every feasible vertex, so the later
        // adjacent ones are exactly v's later feasible neighbours. Walking
        // the sorted adjacency keeps the order and costs O(deg), where a
        // scan of the later seeds would cost O(n log deg) per root.
        for (TrajIndex w : graph_->Neighbors(v)) {
          if (w > v && graph_->IsFeasible(w)) next.push_back(w);
        }
      } else {
        for (size_t j = idx + 1; j < candidates.size(); ++j) {
          TrajIndex w = candidates[j];
          if (graph_->HasEdge(v, w)) next.push_back(w);
        }
      }
      if (!next.empty()) {
        Extend(clique, next_merged, next, cb, stats);
      }
    }
  }
  clique.pop_back();
}

}  // namespace idrepair
