#include "lig/length_indexed_grids.h"

#include <algorithm>
#include <cstdint>

namespace idrepair {

namespace {

/// Bound TrajectorySet of indices created with Dynamic(): entries are
/// caller-defined handles, so no real set backs them. One shared empty set
/// keeps the reference member valid for the index's whole lifetime.
const TrajectorySet& EmptySet() {
  static const TrajectorySet* kEmpty = new TrajectorySet();
  return *kEmpty;
}

}  // namespace

LengthIndexedGrids::LengthIndexedGrids(const TrajectorySet& set,
                                       const Options& options)
    : set_(set), options_(options) {
  Timestamp min_start = 0;
  Timestamp max_end = 0;
  bool first = true;
  for (const auto& t : set.trajectories()) {
    if (t.empty()) continue;
    if (first) {
      min_start = t.start_time();
      max_end = t.end_time();
      first = false;
    } else {
      min_start = std::min(min_start, t.start_time());
      max_end = std::max(max_end, t.end_time());
    }
  }
  base_time_ = min_start;
  Timestamp tb = std::max<Timestamp>(1, options_.time_bin);
  num_bins_ = static_cast<size_t>((max_end - base_time_) / tb) + 1;
  band_ = static_cast<size_t>(options_.eta / tb) + 2;

  // CSR fill in two scans: count each cell's population, prefix-sum into
  // offsets, then place indices. Scanning i ascending keeps every bucket
  // sorted, matching the old push_back order.
  size_t num_cells = options_.theta * num_bins_ * band_;
  cell_offsets_.assign(num_cells + 1, 0);
  for (TrajIndex i = 0; i < set.size(); ++i) {
    size_t cell = CellFor(set.at(i));
    if (cell != SIZE_MAX) ++cell_offsets_[cell + 1];
  }
  for (size_t c = 0; c < num_cells; ++c) {
    cell_offsets_[c + 1] += cell_offsets_[c];
  }
  cell_entries_.resize(cell_offsets_[num_cells]);
  std::vector<uint32_t> cursor(cell_offsets_.begin(),
                               cell_offsets_.end() - 1);
  for (TrajIndex i = 0; i < set.size(); ++i) {
    size_t cell = CellFor(set.at(i));
    if (cell == SIZE_MAX) continue;
    cell_entries_[cursor[cell]++] = i;
    ++num_indexed_;
  }
}

LengthIndexedGrids LengthIndexedGrids::Dynamic(const Options& options,
                                               Timestamp base_time) {
  LengthIndexedGrids lig(EmptySet(), options);
  lig.base_time_ = base_time;
  lig.dynamic_ = true;
  lig.cell_offsets_.clear();
  lig.cell_entries_.clear();
  return lig;
}

LengthIndexedGrids::Parts LengthIndexedGrids::ToParts() const {
  Parts parts;
  parts.options = options_;
  parts.base_time = base_time_;
  parts.num_bins = num_bins_;
  parts.band = band_;
  parts.num_indexed = num_indexed_;
  if (!dynamic_) {
    parts.cell_offsets = cell_offsets_;
    parts.cell_entries = cell_entries_;
    return parts;
  }
  // Canonical re-linearization: lexicographic (length, sbin, off) map order
  // is ascending CellIndex order, so a single ordered pass rebuilds exactly
  // the CSR a from-scratch constructor over the same members produces.
  size_t num_cells = options_.theta * num_bins_ * band_;
  parts.cell_offsets.assign(num_cells + 1, 0);
  for (const auto& [key, bucket] : dyn_cells_) {
    auto [len, sbin, off] = key;
    parts.cell_offsets[CellIndex(len, sbin, off) + 1] +=
        static_cast<uint32_t>(bucket.size());
  }
  for (size_t c = 0; c < num_cells; ++c) {
    parts.cell_offsets[c + 1] += parts.cell_offsets[c];
  }
  parts.cell_entries.reserve(num_indexed_);
  for (const auto& [key, bucket] : dyn_cells_) {
    parts.cell_entries.insert(parts.cell_entries.end(), bucket.begin(),
                              bucket.end());
  }
  return parts;
}

size_t LengthIndexedGrids::CellFor(const Trajectory& t) const {
  if (t.empty() || t.size() > options_.theta) return SIZE_MAX;
  if (t.TimeSpan() > options_.eta) return SIZE_MAX;  // can never join
  Timestamp tb = std::max<Timestamp>(1, options_.time_bin);
  size_t sbin = static_cast<size_t>((t.start_time() - base_time_) / tb);
  size_t ebin = static_cast<size_t>((t.end_time() - base_time_) / tb);
  size_t off = ebin - sbin;
  if (off >= band_) return SIZE_MAX;  // fits η but straddles bin edges
  return CellIndex(t.size(), sbin, off);
}

bool LengthIndexedGrids::SpanGeometry(size_t length, Timestamp start,
                                      Timestamp end, size_t* sbin,
                                      size_t* off) const {
  if (length == 0 || length > options_.theta) return false;
  if (end < start || start < base_time_) return false;
  if (end - start > options_.eta) return false;  // can never join
  Timestamp tb = std::max<Timestamp>(1, options_.time_bin);
  size_t s = static_cast<size_t>((start - base_time_) / tb);
  size_t e = static_cast<size_t>((end - base_time_) / tb);
  if (e - s >= band_) return false;  // fits η but straddles bin edges
  *sbin = s;
  *off = e - s;
  return true;
}

void LengthIndexedGrids::EnterDynamic() {
  if (dynamic_) return;
  dynamic_ = true;
  for (size_t len = 1; len <= options_.theta; ++len) {
    for (size_t sbin = 0; sbin < num_bins_; ++sbin) {
      for (size_t off = 0; off < band_; ++off) {
        size_t cell = CellIndex(len, sbin, off);
        uint32_t begin = cell_offsets_[cell];
        uint32_t end = cell_offsets_[cell + 1];
        if (begin == end) continue;
        dyn_cells_.emplace(
            std::make_tuple(len, sbin, off),
            std::vector<TrajIndex>(cell_entries_.begin() + begin,
                                   cell_entries_.begin() + end));
      }
    }
  }
  cell_offsets_.clear();
  cell_offsets_.shrink_to_fit();
  cell_entries_.clear();
  cell_entries_.shrink_to_fit();
}

bool LengthIndexedGrids::Insert(TrajIndex i) {
  const Trajectory& t = set_.at(i);
  if (t.empty()) return false;
  return InsertSpan(i, t.size(), t.start_time(), t.end_time());
}

bool LengthIndexedGrids::Remove(TrajIndex i) {
  const Trajectory& t = set_.at(i);
  if (t.empty()) return false;
  return RemoveSpan(i, t.size(), t.start_time(), t.end_time());
}

bool LengthIndexedGrids::InsertSpan(TrajIndex handle, size_t length,
                                    Timestamp start, Timestamp end) {
  size_t sbin = 0;
  size_t off = 0;
  if (!SpanGeometry(length, start, end, &sbin, &off)) return false;
  EnterDynamic();
  num_bins_ = std::max(num_bins_, sbin + off + 1);
  auto& bucket = dyn_cells_[std::make_tuple(length, sbin, off)];
  auto it = std::lower_bound(bucket.begin(), bucket.end(), handle);
  if (it != bucket.end() && *it == handle) return false;  // already present
  bucket.insert(it, handle);
  ++num_indexed_;
  return true;
}

bool LengthIndexedGrids::RemoveSpan(TrajIndex handle, size_t length,
                                    Timestamp start, Timestamp end) {
  size_t sbin = 0;
  size_t off = 0;
  if (!SpanGeometry(length, start, end, &sbin, &off)) return false;
  EnterDynamic();
  auto cell = dyn_cells_.find(std::make_tuple(length, sbin, off));
  if (cell == dyn_cells_.end()) return false;
  auto& bucket = cell->second;
  auto it = std::lower_bound(bucket.begin(), bucket.end(), handle);
  if (it == bucket.end() || *it != handle) return false;
  bucket.erase(it);
  if (bucket.empty()) dyn_cells_.erase(cell);
  --num_indexed_;
  return true;
}

size_t LengthIndexedGrids::MemoryBytes() const {
  size_t bytes = cell_offsets_.capacity() * sizeof(uint32_t) +
                 cell_entries_.capacity() * sizeof(TrajIndex);
  // Dynamic buckets: entry storage plus one node (key + vector header +
  // red-black bookkeeping, ~4 words) per nonempty cell.
  for (const auto& [key, bucket] : dyn_cells_) {
    bytes += bucket.capacity() * sizeof(TrajIndex);
    bytes += sizeof(key) + sizeof(bucket) + 4 * sizeof(void*);
  }
  return bytes;
}

void LengthIndexedGrids::CollectCandidates(TrajIndex k,
                                           std::vector<TrajIndex>* out) const {
  const Trajectory& t = set_.at(k);
  if (t.empty() || t.size() >= options_.theta) return;  // no room for a peer
  size_t before = out->size();
  CollectCandidatesSpan(t.size(), t.start_time(), t.end_time(), out);
  // Self-exclusion: the set-bound probe never reports k itself.
  out->erase(std::remove(out->begin() + static_cast<ptrdiff_t>(before),
                         out->end(), k),
             out->end());
}

void LengthIndexedGrids::CollectCandidatesSpan(
    size_t length, Timestamp start, Timestamp end,
    std::vector<TrajIndex>* out) const {
  if (length == 0 || length >= options_.theta) return;  // no room for a peer
  size_t max_len = options_.theta - length;
  Timestamp tb = std::max<Timestamp>(1, options_.time_bin);
  Timestamp window_lo = end - options_.eta;
  Timestamp window_hi = start + options_.eta;
  if (window_lo > window_hi) return;
  int64_t lo_bin_signed = (window_lo - base_time_) / tb;
  if (window_lo < base_time_) lo_bin_signed = 0;
  size_t lo_bin = static_cast<size_t>(lo_bin_signed);
  if (num_bins_ == 0) return;
  size_t hi_bin = std::min(
      num_bins_ - 1,
      static_cast<size_t>(std::max<Timestamp>(0, window_hi - base_time_) / tb));
  if (lo_bin > hi_bin) return;
  // Candidates come out in ascending (len, sbin, off) cell order, the
  // bucket order within a cell, in both representations.
  if (!dynamic_) {
    // The cells (len, sbin, 0..off_max) are adjacent in the arena, so each
    // (len, sbin) is one contiguous entry run.
    for (size_t len = 1; len <= max_len; ++len) {
      for (size_t sbin = lo_bin; sbin <= hi_bin; ++sbin) {
        size_t off_max = std::min(band_ - 1, hi_bin - sbin);
        uint32_t run_begin = cell_offsets_[CellIndex(len, sbin, 0)];
        uint32_t run_end = cell_offsets_[CellIndex(len, sbin, off_max) + 1];
        out->insert(out->end(), cell_entries_.begin() + run_begin,
                    cell_entries_.begin() + run_end);
      }
    }
    return;
  }
  // Dynamic: lexicographic key order is the same cell order, so one seek per
  // length walks every nonempty cell of the window.
  for (size_t len = 1; len <= max_len; ++len) {
    auto it = dyn_cells_.lower_bound(std::make_tuple(len, lo_bin, size_t{0}));
    for (; it != dyn_cells_.end(); ++it) {
      auto [cell_len, sbin, off] = it->first;
      if (cell_len != len || sbin > hi_bin) break;
      if (sbin + off > hi_bin) continue;  // candidate end beyond the window
      out->insert(out->end(), it->second.begin(), it->second.end());
    }
  }
}

}  // namespace idrepair
