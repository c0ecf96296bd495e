#include "spatial/grid_index.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <numeric>
#include <span>
#include <utility>

#include "common/check.h"

namespace auctionride {

GridIndex::GridIndex(std::vector<Item> items, double cell_size_m)
    : items_(std::move(items)), cell_size_(cell_size_m) {
  ARIDE_ACHECK(cell_size_m > 0);
  if (items_.empty()) {
    cell_start_.assign(2, 0);
    return;
  }
  bounds_ = {items_[0].position, items_[0].position};
  for (const Item& item : items_) {
    bounds_.min.x = std::min(bounds_.min.x, item.position.x);
    bounds_.min.y = std::min(bounds_.min.y, item.position.y);
    bounds_.max.x = std::max(bounds_.max.x, item.position.x);
    bounds_.max.y = std::max(bounds_.max.y, item.position.y);
  }
  cols_ = std::max(1, static_cast<int>(bounds_.width() / cell_size_) + 1);
  rows_ = std::max(1, static_cast<int>(bounds_.height() / cell_size_) + 1);
  // Stable counting sort of the item indices by cell: each cell lists its
  // items in the order they were added.
  const std::size_t num_cells = static_cast<std::size_t>(cols_) * rows_;
  cell_start_.assign(num_cells + 1, 0);
  for (const Item& item : items_) ++cell_start_[CellOf(item.position) + 1];
  std::partial_sum(cell_start_.begin(), cell_start_.end(),
                   cell_start_.begin());
  cell_items_.resize(items_.size());
  // cell_start_[c] serves as cell c's write cursor, which leaves it at the
  // cell's end; shifting the array right by one restores the starts.
  for (std::size_t i = 0; i < items_.size(); ++i) {
    cell_items_[cell_start_[CellOf(items_[i].position)]++] =
        static_cast<int32_t>(i);
  }
  std::copy_backward(cell_start_.begin(), cell_start_.end() - 1,
                     cell_start_.end());
  cell_start_[0] = 0;
}

int GridIndex::CellX(double x) const {
  const int cx = static_cast<int>((x - bounds_.min.x) / cell_size_);
  return std::clamp(cx, 0, cols_ - 1);
}

int GridIndex::CellY(double y) const {
  const int cy = static_cast<int>((y - bounds_.min.y) / cell_size_);
  return std::clamp(cy, 0, rows_ - 1);
}

std::vector<int32_t> GridIndex::WithinRadius(const Point& center,
                                             Meters radius_m) const {
  std::vector<int32_t> result;
  WithinRadius(center, radius_m, &result);
  return result;
}

void GridIndex::WithinRadius(const Point& center, Meters radius_m,
                             std::vector<int32_t>* out) const {
  out->clear();
  if (items_.empty() || radius_m < Meters(0)) return;
  const double radius = radius_m.value();  // geometry below is raw points
  const double r_sq = radius * radius;
  const int x_lo = CellX(center.x - radius);
  const int x_hi = CellX(center.x + radius);
  const int y_lo = CellY(center.y - radius);
  const int y_hi = CellY(center.y + radius);
  for (int cy = y_lo; cy <= y_hi; ++cy) {
    for (int cx = x_lo; cx <= x_hi; ++cx) {
      for (int32_t idx : Cell(cx, cy)) {
        const Item& item = items_[static_cast<std::size_t>(idx)];
        if (SquaredDistance(center, item.position) <= r_sq) {
          out->push_back(item.id);
        }
      }
    }
  }
}

std::vector<int32_t> GridIndex::KNearest(const Point& center, int k,
                                         int32_t exclude_id) const {
  std::vector<int32_t> result;
  KNearest(center, k, exclude_id, &result);
  return result;
}

void GridIndex::KNearest(const Point& center, int k, int32_t exclude_id,
                         std::vector<int32_t>* out) const {
  out->clear();
  if (items_.empty() || k <= 0) return;

  // (squared distance, item index) max-heap of the best k so far. Its top
  // is the worst by (distance², index), which is unique, so the kept set
  // does not depend on the heap's layout.
  using HeapEntry = std::pair<double, int32_t>;
  std::array<HeapEntry, kMaxInlineK> inline_buffer;
  std::vector<HeapEntry> large_buffer;
  if (k > kMaxInlineK) large_buffer.resize(static_cast<std::size_t>(k));
  const std::span<HeapEntry> buffer =
      k > kMaxInlineK ? std::span<HeapEntry>(large_buffer)
                      : std::span<HeapEntry>(inline_buffer);
  const auto heap_begin = buffer.begin();
  std::size_t heap_size = 0;
  const auto full = [&] { return heap_size == static_cast<std::size_t>(k); };

  const int cx = CellX(center.x);
  const int cy = CellY(center.y);
  const int max_ring = std::max(cols_, rows_);
  for (int ring = 0; ring <= max_ring; ++ring) {
    // Stop when the k-th best cannot be beaten by anything in this ring.
    if (full()) {
      const double min_possible = (ring - 1) * cell_size_;
      if (min_possible > 0 &&
          min_possible * min_possible > buffer.front().first) {
        break;
      }
    }
    for (int dy = -ring; dy <= ring; ++dy) {
      for (int dx = -ring; dx <= ring; ++dx) {
        if (std::max(std::abs(dx), std::abs(dy)) != ring) continue;
        const int x = cx + dx;
        const int y = cy + dy;
        if (x < 0 || x >= cols_ || y < 0 || y >= rows_) continue;
        for (int32_t idx : Cell(x, y)) {
          const Item& item = items_[static_cast<std::size_t>(idx)];
          if (item.id == exclude_id) continue;
          const double sq = SquaredDistance(center, item.position);
          if (!full()) {
            buffer[heap_size++] = {sq, idx};
            std::push_heap(heap_begin, heap_begin + heap_size);
          } else if (sq < buffer.front().first) {
            // Replace the worst only on a strictly smaller distance.
            std::pop_heap(heap_begin, heap_begin + heap_size);
            buffer[heap_size - 1] = {sq, idx};
            std::push_heap(heap_begin, heap_begin + heap_size);
          }
        }
      }
    }
  }

  std::sort_heap(heap_begin, heap_begin + heap_size);
  out->resize(heap_size);
  for (std::size_t i = 0; i < heap_size; ++i) {
    (*out)[i] = items_[static_cast<std::size_t>(buffer[i].second)].id;
  }
}

}  // namespace auctionride
