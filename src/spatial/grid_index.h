// Uniform grid index over (id, point) items.
//
// Used each dispatch round to find candidate vehicles near an order's origin
// (Greedy's exact spatial pruning) and candidate co-requesters for pack
// generation (Rank). Rebuilt per round — construction is linear and cheap
// relative to dispatch, and makes the same few allocations whatever the
// cell count: the cells are stored CSR (one offset array, one item array).

#ifndef AUCTIONRIDE_SPATIAL_GRID_INDEX_H_
#define AUCTIONRIDE_SPATIAL_GRID_INDEX_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/units.h"
#include "geo/point.h"

namespace auctionride {

class GridIndex {
 public:
  struct Item {
    int32_t id;
    Point position;
  };

  /// Builds the index over `items`; `cell_size_m` should be on the order of
  /// typical query radii. Items may be empty.
  GridIndex(std::vector<Item> items, double cell_size_m);

  /// Ids of items within Euclidean `radius_m` of `center` (inclusive),
  /// in no particular order.
  std::vector<int32_t> WithinRadius(const Point& center,
                                    Meters radius_m) const;

  /// As above, but appends into `out` (cleared first) so per-round callers
  /// can reuse one allocation across thousands of lookups.
  void WithinRadius(const Point& center, Meters radius_m,
                    std::vector<int32_t>* out) const;

  /// Ids of the k nearest items to `center` by Euclidean distance, closest
  /// first (ties to the item added first). Returns fewer when the index
  /// holds fewer than k items. `exclude_id` (if >= 0) is skipped.
  std::vector<int32_t> KNearest(const Point& center, int k,
                                int32_t exclude_id = -1) const;

  /// As above, but writes into `out` (cleared first); with a reused `out`
  /// and k <= kMaxInlineK the lookup allocates nothing.
  void KNearest(const Point& center, int k, int32_t exclude_id,
                std::vector<int32_t>* out) const;

  /// Largest k whose best-so-far set KNearest keeps in a stack buffer;
  /// a larger k uses a heap buffer.
  static constexpr int kMaxInlineK = 32;

  std::size_t size() const { return items_.size(); }

 private:
  int CellX(double x) const;
  int CellY(double y) const;
  std::size_t CellOf(const Point& p) const {
    return static_cast<std::size_t>(CellY(p.y)) * cols_ + CellX(p.x);
  }
  // Indices into items_ of the items in cell (cx, cy), in the order they
  // were added.
  std::span<const int32_t> Cell(int cx, int cy) const {
    const std::size_t c = static_cast<std::size_t>(cy) * cols_ + cx;
    return std::span<const int32_t>(cell_items_)
        .subspan(cell_start_[c], cell_start_[c + 1] - cell_start_[c]);
  }

  std::vector<Item> items_;
  BoundingBox bounds_{};
  double cell_size_;
  int cols_ = 1;
  int rows_ = 1;
  // CSR cells: cell c holds cell_items_[cell_start_[c], cell_start_[c + 1]).
  std::vector<uint32_t> cell_start_;
  std::vector<int32_t> cell_items_;
};

}  // namespace auctionride

#endif  // AUCTIONRIDE_SPATIAL_GRID_INDEX_H_
