// Open-addressing index from a non-zero u64 key to a u32 value.
//
// Built for the simulator's id -> slab-slot maps (event ids, transport ack
// tokens): keys are issued from counters starting at 1, so key 0 marks an
// empty cell and a cell is just {key, value} in one flat array. Lookups
// probe linearly from a multiplicative hash of the key (sequential ids
// scatter instead of forming one long run); erase shifts the rest of the
// probe run back into the hole, so no tombstones accumulate. The table
// doubles when it would pass half full and never shrinks, so once it has
// grown to a run's peak, insert and erase allocate nothing.
#pragma once

#include <bit>
#include <cstdint>
#include <vector>

#include "util/contracts.hpp"

namespace hours::util {

class FlatIndex {
 public:
  /// find()/erase() result for an absent key.
  static constexpr std::uint32_t kMissing = 0xFFFFFFFFU;

  /// Maps `key` (non-zero, not present) to `value`.
  void insert(std::uint64_t key, std::uint32_t value) {
    HOURS_EXPECTS(key != 0);
    if (2 * (size_ + 1) > cells_.size()) grow();
    std::size_t at = home(key);
    while (cells_[at].key != 0) {
      HOURS_EXPECTS(cells_[at].key != key);
      at = (at + 1) & mask_;
    }
    cells_[at] = {key, value};
    ++size_;
  }

  /// The value under `key`, or kMissing.
  [[nodiscard]] std::uint32_t find(std::uint64_t key) const noexcept {
    const std::size_t at = locate(key);
    return at == kNowhere ? kMissing : cells_[at].value;
  }

  /// Removes `key` and returns its value, or kMissing when it is absent.
  std::uint32_t erase(std::uint64_t key) noexcept {
    std::size_t hole = locate(key);
    if (hole == kNowhere) return kMissing;
    const std::uint32_t value = cells_[hole].value;
    // Backward shift: walk the rest of the run and move each entry whose
    // home does not lie between the hole and itself into the hole.
    for (std::size_t at = (hole + 1) & mask_; cells_[at].key != 0; at = (at + 1) & mask_) {
      const std::size_t from_home = (at - home(cells_[at].key)) & mask_;
      if (from_home >= ((at - hole) & mask_)) {
        cells_[hole] = cells_[at];
        hole = at;
      }
    }
    cells_[hole].key = 0;
    --size_;
    return value;
  }

  [[nodiscard]] std::size_t size() const noexcept { return size_; }

  /// Empties the index; the table keeps its capacity.
  void clear() noexcept {
    for (Cell& cell : cells_) cell.key = 0;
    size_ = 0;
  }

 private:
  struct Cell {
    std::uint64_t key = 0;  ///< 0 = empty
    std::uint32_t value = 0;
  };
  static constexpr std::size_t kNowhere = ~std::size_t{0};

  [[nodiscard]] std::size_t home(std::uint64_t key) const noexcept {
    return static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ULL) >> shift_);
  }

  [[nodiscard]] std::size_t locate(std::uint64_t key) const noexcept {
    if (size_ == 0 || key == 0) return kNowhere;
    for (std::size_t at = home(key); cells_[at].key != 0; at = (at + 1) & mask_) {
      if (cells_[at].key == key) return at;
    }
    return kNowhere;
  }

  void grow() {
    std::vector<Cell> old = std::move(cells_);
    const std::size_t capacity = old.empty() ? 16 : 2 * old.size();
    cells_.assign(capacity, Cell{});
    mask_ = capacity - 1;
    shift_ = 64 - std::countr_zero(capacity);
    size_ = 0;
    for (const Cell& cell : old) {
      if (cell.key != 0) insert(cell.key, cell.value);
    }
  }

  std::vector<Cell> cells_;
  std::size_t mask_ = 0;
  int shift_ = 64;
  std::size_t size_ = 0;
};

}  // namespace hours::util
