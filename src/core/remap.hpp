// Wear-leveling remap table: logical block -> spare physical block.
//
// When a FaultPolicy retires a physical block (its lifetime write count
// exceeded the endurance budget), the owning ExtArray migrates the logical
// block to a spare from a fixed per-array pool and records the redirection
// here.  Subsequent reads and writes of the logical block transparently hit
// the spare — algorithms never see the migration, only the extra charged
// I/Os it took.  Spares themselves wear and can retire, triggering another
// remap; the pool is finite, so a worn-out device eventually surfaces as
// SparesExhausted, the graceful-degradation endpoint.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <unordered_map>

namespace aem {

/// Thrown when a retired block needs a spare and the pool is empty — the
/// device has worn out past the point of graceful degradation.
class SparesExhausted : public std::runtime_error {
 public:
  SparesExhausted(std::uint64_t logical, std::size_t capacity);

  std::uint64_t logical_block() const { return logical_; }
  std::size_t spare_capacity() const { return capacity_; }

 private:
  std::uint64_t logical_;
  std::size_t capacity_;
};

class RemapTable {
 public:
  static constexpr std::uint64_t npos =
      std::numeric_limits<std::uint64_t>::max();

  explicit RemapTable(std::size_t spare_capacity = 0)
      : capacity_(spare_capacity) {}

  /// Spare slot currently backing `logical`, or npos if not remapped.
  std::uint64_t slot_of(std::uint64_t logical) const {
    const auto it = map_.find(logical);
    return it == map_.end() ? npos : it->second;
  }

  /// Redirects `logical` to the next unused spare slot and returns it.
  /// Remapping an already-remapped block consumes a fresh spare (the worn
  /// spare is abandoned).  Throws SparesExhausted when the pool is empty.
  std::uint64_t remap(std::uint64_t logical) {
    if (used_ >= capacity_) throw SparesExhausted(logical, capacity_);
    const std::uint64_t slot = used_++;
    map_[logical] = slot;
    return slot;
  }

  bool empty() const { return map_.empty(); }
  /// Number of logical blocks currently redirected.
  std::size_t active() const { return map_.size(); }
  /// Spare slots consumed over the table's lifetime (>= active(): a block
  /// remapped twice burned two spares).
  std::size_t spares_used() const { return used_; }

 private:
  std::size_t capacity_;
  std::size_t used_ = 0;
  std::unordered_map<std::uint64_t, std::uint64_t> map_;
};

}  // namespace aem
