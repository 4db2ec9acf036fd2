// Internal-memory accounting.
//
// Every internal-memory residency in aemlib flows through a MemoryLedger:
// algorithms hold buffers only via RAII MemoryReservation objects, so the
// ledger's high-water mark is a sound upper bound on the number of elements
// an algorithm ever keeps in internal memory.  Exceeding the capacity M
// throws, turning a memory-budget bug in an algorithm into a hard failure
// instead of a silently wrong cost claim.
#pragma once

#include <cstddef>
#include <stdexcept>
#include <string>

namespace aem {

/// Thrown when an acquisition would exceed the capacity M.
class CapacityError : public std::runtime_error {
 public:
  CapacityError(std::size_t requested, std::size_t used, std::size_t capacity);

  std::size_t requested() const { return requested_; }
  std::size_t used() const { return used_; }
  std::size_t capacity() const { return capacity_; }

 private:
  std::size_t requested_;
  std::size_t used_;
  std::size_t capacity_;
};

class MemoryLedger {
 public:
  explicit MemoryLedger(std::size_t capacity_elems)
      : capacity_(capacity_elems) {}

  /// Registers `elems` additional resident elements.  Throws CapacityError
  /// if the capacity would be exceeded.
  void acquire(std::size_t elems) {
    if (used_ + elems > capacity_)
      throw CapacityError(elems, used_, capacity_);
    used_ += elems;
    if (used_ > high_water_) high_water_ = used_;
  }

  /// Releases previously acquired elements.  Releasing more than acquired is
  /// a programming error (typically a double-release); the count is clamped
  /// so accounting can continue, but the ledger is *poisoned*: the underflow
  /// is recorded and surfaced via poisoned() / Machine::ledger_poisoned(),
  /// so tests and metrics catch the bug instead of it silently erasing part
  /// of the footprint.  noexcept because it runs from destructors.
  void release(std::size_t elems) noexcept {
    if (elems > used_) {
      poisoned_ = true;
      over_released_ += elems - used_;
      used_ = 0;
      return;
    }
    used_ -= elems;
  }

  std::size_t capacity() const { return capacity_; }
  std::size_t used() const { return used_; }
  std::size_t high_water() const { return high_water_; }

  /// True once any release() exceeded the acquired balance.  A poisoned
  /// ledger's used()/high_water() are no longer trustworthy bounds.
  bool poisoned() const { return poisoned_; }
  /// Total elements released beyond the acquired balance.
  std::size_t over_released() const { return over_released_; }
  void clear_poison() {
    poisoned_ = false;
    over_released_ = 0;
  }

  void reset_high_water() { high_water_ = used_; }

 private:
  std::size_t capacity_;
  std::size_t used_ = 0;
  std::size_t high_water_ = 0;
  bool poisoned_ = false;
  std::size_t over_released_ = 0;
};

/// RAII registration of `elems` resident elements with a ledger.
/// Move-only; the destructor releases.
class MemoryReservation {
 public:
  MemoryReservation() = default;

  MemoryReservation(MemoryLedger& ledger, std::size_t elems)
      : ledger_(&ledger), elems_(elems) {
    ledger_->acquire(elems_);
  }

  MemoryReservation(MemoryReservation&& o) noexcept
      : ledger_(o.ledger_), elems_(o.elems_) {
    o.ledger_ = nullptr;
    o.elems_ = 0;
  }

  MemoryReservation& operator=(MemoryReservation&& o) noexcept {
    if (this != &o) {
      reset();
      ledger_ = o.ledger_;
      elems_ = o.elems_;
      o.ledger_ = nullptr;
      o.elems_ = 0;
    }
    return *this;
  }

  MemoryReservation(const MemoryReservation&) = delete;
  MemoryReservation& operator=(const MemoryReservation&) = delete;

  ~MemoryReservation() { reset(); }

  /// Changes the reservation size (acquire/release the delta).  Strongly
  /// exception-safe: a CapacityError from the grow path leaves
  /// both the ledger and elems_ exactly as they were, so the destructor
  /// still releases the true outstanding amount.  The ledger must mutate
  /// *before* elems_ is updated — the reverse order would, on throw, leave
  /// elems_ claiming elements the ledger never granted.
  void resize(std::size_t elems) {
    if (ledger_ == nullptr) return;
    if (elems > elems_) {
      ledger_->acquire(elems - elems_);  // may throw; no state changed yet
    } else if (elems < elems_) {
      ledger_->release(elems_ - elems);  // noexcept
    }
    elems_ = elems;
  }

  void reset() noexcept {
    if (ledger_ != nullptr) ledger_->release(elems_);
    ledger_ = nullptr;
    elems_ = 0;
  }

  std::size_t elems() const { return elems_; }

  /// True if this reservation is registered with a ledger (false for
  /// default-constructed or moved-from reservations).
  bool attached() const { return ledger_ != nullptr; }

 private:
  MemoryLedger* ledger_ = nullptr;
  std::size_t elems_ = 0;
};

}  // namespace aem
