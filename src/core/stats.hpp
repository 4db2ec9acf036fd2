// Counters of the AEM machine and its device layers: I/O counts, write
// wear, and per-device outage handling.  Each is declared once, here, and
// the metrics snapshot (core/metrics.hpp) embeds it as is.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <span>
#include <string>

namespace aem {

/// Read/write block-transfer counts.  The AEM cost of a computation with
/// these counts is reads + omega * writes (Section 1 of the paper).
struct IoStats {
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;

  /// Q = Q_r + omega * Q_w, saturating at UINT64_MAX.  Large (N, omega)
  /// sweeps (omega in the hundreds, counters in the billions) can push the
  /// product past 64 bits; a silently wrapped cost would fake a *cheaper*
  /// computation, so saturation is the safe failure mode.
  std::uint64_t cost(std::uint64_t omega) const {
    std::uint64_t weighted = 0;
    if (__builtin_mul_overflow(writes, omega, &weighted))
      return std::numeric_limits<std::uint64_t>::max();
    std::uint64_t q = 0;
    if (__builtin_add_overflow(reads, weighted, &q))
      return std::numeric_limits<std::uint64_t>::max();
    return q;
  }

  /// reads + writes, saturating at UINT64_MAX (same rationale as cost()).
  std::uint64_t total_ios() const {
    std::uint64_t t = 0;
    if (__builtin_add_overflow(reads, writes, &t))
      return std::numeric_limits<std::uint64_t>::max();
    return t;
  }

  IoStats& operator+=(const IoStats& o) {
    reads += o.reads;
    writes += o.writes;
    return *this;
  }

  friend IoStats operator+(IoStats a, const IoStats& b) { return a += b; }

  /// Counter delta (requires *this >= o component-wise).
  friend IoStats operator-(const IoStats& a, const IoStats& b) {
    return IoStats{a.reads - b.reads, a.writes - b.writes};
  }

  friend bool operator==(const IoStats&, const IoStats&) = default;
};

/// "reads=R writes=W" human-readable form.
std::string to_string(const IoStats& s);

/// Write wear summed over every written block (total_wear below).
struct WearStats {
  std::uint64_t blocks_written = 0;  // distinct (array, block) targets
  std::uint64_t max_writes = 0;      // to the most-written block
  double mean_writes = 0.0;          // across written blocks

  friend bool operator==(const WearStats&, const WearStats&) = default;
};

/// One array's write-wear row.
struct ArrayWear {
  std::string name;  // empty if the array id is unknown
  std::uint32_t array = 0;
  std::uint64_t blocks_written = 0;
  std::uint64_t writes = 0;
  std::uint64_t max_writes = 0;

  /// Folds in one block's write count (0: never written, not counted).
  void add_block(std::uint64_t count) {
    if (count == 0) return;
    ++blocks_written;
    writes += count;
    max_writes = std::max(max_writes, count);
  }

  friend bool operator==(const ArrayWear&, const ArrayWear&) = default;
};

/// The wear row of array `array` from its blocks' write counts (any range
/// of counts, zeros included).
template <class Counts>
ArrayWear wear_row(std::uint32_t array, const Counts& counts) {
  ArrayWear row;
  row.array = array;
  for (std::uint64_t count : counts) row.add_block(count);
  return row;
}

/// The rows' wear summed: blocks and writes added, the maximum kept.
WearStats total_wear(std::span<const ArrayWear> rows);

/// Degraded-serving counters of one device's outage handling
/// (core/sharding.hpp; metrics reliability section).
struct OutageStats {
  std::uint64_t wait_rounds = 0;     // read retry rounds spent waiting
  std::uint64_t backoff_ios = 0;     // charged frontend poll reads
  std::uint64_t failed_reads = 0;    // reads that exhausted the retry budget
  std::uint64_t queued_writes = 0;   // native writes deferred while down
  std::uint64_t drained_writes = 0;  // deferred writes replayed on recovery
  friend bool operator==(const OutageStats&, const OutageStats&) = default;
};

}  // namespace aem
