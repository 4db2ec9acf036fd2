// Deterministic fixed-bucket histogram over per-request charged Q
// (traffic/histogram.hpp; docs/MODEL.md section 16).
//
// The traffic engine records one charged-Q sample per served request and
// reports p50/p99/p999 tail percentiles.  The histogram is HOST-SIDE
// observability state — like the phase table or the wear histogram, it is
// never charged to the ledger and performs no I/O — but its layout is part
// of the bench output contract, so the buckets are fixed once and for all:
//
//  * Q < 4096:  one bucket per exact value (per-request Q of a point query
//    or short scan lands here, so the common percentiles are EXACT);
//  * Q >= 4096: one bucket per power of two, reported at the bucket floor
//    (2^k for Q in [2^k, 2^(k+1))) — tails of giant scans lose precision,
//    never ordering.
//
// Percentiles use the nearest-rank definition over bucket floors, so every
// reported figure is a value the histogram actually bucketed, and merging
// per-shard histograms (plain count addition) is associative and
// commutative: merge(a, merge(b, c)) == merge(merge(a, b), c) byte for
// byte, which is what lets a sharded sweep aggregate per-worker histograms
// in any grouping and still report identical percentiles.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <stdexcept>
#include <vector>

namespace aem::traffic {

class QHistogram {
 public:
  /// Values below this are bucketed exactly; above, by power of two.
  static constexpr std::uint64_t kExactLimit = 4096;

  QHistogram() : exact_(static_cast<std::size_t>(kExactLimit), 0) {}

  /// Adds one charged-Q sample.
  void record(std::uint64_t q) {
    ++total_;
    sum_ += q;
    if (q > max_) max_ = q;
    if (q < kExactLimit) {
      ++exact_[static_cast<std::size_t>(q)];
    } else {
      ++coarse_[std::bit_width(q) - 1];
    }
  }

  /// Adds `other`'s counts into this histogram.  Count addition, so merge
  /// is associative and commutative, and merging per-shard histograms in
  /// any grouping yields identical percentiles.
  void merge(const QHistogram& other) {
    for (std::size_t i = 0; i < exact_.size(); ++i) exact_[i] += other.exact_[i];
    for (std::size_t i = 0; i < coarse_.size(); ++i)
      coarse_[i] += other.coarse_[i];
    total_ += other.total_;
    sum_ += other.sum_;
    max_ = std::max(max_, other.max_);
  }

  std::uint64_t total() const { return total_; }
  std::uint64_t sum() const { return sum_; }
  /// Exact largest recorded sample (not bucket-floored).
  std::uint64_t max() const { return max_; }
  double mean() const {
    return total_ == 0 ? 0.0
                       : static_cast<double>(sum_) / static_cast<double>(total_);
  }

  /// Nearest-rank percentile at `permyriad`/10000 (p50 = 5000, p99 = 9900,
  /// p999 = 9990): the value of the bucket containing the sample of rank
  /// max(1, ceil(total * permyriad / 10000)), reported at the bucket floor.
  ///
  /// Pinned boundary behavior (tests/test_traffic.cpp asserts each):
  ///  * empty histogram: returns the sentinel 0 for EVERY permyriad — a
  ///    disabled traffic section (check_metrics' traffic-disabled identity:
  ///    nothing generated, nothing charged) reports all-zero percentiles,
  ///    so this is a documented contract, not an accident;
  ///  * permyriad = 0: the rank clamps to 1, i.e. the smallest recorded
  ///    bucket floor (the minimum, not a 0 sentinel);
  ///  * permyriad = 10000: the bucket floor of the maximum (max() itself
  ///    stays exact and may be larger in the coarse range);
  ///  * permyriad > 10000: throws std::invalid_argument.  It used to clamp
  ///    silently, which made a caller's unit slip (e.g. passing per-cent
  ///    9900*10) report a plausible-looking p100 instead of failing.
  std::uint64_t percentile(std::uint64_t permyriad) const {
    if (permyriad > 10000)
      throw std::invalid_argument(
          "QHistogram::percentile: permyriad must be <= 10000");
    if (total_ == 0) return 0;
    // ceil(total * permyriad / 10000) without a 128-bit intermediate:
    // split total = 10000*a + b, then ceil(t*p/10000) = a*p + ceil(b*p/10000)
    // and b*p < 10^8 never overflows.
    const std::uint64_t a = total_ / 10000, b = total_ % 10000;
    std::uint64_t rank = a * permyriad + (b * permyriad + 9999) / 10000;
    if (rank == 0) rank = 1;
    std::uint64_t cum = 0;
    for (std::size_t q = 0; q < exact_.size(); ++q) {
      cum += exact_[q];
      if (cum >= rank) return q;
    }
    for (std::size_t k = 0; k < coarse_.size(); ++k) {
      cum += coarse_[k];
      if (cum >= rank) return std::uint64_t{1} << k;
    }
    return max_;  // unreachable: the buckets partition [0, 2^64)
  }

  friend bool operator==(const QHistogram&, const QHistogram&) = default;

 private:
  std::vector<std::uint64_t> exact_;       // one bucket per Q in [0, 4096)
  std::array<std::uint64_t, 64> coarse_{}; // bucket k: Q in [2^k, 2^(k+1))
  std::uint64_t total_ = 0;
  std::uint64_t sum_ = 0;
  std::uint64_t max_ = 0;
};

}  // namespace aem::traffic
