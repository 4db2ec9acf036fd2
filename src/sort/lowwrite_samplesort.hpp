// Read-favoring AEM sample sort: the [7]-style low-write variant whose
// splitter fanout keeps growing with omega instead of stopping at the
// resident cap (docs/MODEL.md section 18).
//
// The classical samplesort in samplesort.hpp must hold the whole splitter
// set in internal memory while classifying, which caps its fanout at
// Mout/4 and — for omega >> B — costs it extra distribution LEVELS, i.e.
// extra write passes.  This variant removes the cap by externalizing the
// splitters and paying reads for them:
//
//  * the sample (~4 per splitter) is collected to EXTERNAL memory and
//    sorted with the omega-aware mergesort, so the sample size may exceed M;
//  * the d_s - 1 distinct splitters live in an external sorted array;
//  * distribution proceeds window by window: each window covers m_eff
//    consecutive buckets, and only that window's boundary splitters
//    (<= m_eff + 1 keys) are loaded — charged splitter-probe reads — and
//    searched RESIDENT via the Eytzinger kernel of util/search.hpp (the
//    branchless layout of EXPERIMENTS.md's fence-lookup row; non-integral
//    key types fall back to std::upper_bound on the same resident window).
//    Each window is scanned twice (count, then distribute), so
//    out-of-window elements cost reads, never writes.
//
// Per level over n elements with d_s = omega * m_eff buckets this is
// O(omega * n/B) reads and n/B + O(d_s) writes (each element is written
// exactly once; the O(d_s) term is partial-block RMW at bucket
// boundaries), against the capped variant's extra levels and the Section 3
// merge's pointer RMW traffic — bench_w1_lowwrite maps out where each
// wins.  The fanout is additionally capped at len/(4B) so buckets average
// at least four blocks and the boundary-RMW term stays O(n/B)/4.
//
// At omega == 1 (or whenever the budget fanout already fits residently)
// aem_lowwrite_sample_sort delegates to the classical SampleSortJob, so
// the omega = 1 variant is charge-identical to aem_sample_sort by
// construction — the identity guard of bench_w1_lowwrite.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <stdexcept>
#include <type_traits>
#include <vector>

#include "core/ext_array.hpp"
#include "io/cursor.hpp"
#include "io/scanner.hpp"
#include "io/writer.hpp"
#include "sort/budget.hpp"
#include "sort/mergesort.hpp"
#include "sort/samplesort.hpp"
#include "sort/small_sort.hpp"
#include "util/search.hpp"

namespace aem {

namespace sort_detail {

template <class T, class Less>
class LowWriteSampleSortJob {
 public:
  LowWriteSampleSortJob(const ExtArray<T>& in, ExtArray<T>& out, Less less)
      : mach_(in.machine()),
        in_(in),
        out_(out),
        less_(less),
        budget_(SortBudget::from(mach_)) {}

  void run() {
    const std::size_t n = in_.size();
    if (n == 0) return;
    if (n <= budget_.base) {
      small_sort(base_scratch_, in_, 0, n, out_, 0, less_, nullptr);
      return;
    }
    ExtArray<T> a(mach_, n, "lwsamplesort.a");
    ExtArray<T> b(mach_, n, "lwsamplesort.b");
    auto buckets = distribute(in_, RunBounds{0, n}, a);
    for (const RunBounds& bkt : buckets) recurse(a, b, bkt, /*depth=*/1);
  }

 private:
  static constexpr unsigned kMaxDepth = 64;

  /// Per-range fanout: the budget's omega-scaled d_s, further capped so
  /// buckets average >= 4 blocks (see file comment).
  std::size_t fanout_for(std::size_t len) const {
    const std::size_t by_len =
        std::max<std::size_t>(2, len / (4 * mach_.B()));
    return std::min(budget_.fanout, by_len);
  }

  void recurse(ExtArray<T>& cur, ExtArray<T>& other, RunBounds range,
               unsigned depth) {
    if (range.length() == 0) return;
    if (range.length() <= budget_.base || depth >= kMaxDepth) {
      small_sort(base_scratch_, cur, range.begin, range.end, out_,
                 range.begin, less_, nullptr);
      return;
    }
    auto buckets = distribute(cur, range, other);
    for (const RunBounds& bkt : buckets) recurse(other, cur, bkt, depth + 1);
  }

  /// Collects ~4 evenly spread samples per splitter from src[range] into an
  /// external array and sorts it with the omega-aware mergesort.  Returns
  /// the sorted sample array (sized `want`).
  ExtArray<T> sorted_sample(const ExtArray<T>& src, RunBounds range,
                            std::size_t want) {
    ExtArray<T> raw(mach_, want, "lwsamplesort.sample");
    {
      const std::size_t len = range.length();
      BlockCursor<T> cursor(src);
      Writer<T> w(raw, 0, want);
      for (std::size_t i = 0; i < want; ++i) {
        const std::size_t pos =
            range.begin + (i * len + len / 2) / want;  // even spread
        w.push(cursor.at(std::min(pos, range.end - 1)));
      }
      w.finish();
    }
    ExtArray<T> sorted(mach_, want, "lwsamplesort.sample_sorted");
    aem_merge_sort(raw, sorted, less_);
    return sorted;
  }

  /// Streams the sorted sample and keeps the distinct evenly spaced
  /// splitter candidates.  With write == nullptr only counts them;
  /// otherwise emits each kept splitter through *write.  Returns the count.
  std::size_t select_splitters(ExtArray<T>& sample, std::size_t fanout,
                               Writer<T>* write) {
    const std::size_t want = sample.size();
    Scanner<T> scan(sample, 0, want);
    std::size_t kept = 0;
    bool have_prev = false;
    T prev{};
    std::size_t cursor = 0;  // elements consumed so far
    for (std::size_t i = 1; i < fanout; ++i) {
      const std::size_t target = i * want / fanout;
      if (target >= want) break;
      if (target < cursor) continue;  // duplicate target position
      scan.skip(target - cursor);
      const T cand = scan.next();
      cursor = target + 1;
      if (!have_prev || less_(prev, cand)) {
        ++kept;
        if (write != nullptr) write->push(cand);
        prev = cand;
        have_prev = true;
      }
    }
    return kept;
  }

  /// Splits src[range] into buckets written contiguously to dst[range]
  /// using external splitters and windowed resident search.  Returns the
  /// bucket bounds (>= 2 buckets unless the sample is fully degenerate).
  std::vector<RunBounds> distribute(const ExtArray<T>& src, RunBounds range,
                                    ExtArray<T>& dst) {
    const std::size_t len = range.length();
    const std::size_t fanout = fanout_for(len);
    const std::size_t want = std::min(len, 4 * fanout);

    ExtArray<T> sample = sorted_sample(src, range, want);

    // Two passes over the sorted sample: count the distinct splitters, then
    // materialize them into an exactly sized external array.
    const std::size_t nsplit = select_splitters(sample, fanout, nullptr);
    if (nsplit == 0) {
      // Fully degenerate sample: copy through; the recursion depth guard
      // hands the range to small_sort eventually.
      copy_range(src, range, dst);
      return {range};
    }
    ExtArray<T> split(mach_, nsplit, "lwsamplesort.splitters");
    {
      Writer<T> w(split, 0, nsplit);
      select_splitters(sample, fanout, &w);
      w.finish();
    }

    const std::size_t buckets = nsplit + 1;
    const std::size_t group = std::max<std::size_t>(1, budget_.m_eff);
    std::vector<RunBounds> bounds;
    bounds.reserve(buckets);
    std::size_t offset = range.begin;

    for (std::size_t blo = 0; blo < buckets; blo += group) {
      const std::size_t bhi = std::min(buckets, blo + group);
      // Window splitters: global indices [base_idx, wend).  Including the
      // lower AND upper boundary keys makes in-window membership decidable
      // from resident data alone.
      const std::size_t base_idx = blo == 0 ? 0 : blo - 1;
      const std::size_t wend = std::min(nsplit, bhi);
      std::vector<T> wsplit;
      // Residency: the window keys plus the Eytzinger tree's padded copy
      // (footprint < 2n + 1, see util/search.hpp) plus the per-window
      // bucket counters and bounds.
      MemoryReservation wres(mach_.ledger(), 3 * (wend - base_idx) + 1 +
                                                 2 * (bhi - blo));
      wsplit.reserve(wend - base_idx);
      {
        Scanner<T> scan(split, base_idx, wend);
        while (!scan.done()) wsplit.push_back(scan.next());
      }
      util::EytzingerSearch eyt;
      if constexpr (std::is_same_v<T, std::uint64_t> &&
                    std::is_same_v<Less, std::less<std::uint64_t>>) {
        eyt = util::EytzingerSearch(
            std::span<const std::uint64_t>(wsplit.data(), wsplit.size()));
      }
      // bucket_of(v) relative to the window, or `buckets` when v falls
      // outside [blo, bhi).
      auto window_bucket = [&](const T& v) -> std::size_t {
        std::size_t j;
        if constexpr (std::is_same_v<T, std::uint64_t> &&
                      std::is_same_v<Less, std::less<std::uint64_t>>) {
          j = eyt.rank_upper(v);
        } else {
          j = static_cast<std::size_t>(
              std::upper_bound(wsplit.begin(), wsplit.end(), v, less_) -
              wsplit.begin());
        }
        if (j == wsplit.size() && wend < nsplit)
          return buckets;  // at or past the upper boundary key: not ours
        const std::size_t bkt = base_idx + j;
        return (bkt >= blo && bkt < bhi) ? bkt : buckets;
      };

      // Count scan: exact sizes of this window's buckets.
      std::vector<std::size_t> count(bhi - blo, 0);
      {
        Scanner<T> scan(src, range.begin, range.end);
        while (!scan.done()) {
          const std::size_t bkt = window_bucket(scan.next());
          if (bkt < buckets) ++count[bkt - blo];
        }
      }
      std::vector<RunBounds> wbounds(bhi - blo);
      for (std::size_t i = 0; i < count.size(); ++i) {
        wbounds[i] = RunBounds{offset, offset + count[i]};
        offset += count[i];
      }

      // Distribute scan: every element of the window is written exactly
      // once; out-of-window elements are re-read, never re-written.
      {
        std::vector<Writer<T>> writers;
        writers.reserve(bhi - blo);
        for (const RunBounds& wb : wbounds)
          writers.emplace_back(dst, wb.begin, wb.end);
        Scanner<T> scan(src, range.begin, range.end);
        while (!scan.done()) {
          const T v = scan.next();
          const std::size_t bkt = window_bucket(v);
          if (bkt < buckets) writers[bkt - blo].push(v);
        }
        for (auto& w : writers) w.finish();
      }
      bounds.insert(bounds.end(), wbounds.begin(), wbounds.end());
    }

    if (offset != range.end)
      throw std::logic_error(
          "lowwrite samplesort: windows did not cover the range");
    return bounds;
  }

  void copy_range(const ExtArray<T>& src, RunBounds range, ExtArray<T>& dst) {
    Scanner<T> scan(src, range.begin, range.end);
    Writer<T> w(dst, range.begin, range.end);
    while (!scan.done()) w.push(scan.next());
    w.finish();
  }

  Machine& mach_;
  const ExtArray<T>& in_;
  ExtArray<T>& out_;
  Less less_;
  SortBudget budget_;
  SmallSortScratch<T> base_scratch_;  // every base case's host scratch
};

}  // namespace sort_detail

/// Sorts `in` into `out`, a different array (std::invalid_argument
/// otherwise), with the read-favoring sample sort (see header comment).
/// NOT stable.  Delegates to aem_sample_sort whenever the
/// budget fanout already fits residently (always at omega == 1), making
/// the omega = 1 variant charge-identical to its classical counterpart.
template <class T, class Less = std::less<T>>
void aem_lowwrite_sample_sort(const ExtArray<T>& in, ExtArray<T>& out,
                              Less less = {}) {
  if (in.size() != out.size())
    throw std::invalid_argument("aem_lowwrite_sample_sort: size mismatch");
  if (&in == &out)
    throw std::invalid_argument("aem_lowwrite_sample_sort: out is the input array");
  Machine& mach = in.machine();
  const SortBudget budget = SortBudget::from(mach);
  const std::size_t resident_cap =
      std::max<std::size_t>(2, budget.out_batch / 4);
  if (mach.omega() == 1 || budget.fanout <= resident_cap) {
    sort_detail::SampleSortJob<T, Less> job(in, out, less);
    job.run();
    return;
  }
  sort_detail::LowWriteSampleSortJob<T, Less> job(in, out, less);
  job.run();
}

}  // namespace aem
