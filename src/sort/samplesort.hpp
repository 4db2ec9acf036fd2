// AEM sample sort, following Blelloch et al. [7] (the paper's second
// comparator), with a deterministic splitter rule for reproducibility.
//
// Each level classifies the input against d_s - 1 splitters and distributes
// it into d_s buckets.  Write-efficiency comes from distributing in
// ceil(d_s / m_eff) sub-passes: each sub-pass re-scans the input (reads are
// cheap) but keeps only m_eff one-block bucket buffers resident, so every
// element is WRITTEN exactly once per level.  With d_s ~ omega * m_eff this
// gives O(omega n) reads + O(n) writes per level and
// O(omega n log_{omega m} n) total — the [7] bound.
//
// Honest deviation (documented in DESIGN.md): the splitter set must fit in
// internal memory while classifying, so the fanout is capped at Mout/4.
// For omega <= B the cap is never hit and the [7] bound holds exactly; for
// omega >> B sample sort degrades gracefully (fanout M instead of omega*m)
// while the paper's Section 3 mergesort — which needs no splitters — keeps
// the full bound.  Experiment E3 shows precisely this separation.
#pragma once

#include <algorithm>
#include <cstddef>
#include <functional>
#include <stdexcept>
#include <vector>

#include "core/ext_array.hpp"
#include "io/cursor.hpp"
#include "io/scanner.hpp"
#include "io/writer.hpp"
#include "sort/budget.hpp"
#include "sort/small_sort.hpp"

namespace aem {

namespace sort_detail {

template <class T, class Less>
class SampleSortJob {
 public:
  SampleSortJob(const ExtArray<T>& in, ExtArray<T>& out, Less less)
      : mach_(in.machine()),
        in_(in),
        out_(out),
        less_(less),
        budget_(SortBudget::from(mach_)) {
    // Splitters and bucket counters must fit in a quarter of memory.
    fanout_ = std::min<std::size_t>(budget_.fanout,
                                    std::max<std::size_t>(2, budget_.out_batch / 4));
  }

  void run() {
    const std::size_t n = in_.size();
    if (n == 0) return;
    if (n <= budget_.base) {
      small_sort(in_, 0, n, out_, 0, less_);
      return;
    }
    ExtArray<T> a(mach_, n, "samplesort.a");
    ExtArray<T> b(mach_, n, "samplesort.b");
    auto buckets = distribute(in_, RunBounds{0, n}, a);
    for (const RunBounds& bkt : buckets) recurse(a, b, bkt, /*depth=*/1);
  }

 private:
  static constexpr unsigned kMaxDepth = 64;

  /// Sorts cur[range] into out_[range]; `other` is the sibling scratch.
  void recurse(ExtArray<T>& cur, ExtArray<T>& other, RunBounds range,
               unsigned depth) {
    if (range.length() == 0) return;
    if (range.length() <= budget_.base || depth >= kMaxDepth) {
      // Depth guard: pathological splitter degeneration (e.g. all-equal
      // keys) falls back to the multi-pass base sort, which is always
      // correct (just costlier for oversized ranges).
      small_sort(cur, range.begin, range.end, out_, range.begin, less_);
      return;
    }
    auto buckets = distribute(cur, range, other);
    for (const RunBounds& bkt : buckets) recurse(other, cur, bkt, depth + 1);
  }

  /// Splits src[range] into buckets written contiguously to dst[range].
  /// Returns the bucket bounds.  Guarantees >= 2 buckets, each strictly
  /// smaller than the range when the splitters are non-degenerate.
  std::vector<RunBounds> distribute(const ExtArray<T>& src, RunBounds range,
                                    ExtArray<T>& dst) {
    const std::size_t len = range.length();

    // 1. Sample ~4 evenly spaced elements per splitter and sort in memory.
    const std::size_t want = std::min(len, 4 * fanout_);
    std::vector<T> sample;
    MemoryReservation sample_res(mach_.ledger(), want);
    {
      sample.reserve(want);
      BlockCursor<T> cursor(src);
      for (std::size_t i = 0; i < want; ++i) {
        const std::size_t pos =
            range.begin + (i * len + len / 2) / want;  // even spread
        sample.push_back(cursor.at(std::min(pos, range.end - 1)));
      }
      std::sort(sample.begin(), sample.end(), less_);
    }

    // 2. Distinct splitters (duplicate-heavy inputs collapse them).
    std::vector<T> splitters;
    MemoryReservation split_res(mach_.ledger(), fanout_);
    for (std::size_t i = 1; i < fanout_ && i < sample.size(); ++i) {
      const T& cand = sample[i * sample.size() / fanout_];
      if (splitters.empty() || less_(splitters.back(), cand))
        splitters.push_back(cand);
    }
    sample.clear();
    sample_res.reset();
    if (splitters.empty()) {
      // Fully degenerate sample: copy through (the recursion's depth guard
      // will hand the range to small_sort).
      copy_range(src, range, dst);
      return {range};
    }
    const std::size_t buckets = splitters.size() + 1;
    auto bucket_of = [&](const T& v) {
      return static_cast<std::size_t>(
          std::upper_bound(splitters.begin(), splitters.end(), v, less_) -
          splitters.begin());
    };

    // 3. Counting pass: one scan, bucket sizes in memory.
    std::vector<std::size_t> count(buckets, 0);
    MemoryReservation count_res(mach_.ledger(), buckets);
    {
      Scanner<T> scan(src, range.begin, range.end);
      while (!scan.done()) ++count[bucket_of(scan.next())];
    }
    std::vector<RunBounds> bounds(buckets);
    std::size_t offset = range.begin;
    for (std::size_t i = 0; i < buckets; ++i) {
      bounds[i] = RunBounds{offset, offset + count[i]};
      offset += count[i];
    }

    // 4. Distribution in sub-passes of m_eff buckets each: every element is
    // written exactly once; the input is re-scanned once per sub-pass.
    const std::size_t group = std::max<std::size_t>(1, budget_.m_eff);
    for (std::size_t lo = 0; lo < buckets; lo += group) {
      const std::size_t hi = std::min(buckets, lo + group);
      std::vector<Writer<T>> writers;
      writers.reserve(hi - lo);
      for (std::size_t i = lo; i < hi; ++i)
        writers.emplace_back(dst, bounds[i].begin, bounds[i].end);
      Scanner<T> scan(src, range.begin, range.end);
      while (!scan.done()) {
        const T v = scan.next();
        const std::size_t bkt = bucket_of(v);
        if (bkt >= lo && bkt < hi) writers[bkt - lo].push(v);
      }
      for (auto& w : writers) w.finish();
    }
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
  std::size_t fanout_;
};

}  // namespace sort_detail

/// Sorts `in` into `out`, a different array (std::invalid_argument
/// otherwise), with AEM sample sort (see header comment for the cost
/// discussion).  NOT stable (bucket classification ignores provenance).
template <class T, class Less = std::less<T>>
void aem_sample_sort(const ExtArray<T>& in, ExtArray<T>& out, Less less = {}) {
  if (in.size() != out.size())
    throw std::invalid_argument("aem_sample_sort: size mismatch");
  if (&in == &out)
    throw std::invalid_argument("aem_sample_sort: out is the input array");
  sort_detail::SampleSortJob<T, Less> job(in, out, less);
  job.run();
}

}  // namespace aem
