// The host-side occurrence order of small_sort (MODEL.md §3, host
// recomputation): an offset permutation of the delivered values, ordered by
// `less` and then by offset, so it is strict and total and equal keys keep
// their input order.
//
// Unsigned integral keys under std::less take a stable LSD radix over the
// offsets, keyed through `vals`: 11-bit digits, starting from identity
// order, so ties stay in offset order with no tie-break.  One sequential
// pass over `vals` counts every digit at once; a pass whose digit is the
// same for every value moves nothing and is skipped.  Host memory: the
// permutation, one scratch permutation and one count table per digit.
//
// Every other order falls back to one std::sort of (value, offset)
// records, then copies the offsets out.  Both paths yield the same
// permutation for the same order, so which one runs never shows in an
// output, a charge or a trace.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <numeric>
#include <span>
#include <stdexcept>
#include <type_traits>
#include <utility>
#include <vector>

namespace aem::sort_detail {

/// True when host_sort orders T under Less by the radix path.
template <class T, class Less>
inline constexpr bool kRadixOrder =
    std::is_integral_v<T> && std::is_unsigned_v<T> &&
    !std::is_same_v<T, bool> && sizeof(T) <= sizeof(std::uint64_t) &&
    (std::is_same_v<Less, std::less<T>> || std::is_same_v<Less, std::less<>>);

/// Fills `perm` with the offsets 0 .. vals.size()-1 in occurrence order:
/// a before b iff less(vals[a], vals[b]), or neither is less and a < b.
/// `less` must be a strict weak order.  Throws std::length_error for 2^32
/// or more values.
template <class T, class Less>
void host_sort(std::span<const T> vals, Less less,
               std::vector<std::uint32_t>& perm) {
  const std::size_t n = vals.size();
  if (n > UINT32_MAX)
    throw std::length_error("host_sort: 2^32 or more values");
  perm.resize(n);
  if constexpr (kRadixOrder<T, Less>) {
    constexpr unsigned kDigitBits = 11;
    constexpr std::size_t kBuckets = std::size_t{1} << kDigitBits;
    constexpr unsigned kPasses =
        (std::numeric_limits<T>::digits + kDigitBits - 1) / kDigitBits;
    auto digit = [](T v, unsigned pass) {
      return static_cast<std::size_t>(
          (static_cast<std::uint64_t>(v) >> (pass * kDigitBits)) &
          (kBuckets - 1));
    };
    std::vector<std::array<std::uint32_t, kBuckets>> counts(kPasses);
    for (const T v : vals)
      for (unsigned p = 0; p < kPasses; ++p) ++counts[p][digit(v, p)];
    std::iota(perm.begin(), perm.end(), std::uint32_t{0});
    std::vector<std::uint32_t> scratch(n);
    for (unsigned p = 0; p < kPasses && n > 0; ++p) {
      std::array<std::uint32_t, kBuckets>& at = counts[p];
      if (at[digit(vals[0], p)] == n) continue;  // one digit: order kept
      std::uint32_t sum = 0;
      for (std::uint32_t& c : at) sum += std::exchange(c, sum);
      for (const std::uint32_t o : perm) scratch[at[digit(vals[o], p)]++] = o;
      perm.swap(scratch);
    }
  } else {
    struct Rec {
      T val;
      std::uint32_t off;
    };
    std::vector<Rec> recs(n);
    for (std::uint32_t o = 0; o < n; ++o) recs[o] = {vals[o], o};
    std::sort(recs.begin(), recs.end(), [less](const Rec& a, const Rec& b) {
      return less(a.val, b.val) || (!less(b.val, a.val) && a.off < b.off);
    });
    for (std::size_t i = 0; i < n; ++i) perm[i] = recs[i].off;
  }
}

}  // namespace aem::sort_detail
