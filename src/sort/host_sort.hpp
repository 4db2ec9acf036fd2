// The host-side occurrence order of the sort family's in-memory sorts
// (small_sort's rounds and em_merge_sort's run formation; MODEL.md §3, host
// recomputation): an offset permutation of the values, ordered by `less`
// and then by offset, so it is strict and total and equal keys keep their
// input order.
//
// An order has a radix key when it declares one, or when it is std::less
// over an unsigned T (the identity key).  To declare one, the order defines
//
//   static K radix_key(const T& v);
//
// with K an unsigned integral of at most 64 bits, and it must induce exactly
// the order's operator(): less(a, b) iff radix_key(a) < radix_key(b).  A key
// that drops a bit the order reads (or reads a field the order ignores)
// yields another permutation, and the charges and outputs built on it move.
//
// Orders with a radix key take a stable LSD radix over the offsets, keyed
// through that key (copied once into a K array for a declared key; the
// values themselves for the identity): 11-bit digits, starting from
// identity order, so ties stay in offset order with no tie-break.  One
// sequential pass over the keys counts every digit at once; a pass whose
// digit is the same for every key moves nothing and is skipped.  Host
// memory: the permutation, one scratch permutation, one count table per
// digit, and the key array of a declared key.
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

/// True when K can be a radix key: unsigned integral, at most 64 bits.
template <class K>
inline constexpr bool kRadixKeyType =
    std::is_integral_v<K> && std::is_unsigned_v<K> &&
    !std::is_same_v<K, bool> && sizeof(K) <= sizeof(std::uint64_t);

/// True when Less declares `static radix_key(const T&)`.
template <class T, class Less>
concept DeclaresRadixKey = requires(const T& v) { Less::radix_key(v); };

/// True when host_sort orders T under Less by the radix path.
template <class T, class Less>
inline constexpr bool kRadixOrder =
    DeclaresRadixKey<T, Less> ||
    (kRadixKeyType<T> &&
     (std::is_same_v<Less, std::less<T>> || std::is_same_v<Less, std::less<>>));

/// The radix key of `v` under a kRadixOrder order: the declared key, or
/// the value itself.
template <class T, class Less>
  requires kRadixOrder<T, Less>
std::uint64_t radix_key_of(const T& v) {
  if constexpr (DeclaresRadixKey<T, Less>) {
    return Less::radix_key(v);
  } else {
    return v;
  }
}

/// Fills `perm`, already sized to keys.size(), with the offsets of `keys`
/// in stable ascending key order.
template <class K>
void radix_order(std::span<const K> keys, std::vector<std::uint32_t>& perm) {
  constexpr unsigned kDigitBits = 11;
  constexpr std::size_t kBuckets = std::size_t{1} << kDigitBits;
  constexpr unsigned kPasses =
      (std::numeric_limits<K>::digits + kDigitBits - 1) / kDigitBits;
  auto digit = [](K k, unsigned pass) {
    return static_cast<std::size_t>(
        (static_cast<std::uint64_t>(k) >> (pass * kDigitBits)) &
        (kBuckets - 1));
  };
  const std::size_t n = keys.size();
  std::vector<std::array<std::uint32_t, kBuckets>> counts(kPasses);
  for (const K k : keys)
    for (unsigned p = 0; p < kPasses; ++p) ++counts[p][digit(k, p)];
  std::iota(perm.begin(), perm.end(), std::uint32_t{0});
  std::vector<std::uint32_t> scratch(n);
  for (unsigned p = 0; p < kPasses && n > 0; ++p) {
    std::array<std::uint32_t, kBuckets>& at = counts[p];
    if (at[digit(keys[0], p)] == n) continue;  // one digit: order kept
    std::uint32_t sum = 0;
    for (std::uint32_t& c : at) sum += std::exchange(c, sum);
    for (const std::uint32_t o : perm) scratch[at[digit(keys[o], p)]++] = o;
    perm.swap(scratch);
  }
}

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
  if constexpr (DeclaresRadixKey<T, Less>) {
    using K = std::remove_cvref_t<decltype(Less::radix_key(vals[0]))>;
    static_assert(kRadixKeyType<K>,
                  "radix_key must return an unsigned integral of at most "
                  "64 bits");
    std::vector<K> keys(n);
    for (std::size_t i = 0; i < n; ++i) keys[i] = Less::radix_key(vals[i]);
    radix_order(std::span<const K>(keys), perm);
  } else if constexpr (kRadixOrder<T, Less>) {
    radix_order(vals, perm);
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
