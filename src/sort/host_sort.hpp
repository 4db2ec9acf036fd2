// The host-side occurrence order of small_sort, the sort family's one
// in-memory sort (MODEL.md §3, host recomputation): an offset permutation
// of the values, ordered by `less` and then by offset, so it is strict and
// total and equal keys keep their input order.
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
// Orders with a radix key are ordered over the offsets, keyed through that
// key (copied once into a 64-bit key array for a declared key; the values
// themselves for the identity).  One pass takes the OR and the AND of every
// key, which give the width: the bits up to the highest one that varies.
// Then:
//
//   * narrow keys (a width of at most three 11-bit digits): a stable LSD
//     radix over the digits below the width, starting from identity order,
//     so ties stay in offset order with no tie-break.  One pass counts those
//     digits at once; a pass whose digit is the same for every key moves
//     nothing and is skipped;
//   * wide keys, more than 32 of them: one stable scatter of the offsets by
//     the top ~log2(n) - 2 bits of the width (at most 16), so a bucket
//     averages 4 to 8 offsets on uniform keys.  Each bucket is then finished
//     at a cost that tracks its size: up to 32 offsets by an insertion sort
//     on key, up to 256 by std::sort of (key, offset) pairs held on the
//     stack, and a larger one by the LSD radix over the bits below the
//     bucket's digit (its 2048-entry count tables are paid for only there).
//     When more than half of the offsets would land in buckets of over 32
//     (clustered or skewed keys), the scatter is skipped and the LSD radix
//     runs over the whole width.
//
// Every shape is stable, so all yield the same permutation.  Host memory:
// the permutation, one scratch permutation, the count tables, the key array
// of a declared key, and at most 256 stack pairs.
//
// Every other order falls back to one std::sort of (value, offset)
// records, then copies the offsets out.  Both paths yield the same
// permutation for the same order, so which one runs never shows in an
// output, a charge or a trace.
//
// A HostSortScratch holds all of that memory but the permutation; a sort
// that orders many ranges keeps one for the whole call and passes it to
// every host_sort, so the buffers are allocated once.  It lives only as
// long as that call: nothing is kept between sorts.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <functional>
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

/// One (value, offset) record of the fallback's sort.
template <class T>
struct OffsetRecord {
  T val;
  std::uint32_t off;
};

/// host_sort's buffers beside the permutation, for one sort call.
template <class T>
struct HostSortScratch {
  std::vector<std::uint32_t> tmp;        // the scratch permutation
  std::vector<std::uint32_t> counts;     // the LSD radix's digit counts
  std::vector<std::uint32_t> buckets;    // the bucket pass's bucket ends
  std::vector<std::uint64_t> keys;       // a declared radix key's copies
  std::vector<OffsetRecord<T>> records;  // the fallback's records
};

inline constexpr unsigned kDigitBits = 11;
inline constexpr std::size_t kDigitValues = std::size_t{1} << kDigitBits;
inline constexpr unsigned kNarrowBits = 3 * kDigitBits;
inline constexpr std::size_t kInsertionMax = 32;
inline constexpr std::size_t kCompareMax = 256;
inline constexpr unsigned kMaxBucketBits = 16;

/// Stably sorts the at most kInsertionMax offsets `ofs` by key.
template <class K>
void insertion_order(std::span<const K> keys, std::span<std::uint32_t> ofs) {
  K held[kInsertionMax];  // held[j] == keys[ofs[j]]
  const std::size_t n = ofs.size();
  for (std::size_t i = 0; i < n; ++i) held[i] = keys[ofs[i]];
  for (std::size_t i = 1; i < n; ++i) {
    const std::uint32_t o = ofs[i];
    const K k = held[i];
    std::size_t j = i;
    for (; j > 0 && k < held[j - 1]; --j) {
      held[j] = held[j - 1];
      ofs[j] = ofs[j - 1];
    }
    held[j] = k;
    ofs[j] = o;
  }
}

/// Sorts the at most kCompareMax offsets `ofs` by (key, offset), which is
/// their stable key order.
template <class K>
void compare_order(std::span<const K> keys, std::span<std::uint32_t> ofs) {
  std::pair<K, std::uint32_t> held[kCompareMax];
  const std::size_t n = ofs.size();
  for (std::size_t i = 0; i < n; ++i) held[i] = {keys[ofs[i]], ofs[i]};
  std::sort(held, held + n);
  for (std::size_t i = 0; i < n; ++i) ofs[i] = held[i].second;
}

/// Stably reorders the offsets `ofs`, whose keys agree on every bit from
/// `width` up, by key: an LSD radix over the 11-bit digits below `width`.
/// `tmp` is as long as `ofs`; the result is left in `ofs`.
template <class K>
void lsd_order(std::span<const K> keys, std::span<std::uint32_t> ofs,
               std::span<std::uint32_t> tmp, unsigned width,
               std::vector<std::uint32_t>& counts) {
  const unsigned digits = (width + kDigitBits - 1) / kDigitBits;
  const auto digit = [](K k, unsigned d) {
    return static_cast<std::size_t>(
        (static_cast<std::uint64_t>(k) >> (d * kDigitBits)) &
        (kDigitValues - 1));
  };
  counts.assign(digits * kDigitValues, 0);
  for (const std::uint32_t o : ofs)
    for (unsigned d = 0; d < digits; ++d)
      ++counts[d * kDigitValues + digit(keys[o], d)];
  std::span<std::uint32_t> from = ofs, to = tmp;
  for (unsigned d = 0; d < digits; ++d) {
    std::uint32_t* at = counts.data() + d * kDigitValues;
    if (at[digit(keys[from[0]], d)] == from.size()) continue;  // one digit
    std::uint32_t sum = 0;
    for (std::size_t v = 0; v < kDigitValues; ++v)
      sum += std::exchange(at[v], sum);
    for (const std::uint32_t o : from) to[at[digit(keys[o], d)]++] = o;
    std::swap(from, to);
  }
  if (from.data() != ofs.data()) std::copy(from.begin(), from.end(), ofs.begin());
}

/// The bucket pass over more than kInsertionMax keys wider than
/// kNarrowBits: scatters the offsets stably by bits [width - bits, width),
/// then sorts each bucket.  Returns false, having written nothing, when more
/// than half of the offsets would land in buckets of over kInsertionMax
/// (clustered or skewed keys): the LSD radix over the whole width is cheaper
/// then.
template <class K, class T>
bool bucket_order(std::span<const K> keys, std::vector<std::uint32_t>& perm,
                  HostSortScratch<T>& s, unsigned width) {
  const std::size_t n = keys.size();
  const unsigned bits = std::min<unsigned>(
      kMaxBucketBits, static_cast<unsigned>(std::bit_width(n)) - 3);
  const unsigned shift = width - bits;
  const std::uint64_t mask = (std::uint64_t{1} << bits) - 1;
  const auto bucket = [&](K k) {
    return static_cast<std::size_t>((static_cast<std::uint64_t>(k) >> shift) &
                                    mask);
  };
  s.buckets.assign(std::size_t{1} << bits, 0);
  for (const K k : keys) ++s.buckets[bucket(k)];
  std::size_t in_large = 0;
  for (const std::uint32_t c : s.buckets)
    if (c > kInsertionMax) in_large += c;
  if (2 * in_large > n) return false;
  std::uint32_t sum = 0;
  for (std::uint32_t& c : s.buckets) sum += std::exchange(c, sum);
  for (std::uint32_t o = 0; o < n; ++o) perm[s.buckets[bucket(keys[o])]++] = o;
  // Each bucket's end is now the next one's begin.  The keys of the next
  // kPrefetchAhead offsets are prefetched: a bucket's keys are scattered.
  constexpr std::size_t kPrefetchAhead = 32;
  std::size_t fetched = 0;
  std::uint32_t begin = 0;
  for (const std::uint32_t end : s.buckets) {
    for (const std::size_t to = std::min<std::size_t>(n, end + kPrefetchAhead);
         fetched < to; ++fetched)
      __builtin_prefetch(&keys[perm[fetched]]);
    const std::span<std::uint32_t> ofs(perm.data() + begin, end - begin);
    if (ofs.size() > kCompareMax) {
      s.tmp.resize(n);
      lsd_order(keys, ofs, std::span<std::uint32_t>(s.tmp).first(ofs.size()),
                shift, s.counts);
    } else if (ofs.size() > kInsertionMax) {
      compare_order(keys, ofs);
    } else if (ofs.size() > 1) {
      insertion_order(keys, ofs);
    }
    begin = end;
  }
  return true;
}

/// Fills `perm`, already sized to keys.size(), with the offsets of `keys`
/// in stable ascending key order.
template <class K, class T>
void radix_order(std::span<const K> keys, std::vector<std::uint32_t>& perm,
                 HostSortScratch<T>& s) {
  const std::size_t n = keys.size();
  if (n == 0) return;
  K any = 0;
  K all = static_cast<K>(~K{0});
  for (const K k : keys) {
    any |= k;
    all &= k;
  }
  const auto width = static_cast<unsigned>(
      std::bit_width(static_cast<std::uint64_t>(any ^ all)));
  if (n > kInsertionMax && width > kNarrowBits &&
      bucket_order(keys, perm, s, width))
    return;
  std::iota(perm.begin(), perm.end(), std::uint32_t{0});
  s.tmp.resize(n);
  lsd_order(keys, std::span<std::uint32_t>(perm),
            std::span<std::uint32_t>(s.tmp), width, s.counts);
}

/// Fills `perm` with the offsets 0 .. vals.size()-1 in occurrence order:
/// a before b iff less(vals[a], vals[b]), or neither is less and a < b.
/// `less` must be a strict weak order.  Throws std::length_error for 2^32
/// or more values.  Uses, and may grow, `scratch`'s buffers.
template <class T, class Less>
void host_sort(std::span<const T> vals, Less less,
               std::vector<std::uint32_t>& perm,
               HostSortScratch<T>& scratch) {
  const std::size_t n = vals.size();
  if (n > UINT32_MAX)
    throw std::length_error("host_sort: 2^32 or more values");
  perm.resize(n);
  if constexpr (DeclaresRadixKey<T, Less>) {
    using K = std::remove_cvref_t<decltype(Less::radix_key(vals[0]))>;
    static_assert(kRadixKeyType<K>,
                  "radix_key must return an unsigned integral of at most "
                  "64 bits");
    std::vector<std::uint64_t>& keys = scratch.keys;
    keys.resize(n);
    for (std::size_t i = 0; i < n; ++i) keys[i] = Less::radix_key(vals[i]);
    radix_order(std::span<const std::uint64_t>(keys), perm, scratch);
  } else if constexpr (kRadixOrder<T, Less>) {
    radix_order(vals, perm, scratch);
  } else {
    std::vector<OffsetRecord<T>>& recs = scratch.records;
    recs.resize(n);
    for (std::uint32_t o = 0; o < n; ++o) recs[o] = {vals[o], o};
    std::sort(recs.begin(), recs.end(),
              [less](const OffsetRecord<T>& a, const OffsetRecord<T>& b) {
                return less(a.val, b.val) ||
                       (!less(b.val, a.val) && a.off < b.off);
              });
    for (std::size_t i = 0; i < n; ++i) perm[i] = recs[i].off;
  }
}

}  // namespace aem::sort_detail
