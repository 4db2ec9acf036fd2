// The base-case sort of Blelloch et al. [7, Lemma 4.2], as used by the
// paper's Section 3 recursion: sort N' <= omega*M elements with O(omega*n')
// reads and O(n') writes.
//
// Each of R' = ceil(N'/Mout) rounds (<= omega for a SortBudget::base chunk)
// reserves Mout staged elements and one scan block, reads every block of
// the range, and writes the next Mout occurrences of the (value, position)
// order: R' * n' reads and n' (+ R') writes.  The host selects each round's
// slice from one sort of (value, offset) records built from a copy of the
// range (MODEL.md §3, host recomputation); a round whose blocks differ from
// the copy (unchecksummed reads, an aliased output) rebuilds and re-sorts
// the records and resumes just above the watermark.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <type_traits>
#include <vector>

#include "core/ext_array.hpp"
#include "sort/budget.hpp"
#include "sort/sink.hpp"

namespace aem {

/// Sorts src[begin, end) into dst starting at dst_begin.
///
/// With a Combine callable, adjacent key-equal elements (under `less`) are
/// folded into one; the return value is the number of elements written
/// (== end - begin when not combining).  The sort is stable.
///
/// Intended for ranges of at most SortBudget::base elements (the paper's
/// N' <= omega*M); larger ranges cost ceil(N'/Mout) passes over the input,
/// and ranges of 2^32 elements or more throw std::length_error.
template <class T, class Less, class Combine = std::nullptr_t>
std::size_t small_sort(const ExtArray<T>& src, std::size_t begin,
                       std::size_t end, ExtArray<T>& dst,
                       std::size_t dst_begin, Less less, Combine combine = {}) {
  static_assert(std::is_trivially_copyable_v<T>,
                "small_sort compares delivered blocks bytewise");
  if (end < begin || end > src.size())
    throw std::invalid_argument("small_sort: bad range");
  const std::size_t total = end - begin;
  if (total > UINT32_MAX)
    throw std::length_error("small_sort: range of 2^32 or more elements");

  Machine& mach = src.machine();
  const SortBudget budget = SortBudget::from(mach);
  const std::size_t B = mach.B();
  auto key_eq = [less](const T& a, const T& b) {
    return !less(a, b) && !less(b, a);
  };
  sort_detail::CombineSink<T, decltype(key_eq), Combine> sink(
      dst, dst_begin, dst_begin + total, key_eq, combine);

  // Host scratch: the range as delivered (the copy each round's blocks are
  // compared against), its (value, offset) records in occurrence order, and
  // the read tickets.
  struct Rec {
    T val;
    std::uint32_t off;
  };
  std::vector<T> vals(total);
  std::vector<Rec> order(total);
  const std::size_t first = begin / B;  // the range's first block
  std::vector<IoTicket> tickets(mach.n_of(end) - first);
  std::vector<T> stage;  // delivered blocks under fault injection only
  auto occ_less = [less](const Rec& a, const Rec& b) {
    return less(a.val, b.val) || (!less(b.val, a.val) && a.off < b.off);
  };

  std::size_t consumed = 0;
  std::size_t next = 0;  // order[next]: the first occurrence above the mark
  Rec mark{};            // the watermark: the last emitted occurrence
  while (consumed < total) {
    MemoryReservation out_res(mach.ledger(), budget.small_batch);
    MemoryReservation block_res(mach.ledger(), B);  // the scan block
    bool changed = consumed == 0;
    for (std::size_t t = 0; t < tickets.size(); ++t) {
      const BlockView<T> v = src.view_block(first + t, stage);
      tickets[t] = v.ticket();
      const std::size_t lo = std::max(begin, (first + t) * B);
      const std::size_t hi = std::min(end, (first + t) * B + v.size());
      const T* got = v.span().data() + (lo - (first + t) * B);
      T* have = vals.data() + (lo - begin);
      if (changed || std::memcmp(have, got, (hi - lo) * sizeof(T)) != 0) {
        std::memcpy(have, got, (hi - lo) * sizeof(T));
        changed = true;
      }
    }
    if (changed) {
      for (std::uint32_t o = 0; o < total; ++o) order[o] = {vals[o], o};
      std::sort(order.begin(), order.end(), occ_less);
      if (consumed > 0)  // resume just above the watermark
        next = std::upper_bound(order.begin(), order.end(), mark, occ_less) -
               order.begin();
    }
    const std::size_t batch =
        std::min({budget.small_batch, total - consumed, total - next});
    if (batch == 0)
      throw std::logic_error("small_sort: no progress (corrupt watermark)");
    const bool record_use = mach.tracing() && src.has_atom_extractor();
    for (std::size_t i = next; i < next + batch; ++i) {
      const Rec& r = order[i];
      const IoTicket tk = tickets[(begin + r.off) / B - first];
      if (record_use && tk.valid())
        mach.trace()->mark_used(tk, src.atom_id(r.val));
      sink.push(r.val);
    }
    next += batch;
    consumed += batch;
    mark = order[next - 1];
  }
  return sink.finish();
}

}  // namespace aem
