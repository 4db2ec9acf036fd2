// The base-case sort of Blelloch et al. [7, Lemma 4.2], as used by the
// paper's Section 3 recursion: sort N' <= omega*M elements with O(omega*n')
// reads and O(n') writes.
//
// Each of R' = ceil(N'/Mout) rounds (<= omega for a SortBudget::base chunk)
// reserves Mout staged elements and one scan block, reads every block of
// the range, and writes the next Mout occurrences of the (value, position)
// order: R' * n' reads and n' (+ R') writes.  The host selects each round's
// slice from one offset permutation of a copy of the range, taken from
// round 0's reads and ordered once, in occurrence order (host_sort.hpp: a
// radix for unsigned keys under std::less; MODEL.md section 3, host
// recomputation).  dst must not be src, so the copy equals what every later
// round's reads deliver.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

#include "core/ext_array.hpp"
#include "sort/budget.hpp"
#include "sort/host_sort.hpp"
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
/// and ranges of 2^32 elements or more throw std::length_error.  dst must be
/// a different array from src (std::invalid_argument otherwise).
template <class T, class Less, class Combine = std::nullptr_t>
std::size_t small_sort(const ExtArray<T>& src, std::size_t begin,
                       std::size_t end, ExtArray<T>& dst,
                       std::size_t dst_begin, Less less, Combine combine = {}) {
  if (end < begin || end > src.size())
    throw std::invalid_argument("small_sort: bad range");
  if (&dst == &src)
    throw std::invalid_argument("small_sort: dst is the source array");
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

  // Host scratch: the range as round 0 delivered it, its offsets in
  // occurrence order, and each round's read tickets.
  std::vector<T> vals(total);
  std::vector<std::uint32_t> order;
  const std::size_t first = begin / B;  // the range's first block
  std::vector<IoTicket> tickets(mach.n_of(end) - first);
  const bool record_use = mach.tracing() && src.has_atom_extractor();
  for (std::size_t next = 0; next < total;) {
    MemoryReservation out_res(mach.ledger(), budget.small_batch);
    MemoryReservation block_res(mach.ledger(), B);  // the scan block
    for (std::size_t t = 0; t < tickets.size(); ++t) {
      const BlockView<T> v = src.view_block(first + t);
      tickets[t] = v.ticket();
      if (next > 0) continue;
      const std::size_t lo = std::max(begin, (first + t) * B);
      const std::size_t hi = std::min(end, (first + t) * B + v.size());
      std::copy_n(v.span().data() + (lo - (first + t) * B), hi - lo,
                  vals.data() + (lo - begin));
    }
    if (next == 0)
      sort_detail::host_sort(std::span<const T>(vals), less, order);
    const std::size_t batch = std::min(budget.small_batch, total - next);
    for (std::size_t i = next; i < next + batch; ++i) {
      const std::uint32_t off = order[i];
      const IoTicket tk = tickets[(begin + off) / B - first];
      if (record_use && tk.valid())
        mach.trace()->mark_used(tk, src.atom_id(vals[off]));
      sink.push(vals[off]);
    }
    next += batch;
  }
  return sink.finish();
}

}  // namespace aem
