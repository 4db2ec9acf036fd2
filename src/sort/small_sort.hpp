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
// radix for an order with a radix key; MODEL.md section 3, host
// recomputation).  dst must not be src, so the copy equals what every later
// round's reads deliver.  A round's slice is emitted a destination block at a
// time: gathered from the copy, then appended to the sink, with the same
// writes and trace use-sets as pushing it element by element.
//
// The copy, the permutation, the read tickets, the gathered block and
// host_sort's buffers are uncharged host scratch (SmallSortScratch), held for
// one sort call: aem_merge_sort, the sample sorts and sort_spmv pass one to
// every base case they run, and the public small_sort makes its own.
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

namespace sort_detail {

/// small_sort's host scratch, for one sort call: a sort that runs many
/// base cases keeps one and passes it to each, so the buffers are
/// allocated once.  Nothing in it carries over from one range to the next.
template <class T>
struct SmallSortScratch {
  std::vector<T> vals;               // the range as round 0 delivered it
  std::vector<std::uint32_t> order;  // its offsets in occurrence order
  std::vector<IoTicket> tickets;     // each round's read tickets
  std::vector<T> block;              // one gathered output block
  HostSortScratch<T> host;
};

/// aem::small_sort on the given scratch.
template <class T, class Less, class Combine>
std::size_t small_sort(SmallSortScratch<T>& scratch,
                       const ExtArray<T>& src, std::size_t begin,
                       std::size_t end, ExtArray<T>& dst,
                       std::size_t dst_begin, Less less, Combine combine) {
  if (end < begin || end > src.size())
    throw std::invalid_argument("small_sort: bad range");
  if (&dst == &src)
    throw std::invalid_argument("small_sort: dst is the source array");
  const std::size_t total = end - begin;
  if (total > UINT32_MAX)
    throw std::length_error("small_sort: range of 2^32 or more elements");

  Machine& mach = src.machine();
  const std::size_t batch = SortBudget::small_batch_of(mach);
  const std::size_t B = mach.B();
  auto key_eq = [less](const T& a, const T& b) {
    return !less(a, b) && !less(b, a);
  };
  CombineSink<T, decltype(key_eq), Combine> sink(dst, dst_begin,
                                                 dst_begin + total, key_eq,
                                                 combine);

  std::vector<T>& vals = scratch.vals;
  const std::vector<std::uint32_t>& order = scratch.order;
  std::vector<IoTicket>& tickets = scratch.tickets;
  std::vector<T>& block = scratch.block;
  vals.resize(total);
  const std::size_t first = begin / B;  // the range's first block
  tickets.resize(mach.n_of(end) - first);
  block.resize(B);
  const bool record_use = mach.tracing() && src.has_atom_extractor();
  for (std::size_t next = 0; next < total;) {
    MemoryReservation out_res(mach.ledger(), batch);
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
      host_sort(std::span<const T>(vals), less, scratch.order, scratch.host);
    // The round's slice, a destination block at a time: gather the values
    // up to the next block boundary of dst (marking each one used by the
    // read that delivered it), then append them, so every write follows
    // the same marks as pushing one by one would.
    const std::size_t stop = next + std::min(batch, total - next);
    for (std::size_t i = next; i < stop;) {
      const std::size_t count = std::min(B - (dst_begin + i) % B, stop - i);
      for (std::size_t j = 0; j < count; ++j) {
        const std::uint32_t off = order[i + j];
        if (record_use) {
          const IoTicket tk = tickets[(begin + off) / B - first];
          if (tk.valid()) mach.trace()->mark_used(tk, src.atom_id(vals[off]));
        }
        block[j] = vals[off];
      }
      sink.append(std::span<const T>(block.data(), count));
      i += count;
    }
    next = stop;
  }
  return sink.finish();
}

}  // namespace sort_detail

/// Sorts src[begin, end) into dst starting at dst_begin.
///
/// With a Combine callable, adjacent key-equal elements (under `less`) are
/// folded into one; the return value is the number of elements written
/// (== end - begin when not combining).  The sort is stable.
///
/// Intended for ranges of at most SortBudget::base elements (the paper's
/// N' <= omega*M); larger ranges cost ceil(N'/Mout) passes over the input,
/// and ranges of 2^32 elements or more throw std::length_error.  dst must be
/// a different array from src (std::invalid_argument otherwise).  A caller
/// that sorts many ranges passes one sort_detail::SmallSortScratch to
/// sort_detail::small_sort instead; this makes a scratch for the one call.
template <class T, class Less, class Combine = std::nullptr_t>
std::size_t small_sort(const ExtArray<T>& src, std::size_t begin,
                       std::size_t end, ExtArray<T>& dst,
                       std::size_t dst_begin, Less less, Combine combine = {}) {
  sort_detail::SmallSortScratch<T> scratch;
  return sort_detail::small_sort(scratch, src, begin, end, dst, dst_begin,
                                 less, combine);
}

}  // namespace aem
