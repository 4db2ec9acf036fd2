// The base-case sort of Blelloch et al. [7, Lemma 4.2], as used by the
// paper's Section 3 recursion: sort N' <= omega*M elements with O(omega*n')
// reads and O(n') writes.
//
// Strategy: multi-pass selection.  Each round scans the whole input range,
// keeps the Mout smallest not-yet-output occurrences in internal memory
// (evicting larger ones as smaller ones arrive), then writes that batch to
// the output in sorted order and advances the consumption watermark.  The
// staged batch is a host-side bounded max-heap (bounded_heap.hpp) that
// never holds more than the Mout occurrences the round reserves on the
// ledger; its storage is allocated once and reused by every round.  With
// R' = ceil(N'/Mout) rounds this costs R' * n' <= (4*omega + 1) * n' reads
// and n' (+ R') writes — the Lemma 4.2 budget, since N' <= omega*M =
// 4*omega*Mout implies R' <= 4*omega.
//
// Internal memory: Mout staged occurrences + one scan block + one write
// block, within the SortBudget split (see budget.hpp).
#pragma once

#include <cstddef>
#include <optional>
#include <stdexcept>

#include "core/ext_array.hpp"
#include "io/scanner.hpp"
#include "sort/bounded_heap.hpp"
#include "sort/budget.hpp"
#include "sort/occ.hpp"
#include "sort/sink.hpp"

namespace aem {

/// Sorts src[begin, end) into dst starting at dst_begin.
///
/// With a Combine callable, adjacent key-equal elements (under `less`) are
/// folded into one; the return value is the number of elements written
/// (== end - begin when not combining).  The sort is stable.
///
/// Intended for ranges of at most SortBudget::base elements (the paper's
/// N' <= omega*M); larger ranges still sort correctly but the cost grows as
/// ceil(N'/Mout) passes over the input.
template <class T, class Less, class Combine = std::nullptr_t>
std::size_t small_sort(const ExtArray<T>& src, std::size_t begin,
                       std::size_t end, ExtArray<T>& dst,
                       std::size_t dst_begin, Less less, Combine combine = {}) {
  if (end < begin || end > src.size())
    throw std::invalid_argument("small_sort: bad range");
  const std::size_t total = end - begin;

  Machine& mach = src.machine();
  const SortBudget budget = SortBudget::from(mach);
  using Occ = sort_detail::Occ<T>;
  using OccLess = sort_detail::OccLess<T, Less>;
  const OccLess occ_less(less);
  auto key_eq = [occ_less](const T& a, const T& b) {
    return occ_less.equiv(a, b);
  };
  sort_detail::CombineSink<T, decltype(key_eq), Combine> sink(
      dst, dst_begin, dst_begin + total, key_eq, combine);

  // The staged batch: the Mout smallest unconsumed occurrences.
  sort_detail::BoundedMaxHeap<Occ, OccLess> out(budget.small_batch, total,
                                                occ_less);
  std::optional<Occ> watermark;
  std::size_t consumed = 0;
  while (consumed < total) {
    MemoryReservation out_res(mach.ledger(), budget.small_batch);
    out.clear();

    Scanner<T> scan(src, begin, end);
    while (!scan.done()) {
      const std::size_t pos = scan.position();
      const T val = scan.next();
      Occ o{val, /*run=*/0, pos, scan.last_ticket()};
      if (watermark.has_value() && !occ_less(*watermark, o)) continue;
      out.offer(o);
    }

    if (out.empty())
      throw std::logic_error("small_sort: no progress (corrupt watermark)");
    const bool mark = mach.tracing() && src.has_atom_extractor();
    const auto batch = out.sorted();
    for (const Occ& o : batch) {
      if (mark && o.ticket.valid())
        mach.trace()->mark_used(o.ticket, src.atom_id(o.val));
      sink.push(o.val);
    }
    watermark = batch.back();
    consumed += batch.size();
  }
  return sink.finish();
}

}  // namespace aem
