// The offer loop small_sort ran before it computed its selection once on
// the host, kept as the oracle of test_small_sort.cpp's differential test.
//
// Every round reserves Mout staged occurrences, scans the whole range with a
// Scanner, offers each occurrence above the watermark to a bounded ordered
// set of Mout (the std::set batch the sort goldens were first recorded
// with), then emits the set in (value, position) order.  src and dst must
// be different arrays, as the shipped kernel requires.
#pragma once

#include <algorithm>
#include <cstddef>
#include <iterator>
#include <optional>
#include <set>
#include <stdexcept>

#include "core/ext_array.hpp"
#include "io/scanner.hpp"
#include "sort/budget.hpp"
#include "sort/occ.hpp"
#include "sort/sink.hpp"

namespace aem::test {

template <class T, class Less, class Combine = std::nullptr_t>
std::size_t offer_loop_small_sort(const ExtArray<T>& src, std::size_t begin,
                                  std::size_t end, ExtArray<T>& dst,
                                  std::size_t dst_begin, Less less,
                                  Combine combine = {}) {
  if (end < begin || end > src.size())
    throw std::invalid_argument("small_sort: bad range");
  const std::size_t total = end - begin;

  Machine& mach = src.machine();
  const SortBudget budget = SortBudget::from(mach);
  // An occurrence plus the trace ticket of the read that loaded it.
  struct Occ : sort_detail::Occ<T> {
    IoTicket ticket{};
  };
  using OccLess = sort_detail::OccLess<T, Less>;
  const OccLess occ_less(less);
  auto key_eq = [occ_less](const T& a, const T& b) {
    return occ_less.equiv(a, b);
  };
  sort_detail::CombineSink<T, decltype(key_eq), Combine> sink(
      dst, dst_begin, dst_begin + total, key_eq, combine);

  std::optional<Occ> watermark;
  std::size_t consumed = 0;
  while (consumed < total) {
    MemoryReservation out_res(mach.ledger(), budget.small_batch);
    std::set<Occ, OccLess> out(occ_less);

    Scanner<T> scan(src, begin, end);
    while (!scan.done()) {
      const std::size_t pos = scan.position();
      const T val = scan.next();
      Occ o{{val, /*run=*/0, pos}, scan.last_ticket()};
      if (watermark.has_value() && !occ_less(*watermark, o)) continue;
      if (out.size() < budget.small_batch) {
        out.insert(o);
      } else if (occ_less(o, *out.rbegin())) {
        out.erase(std::prev(out.end()));
        out.insert(o);
      }
    }

    if (out.empty())
      throw std::logic_error("small_sort: no progress (corrupt watermark)");
    const bool mark = mach.tracing() && src.has_atom_extractor();
    for (const Occ& o : out) {
      if (mark && o.ticket.valid())
        mach.trace()->mark_used(o.ticket, src.atom_id(o.val));
      sink.push(o.val);
    }
    watermark = *out.rbegin();
    consumed += out.size();
  }
  return sink.finish();
}

}  // namespace aem::test
