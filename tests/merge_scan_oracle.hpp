// The O(k) scan selection em_merge_group used before its loser tree, kept
// as the oracle of test_loser_tree.cpp: the same Scanner per run and one
// Writer, and each output element is the first strictly-smallest run head.
#pragma once

#include <cstddef>
#include <optional>
#include <span>
#include <vector>

#include "core/ext_array.hpp"
#include "io/scanner.hpp"
#include "io/writer.hpp"
#include "sort/budget.hpp"

namespace aem::test {

template <class T, class Less>
void scan_merge_group(const ExtArray<T>& src, std::span<const RunBounds> runs,
                      ExtArray<T>& dst, std::size_t dst_begin, Less less) {
  Machine& mach = src.machine();
  std::vector<Scanner<T>> heads;
  heads.reserve(runs.size());
  std::size_t total = 0;
  for (const RunBounds& r : runs) {
    heads.emplace_back(src, r.begin, r.end);
    total += r.length();
  }
  MemoryReservation head_state(mach.ledger(), 2 * runs.size());
  Writer<T> out(dst, dst_begin, dst_begin + total);
  while (true) {
    std::optional<std::size_t> best;
    for (std::size_t i = 0; i < heads.size(); ++i) {
      if (heads[i].done()) continue;
      if (!best.has_value() || less(heads[i].peek(), heads[*best].peek()))
        best = i;
    }
    if (!best.has_value()) break;
    out.push(heads[*best].next());
  }
  out.finish();
}

}  // namespace aem::test
