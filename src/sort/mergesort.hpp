// The paper's Section 3 AEM multi-way mergesort:
//
//   * split the input into chunks of base = omega*Mout elements and sort
//     each with the Lemma 4.2 base case (small_sort);
//   * repeatedly merge groups of d = omega*m_eff runs (merge_runs) until one
//     run remains.
//
// Cost: the recurrence of Section 3 — O(omega * n * log_{omega m} n) total,
// split as O(omega n log n / log(omega m)) reads and O(n log n / log(omega m))
// writes.  No assumption relating omega and B (the paper's improvement over
// the earlier mergesort of Blelloch et al., which required omega < B).
//
// merge_level / merge_all_runs are also the engine of the sorting-based
// SpMxV algorithm (Section 5), which starts from pre-sorted column runs and
// folds key-equal partial sums via a Combine callable.
#pragma once

#include <cstddef>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/ext_array.hpp"
#include "sort/budget.hpp"
#include "sort/merge.hpp"
#include "sort/small_sort.hpp"
#include "util/math.hpp"

namespace aem {

/// Merges one level: groups `runs` into batches of at most `fanout` and
/// merges each batch from src into dst.  Each output run starts at the
/// block-aligned offset of its batch's first input run (safe because
/// combining only shrinks runs).  Returns the new run bounds.
template <class T, class Less, class Combine = std::nullptr_t>
std::vector<RunBounds> merge_level(const ExtArray<T>& src,
                                   std::span<const RunBounds> runs,
                                   ExtArray<T>& dst, std::size_t fanout,
                                   Less less, Combine combine = {}) {
  if (fanout < 2) throw std::invalid_argument("merge_level: fanout < 2");
  std::vector<RunBounds> next;
  next.reserve((runs.size() + fanout - 1) / fanout);
  for (std::size_t g = 0; g < runs.size(); g += fanout) {
    const std::size_t count = std::min(fanout, runs.size() - g);
    const std::size_t out_begin = runs[g].begin;
    const std::size_t written = merge_runs(src, runs.subspan(g, count), dst,
                                           out_begin, less, combine);
    next.push_back(RunBounds{out_begin, out_begin + written});
  }
  return next;
}

/// Bottom-up merging of pre-sorted `runs` (living in *start) until a single
/// run remains, ping-ponging between bufs a and b.  Both buffers must be at
/// least as large as the largest source offset used; `start` must be one of
/// {a, b} or a third array (used for the first level only).
/// Returns {final array, final bounds}.
template <class T, class Less, class Combine = std::nullptr_t>
std::pair<const ExtArray<T>*, RunBounds> merge_all_runs(
    const ExtArray<T>* start, std::vector<RunBounds> runs, ExtArray<T>* a,
    ExtArray<T>* b, Less less, Combine combine = {}) {
  if (runs.empty()) return {start, RunBounds{0, 0}};
  const SortBudget budget = SortBudget::from(start->machine());
  const ExtArray<T>* cur = start;
  ExtArray<T>* next = (cur == a) ? b : a;
  while (runs.size() > 1) {
    runs = merge_level(*cur, std::span<const RunBounds>(runs), *next,
                       budget.fanout, less, combine);
    cur = next;
    next = (cur == a) ? b : a;
  }
  return {cur, runs.front()};
}

/// Chunks [0, n) into block-aligned runs of `chunk` elements.
inline std::vector<RunBounds> make_chunks(std::size_t n, std::size_t chunk) {
  std::vector<RunBounds> runs;
  for (std::size_t begin = 0; begin < n; begin += chunk)
    runs.push_back(RunBounds{begin, std::min(n, begin + chunk)});
  return runs;
}

/// Sorts `in` into `out` (same size, distinct arrays: std::invalid_argument
/// otherwise) with the Section 3 AEM mergesort.  Stable.  Allocates one
/// scratch array of the same size.
template <class T, class Less = std::less<T>>
void aem_merge_sort(const ExtArray<T>& in, ExtArray<T>& out, Less less = {}) {
  if (in.size() != out.size())
    throw std::invalid_argument("aem_merge_sort: size mismatch");
  if (&in == &out)
    throw std::invalid_argument("aem_merge_sort: out is the input array");
  const std::size_t n = in.size();
  if (n == 0) return;

  Machine& mach = in.machine();
  const SortBudget budget = SortBudget::from(mach);

  // Propagate atom tracking (Lemma 4.3 instrumentation) to the outputs so
  // traced runs record which atoms every written block holds.
  if (in.has_atom_extractor() && !out.has_atom_extractor())
    out.set_atom_extractor(in.atom_extractor());

  // Base case: the whole input fits one small-sort chunk.
  if (n <= budget.base) {
    small_sort(in, 0, n, out, 0, less);
    return;
  }

  ExtArray<T> scratch(mach, n, "mergesort.scratch");
  if (in.has_atom_extractor())
    scratch.set_atom_extractor(in.atom_extractor());
  auto runs = make_chunks(n, budget.base);
  const unsigned levels = util::ilog_base_ceil(runs.size(), budget.fanout);

  // Choose the base-pass target so the final level lands in `out`:
  // levels alternate first -> other -> first -> ...
  ExtArray<T>* first = (levels % 2 == 1) ? &scratch : &out;
  ExtArray<T>* other = (levels % 2 == 1) ? &out : &scratch;

  {
    auto base_phase = mach.phase("sort.base");
    sort_detail::SmallSortScratch<T> base_scratch;
    for (const RunBounds& r : runs)
      sort_detail::small_sort(base_scratch, in, r.begin, r.end, *first,
                              r.begin, less, nullptr);
  }

  auto merge_phase = mach.phase("sort.merge");
  if (merge_all_runs(first, std::move(runs), first, other, less).first != &out)
    throw std::logic_error("aem_merge_sort: parity bookkeeping error");
}

}  // namespace aem
