// The omega-OBLIVIOUS baseline: Aggarwal & Vitter's classic m-way external
// mergesort, run unchanged on the asymmetric machine.
//
// It performs Theta(n log_m n) reads AND Theta(n log_m n) writes, so its AEM
// cost is (1 + omega) * n log_m n — asymptotically worse than Section 3's
// omega-aware mergesort by the factor
//
//   ((1 + omega)/omega) * log(omega m)/log(m)
//
// (bounds::predicted_oblivious_penalty).  Experiment E3 measures exactly
// this gap, which is the paper's motivation for omega-aware sorting.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <stdexcept>
#include <vector>

#include "core/ext_array.hpp"
#include "io/scanner.hpp"
#include "io/writer.hpp"
#include "sort/budget.hpp"
#include "sort/host_sort.hpp"
#include "sort/loser_tree.hpp"
#include "sort/mergesort.hpp"
#include "util/math.hpp"

namespace aem {

namespace sort_detail {

/// Classic k-way merge: one Scanner (one block) per run plus one Writer.
/// Requires (k + 1) * B + O(k) <= M, which em_merge_fanout guarantees.
/// Selection is a loser tree (sort/loser_tree.hpp): ceil(log2 k) host
/// comparisons per output element, ties broken by run index (runs are in
/// input order), so the merge is stable.
template <class T, class Less>
void em_merge_group(const ExtArray<T>& src, std::span<const RunBounds> runs,
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

  // Loading run i's first block (peek) is charged when leaf i is staged;
  // every later refill happens right after the element that exposes it is
  // consumed.
  LoserTree<T, Less> tree(heads.size(), less);
  for (std::size_t i = 0; i < heads.size(); ++i) {
    if (heads[i].done()) {
      tree.set_exhausted(i);
    } else {
      tree.set_key(i, heads[i].peek());
    }
  }
  tree.rebuild();
  for (std::size_t i = tree.winner(); i != LoserTree<T, Less>::npos;
       i = tree.winner()) {
    out.push(heads[i].next());
    if (heads[i].done()) {
      tree.set_exhausted(i);
    } else {
      tree.set_key(i, heads[i].peek());
    }
    tree.update(i);
  }
  out.finish();
}

}  // namespace sort_detail

/// Merge fanout of the symmetric mergesort: as many runs as one block each
/// fits alongside the output block, capped at half of memory for headroom.
inline std::size_t em_merge_fanout(const Machine& mach) {
  const std::size_t k = mach.m() / 2;
  return k < 2 ? 2 : k;
}

/// Sorts `in` into `out` with the symmetric (omega-oblivious) EM mergesort:
/// in-memory run formation over chunks of ~M/2, then m/2-way merge passes.
/// Stable: ties broken by position.
///
/// Stability is load-bearing for consumers, not a nicety: the KV store
/// (store/kv_store.hpp) sorts its record headers with this routine and
/// derives get()'s last-insert-wins semantics from duplicate keys staying
/// in input order.  Weakening the tie-break silently changes which version
/// of an upserted key a store serves.
template <class T, class Less = std::less<T>>
void em_merge_sort(const ExtArray<T>& in, ExtArray<T>& out, Less less = {}) {
  if (in.size() != out.size())
    throw std::invalid_argument("em_merge_sort: size mismatch");
  const std::size_t n = in.size();
  if (n == 0) return;

  Machine& mach = in.machine();
  const std::size_t B = mach.B();
  std::size_t run_len = (mach.M() / 2 / B) * B;
  if (run_len < B) run_len = B;
  const std::size_t fanout = em_merge_fanout(mach);

  auto runs = make_chunks(n, run_len);
  const unsigned levels = util::ilog_base_ceil(runs.size(), fanout);

  ExtArray<T> scratch(mach, n, "em_mergesort.scratch");
  ExtArray<T>* first = (levels % 2 == 1) ? &scratch : &out;
  ExtArray<T>* other = (levels % 2 == 1) ? &out : &scratch;

  {
    // Run formation: read a chunk into the charged Buffer, order it on the
    // host, write it back out in that order.  The order is host_sort's
    // offset permutation (a radix when `less` has a radix key, else a
    // (value, offset) record sort), which equals a stable sort's; the
    // permutation is uncharged simulator scratch (MODEL.md §3), allocated
    // once for all runs.
    auto phase = mach.phase("em_sort.runs");
    Buffer<T> chunk(mach, run_len);
    std::vector<std::uint32_t> order;
    order.reserve(run_len);
    for (const RunBounds& r : runs) {
      std::size_t fill = 0;
      Scanner<T> scan(in, r.begin, r.end);
      while (!scan.done()) chunk[fill++] = scan.next();
      sort_detail::host_sort(std::span<const T>(chunk.data(), fill), less,
                             order);
      Writer<T> w(*first, r.begin, r.end);
      for (const std::uint32_t o : order) w.push(chunk[o]);
      w.finish();
    }
  }

  auto phase = mach.phase("em_sort.merge");
  ExtArray<T>* cur = first;
  ExtArray<T>* next = other;
  while (runs.size() > 1) {
    std::vector<RunBounds> merged;
    merged.reserve((runs.size() + fanout - 1) / fanout);
    for (std::size_t g = 0; g < runs.size(); g += fanout) {
      const std::size_t count = std::min(fanout, runs.size() - g);
      sort_detail::em_merge_group(
          *cur, std::span<const RunBounds>(runs).subspan(g, count), *next,
          runs[g].begin, less);
      merged.push_back(RunBounds{runs[g].begin, runs[g + count - 1].end});
    }
    runs = std::move(merged);
    std::swap(cur, next);
  }
  if (cur != &out)
    throw std::logic_error("em_merge_sort: parity bookkeeping error");
}

}  // namespace aem
