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
#include "io/writer.hpp"
#include "sort/budget.hpp"
#include "sort/host_sort.hpp"
#include "sort/loser_tree.hpp"
#include "sort/mergesort.hpp"
#include "util/math.hpp"

namespace aem {

namespace sort_detail {

/// Classic k-way merge: one resident block per run plus one Writer.
/// Requires (k + 1) * B + O(k) <= M, which em_merge_fanout guarantees.
/// Selection is a loser tree (sort/loser_tree.hpp): ceil(log2 k) host
/// comparisons per output element, ties broken by run index (runs are in
/// input order), so the merge is stable.
///
/// Each run's resident block is a BlockView walked as a span, with the
/// schedule a Scanner per run would charge: run i's first block is read
/// when leaf i is staged (in run order; an empty run reads nothing), and
/// every later block right after the element that exposes it is pushed to
/// the Writer (so after any write that push flushes).  The ledger holds
/// what those Scanners held: B per run head, 2k head words, then the
/// Writer's block.
template <class T, class Less>
void em_merge_group(const ExtArray<T>& src, std::span<const RunBounds> runs,
                    ExtArray<T>& dst, std::size_t dst_begin, Less less) {
  Machine& mach = src.machine();
  const std::size_t B = mach.B();
  const std::size_t k = runs.size();

  // A run's unconsumed part of its resident block is [cur, stop); `pos` is
  // the run position just past `stop`.
  struct Head {
    const T* cur = nullptr;
    const T* stop = nullptr;
    std::size_t pos = 0;
    std::size_t end = 0;
  };
  std::vector<Head> heads(k);
  std::size_t total = 0;
  for (std::size_t i = 0; i < k; ++i) {
    if (runs[i].begin > runs[i].end || runs[i].end > src.size())
      throw std::out_of_range("em_merge_group: run past the source array");
    heads[i].pos = runs[i].begin;
    heads[i].end = runs[i].end;
    total += runs[i].length();
  }
  MemoryReservation head_blocks(mach.ledger(), k * B);
  MemoryReservation head_state(mach.ledger(), 2 * k);
  Writer<T> out(dst, dst_begin, dst_begin + total);

  // Makes `h`'s block containing h.pos resident (one charged read).
  const auto load = [&](Head& h) {
    const std::uint64_t bi = h.pos / B;
    const std::span<const T> blk = src.view_block(bi).span();
    const std::size_t lo = static_cast<std::size_t>(bi) * B;
    const std::size_t hi = std::min(h.end, lo + blk.size());
    h.cur = blk.data() + (h.pos - lo);
    h.stop = blk.data() + (hi - lo);
    h.pos = hi;
  };

  LoserTree<T, Less> tree(k, less);
  for (std::size_t i = 0; i < k; ++i) {
    if (heads[i].pos == heads[i].end) {
      tree.set_exhausted(i);
    } else {
      load(heads[i]);
      tree.set_key(i, *heads[i].cur);
    }
  }
  tree.rebuild();
  for (std::size_t i = tree.winner(); i != LoserTree<T, Less>::npos;
       i = tree.winner()) {
    Head& h = heads[i];
    out.push(*h.cur);
    if (++h.cur == h.stop) {
      if (h.pos == h.end) {
        tree.set_exhausted(i);
        tree.update(i);
        continue;
      }
      load(h);
    }
    tree.set_key(i, *h.cur);
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
    // Run formation, a block at a time: read a chunk into the charged
    // Buffer (one view per block, copied whole, with B reserved for the
    // resident block), order it on the host, and write it back out in that
    // order: B elements of chunk[order[i]] are gathered, then appended to
    // the Writer, which writes the same blocks at the same counts as
    // pushing them one by one.  Chunks start on block boundaries.  The
    // order is host_sort's offset permutation (a radix when `less` has
    // a radix key, else a (value, offset) record sort), which equals a
    // stable sort's; the permutation and the gathered block are uncharged
    // simulator scratch (MODEL.md §3), allocated once for all runs.
    auto phase = mach.phase("em_sort.runs");
    Buffer<T> chunk(mach, run_len);
    std::vector<std::uint32_t> order;
    order.reserve(run_len);
    std::vector<T> block(B);
    for (const RunBounds& r : runs) {
      const std::size_t fill = r.length();
      MemoryReservation in_block(mach.ledger(), B);
      for (std::size_t p = r.begin; p < r.end; p += B) {
        const std::span<const T> blk = in.view_block(p / B).span();
        std::copy(blk.begin(), blk.end(), chunk.data() + (p - r.begin));
      }
      sort_detail::host_sort(std::span<const T>(chunk.data(), fill), less,
                             order);
      Writer<T> w(*first, r.begin, r.end);
      for (std::size_t i = 0; i < fill; i += B) {
        const std::size_t count = std::min(B, fill - i);
        for (std::size_t j = 0; j < count; ++j) block[j] = chunk[order[i + j]];
        w.append(std::span<const T>(block.data(), count));
      }
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
