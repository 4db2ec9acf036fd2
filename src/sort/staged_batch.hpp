// The staged batch of the Section 3 sort kernels: a bounded selection that
// keeps the `cap` smallest elements offered to it, held as one contiguous
// position range per source.
//
// merge_runs (Section 3.1's OUT) and ExtPriorityQueue::refill both stage
// "the cap smallest not-yet-output elements seen so far" while reading
// sorted runs block by block, and repeatedly ask whether an element is
// below the staged maximum.  Elements are ordered as occurrences (occ.hpp):
// by value, then source, then position.  Reads deliver the stored bytes, so
// every source offers its positions in ascending order, and the kept
// elements of a source always form one contiguous range [lo, lo + n):
//
//  * fold(source, pos, values, ticket) offers positions pos, pos + 1, ...
//    of one block read and stops at the first one the batch does not admit
//    (every later one is larger, and the maximum does not move meanwhile).
//    While the batch has room, the admitted prefix becomes one chunk
//    (below) with one sift; once it is full, each further element evicts
//    the maximum.  A fold continues its source's range (asserted): a source
//    that lost its tail to eviction offers only larger positions later,
//    and those stay above the maximum, which only falls while the batch
//    stays full, so its range never gains again before the drain;
//  * the maximum is the largest source tail, read in O(1) from a max-heap
//    over SOURCES (not elements) whose entries carry a copy of the tail
//    value; evicting it shortens that source's range;
//  * drain() emits the batch ascending: the ranges, gathered next to each
//    other, are merged pairwise without branches (ties go to the lower
//    source, which is the occurrence order) and the result is replayed as
//    spans, with one call at the end of every chunk (below).
//
// With a strict total order on occurrences, the kept set after every fold
// is exactly what a bounded std::set would keep, and drain() emits it in
// that set's order, so every "below the max" decision, and hence every
// charged I/O, is the same.
//
// Host storage.  The batch keeps views, not copies, of what it folds: each
// (source, block read) "chunk" is a record of its first position, a
// pointer to the folded values, its kept count, the read's trace ticket and
// the source's previous chunk, so folded values must stay unchanged until
// the next drain() or clear().  The sort kernels never write an array they
// read (merge_runs rejects dst == src; the PQ refill reads runs it does not
// write), and a read delivers the stored bytes by reference, valid until
// that block is written.  Evictions shorten chunks; the chunk table holds
// one record per fold that kept anything, until the next drain or clear.
// drain() copies the kept values once, grouped by source, into the first of
// two merge buffers of size() values and tags each, and the batch keeps
// O(1) words per source.  The simulated footprint is exactly the `cap`
// elements each caller reserves on the ledger before filling the batch.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/trace.hpp"
#include "sort/occ.hpp"

namespace aem::sort_detail {

template <class T, class Less>
class StagedBatch {
 public:
  /// What drain() reports at the end of a chunk: the kept values one read
  /// delivered from `source`, starting at position `pos`.
  struct Chunk {
    std::uint32_t source;
    std::uint64_t pos;
    std::span<const T> values;
    IoTicket ticket;
  };

  /// Keeps at most `cap` elements offered from `sources` sources (numbered
  /// 0 .. sources-1), ordered by `less` on values, then source, then
  /// position.
  StagedBatch(std::size_t cap, std::size_t sources, Less less)
      : cap_(cap), less_(less), srcs_(sources) {
    if (cap == 0) throw std::invalid_argument("StagedBatch: zero capacity");
    if (sources >= kNoSource)
      throw std::length_error("StagedBatch: sources above 2^32 - 2");
  }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  bool full() const { return size_ == cap_; }

  /// The largest kept element.  Requires !empty().
  Occ<T> max() const {
    return Occ<T>{heap_[0].val, heap_[0].source, tail_pos(heap_[0].source)};
  }

  /// True iff a fold would keep o: the batch has room, or o < max().
  bool admits(const Occ<T>& o) const { return !full() || less_(o, max()); }

  /// The kept positions [lo, hi) of `source` (lo == hi when none are).
  std::pair<std::uint64_t, std::uint64_t> range(std::size_t source) const {
    const Source& src = srcs_[source];
    return {src.lo, src.lo + src.size};
  }

  /// Offers `values` as positions pos, pos + 1, ... of `source`, delivered
  /// by the read `ticket`; keeps the admitted prefix, evicting the maximum
  /// for each element kept while full.  Returns the number kept.  The
  /// values must ascend and lie above everything `source` offered since the
  /// last drain, and stay unchanged until the next drain() or clear().
  std::size_t fold(std::size_t source, std::uint64_t pos,
                   std::span<const T> values, IoTicket ticket = {}) {
    const std::size_t n = values.size();
    if (n == 0) return 0;
    const auto s = static_cast<std::uint32_t>(source);
    // While there is room every element is admitted: one chunk, one sift.
    std::size_t kept = std::min(n, cap_ - size_);
    if (kept > 0) open_chunk(s, pos, values.first(kept), ticket);
    for (; kept < n; ++kept) {
      if (!less_(Occ<T>{values[kept], s, pos + kept}, max())) break;
      evict_max();  // never `source`'s own tail: it lies below the value
      if (kept == 0) {
        open_chunk(s, pos, values.first(1), ticket);
      } else {
        // This fold's chunk is the source's tail: it keeps one more value.
        ++recs_[srcs_[s].tail].count;
        ++srcs_[s].size;
        ++size_;
        heap_[srcs_[s].heap_pos].val = values[kept];
        sift_up(srcs_[s].heap_pos);
      }
    }
    return kept;
  }

  /// Emits every kept element in ascending order and empties the batch
  /// (keeping its storage for the next round).  emit(span) receives the
  /// output in consecutive stretches; right after the stretch that ends
  /// with a chunk's last kept element, chunk_end(const Chunk&) reports that
  /// chunk.  Each source's chunks are reported in position order.
  template <class Emit, class ChunkEnd>
  void drain(Emit&& emit, ChunkEnd&& chunk_end) {
    if (empty()) return;
    order_.clear();
    for (const Tail& t : heap_) order_.push_back(t.source);
    std::sort(order_.begin(), order_.end());
    const std::size_t n = size_, k = order_.size();
    for (std::size_t r = 0; r < 2; ++r) {
      vals_[r].resize(n);
      tags_[r].resize(n);
    }
    // Gather: rank r's kept values, copied into one range of the first
    // buffer in position order.  Its chunks are walked from the tail, and
    // each one's link is turned to its successor, so that the replay walks
    // them forward from cursor_[r].
    bounds_.assign(1, 0);
    cursor_.resize(k);
    for (std::size_t r = 0; r < k; ++r) {
      bounds_.push_back(bounds_[r] + srcs_[order_[r]].size);
      T* to = vals_[0].data() + bounds_[r + 1];
      std::size_t succ = kNil;
      for (std::size_t c = srcs_[order_[r]].tail; c != kNil;) {
        Rec& rec = recs_[c];
        to -= rec.count;
        std::copy_n(rec.vals, rec.count, to);
        const std::size_t prev = std::exchange(rec.link, succ);
        succ = std::exchange(c, prev);
      }
      cursor_[r] = succ;
      std::fill(tags_[0].data() + bounds_[r], tags_[0].data() + bounds_[r + 1],
                static_cast<std::uint32_t>(r));
    }
    const T* vals = vals_[0].data();
    const std::uint32_t* tags = tags_[0].data();
    // Pairwise passes: ranges 2i and 2i+1 merge into range i, the lower
    // ranks winning ties, until one range is left.
    for (std::size_t dst = 1; bounds_.size() > 2; dst ^= 1) {
      T* out = vals_[dst].data();
      std::uint32_t* tout = tags_[dst].data();
      const std::size_t ranges = bounds_.size() - 1;
      std::size_t w = 0;
      for (std::size_t r = 0; r < ranges; r += 2) {
        const std::size_t lo = bounds_[r], mid = bounds_[r + 1];
        const std::size_t hi = r + 1 < ranges ? bounds_[r + 2] : mid;
        merge_pair(vals, tags, lo, mid, hi, out, tout);  // odd one: a copy
        bounds_[w++] = lo;
      }
      bounds_[w++] = n;
      bounds_.resize(w);
      vals = out;
      tags = tout;
    }
    // Replay: a chunk ends where its rank's count of remaining kept values
    // in that chunk reaches zero.
    left_.resize(k);
    for (std::size_t r = 0; r < k; ++r) left_[r] = recs_[cursor_[r]].count;
    std::size_t from = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint32_t r = tags[i];
      if (--left_[r] != 0) continue;
      emit(std::span<const T>(vals + from, i + 1 - from));
      from = i + 1;
      const Rec& c = recs_[cursor_[r]];
      chunk_end(Chunk{order_[r], c.pos, std::span<const T>(c.vals, c.count),
                      c.ticket});
      cursor_[r] = c.link;
      if (cursor_[r] != kNil) left_[r] = recs_[cursor_[r]].count;
    }
    clear();
  }

  /// Empties the batch, keeping its storage for the next round.
  void clear() {
    for (const Tail& t : heap_) srcs_[t.source] = Source{};
    heap_.clear();
    recs_.clear();
    size_ = 0;
  }

 private:
  static constexpr std::size_t kNil = ~std::size_t{0};
  static constexpr std::uint32_t kNoSource = ~std::uint32_t{0};

  /// One chunk: `count` kept values of one read, positions pos.., linked
  /// to the source's previous chunk (to its next one during drain()).
  struct Rec {
    std::uint64_t pos;
    const T* vals;
    std::size_t count;
    std::size_t link;
    IoTicket ticket;
  };

  /// One source's kept range [lo, lo + size) and its last chunk; in heap_
  /// while non-empty.
  struct Source {
    std::uint64_t lo = 0;
    std::size_t size = 0;
    std::size_t tail = kNil;
    std::uint32_t heap_pos = kNoSource;
  };

  /// A heap entry: a non-empty source and a copy of its tail value.
  struct Tail {
    T val;
    std::uint32_t source;
  };

  std::uint64_t tail_pos(std::uint32_t s) const {
    return srcs_[s].lo + srcs_[s].size - 1;
  }

  /// Appends `values` (all admitted) as a new chunk of `s` at `pos`.
  void open_chunk(std::uint32_t s, std::uint64_t pos,
                  std::span<const T> values, IoTicket ticket) {
    Source& src = srcs_[s];
    assert((src.size == 0 || (tail_pos(s) + 1 == pos &&
                              !less_.key_less()(values[0],
                                                heap_[src.heap_pos].val))) &&
           "StagedBatch: a fold must continue its source's range");
    recs_.push_back(Rec{pos, values.data(), values.size(), src.tail, ticket});
    if (src.size == 0) {
      src.lo = pos;
      src.heap_pos = static_cast<std::uint32_t>(heap_.size());
      heap_.push_back(Tail{values.back(), s});
    } else {
      heap_[src.heap_pos].val = values.back();
    }
    src.tail = recs_.size() - 1;
    src.size += values.size();
    size_ += values.size();
    sift_up(src.heap_pos);
  }

  /// Drops the largest source tail.
  void evict_max() {
    const std::uint32_t s = heap_[0].source;
    Source& src = srcs_[s];
    Rec& c = recs_[src.tail];
    --size_;
    --src.size;
    if (--c.count == 0) src.tail = c.link;
    if (src.size > 0) {
      const Rec& t = recs_[src.tail];
      heap_[0].val = t.vals[t.count - 1];
      sift_down(0);
      return;
    }
    src = Source{};
    const Tail last = heap_.back();
    heap_.pop_back();
    if (last.source != s) {
      place(0, last);
      sift_down(0);
    }
  }

  /// Merges [lo, mid) and [mid, hi) of (vals, tags) into out/tout at lo,
  /// taking the left side on ties, without branching on the comparison.
  void merge_pair(const T* vals, const std::uint32_t* tags, std::size_t lo,
                  std::size_t mid, std::size_t hi, T* out,
                  std::uint32_t* tout) const {
    const Less& key_less = less_.key_less();
    std::size_t i = lo, j = mid, o = lo;
    while (i < mid && j < hi) {
      // The side is selected by index arithmetic, not by a branch the
      // compiler could keep: the comparison is unpredictable.
      const std::size_t right = key_less(vals[j], vals[i]);
      const std::size_t from = i + ((j - i) & (0 - right));
      out[o] = vals[from];
      tout[o] = tags[from];
      ++o;
      i += 1 - right;
      j += right;
    }
    const std::size_t rest = i < mid ? i : j, end = i < mid ? mid : hi;
    std::copy(vals + rest, vals + end, out + o);
    std::copy(tags + rest, tags + end, tout + o);
  }

  bool tail_less(const Tail& a, const Tail& b) const {
    const Less& key_less = less_.key_less();
    if (key_less(a.val, b.val)) return true;
    if (key_less(b.val, a.val)) return false;
    return a.source < b.source;  // distinct sources: the occurrence order
  }

  void place(std::size_t pos, const Tail& t) {
    heap_[pos] = t;
    srcs_[t.source].heap_pos = static_cast<std::uint32_t>(pos);
  }

  void sift_up(std::size_t pos) {
    const Tail t = heap_[pos];
    while (pos > 0) {
      const std::size_t parent = (pos - 1) / 2;
      if (!tail_less(heap_[parent], t)) break;
      place(pos, heap_[parent]);
      pos = parent;
    }
    place(pos, t);
  }

  void sift_down(std::size_t pos) {
    const Tail t = heap_[pos];
    const std::size_t n = heap_.size();
    for (std::size_t child = 2 * pos + 1; child < n; child = 2 * pos + 1) {
      if (child + 1 < n && tail_less(heap_[child], heap_[child + 1])) ++child;
      if (!tail_less(t, heap_[child])) break;
      place(pos, heap_[child]);
      pos = child;
    }
    place(pos, t);
  }

  std::size_t cap_;
  OccLess<T, Less> less_;
  std::size_t size_ = 0;
  std::vector<Rec> recs_;
  std::vector<Source> srcs_;         // per source
  std::vector<Tail> heap_;           // non-empty sources, max-heap by tail
  // drain() scratch, reused every round.
  std::vector<std::uint32_t> order_;
  std::vector<std::size_t> bounds_, cursor_, left_;
  std::vector<T> vals_[2];
  std::vector<std::uint32_t> tags_[2];
};

}  // namespace aem::sort_detail
