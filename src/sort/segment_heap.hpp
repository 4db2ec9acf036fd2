// The staged batch of the Section 3 sort kernels: a bounded selection that
// keeps the `cap` smallest elements offered to it, stored as ascending
// segments per source.
//
// merge_runs (Section 3.1's OUT) and ExtPriorityQueue::refill both stage
// "the cap smallest not-yet-output elements seen so far" while scanning
// sorted runs, and repeatedly ask whether a new element is below the staged
// maximum.  Reads deliver the stored bytes, so every run feeds the batch in
// ascending order and the batch is the union of at most one ascending
// prefix per run.  The structure keeps it in that shape:
//
//  * offer(source, v) appends v to the source's segment; each source must
//    offer ascending between drains (asserted).  Once a source's segment is
//    emptied by evictions it never gains an element again before the next
//    drain: evictions only happen when the batch is full, it then stays
//    full, its maximum only falls, and the source's later offers are above
//    the tail it lost;
//  * the maximum is the largest segment tail, read in O(1) from a max-heap
//    over SEGMENTS (not elements); evicting it pops that tail, so every
//    segment's kept elements are always a prefix of what was appended to it;
//  * drain() emits the batch ascending by a k-way merge of the segments
//    with a LoserTree: ceil(log2 k) comparisons per element for k segments,
//    instead of sorting the whole batch.
//
// With a strict total order (OccLess and the PQ's candidate order are: the
// provenance is unique) the kept set after every offer is exactly what a
// bounded std::set would keep, and drain() emits it in that set's order, so
// every "below the max" decision, and hence every charged I/O, is the same.
//
// Host storage: elements live in one node pool that never holds more than
// min(cap, expected) nodes (evict-then-append keeps it at `size()`), reused
// by every round, plus three words per source for its segment.  The
// simulated footprint is exactly the `cap` elements each caller reserves on
// the ledger before filling the batch.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

#include "sort/loser_tree.hpp"

namespace aem::sort_detail {

template <class V, class Less>
class SegmentHeap {
 public:
  /// Keeps at most `cap` elements offered from `sources` sources (numbered
  /// 0 .. sources-1).  Node storage for min(cap, expected) elements is
  /// reserved up front (`expected`: how many elements one round can offer),
  /// so a huge cap over a small input allocates little.
  SegmentHeap(std::size_t cap, std::size_t expected, std::size_t sources,
              Less less)
      : cap_(cap),
        pool_cap_(std::min(cap, expected)),
        less_(less),
        segs_(sources),
        tree_(0, less) {
    if (cap == 0) throw std::invalid_argument("SegmentHeap: zero capacity");
    if (pool_cap_ >= kNil || sources >= kNil)
      throw std::length_error(
          "SegmentHeap: capacity or sources above 2^32 - 2");
    nodes_.reserve(pool_cap_);
  }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  bool full() const { return size_ == cap_; }

  /// The largest kept element.  Requires !empty().
  const V& max() const { return nodes_[segs_[heap_[0]].tail].v; }

  /// True iff offer(v) would keep v: the batch has room, or v < max().
  bool admits(const V& v) const { return !full() || less_(v, max()); }

  /// Keeps v if admits(v), evicting the current maximum when full.  v must
  /// be above every element `source` offered since the last drain.
  void offer(std::size_t source, const V& v) {
    if (full()) {
      if (!less_(v, max())) return;
      evict_max();
    }
    Segment& seg = segs_[source];
    assert(seg.tail == kNil || less_(nodes_[seg.tail].v, v));
    const std::uint32_t n = alloc_node(v);
    nodes_[n].prev = seg.tail;
    if (seg.tail == kNil) {
      seg.head = n;
      seg.heap_pos = static_cast<std::uint32_t>(heap_.size());
      heap_.push_back(static_cast<std::uint32_t>(source));
    } else {
      nodes_[seg.tail].next = n;
    }
    seg.tail = n;
    ++size_;
    sift_up(seg.heap_pos);
  }

  /// Calls emit(v) for every kept element in ascending order, then empties
  /// the batch (keeping its storage for the next round).
  template <class Emit>
  void drain(Emit&& emit) {
    tree_.reset(heap_.size());
    cursor_.resize(heap_.size());
    for (std::size_t i = 0; i < heap_.size(); ++i) {
      cursor_[i] = segs_[heap_[i]].head;
      tree_.set_key(i, nodes_[cursor_[i]].v);
    }
    tree_.rebuild();
    for (std::size_t w = tree_.winner(); w != Tree::npos; w = tree_.winner()) {
      emit(tree_.winner_key());
      const std::uint32_t next = nodes_[cursor_[w]].next;
      if (next == kNil) {
        tree_.set_exhausted(w);
      } else {
        cursor_[w] = next;
        tree_.set_key(w, nodes_[next].v);
      }
      tree_.update(w);
    }
    clear();
  }

  /// Empties the batch, keeping its storage for the next round.
  void clear() {
    for (const std::uint32_t s : heap_) segs_[s] = Segment{};
    nodes_.clear();
    free_node_ = kNil;
    heap_.clear();
    size_ = 0;
  }

  /// Element slots the node pool holds (kept or free): min(cap, expected)
  /// for as long as no round offers more than `expected` elements.
  std::size_t node_capacity() const { return nodes_.capacity(); }

 private:
  static constexpr std::uint32_t kNil = ~std::uint32_t{0};

  struct Node {
    V v;
    std::uint32_t prev, next;  // neighbours in the segment (free list: next)
  };

  using Tree = LoserTree<V, Less>;

  /// One source's ascending run of kept nodes; in heap_ while non-empty.
  struct Segment {
    std::uint32_t head = kNil, tail = kNil;
    std::uint32_t heap_pos = kNil;  // index in heap_
  };

  std::uint32_t alloc_node(const V& v) {
    std::uint32_t n = free_node_;
    if (n != kNil) {
      free_node_ = nodes_[n].next;
      nodes_[n] = Node{v, kNil, kNil};
      return n;
    }
    nodes_.push_back(Node{v, kNil, kNil});
    return static_cast<std::uint32_t>(nodes_.size() - 1);
  }

  /// Pops the largest segment tail.
  void evict_max() {
    const std::uint32_t s = heap_[0];
    Segment& seg = segs_[s];
    const std::uint32_t t = seg.tail;
    seg.tail = nodes_[t].prev;
    nodes_[t].next = free_node_;
    free_node_ = t;
    --size_;
    if (seg.tail != kNil) {
      nodes_[seg.tail].next = kNil;
      sift_down(0);
      return;
    }
    // The segment is empty: drop it from the heap.
    seg = Segment{};
    const std::uint32_t last = heap_.back();
    heap_.pop_back();
    if (last != s) {
      place(0, last);
      sift_down(0);
    }
  }

  bool tail_less(std::uint32_t a, std::uint32_t b) const {
    return less_(nodes_[segs_[a].tail].v, nodes_[segs_[b].tail].v);
  }

  void place(std::size_t pos, std::uint32_t s) {
    heap_[pos] = s;
    segs_[s].heap_pos = static_cast<std::uint32_t>(pos);
  }

  void sift_up(std::size_t pos) {
    const std::uint32_t s = heap_[pos];
    while (pos > 0) {
      const std::size_t parent = (pos - 1) / 2;
      if (!tail_less(heap_[parent], s)) break;
      place(pos, heap_[parent]);
      pos = parent;
    }
    place(pos, s);
  }

  void sift_down(std::size_t pos) {
    const std::uint32_t s = heap_[pos];
    const std::size_t n = heap_.size();
    for (std::size_t child = 2 * pos + 1; child < n; child = 2 * pos + 1) {
      if (child + 1 < n && tail_less(heap_[child], heap_[child + 1])) ++child;
      if (!tail_less(s, heap_[child])) break;
      place(pos, heap_[child]);
      pos = child;
    }
    place(pos, s);
  }

  std::size_t cap_;
  std::size_t pool_cap_;
  Less less_;
  std::size_t size_ = 0;
  std::vector<Node> nodes_;
  std::uint32_t free_node_ = kNil;
  std::vector<Segment> segs_;        // per source
  std::vector<std::uint32_t> heap_;  // non-empty segments, max-heap by tail
  // drain()'s merge over the segments, and each segment's next node;
  // reused every round.
  Tree tree_;
  std::vector<std::uint32_t> cursor_;
};

}  // namespace aem::sort_detail
