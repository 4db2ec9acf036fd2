// The staged batch of the Section 3 sort kernels: a bounded selection that
// keeps the `cap` smallest elements offered to it, stored as ascending
// segments per source.
//
// merge_runs (Section 3.1's OUT) and ExtPriorityQueue::refill both stage
// "the cap smallest not-yet-output elements seen so far" while scanning
// sorted runs, and repeatedly ask whether a new element is below the staged
// maximum.  Every run feeds the batch in ascending order, so the batch is
// the union of at most one ascending prefix per run.  The structure keeps it
// in that shape:
//
//  * offer(source, v) appends v to the source's open segment, or opens a
//    new segment when v is not above that segment's tail — so a source that
//    delivers out of order (unchecksummed read faults) stays exact and only
//    costs more segments;
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
// by every round; a segment holds at least one kept element, so segment
// bookkeeping is O(1) words per kept element, plus one open-segment word
// per source.  The simulated footprint is exactly the `cap` elements each
// caller reserves on the ledger before filling the batch.
#pragma once

#include <algorithm>
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
        open_(sources, kNil),
        tree_(0, less) {
    if (cap == 0) throw std::invalid_argument("SegmentHeap: zero capacity");
    if (pool_cap_ >= kNil)
      throw std::length_error("SegmentHeap: capacity above 2^32 - 2");
    nodes_.reserve(pool_cap_);
  }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  bool full() const { return size_ == cap_; }

  /// The largest kept element.  Requires !empty().
  const V& max() const { return nodes_[segs_[heap_[0]].tail].v; }

  /// True iff offer(v) would keep v: the batch has room, or v < max().
  bool admits(const V& v) const { return !full() || less_(v, max()); }

  /// Keeps v if admits(v), evicting the current maximum when full.
  void offer(std::size_t source, const V& v) {
    if (full()) {
      if (!less_(v, max())) return;
      evict_max();
    }
    std::uint32_t s = open_[source];
    if (s == kNil || !less_(nodes_[segs_[s].tail].v, v)) {
      s = open_segment(source);
      open_[source] = s;
    }
    const std::uint32_t n = alloc_node(v);
    Segment& seg = segs_[s];
    nodes_[n].prev = seg.tail;
    if (seg.tail == kNil) {
      seg.head = n;
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
    for (const std::uint32_t s : heap_) open_[segs_[s].source] = kNil;
    nodes_.clear();
    free_node_ = kNil;
    segs_.clear();
    free_seg_ = kNil;
    heap_.clear();
    size_ = 0;
  }

  /// Element slots the node pool holds (kept or free): min(cap, expected)
  /// for as long as no round offers more than `expected` elements.
  std::size_t node_capacity() const { return nodes_.capacity(); }

  /// Segment slots held: the table grows only while more segments are live
  /// at once than ever before, and at most min(cap, expected) can be.
  std::size_t segment_capacity() const { return segs_.capacity(); }

 private:
  static constexpr std::uint32_t kNil = ~std::uint32_t{0};

  struct Node {
    V v;
    std::uint32_t prev, next;  // neighbours in the segment (free list: next)
  };

  using Tree = LoserTree<V, Less>;

  /// A non-empty ascending run of kept nodes from one source.
  struct Segment {
    std::uint32_t head, tail;
    std::uint32_t heap_pos;  // index in heap_ (free list: next free segment)
    std::size_t source;
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

  /// A new empty segment of `source`, pushed on the heap.  It is given its
  /// first node by the caller, which then restores the heap by sift_up.
  std::uint32_t open_segment(std::size_t source) {
    std::uint32_t s = free_seg_;
    if (s != kNil) {
      free_seg_ = segs_[s].heap_pos;
    } else {
      s = static_cast<std::uint32_t>(segs_.size());
      segs_.emplace_back();
    }
    segs_[s] = Segment{kNil, kNil, static_cast<std::uint32_t>(heap_.size()),
                       source};
    heap_.push_back(s);
    return s;
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
    // The segment is empty: drop it from the heap and recycle it.
    if (open_[seg.source] == s) open_[seg.source] = kNil;
    const std::uint32_t last = heap_.back();
    heap_.pop_back();
    seg.heap_pos = free_seg_;
    free_seg_ = s;
    if (last != s) {
      heap_[0] = last;
      segs_[last].heap_pos = 0;
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
  std::vector<Segment> segs_;
  std::uint32_t free_seg_ = kNil;
  std::vector<std::uint32_t> heap_;  // live segment ids, max-heap by tail
  std::vector<std::uint32_t> open_;  // per source: its open segment, or kNil
  // drain()'s merge over the segments, and each segment's next node;
  // reused every round.
  Tree tree_;
  std::vector<std::uint32_t> cursor_;
};

}  // namespace aem::sort_detail
