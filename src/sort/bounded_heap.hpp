// The staged batch of the Section 3 sort kernels: a host-side bounded
// max-heap that keeps the `cap` smallest elements offered to it.
//
// merge_runs (Section 3.1's OUT) and ExtPriorityQueue::refill both stage
// "the cap smallest not-yet-output elements seen so far" while scanning,
// and repeatedly ask whether a new element is below the staged maximum.  A
// flat heap answers that in O(1) and admits an element with one Floyd
// bottom-up replace-top (about log2(cap) comparisons, no allocation),
// instead of a node-allocating ordered tree.  The batch is sorted once,
// by one std::sort, when it is emitted.
//
// The heap is host-side bookkeeping only: it never holds more than `cap`
// elements, and every caller reserves `cap` elements on the ledger before
// filling it, so the simulated footprint is exactly the reservation's.
// With a strict total order (as OccLess is: (run, pos) is unique) the kept
// set after every offer is exactly what a bounded std::set would keep, so
// every "below the max" decision, and hence every charged I/O, is the same.
#pragma once

#include <algorithm>
#include <cstddef>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

namespace aem::sort_detail {

template <class V, class Less>
class BoundedMaxHeap {
 public:
  /// Keeps at most `cap` elements.  Storage for min(cap, expected) elements
  /// is reserved up front (`expected`: how many elements can ever be
  /// offered), so a huge cap over a small input allocates little.
  BoundedMaxHeap(std::size_t cap, std::size_t expected, Less less)
      : cap_(cap), less_(less) {
    if (cap == 0) throw std::invalid_argument("BoundedMaxHeap: zero capacity");
    items_.reserve(std::min(cap, expected));
  }

  std::size_t size() const { return items_.size(); }
  bool empty() const { return items_.empty(); }
  bool full() const { return items_.size() == cap_; }

  /// The largest kept element.  Requires !empty() and no sorted() since the
  /// last clear().
  const V& max() const { return items_.front(); }

  /// True iff offer(v) would keep v: the heap has room, or v < max().
  bool admits(const V& v) const { return !full() || less_(v, max()); }

  /// Keeps v if admits(v), evicting the current maximum when full.
  void offer(const V& v) {
    if (!full()) {
      items_.push_back(v);
      std::push_heap(items_.begin(), items_.end(), less_);
    } else if (less_(v, max())) {
      replace_top(v);
    }
  }

  /// Sorts the kept elements ascending in place and returns them.  The heap
  /// order is gone afterwards: call clear() before offering again.  One
  /// std::sort is faster here than std::sort_heap, and under a strict total
  /// order both give the same sequence.
  std::span<const V> sorted() {
    std::sort(items_.begin(), items_.end(), less_);
    return items_;
  }

  /// Empties the heap, keeping its storage for the next round.
  void clear() { items_.clear(); }

 private:
  /// Floyd's bottom-up replacement of the root by v: walk the hole down to
  /// a leaf along larger children (one comparison per level), then sift v
  /// up from there — it rarely climbs, since v is below the old maximum and
  /// most elements of a heap live near the leaves.
  void replace_top(const V& v) {
    const std::size_t n = items_.size();
    std::size_t hole = 0;
    for (std::size_t child = 1; child < n; child = 2 * hole + 1) {
      if (child + 1 < n && less_(items_[child], items_[child + 1])) ++child;
      items_[hole] = std::move(items_[child]);
      hole = child;
    }
    while (hole > 0) {
      const std::size_t parent = (hole - 1) / 2;
      if (!less_(items_[parent], v)) break;
      items_[hole] = std::move(items_[parent]);
      hole = parent;
    }
    items_[hole] = v;
  }

  std::size_t cap_;
  Less less_;
  std::vector<V> items_;
};

}  // namespace aem::sort_detail
