// Sequential block-buffered reading of an external array range.
//
// A Scanner holds exactly one block (B elements) of internal memory and
// charges one read I/O per block it advances over, which is the canonical
// "scan" primitive of the EM literature: scanning N elements costs
// ceil(N/B) reads and occupies B internal memory.  It is a BlockCursor
// walked forward.
#pragma once

#include <cassert>
#include <cstddef>
#include <limits>
#include <stdexcept>
#include <string>

#include "io/cursor.hpp"

namespace aem {

template <class T>
class Scanner {
 public:
  static constexpr std::size_t npos = std::numeric_limits<std::size_t>::max();

  /// Scans arr[begin, end).  end == npos means arr.size().  Throws
  /// std::out_of_range unless begin <= end <= arr.size().
  Scanner(const ExtArray<T>& arr, std::size_t begin = 0, std::size_t end = npos)
      : cursor_(arr), pos_(begin), end_(end == npos ? arr.size() : end) {
    if (pos_ > end_ || end_ > arr.size())
      throw std::out_of_range("Scanner: range end " + std::to_string(end_) +
                              " past the array or before its begin");
  }

  bool done() const { return pos_ >= end_; }
  std::size_t position() const { return pos_; }
  std::size_t remaining() const { return end_ - pos_; }

  /// The element at the cursor without consuming it.  Loads the containing
  /// block (one charged read) if it is not already buffered.
  const T& peek() {
    assert(!done());
    return cursor_.at(pos_);
  }

  /// Consumes and returns the element at the cursor.
  T next() {
    const T v = peek();
    ++pos_;
    return v;
  }

  /// Skips `k` elements without reading the blocks they lie in.  Blocks that
  /// are skipped entirely are never charged.
  void skip(std::size_t k) {
    assert(pos_ + k <= end_);
    pos_ += k;
  }

  /// Trace ticket of the most recent charged read (invalid if none, or if
  /// tracing is off).  Lets atom-tracking callers annotate use-sets.
  IoTicket last_ticket() const { return cursor_.last_ticket(); }

 private:
  BlockCursor<T> cursor_;
  std::size_t pos_;
  std::size_t end_;
};

}  // namespace aem
