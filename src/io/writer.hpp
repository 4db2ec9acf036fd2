// Sequential block-buffered writing to an external array range.
//
// A Writer holds one block of internal memory, emits one write I/O per full
// block, and — when a range boundary falls inside a block that holds live
// data outside the range — performs the read-modify-write that a real block
// device would need (charging the extra read).  Ranges used by the library's
// algorithms are block-aligned, so the RMW path only triggers at terminal
// partial blocks.
//
// finish() must be called to flush the final partial block; the destructor
// asserts (in debug builds) that no buffered data is silently dropped.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <exception>
#include <limits>
#include <span>
#include <stdexcept>
#include <string>

#include "core/ext_array.hpp"

namespace aem {

template <class T>
class Writer {
 public:
  static constexpr std::size_t npos = std::numeric_limits<std::size_t>::max();

  /// Writes into arr[begin, end) sequentially.  end == npos means
  /// arr.size().  Throws std::out_of_range unless begin <= end <=
  /// arr.size(); a flush that would write past `end` throws it too, writes
  /// nothing and drops the buffered elements.
  Writer(ExtArray<T>& arr, std::size_t begin = 0, std::size_t end = npos)
      : arr_(&arr),
        buf_(arr.machine(), arr.machine().B()),
        pos_(begin),
        end_(end == npos ? arr.size() : end),
        limit_(fill_limit()) {
    if (pos_ > end_ || end_ > arr.size())
      throw std::out_of_range("Writer: range end " + std::to_string(end_) +
                              " past the array or before its begin");
  }

  Writer(Writer&&) noexcept = default;
  Writer& operator=(Writer&&) noexcept = default;

  // Unflushed data at destruction is a bug — except during stack unwinding
  // (e.g. a CrashError or FaultError mid-write), where dropping the
  // buffered tail is the only sane behavior.
  ~Writer() {
    assert((buf_fill_ == 0 || std::uncaught_exceptions() > 0) &&
           "Writer destroyed with unflushed data");
  }

  /// Appends one element; flushes automatically on block boundaries.
  void push(const T& v) {
    buf_[buf_fill_++] = v;
    if (buf_fill_ == limit_) flush_block();
  }

  /// Appends `vals` in order, exactly as pushing them one by one would:
  /// the same blocks are written, at the same element counts.
  void append(std::span<const T> vals) {
    while (!vals.empty()) {
      const std::size_t take = std::min(vals.size(), limit_ - buf_fill_);
      std::copy_n(vals.data(), take, buf_.data() + buf_fill_);
      buf_fill_ += take;
      vals = vals.subspan(take);
      if (buf_fill_ == limit_) flush_block();
    }
  }

  /// Flushes any buffered partial block.  Idempotent.
  void finish() {
    if (buf_fill_ > 0) flush_block();
  }

 private:
  void flush_block() {
    if (buf_fill_ > end_ - pos_) {  // once per block: push is a hot path
      buf_fill_ = 0;  // dropped, so a later push cannot overrun the buffer
      throw std::out_of_range("Writer: flush past the range end " +
                              std::to_string(end_));
    }
    const std::size_t B = arr_->machine().B();
    const std::uint64_t bi = pos_ / B;
    const std::size_t block_off = pos_ % B;
    const std::size_t block_count = arr_->block_elems(bi);
    if (block_off == 0 && buf_fill_ == block_count) {
      // The common case: the buffer covers the whole (possibly terminal
      // partial) block.
      arr_->write_block(bi, std::span<const T>(buf_.data(), buf_fill_));
    } else {
      // Range boundary inside a live block: read-modify-write, exactly as a
      // real block device would.
      Buffer<T> merge(arr_->machine(), B);
      arr_->read_block(bi, merge.span());
      std::copy(buf_.data(), buf_.data() + buf_fill_, merge.data() + block_off);
      arr_->write_block(bi, std::span<const T>(merge.data(), block_count));
    }
    pos_ += buf_fill_;
    buf_fill_ = 0;
    limit_ = fill_limit();
  }

  /// Elements from pos_ to the next block boundary: pos_ is mid-block only
  /// before the first flush, so the buffer always fills up to a boundary.
  std::size_t fill_limit() const { return buf_.size() - pos_ % buf_.size(); }

  ExtArray<T>* arr_;
  Buffer<T> buf_;
  std::size_t pos_;
  std::size_t end_;
  std::size_t limit_;  // buf_fill_ at which push flushes
  std::size_t buf_fill_ = 0;
};

}  // namespace aem
