// Externally stored pointer/counter arrays (Section 3.1 of the paper).
//
// The AEM mergesort merges d = omega*m runs, and when omega > B the d block
// pointers b[i] do not fit in internal memory.  The paper's solution — which
// this class implements — is to keep them in external memory and write an
// entry back only when it actually changes, i.e. when a whole block of the
// corresponding run has been consumed.  Each entry thus incurs at most one
// read-modify-write per consumed block of its run, giving the O(n) write
// bound of Theorem 3.2.
//
// The streaming APIs (for_each / update_range) touch each underlying block
// once per call, which is how the merge's initialization phase visits all d
// pointers in O(d/B) reads while holding only one block in memory.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/ext_array.hpp"
#include "io/cursor.hpp"
#include "io/scanner.hpp"
#include "io/writer.hpp"

namespace aem {

class ExtPointerArray {
 public:
  /// `count` pointer slots, zero-initialized in external memory.  The
  /// zero-fill is charged: ceil(count/B) writes (the paper's O(omega*m/B)
  /// initialization cost).
  ExtPointerArray(Machine& mach, std::size_t count, std::string name)
      : ExtPointerArray(mach, count, std::move(name),
                        [](std::size_t) { return std::uint64_t{0}; }) {}

  /// `count` pointer slots initialized to init(i), streamed out one block at
  /// a time: ceil(count/B) writes, no reads.
  template <class Init>
  ExtPointerArray(Machine& mach, std::size_t count, std::string name,
                  Init&& init)
      : arr_(mach, count, std::move(name)) {
    Writer<std::uint64_t> out(arr_);
    for (std::size_t i = 0; i < count; ++i) out.push(init(i));
    out.finish();
  }

  std::size_t size() const { return arr_.size(); }

  /// Random read of one entry: charges one block read.
  std::uint64_t get(std::size_t i) { return BlockCursor(arr_).at(i); }

  /// Random write of one entry: read-modify-write, one read + one write.
  /// Call only when the value actually changed — the caller owns the
  /// amortization argument.
  void set(std::size_t i, std::uint64_t v) {
    update_range(i, i + 1, [v](std::size_t, std::uint64_t& x) {
      x = v;
      return true;
    });
  }

  /// Streams entries [lo, hi), invoking fn(index, value).  Charges one read
  /// per underlying block; holds one block of internal memory.
  template <class Fn>
  void for_each(std::size_t lo, std::size_t hi, Fn&& fn) {
    Scanner<std::uint64_t> scan(arr_, lo, hi);
    for (std::size_t i = lo; i < hi; ++i) fn(i, scan.next());
  }

  /// Streams entries [lo, hi) with in-place mutation: fn returns true if it
  /// changed the entry.  Dirty blocks are written back once each; clean
  /// blocks cost only their read.  Holds one block of internal memory,
  /// reserved on the ledger per call; its host storage is reused.
  template <class Fn>
  void update_range(std::size_t lo, std::size_t hi, Fn&& fn) {
    const std::size_t B = arr_.machine().B();
    MemoryReservation block_res(arr_.machine().ledger(), B);
    block_.resize(B);
    std::size_t i = lo;
    while (i < hi) {
      const std::uint64_t bi = i / B;
      BlockIo io = arr_.read_block(bi, std::span<std::uint64_t>(block_));
      const std::size_t block_lo = static_cast<std::size_t>(bi) * B;
      bool dirty = false;
      for (; i < hi && i < block_lo + io.count; ++i)
        dirty |= fn(i, block_[i - block_lo]);
      if (dirty) {
        arr_.write_block(
            bi, std::span<const std::uint64_t>(block_.data(), io.count));
      }
    }
  }

 private:
  ExtArray<std::uint64_t> arr_;
  std::vector<std::uint64_t> block_;  // update_range's block
};

}  // namespace aem
