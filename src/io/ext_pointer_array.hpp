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
// for_each touches each underlying block once per call, which is how the
// merge's initialization phase visits all d pointers in O(d/B) reads while
// holding only one block in memory.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/ext_array.hpp"
#include "io/scanner.hpp"
#include "io/writer.hpp"

namespace aem {

class ExtPointerArray {
 public:
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

  /// Random write of one entry: a read-modify-write of its block, one read
  /// + one write, holding one block of internal memory (reserved on the
  /// ledger per call; its host storage is reused).  Call only when the
  /// value actually changed — the caller owns the amortization argument.
  void set(std::size_t i, std::uint64_t v) {
    if (i >= size()) throw std::out_of_range("ExtPointerArray::set: index");
    const std::size_t B = arr_.machine().B();
    MemoryReservation block_res(arr_.machine().ledger(), B);
    block_.resize(B);
    const BlockIo io = arr_.read_block(i / B, std::span<std::uint64_t>(block_));
    block_[i % B] = v;
    arr_.write_block(i / B,
                     std::span<const std::uint64_t>(block_.data(), io.count));
  }

  /// Streams entries [lo, hi), invoking fn(index, value).  Charges one read
  /// per underlying block; holds one block of internal memory.
  template <class Fn>
  void for_each(std::size_t lo, std::size_t hi, Fn&& fn) {
    Scanner<std::uint64_t> scan(arr_, lo, hi);
    for (std::size_t i = lo; i < hi; ++i) fn(i, scan.next());
  }

 private:
  ExtArray<std::uint64_t> arr_;
  std::vector<std::uint64_t> block_;  // set's block
};

}  // namespace aem
