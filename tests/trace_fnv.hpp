// FNV-1a over a whole trace (op kind, array, block, written atoms and
// use-sets), shared by the sort golden pins and the small_sort differential
// test: any drift in an I/O, in the order of I/Os, in a Lemma 4.3 use-set
// or in the written output changes the hash.
#pragma once

#include <cstdint>

#include "core/trace.hpp"

namespace aem::test {

class Fnv {
 public:
  void add(std::uint64_t x) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (x >> (8 * i)) & 0xff;
      h_ *= 0x100000001B3ull;
    }
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xCBF29CE484222325ull;
};

inline std::uint64_t trace_hash(const Trace& t) {
  Fnv h;
  for (const TraceOp& op : t.ops()) {
    h.add(static_cast<std::uint64_t>(op.kind));
    h.add(op.array);
    h.add(op.block);
    h.add(op.atoms.size());
    for (std::uint64_t a : op.atoms) h.add(a);
    h.add(op.used.size());
    for (std::uint64_t u : op.used) h.add(u);
  }
  return h.value();
}

}  // namespace aem::test
