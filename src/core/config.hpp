// Configuration of the (M,B,omega)-Asymmetric External Memory machine.
//
// The AEM model (Blelloch et al., SPAA'15; Jacob & Sitchinava, SPAA'17) is a
// two-level memory hierarchy: an internal (symmetric) memory of M elements
// and an unbounded external (asymmetric) memory accessed in blocks of B
// elements.  A block read costs 1, a block write costs omega >= 1.  The cost
// of a computation is Q = Q_r + omega * Q_w; internal computation is free.
//
// The symmetric external memory model of Aggarwal & Vitter is the omega = 1
// special case, and the (M,omega)-ARAM of Blelloch et al. is the B = 1 case.
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>

#include "core/cache.hpp"
#include "util/math.hpp"

namespace aem {

struct Config {
  /// Internal memory capacity in elements (the paper's M).
  std::size_t memory_elems = 1024;
  /// Block size in elements (the paper's B).
  std::size_t block_elems = 16;
  /// Cost of one block write relative to one block read (the paper's omega).
  std::uint64_t write_cost = 1;
  /// Optional write-back block cache (core/cache.hpp).  The default —
  /// capacity 0 — is bypass: no pool is created and the I/O path is
  /// byte-identical to the uncached machine.
  CacheConfig cache{};

  /// m = ceil(M / B): number of blocks that fit in internal memory.
  std::size_t m() const { return util::ceil_div(memory_elems, block_elems); }

  /// n = ceil(N / B): number of blocks occupied by N elements.
  std::size_t blocks_for(std::size_t elems) const {
    return util::ceil_div(elems, block_elems);
  }

  /// Throws std::invalid_argument unless M >= B >= 1 and omega >= 1.
  void validate() const {
    if (block_elems == 0) throw std::invalid_argument("B must be >= 1");
    if (memory_elems < block_elems)
      throw std::invalid_argument("M must be >= B");
    if (write_cost == 0) throw std::invalid_argument("omega must be >= 1");
  }
};

}  // namespace aem
