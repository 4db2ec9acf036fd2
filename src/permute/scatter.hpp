// The scatter permutation program: per-element read-modify-write of the
// destination block.
//
// For each input element (streamed block by block, n reads total) the
// program loads the output block holding the element's destination, places
// the element, and writes the block back: up to N extra reads and N writes,
// for cost <= n + N(1 + omega).  On a bare machine this is the WORST of the
// permutation programs — it exists because it is the canonical workload a
// device-side buffer pool (core/cache.hpp) absorbs:
//
//  * a resident destination block turns the read-modify-write into two
//    pool hits (free), and consecutive writes to it coalesce into one
//    deferred device write;
//  * the streamed input blocks are read once and never again — pure pool
//    pollution that an asymmetry-aware eviction policy (kCleanFirst) can
//    reclaim without cost, while LRU lets them crowd out dirty destination
//    blocks whose eviction costs omega.
//
// bench_c1_cache measures exactly that separation.  Real scatters (hash
// table builds, bucket fills, external radix passes) have this shape, so
// the program is a model of write-in-place workloads generally, not a
// competitive permutation routine — use permute/dispatch.hpp for those.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>

#include "core/ext_array.hpp"
#include "io/scanner.hpp"

namespace aem {

/// out[dest[i]] = in[i] by destination-block read-modify-write.  `dest`
/// must be a permutation of {0..N-1} (element-collisions are allowed in
/// principle — later writes win — but only permutations are used here).
/// Cost: <= n reads (input stream) + N reads + N writes, before caching.
/// Internal memory: 2B elements.
template <class T>
void scatter_permute(const ExtArray<T>& in,
                     std::span<const std::uint64_t> dest, ExtArray<T>& out) {
  const std::size_t N = in.size();
  if (dest.size() != N || out.size() != N)
    throw std::invalid_argument("scatter_permute: size mismatch");
  if (N == 0) return;

  Machine& mach = in.machine();
  const std::size_t B = mach.B();
  Scanner<T> scan(in);  // the input stream: one viewed block
  Buffer<T> rmw(mach, B);
  for (std::size_t k = 0; k < N; ++k) {
    const T v = scan.next();
    const std::uint64_t d = dest[k];
    if (d >= N)
      throw std::invalid_argument("scatter_permute: dest out of range");
    const std::uint64_t t = d / B;
    const std::size_t count = out.block_elems(t);
    out.read_block(t, rmw.span());
    rmw[static_cast<std::size_t>(d % B)] = v;
    out.write_block(t, std::span<const T>(rmw.data(), count));
  }
}

}  // namespace aem
