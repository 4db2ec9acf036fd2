// Lemma 4.3: simulating an AEM permutation program in the unit-cost flash
// model, with the paper's I/O-volume accounting.
//
// Given a trace of a permutation program — writes annotated with the atoms
// placed in each block, reads annotated with the atoms they consume (the
// copies that eventually reach the output) — the simulation
//
//   1. replays the trace to attach a *removal time* to every atom of every
//      written block instance (the index of the read op that consumes it);
//   2. normalizes each block: atoms ordered by removal time.  For blocks
//      the program writes this is free (a program knows its future, so it
//      can write in normalized order); for the INPUT blocks the paper's
//      P'_A prepends one read+write scan of volume 2N;
//   3. replays each read as just enough small-block (B/omega) reads to
//      cover the contiguous interval of atoms it removes — contiguity is
//      guaranteed by normalization and verified;
//   4. replays each write as one big-block (B) write.
//
// The resulting total volume is measured against the paper's bound
// 2N + 2QB/omega (Lemma 4.3), and against the classical permuting lower
// bound in the flash model (Corollary 4.4).  Experiment E7 reports both.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "core/trace.hpp"
#include "flash/flash_machine.hpp"

namespace aem::flash {

/// The simulation's flash counts plus what they are measured against.
struct FlashSimResult : FlashCounts {
  std::uint64_t N = 0;         // permutation size
  std::uint64_t aem_cost = 0;  // Q of the original AEM program
  /// Atoms that were overwritten while never consumed (0 for a correct
  /// permutation program; non-zero flags a destroyed-atom bug).
  std::uint64_t destroyed_atoms = 0;
  /// The Lemma 4.3 bound on the volume: 2N + 2*Q*B/omega.
  double volume_bound(std::uint64_t B, std::uint64_t omega) const {
    return 2.0 * static_cast<double>(N) +
           2.0 * static_cast<double>(aem_cost) * static_cast<double>(B) /
               static_cast<double>(omega);
  }
};

/// Simulates the traced AEM permutation program in the flash model.
///
/// `input_atoms[i]` is the atom initially at position i of the input array
/// (array id `input_array`); blocks of the input are seeded from it.
/// Throws std::logic_error if the trace is inconsistent (a read consumes an
/// atom its block does not hold, or a used-interval is not contiguous after
/// normalization — either means the use-set instrumentation is broken).
FlashSimResult simulate_permutation_trace(
    const Trace& trace, std::span<const std::uint64_t> input_atoms,
    std::uint32_t input_array, std::uint64_t B, std::uint64_t omega);

}  // namespace aem::flash
