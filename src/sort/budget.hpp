// Internal-memory budgeting for the Section 3 algorithms.
//
// Section 3.1 opens with "let M be a constant fraction of the available
// internal memory", which licenses the constant-factor slack every concrete
// implementation needs.  aemlib's concrete split, asserted by the strict
// ledger in every test run:
//
//   Mout  = M/4 (block-aligned)          the merge's staged output batch
//                                        ("the array M" of the paper);
//   m_eff = Mout / B                     Lemma 3.1's bound on simultaneously
//                                        active runs;
//   fanout d = max(2, omega * m_eff)     the paper's d = omega*m up to the
//                                        constant;
//   small_batch = M/2                    the base-case sort's staged batch
//                                        (it only holds OUT + two blocks);
//   base  = omega * small_batch          the small-sort chunk, the paper's
//                                        N' <= omega*M base case.
//
// Merge-time residency: OUT (M/4) + active table (m_eff = M/4B <= M/4,
// one element per active run, aux words under the Section 3.1 constant-
// per-element allowance) + at most four transient blocks (4B <= M/2),
// total < M whenever M >= 8B — which SortBudget::from therefore requires.
// The bound covers the ARAM case B = 1 as well.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>

#include "core/machine.hpp"
#include "util/math.hpp"

namespace aem {

struct SortBudget {
  /// Fanout ceiling.  merge_runs refuses more than 2^31 runs per merge
  /// group, so any d beyond that is indistinguishable from 2^31 (a group
  /// never holds more runs than exist); clamping here keeps omega * m_eff
  /// exact instead of letting an extreme omega (say 2^40) wrap the 64-bit
  /// product — a wrapped fanout of 0 or 1 would violate every d >= 2
  /// precondition downstream while looking like a legitimate budget.
  static constexpr std::size_t kMaxFanout = std::size_t{1} << 31;

  std::size_t out_batch;    // merge Mout = M/4: elements staged per round
  std::size_t m_eff;        // Mout / B: max active runs (Lemma 3.1)
  std::size_t fanout;       // d = clamp(omega * m_eff, 2, kMaxFanout)
  std::size_t small_batch;  // small-sort batch = M/2 (only OUT + two blocks)
  std::size_t base;         // small-sort chunk, omega * small_batch (saturated)

  /// The base-case sort's staged batch, (M/2/B)*B: the small_sort batch and
  /// em_merge_sort's run length.  Throws std::invalid_argument when it is
  /// empty (M < 2B), so no sort loops over empty batches.
  static std::size_t small_batch_of(const Machine& mach) {
    const std::size_t batch = (mach.M() / 2 / mach.B()) * mach.B();
    if (batch == 0)
      throw std::invalid_argument(
          "sorts require M >= 2B (got M=" + std::to_string(mach.M()) +
          ", B=" + std::to_string(mach.B()) + ")");
    return batch;
  }

  /// Throws std::invalid_argument unless M >= 8B — the smallest memory for
  /// which the merge's Mout + active table + transient blocks provably fit
  /// in M under the strict ledger (see the header comment).
  static SortBudget from(const Machine& mach) {
    const std::size_t B = mach.B();
    if (mach.M() < 8 * B)
      throw std::invalid_argument(
          "AEM sort algorithms require M >= 8B (got M=" +
          std::to_string(mach.M()) + ", B=" + std::to_string(B) + ")");
    SortBudget b;
    b.out_batch = (mach.M() / 4 / B) * B;
    b.m_eff = b.out_batch / B;
    // Saturating multiply + clamp: omega is caller-controlled and may be
    // astronomically large, so the product must not wrap (see kMaxFanout).
    const std::uint64_t d = util::mul_sat(mach.omega(), b.m_eff);
    b.fanout = static_cast<std::size_t>(
        std::clamp<std::uint64_t>(d, 2, kMaxFanout));
    b.small_batch = small_batch_of(mach);
    // base saturates at size_t max rather than wrapping: a wrapped base of 0
    // would spin make_chunks forever, and a small wrapped base silently
    // misroutes inputs past the N' <= omega*M base case.  Saturation errs
    // the safe way — everything becomes the base case, which is exactly the
    // paper's behavior when omega*M exceeds every input size.
    b.base = static_cast<std::size_t>(
        std::min<std::uint64_t>(util::mul_sat(mach.omega(), b.small_batch),
                                std::numeric_limits<std::size_t>::max()));
    return b;
  }
};

/// Half-open element range [begin, end) within an external array.  Runs are
/// the unit the merge operates on; begins must be block-aligned.
struct RunBounds {
  std::size_t begin = 0;
  std::size_t end = 0;
  std::size_t length() const { return end - begin; }
};

}  // namespace aem
