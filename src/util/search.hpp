// Branchless in-memory search kernels (host-side only — nothing here is a
// charged block transfer; callers use these on ledger-accounted index
// structures such as KvStore's fence keys).
//
// The workhorse is an Eytzinger (BFS) layout: the sorted keys are permuted
// so that the binary-search tree's root sits at index 1 and node k's
// children at 2k and 2k+1.  A descent then touches a contiguous prefix of
// the array (the first few levels stay in one or two cache lines no matter
// how large the array is), and the comparison result feeds the next index
// arithmetically — no branch for the predictor to miss.  EXPERIMENTS.md's
// historical fence-lookup row gives the speedup over std::upper_bound.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "util/math.hpp"

namespace aem::util {

/// Reference kernel: rank of the first element > key in a sorted array
/// (std::upper_bound distance — equivalently, the number of elements
/// <= key).  The baseline the Eytzinger layout is measured against.
inline std::size_t sorted_rank_upper(std::span<const std::uint64_t> sorted,
                                     std::uint64_t key) {
  return static_cast<std::size_t>(
      std::upper_bound(sorted.begin(), sorted.end(), key) - sorted.begin());
}

/// Branchless successor search over an Eytzinger-permuted copy of a sorted
/// key array.  rank_upper(key) returns the number of stored keys <= key —
/// the same answer as sorted_rank_upper on the source array, computed from
/// the BFS layout with a fixed-depth, branch-free descent.
///
/// The keys are padded to a PERFECT tree of 2^L - 1 nodes (L =
/// ceil(log2(n+1))) with UINT64_MAX sentinels, which sit past every real
/// key in the tree's in-order sequence.  The descent then needs no bounds
/// check, and the landing leaf index encodes the rank directly: after L
/// levels the cursor k lies in [2^L, 2^(L+1)) and rank = k - 2^L, because
/// each right-turn (node key <= query) shifts the in-order landing gap
/// past that node's left subtree.  Sentinels are only counted when the
/// query itself is UINT64_MAX, which the final clamp to n corrects.
///
/// footprint() reports the PADDED size (< 2n + 1) — that is the number a
/// ledger reservation must cover for the accounting to stay honest.
class EytzingerSearch {
 public:
  EytzingerSearch() = default;

  /// Builds the BFS permutation of `sorted` (ascending; duplicates allowed).
  explicit EytzingerSearch(std::span<const std::uint64_t> sorted)
      : n_(sorted.size()), levels_(levels_for(sorted.size())) {
    tree_.assign((static_cast<std::size_t>(1) << levels_) - 1, UINT64_MAX);
    std::size_t next = 0;
    fill(sorted, 1, next);
  }

  /// Number of real (non-sentinel) keys.
  std::size_t size() const { return n_; }
  bool empty() const { return n_ == 0; }
  /// Stored elements including sentinel padding (ledger-relevant size).
  std::size_t footprint() const { return tree_.size(); }

  /// The BFS-ordered keys (node k of the tree is layout()[k-1]).
  const std::vector<std::uint64_t>& layout() const { return tree_; }

  /// Number of stored keys <= key (== sorted_rank_upper on the source).
  std::size_t rank_upper(std::uint64_t key) const {
    if (n_ == 0) return 0;
    const std::uint64_t* e = tree_.data();
    std::size_t k = 1;
    for (unsigned level = 0; level < levels_; ++level)
      k = 2 * k + (e[k - 1] <= key ? 1 : 0);
    const std::size_t rank = k - (static_cast<std::size_t>(1) << levels_);
    return std::min(rank, n_);
  }

 private:
  static unsigned levels_for(std::size_t n) {
    // Smallest L with 2^L - 1 >= n.
    return ilog2_ceil(static_cast<std::uint64_t>(n) + 1);
  }

  /// In-order recursion placing sorted[next++] at tree node k; nodes past
  /// the source keep their sentinel.
  void fill(std::span<const std::uint64_t> sorted, std::size_t k,
            std::size_t& next) {
    if (k > tree_.size() || next >= sorted.size()) return;
    fill(sorted, 2 * k, next);
    if (next < sorted.size()) tree_[k - 1] = sorted[next++];
    fill(sorted, 2 * k + 1, next);
  }

  std::vector<std::uint64_t> tree_;
  std::size_t n_ = 0;
  unsigned levels_ = 0;
};

}  // namespace aem::util
