// Loser-tree selection for k-way merging (classic external-sorting
// technique; cf. Knuth vol. 3 section 5.4.1 and the k-way merges of the
// external-memory sorting literature).
//
// A tournament tree over k contestants, padded to the next power of two.
// Internal node i holds the LOSER of the match played there; the overall
// winner sits above the root.  Selecting the minimum is O(1); replacing the
// winner's key (after consuming its element) replays exactly one
// leaf-to-root path: ceil(log2 k) comparisons, no sift-down branching and
// no per-level two-child probing like a binary heap.
//
// Exhausted contestants are SENTINELS: instead of requiring a +infinity key
// (impossible for a generic T), a per-leaf alive flag makes dead leaves
// lose every match.  Padding leaves start dead, so non-power-of-two k costs
// nothing per output element.
//
// Ties are broken by contestant index (lower wins), which makes selection
// order identical to a stable linear scan ("first strictly-smallest head"),
// so the merges built on it are stable.  tests/test_loser_tree.cpp checks
// em_merge_group against such a scan (tests/merge_scan_oracle.hpp) and
// pins merge_runs' charges.
//
// Host-side only: the tree holds copies of the <= k resident head elements
// that the merge's MemoryReservation already accounts for, plus O(k) index
// words (the constant-per-element auxiliary allowance of Section 3.1).  It
// changes which comparisons the HOST executes, never what the simulated
// machine reads or writes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace aem {

template <class Key, class Less>
class LoserTree {
 public:
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  explicit LoserTree(std::size_t k, Less less = {}) : less_(less) {
    reset(k);
  }

  /// Re-sizes the tree for `k` contestants, all exhausted until set_key;
  /// storage is kept, so a tree reused round after round stops allocating.
  void reset(std::size_t k) {
    k_ = k;
    pow2_ = 1;
    while (pow2_ < k_) pow2_ <<= 1;
    keys_.resize(pow2_);
    alive_.assign(pow2_, 0);
    losers_.assign(pow2_, 0);  // losers_[0] holds the overall winner
  }

  std::size_t size() const { return k_; }

  /// Stages contestant `i`'s current key (no tree update; call rebuild()
  /// once after staging all leaves, or update(i) after a single change).
  void set_key(std::size_t i, const Key& key) {
    keys_[i] = key;
    alive_[i] = 1;
  }

  /// Marks contestant `i` exhausted: it now loses every match.
  void set_exhausted(std::size_t i) { alive_[i] = 0; }

  /// Recomputes every match bottom-up.  O(k); used once at start-up (and
  /// after bulk restaging), not per element.
  void rebuild() {
    if (pow2_ == 1) {
      losers_[0] = 0;
      return;
    }
    win_.resize(2 * pow2_);
    for (std::size_t i = 0; i < pow2_; ++i) win_[pow2_ + i] = i;
    for (std::size_t node = pow2_ - 1; node >= 1; --node) {
      const std::size_t a = win_[2 * node], b = win_[2 * node + 1];
      const bool a_wins = beats(a, b);
      win_[node] = a_wins ? a : b;
      losers_[node] = a_wins ? b : a;
    }
    losers_[0] = win_[1];
  }

  /// Replays the winner's leaf-to-root path after its key changed (set_key)
  /// or it was exhausted (set_exhausted).  `i` must be the current winner.
  void update(std::size_t i) {
    std::size_t contender = i;
    for (std::size_t node = (pow2_ + i) >> 1; node >= 1; node >>= 1) {
      if (beats(losers_[node], contender)) {
        const std::size_t tmp = losers_[node];
        losers_[node] = contender;
        contender = tmp;
      }
    }
    losers_[0] = contender;
  }

  /// The contestant holding the smallest live key (ties: lowest index), or
  /// npos when every contestant is exhausted.
  std::size_t winner() const {
    const std::size_t w = losers_[0];
    return alive_[w] ? w : npos;
  }

  /// The winner's key; only meaningful while winner() != npos.
  const Key& winner_key() const { return keys_[losers_[0]]; }

 private:
  /// Does contestant a beat (rank strictly before) contestant b?
  /// Alive beats dead; between two alive, smaller key wins and ties go to
  /// the lower index; between two dead, lower index (arbitrary but total).
  bool beats(std::size_t a, std::size_t b) const {
    if (!alive_[a] || !alive_[b]) return alive_[a] || (!alive_[b] && a < b);
    if (less_(keys_[a], keys_[b])) return true;
    if (less_(keys_[b], keys_[a])) return false;
    return a < b;
  }

  std::size_t k_ = 0;
  std::size_t pow2_ = 1;
  Less less_;
  std::vector<Key> keys_;
  std::vector<std::uint8_t> alive_;
  std::vector<std::size_t> losers_;
  std::vector<std::size_t> win_;  // rebuild()'s match winners
};

}  // namespace aem
