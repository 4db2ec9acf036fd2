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
// Contestants rank by (exhausted, key, index): an exhausted contestant
// loses to every live one (so no +infinity key is needed for a generic T,
// and the padding leaves, which start exhausted, cost nothing per output
// element); live ones rank by key; ties go to the lower index, which makes
// selection order identical to a stable linear scan ("first
// strictly-smallest head"), so the merges built on it are stable.
// tests/test_loser_tree.cpp checks em_merge_group against such a scan
// (tests/merge_scan_oracle.hpp) op by op and pins merge_runs' charges.
//
// When the order has a radix key (sort/host_sort.hpp: a declared
// radix_key, or std::less over an unsigned type), a contestant is one
// packed 128-bit rank, exhausted << 96 | key << 32 | index, and the nodes
// hold the losers' ranks.  A match on the replayed path is then one integer
// compare of two values already loaded and a select (conditional moves,
// no branch on the outcome), so a merge of random keys pays neither a
// mispredicted branch nor a key lookup through an index per level.  Every
// other order keeps a copy of each head key and a per-leaf alive flag, the
// nodes hold indices, and a match compares through `less` (a branch-free
// form of that compare measured no faster).
//
// Host-side only: the tree holds copies (or ranks) of the <= k resident
// head elements that the merge's MemoryReservation already accounts for,
// plus O(k) index words (the constant-per-element auxiliary allowance of
// Section 3.1).  It changes which comparisons the HOST executes, never what
// the simulated machine reads or writes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <type_traits>
#include <vector>

#include "sort/host_sort.hpp"

namespace aem {

template <class Key, class Less>
class LoserTree {
  static constexpr bool kPacked = sort_detail::kRadixOrder<Key, Less>;
  __extension__ using Wide = unsigned __int128;
  /// A contestant as the nodes hold it: its packed rank, or its index.
  using Rank = std::conditional_t<kPacked, Wide, std::size_t>;
  static constexpr Wide kDead = Wide{1} << 96;

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
    if constexpr (kPacked) {
      if (pow2_ > UINT32_MAX) throw std::length_error("LoserTree: 2^32 runs");
      leaf_.resize(pow2_);
      for (std::size_t i = 0; i < pow2_; ++i) leaf_[i] = kDead | i;
    } else {
      keys_.resize(pow2_);
      alive_.assign(pow2_, 0);
    }
    nodes_.assign(pow2_, Rank{});  // nodes_[0] holds the overall winner
  }

  std::size_t size() const { return k_; }

  /// Stages contestant `i`'s current key (no tree update; call rebuild()
  /// once after staging all leaves, or update(i) after a single change).
  void set_key(std::size_t i, const Key& key) {
    if constexpr (kPacked) {
      leaf_[i] = Wide{sort_detail::radix_key_of<Key, Less>(key)} << 32 | i;
    } else {
      keys_[i] = key;
      alive_[i] = 1;
    }
  }

  /// Marks contestant `i` exhausted: it now loses every match.
  void set_exhausted(std::size_t i) {
    if constexpr (kPacked) {
      leaf_[i] = kDead | i;
    } else {
      alive_[i] = 0;
    }
  }

  /// Recomputes every match bottom-up.  O(k); used once at start-up (and
  /// after bulk restaging), not per element.
  void rebuild() {
    win_.resize(2 * pow2_);
    for (std::size_t i = 0; i < pow2_; ++i) win_[pow2_ + i] = rank_of(i);
    for (std::size_t node = pow2_ - 1; node >= 1; --node) {
      const Rank a = win_[2 * node], b = win_[2 * node + 1];
      const bool a_wins = beats(a, b);
      win_[node] = a_wins ? a : b;
      nodes_[node] = a_wins ? b : a;
    }
    nodes_[0] = win_[1];
  }

  /// Replays the winner's leaf-to-root path after its key changed (set_key)
  /// or it was exhausted (set_exhausted).  `i` must be the current winner.
  void update(std::size_t i) {
    Rank contender = rank_of(i);
    for (std::size_t node = (pow2_ + i) >> 1; node >= 1; node >>= 1) {
      const Rank loser = nodes_[node];
      const bool swap = beats(loser, contender);
      nodes_[node] = swap ? contender : loser;
      contender = swap ? loser : contender;
    }
    nodes_[0] = contender;
  }

  /// The contestant holding the smallest live key (ties: lowest index), or
  /// npos when every contestant is exhausted.
  std::size_t winner() const {
    const Rank w = nodes_[0];
    if constexpr (kPacked) {
      return w >= kDead ? npos : static_cast<std::size_t>(
                                     static_cast<std::uint32_t>(w));
    } else {
      return alive_[w] ? w : npos;
    }
  }

 private:
  Rank rank_of(std::size_t i) const {
    if constexpr (kPacked) {
      return leaf_[i];
    } else {
      return i;
    }
  }

  /// Does contestant a rank strictly before contestant b?  Packed ranks
  /// compare as integers.  Otherwise both key comparisons always run and
  /// the flags combine bitwise; between two exhausted contestants the lower
  /// index wins (arbitrary but total).
  bool beats(Rank a, Rank b) const {
    if constexpr (kPacked) {
      return a < b;
    } else {
      if (!alive_[a] || !alive_[b])
        return alive_[a] || (!alive_[b] && a < b);
      if (less_(keys_[a], keys_[b])) return true;
      if (less_(keys_[b], keys_[a])) return false;
      return a < b;
    }
  }

  std::size_t k_ = 0;
  std::size_t pow2_ = 1;
  Less less_;
  std::vector<Wide> leaf_;  // packed: each contestant's rank
  std::vector<Key> keys_;             // otherwise: each contestant's key
  std::vector<std::uint8_t> alive_;   // otherwise: 0 once exhausted
  std::vector<Rank> nodes_;
  std::vector<Rank> win_;  // rebuild()'s match winners
};

}  // namespace aem
