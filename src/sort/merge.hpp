// The paper's Section 3.1: merging d = omega*m sorted runs with
// O(omega(n+m)) reads and O(n+m) writes (Theorem 3.2), with NO assumption
// relating omega and B.
//
// Faithful structure, per round (a round outputs the next Mout smallest
// elements across all runs):
//
//   A. initialization — stream the externally-stored block pointers b[i]
//      (they may not fit in memory when omega > B) and read up to TWO blocks
//      per run, folding unconsumed occurrences into the staged batch OUT
//      (capacity Mout, larger elements evicted as smaller ones arrive);
//      OUT is host-side, one contiguous position range per run
//      (staged_batch.hpp): "is this element among the Mout smallest" is one
//      comparison with its O(1) maximum, the largest range tail, a block's
//      unconsumed stretch is folded as one view of the delivered block
//      while OUT has room, and OUT never holds more than the Mout
//      occurrences the round reserves on the ledger (the views stay valid
//      until Phase D because dst is never src, which is checked; MODEL.md
//      section 3);
//   B. active-run identification — re-read the same <= 2 blocks per run
//      (the paper's trick to avoid storing per-run state for all d runs) and
//      keep the runs that might still contribute: more unread blocks AND
//      last-read element among the Mout smallest.  Lemma 3.1 guarantees at
//      most m_eff = Mout/B such runs, which is asserted;
//   C. merging — repeatedly pick the active run whose last-loaded element is
//      smallest and read its next block, until no run is active;
//   D. output — write OUT to the destination in order (a branch-free
//      pairwise merge of its per-run ranges, appended to the Writer as
//      spans), advance the global consumption watermark, and advance b[i]
//      past every block whose last element was just output, right after
//      that element (at most one charged pointer update per consumed block
//      over the whole merge: the O(n) amortization of Section 3.1).
//
// Consumption is defined by the watermark: an occurrence is consumed iff it
// is <= the largest occurrence written so far (total occurrence order, see
// occ.hpp).  Because each round outputs exactly the globally smallest
// unconsumed occurrences, the consumed set is always a prefix of every run,
// which keeps the b[i] invariant — b[i] is the block holding the run's first
// unconsumed element — without ever writing pointers mid-round.
#pragma once

#include <algorithm>
#include <cstddef>
#include <functional>
#include <optional>
#include <span>
#include <stdexcept>
#include <vector>

#include "core/ext_array.hpp"
#include "io/ext_pointer_array.hpp"
#include "sort/budget.hpp"
#include "sort/loser_tree.hpp"
#include "sort/occ.hpp"
#include "sort/sink.hpp"
#include "sort/staged_batch.hpp"

namespace aem {

/// Observability: per-merge statistics, filled when a MergeStats* is passed
/// to merge_runs.  max_active_runs empirically witnesses Lemma 3.1 (it must
/// never exceed m_eff = Mout/B, which the merge also asserts).
struct MergeStats {
  std::size_t rounds = 0;
  std::size_t max_active_runs = 0;
};

namespace sort_detail {

template <class T, class Less, class Combine>
class MergeJob {
 public:
  MergeJob(const ExtArray<T>& src, std::span<const RunBounds> runs,
           ExtArray<T>& dst, std::size_t dst_begin, Less less, Combine combine)
      : mach_(src.machine()),
        src_(src),
        runs_(runs.begin(), runs.end()),
        budget_(SortBudget::from(mach_)),
        occ_less_(less),
        sink_(dst, dst_begin, dst_begin + total_length(runs), key_eq(),
              combine),
        out_(budget_.out_batch, runs.size(), less),
        tree_(0, occ_less_) {
    if (&dst == &src)
      throw std::invalid_argument("merge: dst is the source array");
    validate();
  }

  std::size_t run() {
    const std::size_t total = total_length(runs_);
    if (total == 0) return sink_.finish();

    // b[i]: absolute index of the block holding run i's first unconsumed
    // element.  Stored externally (Section 3.1's omega > B case) and
    // initialized by streaming: ceil(d/B) writes.
    ExtPointerArray bptr(mach_, runs_.size(), "merge.bptr",
                         [this](std::size_t r) {
                           return static_cast<std::uint64_t>(
                               runs_[r].begin / mach_.B());
                         });

    std::size_t consumed = 0;
    while (consumed < total) consumed += round(bptr);
    return sink_.finish();
  }

  void set_stats(MergeStats* stats) { stats_ = stats; }

 private:
  struct Active {
    std::uint32_t run;
    Occ<T> last_loaded;       // the paper's s_i
    std::uint64_t next_block;  // absolute block index of the next unread block
  };

  static std::size_t total_length(std::span<const RunBounds> runs) {
    std::size_t t = 0;
    for (const auto& r : runs) t += r.length();
    return t;
  }

  auto key_eq() const {
    return [ol = occ_less_](const T& a, const T& b) { return ol.equiv(a, b); };
  }

  void validate() const {
    if (runs_.size() > (std::size_t{1} << 31))
      throw std::invalid_argument("merge: too many runs");
    for (const auto& r : runs_) {
      if (r.begin % mach_.B() != 0)
        throw std::invalid_argument("merge: run begin must be block-aligned");
      if (r.end < r.begin || r.end > src_.size())
        throw std::invalid_argument("merge: bad run bounds");
    }
  }

  std::uint64_t run_end_block(std::uint32_t r) const {
    return (runs_[r].end + mach_.B() - 1) / mach_.B();
  }

  bool exhausted(std::uint32_t r, std::uint64_t b) const {
    return b >= run_end_block(r) || runs_[r].length() == 0;
  }

  /// Reads absolute block `abs_block` (charged) and returns run r's last
  /// occurrence in it; with `fold`, also folds its unconsumed occurrences
  /// into OUT.  The consumed ones are a prefix of the run, so only that
  /// prefix is compared with the watermark.  A read delivers the stored
  /// bytes, so the block is sorted and the fold stops at the first
  /// occurrence OUT does not admit: every later one is larger, and OUT's
  /// maximum does not move meanwhile.
  Occ<T> read_into(std::uint32_t r, std::uint64_t abs_block, bool fold = true) {
    const BlockView<T> v = src_.view_block(abs_block);
    const std::size_t lo = static_cast<std::size_t>(abs_block) * mach_.B();
    const std::size_t first = std::max(lo, runs_[r].begin);
    const std::size_t end = std::min(lo + v.size(), runs_[r].end);
    if (first >= end)
      throw std::logic_error("merge: read a block with no in-range elements");
    if (fold) {
      std::size_t pos = first;
      if (watermark_.has_value())
        while (pos < end &&
               !occ_less_(*watermark_, Occ<T>{v[pos - lo], r, pos}))
          ++pos;  // already consumed
      out_.fold(r, pos, v.span().subspan(pos - lo, end - pos), v.ticket());
    }
    return Occ<T>{v[end - 1 - lo], r, end - 1};
  }

  /// One round: returns the number of source occurrences consumed.
  std::size_t round(ExtPointerArray& bptr) {
    MemoryReservation out_res(mach_.ledger(), budget_.out_batch);
    MemoryReservation block_res(mach_.ledger(), mach_.B());  // one block

    // Phase A: initialization — up to two blocks per non-exhausted run.
    bptr.for_each(0, runs_.size(), [&](std::size_t r, std::uint64_t b) {
      const auto run = static_cast<std::uint32_t>(r);
      if (exhausted(run, b)) return;
      read_into(run, b);
      if (b + 1 < run_end_block(run)) read_into(run, b + 1);
    });

    if (out_.empty())
      throw std::logic_error("merge: no progress (pointer invariant broken)");

    // Phase B: identify active runs by re-reading the initialization blocks
    // (the paper's memory-frugal recomputation of s_i).  Lemma 3.1: at most
    // m_eff runs can be active; enforced below.
    // One ledger element per active run: each active entry stands for the
    // run's resident boundary element s_i; its O(1) auxiliary words are the
    // constant-per-element allowance of Section 3.1 (same convention as the
    // occurrences in OUT).
    std::vector<Active>& actives = actives_;
    actives.clear();
    MemoryReservation actives_res(mach_.ledger(), budget_.m_eff);
    bptr.for_each(0, runs_.size(), [&](std::size_t r, std::uint64_t b) {
      const auto run = static_cast<std::uint32_t>(r);
      if (exhausted(run, b)) return;
      std::uint64_t last_block = b;
      if (b + 1 < run_end_block(run)) last_block = b + 1;
      // Re-read (charged) to recover s_i without per-run resident state.
      const Occ<T> s = read_into(run, last_block, /*fold=*/false);
      const std::uint64_t next = last_block + 1;
      const bool more_blocks = next < run_end_block(run);
      if (!more_blocks) return;  // everything loaded: never active again
      if (out_.admits(s)) actives.push_back(Active{run, s, next});
    });
    if (actives.size() > budget_.m_eff)
      throw std::logic_error("merge: Lemma 3.1 violated (active runs > m_eff)");
    if (stats_ != nullptr) {
      ++stats_->rounds;
      stats_->max_active_runs =
          std::max(stats_->max_active_runs, actives.size());
    }

    // Phase C: classical m_eff-way merging from the active runs.  max(OUT)
    // only shrinks as smaller occurrences arrive, so a run whose s_i ever
    // falls out of OUT's range stays out: checking only the current minimum
    // suffices, and when the MINIMUM s_i is out of range every active run
    // is, ending the phase.  Host-side selection state only: the tree
    // mirrors the <= m_eff resident boundary elements actives_res already
    // reserves, so the simulated footprint is unchanged (see loser_tree.hpp).
    tree_.reset(actives.size());
    for (std::size_t i = 0; i < actives.size(); ++i)
      tree_.set_key(i, actives[i].last_loaded);
    tree_.rebuild();
    for (std::size_t j = tree_.winner(); j != Tree::npos; j = tree_.winner()) {
      Active& a = actives[j];
      if (!out_.admits(a.last_loaded))
        break;  // the smallest s_i is out of range, so every s_i is
      a.last_loaded = read_into(a.run, a.next_block);
      ++a.next_block;
      if (a.next_block >= run_end_block(a.run)) {
        tree_.set_exhausted(j);
      } else {
        tree_.set_key(j, a.last_loaded);
      }
      tree_.update(j);
    }

    // Phase D: output the batch in order, advance the watermark, and
    // advance b[i] past fully consumed blocks (their last element is in
    // this batch).
    const std::size_t emitted = out_.size();
    watermark_ = out_.max();  // the batch's last element
    const std::size_t B = mach_.B();
    const bool mark = mach_.tracing() && src_.has_atom_extractor();
    out_.drain(
        [&](std::span<const T> vals) { sink_.append(vals); },
        [&](const typename Batch::Chunk& c) {
          // Lemma 4.3 use-sets: the read whose copy reached the output batch
          // is the one that consumes the atom from its block.
          if (mark && c.ticket.valid())
            for (const T& v : c.values)
              mach_.trace()->mark_used(c.ticket, src_.atom_id(v));
          // A chunk lies inside one block, so a block-last element ends one.
          const std::uint64_t last = c.pos + c.values.size() - 1;
          if (last % B == B - 1 || last == runs_[c.source].end - 1)
            bptr.set(c.source, last / B + 1);
        });
    return emitted;
  }

  Machine& mach_;
  const ExtArray<T>& src_;
  std::vector<RunBounds> runs_;
  SortBudget budget_;
  OccLess<T, Less> occ_less_;
  CombineSink<T, std::function<bool(const T&, const T&)>, Combine> sink_;
  // OUT, the staged batch, and Phase C's selection state (actives and
  // their loser tree); their storage is reused by every round.
  using Batch = StagedBatch<T, Less>;
  Batch out_;
  using Tree = LoserTree<Occ<T>, OccLess<T, Less>>;
  std::vector<Active> actives_;
  Tree tree_;
  std::optional<Occ<T>> watermark_;
  MergeStats* stats_ = nullptr;
};

}  // namespace sort_detail

/// Merges sorted `runs` of `src` into dst[dst_begin, ...).  Each run must be
/// sorted under `less` and begin at a block-aligned offset; dst must be a
/// different array (std::invalid_argument otherwise) with room for the
/// merged output.  With a Combine callable, adjacent key-equal elements are
/// folded; returns the number of elements written (the total input length
/// when not combining).
///
/// Cost (Theorem 3.2, for d <= omega * m runs totalling N elements):
/// O(omega(n + m)) reads and O(n + m) writes.  Phase C selects with a
/// loser tree, ceil(log2 k) host comparisons per selection; that moves host
/// CPU time only, never a charged I/O (tests/test_loser_tree.cpp pins the
/// charges).
template <class T, class Less, class Combine = std::nullptr_t>
std::size_t merge_runs(const ExtArray<T>& src, std::span<const RunBounds> runs,
                       ExtArray<T>& dst, std::size_t dst_begin, Less less,
                       Combine combine = {}, MergeStats* stats = nullptr) {
  sort_detail::MergeJob<T, Less, Combine> job(src, runs, dst, dst_begin, less,
                                              combine);
  job.set_stats(stats);
  return job.run();
}

}  // namespace aem
