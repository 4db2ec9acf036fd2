// A write-efficient external priority queue on the AEM, and heapsort on top
// of it — the third algorithm family the paper cites ([7] proved an
// O(omega n log_{omega m} n) heapsort via a buffered heap).
//
// Structure (LSM-style):
//  * an in-memory INSERT buffer (cap M/4): pushes are free until it fills,
//    then it is sorted (free) and flushed as a level-0 sorted run;
//  * an in-memory MIN cache (cap M/4): the globally smallest elements
//    among the external runs, refilled by a batched selection round —
//    the Cmin smallest elements across sorted runs form a prefix of each,
//    so consumption is positional (per-run cursors), needing no watermark
//    and supporting arbitrary push/pop interleaving.  The round stages its
//    cut in the structure that holds merge_runs' OUT
//    (sort/staged_batch.hpp): one contiguous position range per run, held
//    as views of the delivered blocks (refill never writes a run, so they
//    stay valid until its drain) and emitted into the cache by a merge of
//    the ranges;
//  * external runs organized in levels of width m_eff = M/(4B): when a
//    level fills, its runs are merged by the paper's Section 3 merge
//    (merge_runs, Theorem 3.2 cost) into one run of the next level.
//
// The queue supports two tunings (PqTuning; docs/MODEL.md section 18):
//
//  * kLegacy — level width m_eff.  Amortized cost for N pushes + N pops:
//    writes O(n log_{m_eff}(N/M)), reads O(omega n log_{m_eff}(N/M) +
//    refill).  Write-efficient like the Section 3 mergesort but with
//    merge-tree base m_eff rather than omega*m_eff: the level width is
//    capped so that per-run cursor state (one word per run) provably fits
//    in memory.  Cursor state, run bounds, and level bookkeeping are
//    charged to the ledger (one element per run); the queue throws if the
//    run count would exceed its reservation — which cannot happen while
//    levels hold at most m_eff runs and fewer than m_eff levels are in use.
//
//  * kBuffered — the [7]-style buffered heap with the paper-optimal
//    merge-tree base: level width d = omega * m_eff (the budget fanout),
//    so cascades are omega times rarer and total writes drop to
//    O(n log_{omega m}(N/M)).  The price is reads: every refill seeds two
//    blocks from EVERY resident run (up to d per level), the omega-fold
//    read traffic the paper trades for writes.  Per-run cursors and bounds
//    are host-side bookkeeping under the RunBounds convention of
//    sort/merge.hpp (NOT ledger-charged); what refill actually holds
//    resident — the min_cap_ staged candidates plus the surviving-head
//    table — is charged, and the survivor count is provably bounded by
//    min_cap/(2B) by the Lemma 3.1 argument (each survivor's last-fed
//    element sits in the staged cut, so its 2B fed elements all do), which
//    refill asserts.  A kBuffered queue whose budget fanout does not
//    exceed m_eff (always at omega == 1) downgrades to kLegacy, so the
//    omega = 1 buffered variant is charge-identical to the legacy queue —
//    the identity guard of bench_w1_lowwrite.
//
// Both tunings keep the PR 6 fold discipline in flush_insert_buffer:
// standing reservations are released before the fold's transient claim and
// restored from the (unchanged) buffers on failure.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/ext_array.hpp"
#include "io/scanner.hpp"
#include "io/writer.hpp"
#include "sort/budget.hpp"
#include "sort/merge.hpp"
#include "sort/staged_batch.hpp"
#include "util/math.hpp"

namespace aem {

/// Merge-tree base selector for ExtPriorityQueue (see file comment).
enum class PqTuning {
  kLegacy,    // level width m_eff, per-run cursor state ledger-charged
  kBuffered,  // level width omega * m_eff, host-side run bookkeeping
};

template <class T, class Less = std::less<T>>
class ExtPriorityQueue {
 public:
  /// Requires M >= 16B: the standing buffers (M/8 + M/8) must coexist with
  /// a full Section 3 merge (OUT = M/4 plus transient blocks) during level
  /// cascades, under the strict ledger.
  explicit ExtPriorityQueue(Machine& mach, Less less = {},
                            PqTuning tuning = PqTuning::kLegacy)
      : mach_(mach),
        less_(less),
        budget_(SortBudget::from(mach)),
        tuning_(tuning),
        insert_cap_(std::max<std::size_t>(mach.B(), mach.M() / 8)),
        min_cap_(std::max<std::size_t>(mach.B(), mach.M() / 8)),
        insert_res_(mach.ledger(), 0),
        min_res_(mach.ledger(), 0),
        run_state_res_(mach.ledger(), 0) {
    if (mach.M() < 16 * mach.B())
      throw std::invalid_argument("ExtPriorityQueue requires M >= 16B");
    // A buffered queue whose fanout brings nothing (always at omega == 1)
    // downgrades: the two tunings coincide there, and the downgrade makes
    // the coincidence structural rather than emergent.
    if (tuning_ == PqTuning::kBuffered && budget_.fanout <= budget_.m_eff)
      tuning_ = PqTuning::kLegacy;
    insert_.reserve(insert_cap_);
    levels_.resize(kMaxLevels);
  }

  PqTuning tuning() const { return tuning_; }

  std::size_t size() const { return count_; }
  bool empty() const { return count_ == 0; }

  void push(const T& v) {
    ++count_;
    // Keep the min cache coherent: an element smaller than its largest
    // cached value belongs in the cache (swap the largest out into the
    // insert buffer) so pops stay correct without consulting the runs.
    if (!min_cache_.empty() && less_(v, min_cache_.back())) {
      min_cache_.insert(
          std::upper_bound(min_cache_.begin(), min_cache_.end(), v, less_), v);
      T evicted = min_cache_.back();
      min_cache_.pop_back();
      buffer_insert(evicted);
      return;
    }
    buffer_insert(v);
  }

  /// Ledger reservations track actual residency: an empty buffer holds no
  /// internal memory.  kBuffered keeps run bookkeeping host-side (the
  /// RunBounds convention), so only kLegacy charges per-run cursor words.
  void sync_ledger() {
    insert_res_.resize(insert_.size());
    min_res_.resize(min_cache_.size());
    run_state_res_.resize(tuning_ == PqTuning::kLegacy ? total_runs() : 0);
  }

  /// Removes and returns the minimum.  Throws std::out_of_range if empty.
  T pop_min() {
    if (count_ == 0) throw std::out_of_range("ExtPriorityQueue: empty");
    if (min_cache_.empty() && total_runs() > 0) refill();
    const bool have_cache = !min_cache_.empty();
    const bool have_insert = !insert_.empty();
    T result{};
    if (have_cache && (!have_insert || !less_(insert_min(), min_cache_.front()))) {
      result = min_cache_.front();
      min_cache_.erase(min_cache_.begin());
    } else if (have_insert) {
      auto it = std::min_element(insert_.begin(), insert_.end(), less_);
      result = *it;
      insert_.erase(it);
    } else {
      throw std::logic_error("ExtPriorityQueue: lost elements");
    }
    --count_;
    sync_ledger();
    return result;
  }

 private:
  static constexpr std::size_t kMaxLevels = 24;

  struct Run {
    ExtArray<T> data;     // sorted ascending
    std::size_t cursor;   // elements consumed (prefix)
    std::size_t length;   // total elements in the run
    std::size_t remaining() const { return length - cursor; }
  };

  const T& insert_min() const {
    return *std::min_element(insert_.begin(), insert_.end(), less_);
  }

  std::size_t total_runs() const {
    std::size_t r = 0;
    for (const auto& level : levels_) r += level.size();
    return r;
  }

  void buffer_insert(const T& v) {
    insert_.push_back(v);
    sync_ledger();
    if (insert_.size() >= insert_cap_) flush_insert_buffer();
  }

  void flush_insert_buffer() {
    if (insert_.empty()) return;
    // Invariant (pop correctness): while the min cache is non-empty, its
    // front is <= every element stored in a run.  Elements pushed while the
    // cache was empty may be smaller than a later-refilled cache, so before
    // anything reaches a run, fold cache + buffer together and keep the
    // min_cap_ smallest in the cache; only the remainder is flushed.
    std::sort(insert_.begin(), insert_.end(), less_);
    if (!min_cache_.empty()) {
      // The pop-correctness invariant is: every run element >= cache.back.
      // Folding may therefore only keep elements <= the CURRENT back while
      // runs exist — growing the back would hide smaller run elements.
      const T old_back = min_cache_.back();
      const std::size_t total = insert_.size() + min_cache_.size();
      // The fold consumes both buffers into `combined` (total elements) and
      // redistributes every element right back, so the queue's residency
      // during the fold is `total` — not `total` PLUS the standing claims.
      // Release the standing reservations BEFORE taking the fold's, or a
      // strict ledger near capacity throws on memory the queue never holds
      // twice.  On any failure the standing claims are restored to match
      // the (unchanged) buffers before propagating.
      insert_res_.resize(0);
      min_res_.resize(0);
      try {
        MemoryReservation merge_res(mach_.ledger(), total);
        std::vector<T> combined;
        combined.reserve(total);
        std::merge(min_cache_.begin(), min_cache_.end(), insert_.begin(),
                   insert_.end(), std::back_inserter(combined), less_);
        std::size_t limit = combined.size();
        if (total_runs() > 0) {
          limit = static_cast<std::size_t>(
              std::upper_bound(combined.begin(), combined.end(), old_back,
                               less_) -
              combined.begin());
        }
        const std::size_t keep = std::min(min_cap_, limit);
        min_cache_.assign(combined.begin(), combined.begin() + keep);
        insert_.assign(combined.begin() + keep, combined.end());
      } catch (...) {
        sync_ledger();
        throw;
      }
      sync_ledger();  // re-claim at the post-fold sizes (merge_res is gone)
    }
    if (insert_.empty()) {
      sync_ledger();
      return;
    }
    Run run{ExtArray<T>(mach_, insert_.size(), "pq.run"), 0, insert_.size()};
    Writer<T> w(run.data);
    for (const T& v : insert_) w.push(v);
    w.finish();
    insert_.clear();
    sync_ledger();
    levels_[0].push_back(std::move(run));
    cascade(0);
    sync_ledger();
  }

  /// Level width: the merge-tree base.  kBuffered uses the budget fanout
  /// d = omega * m_eff (Section 3's merge handles that many runs natively);
  /// kLegacy keeps the m_eff cap its charged cursor state requires.
  std::size_t level_width() const {
    return tuning_ == PqTuning::kBuffered ? budget_.fanout : budget_.m_eff;
  }

  /// Merges a full level into one run of the next level (Section 3 merge).
  void cascade(std::size_t level) {
    while (level + 1 < kMaxLevels && levels_[level].size() >= level_width()) {
      auto& runs = levels_[level];
      std::size_t total = 0;
      for (const auto& r : runs) total += r.remaining();
      if (total == 0) {
        runs.clear();
        return;
      }
      // Pack remaining elements of each run into a fresh source array at
      // block-aligned offsets (consumed prefixes are dropped here, which
      // costs one extra copy but keeps merge_runs' alignment contract).
      ExtArray<T> packed(mach_, aligned_total(runs), "pq.packed");
      std::vector<RunBounds> bounds;
      std::size_t offset = 0;
      for (auto& r : runs) {
        if (r.remaining() == 0) continue;
        Scanner<T> scan(r.data, r.cursor, r.length);
        Writer<T> w(packed, offset, offset + r.remaining());
        while (!scan.done()) w.push(scan.next());
        w.finish();
        bounds.push_back(RunBounds{offset, offset + r.remaining()});
        offset = util::round_up(offset + r.remaining(), mach_.B());
      }
      ExtArray<T> merged(mach_, total, "pq.merged");
      merge_runs(packed, std::span<const RunBounds>(bounds), merged, 0, less_);
      runs.clear();
      levels_[level + 1].push_back(Run{std::move(merged), 0, total});
      ++level;
    }
  }

  std::size_t aligned_total(const std::vector<Run>& runs) const {
    std::size_t offset = 0;
    for (const auto& r : runs)
      if (r.remaining() > 0)
        offset = util::round_up(offset + r.remaining(), mach_.B());
    return offset;
  }

  /// Batched selection: move the min_cap_ globally smallest run elements
  /// into the min cache.  Because every run is sorted, those elements form
  /// a prefix of each run's remainder — consumption is purely positional.
  /// Structured exactly like the Section 3 merge round (sort/merge.hpp):
  /// seed two blocks per run, then repeatedly extend the run whose
  /// last-loaded element is smallest, until no run can still contribute.
  void refill() {
    // The staged cut: the min_cap_ smallest candidates fed so far, one
    // contiguous position range per run.  Runs are numbered in (level,
    // index) order, so the occurrence order (value, run number, position)
    // is strict and total, and the cut is exactly what a bounded ordered
    // set would keep.
    using Occ = sort_detail::Occ<T>;
    const sort_detail::OccLess<T, Less> occ_less(less_);
    sort_detail::StagedBatch<T, Less> out(min_cap_, total_runs(), less_);
    MemoryReservation out_res(mach_.ledger(), min_cap_);
    MemoryReservation block_res(mach_.ledger(), mach_.B());  // one block

    struct RunCursor {
      std::size_t level, index;
      std::uint32_t source;  // the run's number in the cut
      std::size_t frontier;  // first unread element this refill
      Occ last;              // last element fed (valid once frontier moved)
    };
    std::vector<RunCursor> heads;
    std::vector<std::pair<std::size_t, std::size_t>> run_of;  // per number

    // Survivor bound (Lemma 3.1 argument, see file comment): a head can
    // stay a candidate for extension only while its last-fed element sits
    // in the staged cut, which pins all >= 2B of its fed elements there
    // too, so at most min_cap/(2B) heads survive at any moment (+1 for the
    // run currently being seeded).  kBuffered charges this table — its
    // resident run state — instead of the legacy one-word-per-run claim.
    const std::size_t head_cap = min_cap_ / (2 * mach_.B()) + 1;
    MemoryReservation heads_res(
        mach_.ledger(), tuning_ == PqTuning::kBuffered ? head_cap : 0);

    // A head is done (never active again) once fully read; it is pruned
    // once the cut is full and its last-fed element fell out — the cut's
    // max only decreases, so pruned heads never reactivate.
    auto prune = [&](const RunCursor& rc) {
      const Run& r = levels_[rc.level][rc.index];
      if (rc.frontier >= r.length) return true;
      return !out.admits(rc.last);
    };

    // Feeds the blocks holding [frontier, frontier + elems) of a run into
    // `out`, advancing the frontier past them and recording the last fed
    // element.
    auto feed = [&](RunCursor& rc, std::size_t elems) {
      Run& r = levels_[rc.level][rc.index];
      const std::size_t upto = std::min(r.length, rc.frontier + elems);
      while (rc.frontier < upto) {
        const std::uint64_t bi = rc.frontier / mach_.B();
        const BlockView<T> v = r.data.view_block(bi);
        const std::size_t lo = static_cast<std::size_t>(bi) * mach_.B();
        const std::size_t hi = std::min(lo + v.size(), r.length);
        out.fold(rc.source, rc.frontier,
                 v.span().subspan(rc.frontier - lo, hi - rc.frontier),
                 v.ticket());
        rc.last = Occ{v[hi - 1 - lo], rc.source, hi - 1};
        rc.frontier = hi;
      }
    };

    // Seed: two blocks per non-empty run, pruning eagerly so only the
    // bounded survivor set stays resident (identical I/O to pruning at the
    // extend loop's top: the cut's max only decreases, so a head pruned
    // here would have been pruned there).  An entry can also go STALE after
    // its own seed step — a later run's smaller elements evict its fed
    // elements from the cut — so when the table would outgrow the bound it
    // is re-pruned first; only CURRENT survivors count against head_cap
    // (the +1 in head_cap covers the just-pushed transient).
    for (std::size_t L = 0; L < kMaxLevels; ++L)
      for (std::size_t i = 0; i < levels_[L].size(); ++i) {
        const auto source = static_cast<std::uint32_t>(run_of.size());
        run_of.emplace_back(L, i);
        Run& r = levels_[L][i];
        if (r.remaining() == 0) continue;
        RunCursor rc{L, i, source, r.cursor, {}};
        feed(rc, 2 * mach_.B());
        if (prune(rc)) continue;
        heads.push_back(rc);
        if (heads.size() > head_cap) {
          std::erase_if(heads, prune);
          if (heads.size() > head_cap)
            throw std::logic_error(
                "ExtPriorityQueue: refill survivor bound violated");
        }
      }

    // Extend: the merge loop.  A head is active while it has unread
    // elements AND its last-loaded element may still be among the cut
    // (out not full, or last < out's max).  Inactive heads never
    // reactivate (the cut only decreases).
    while (true) {
      std::erase_if(heads, prune);
      if (heads.empty()) break;
      auto j = std::min_element(heads.begin(), heads.end(),
                                [&](const RunCursor& a, const RunCursor& b) {
                                  return occ_less(a.last, b.last);
                                });
      feed(*j, mach_.B());
    }

    // Consume: candidates per run are a prefix; advance cursors.
    min_cache_.clear();
    out.drain(
        [&](std::span<const T> vals) {
          min_cache_.insert(min_cache_.end(), vals.begin(), vals.end());
        },
        [&](const auto& c) {
          const auto [L, i] = run_of[c.source];
          Run& r = levels_[L][i];
          r.cursor = std::max(r.cursor, c.pos + c.values.size());
        });
    if (min_cache_.empty() && total_runs() > 0) {
      // All runs fully consumed: drop them.
      for (auto& level : levels_) level.clear();
    }
    sync_ledger();
  }

  Machine& mach_;
  Less less_;
  SortBudget budget_;
  PqTuning tuning_;
  std::size_t insert_cap_;
  std::size_t min_cap_;
  MemoryReservation insert_res_;
  MemoryReservation min_res_;
  MemoryReservation run_state_res_;
  std::vector<T> insert_;
  std::vector<T> min_cache_;  // sorted ascending
  std::vector<std::vector<Run>> levels_;
  std::size_t count_ = 0;
};

/// Heapsort via the external priority queue: N pushes, N pops.  `tuning`
/// selects the merge-tree base (see PqTuning; kBuffered downgrades to
/// kLegacy when the fanout brings nothing, e.g. at omega == 1).
template <class T, class Less = std::less<T>>
void aem_heap_sort(const ExtArray<T>& in, ExtArray<T>& out, Less less = {},
                   PqTuning tuning = PqTuning::kLegacy) {
  if (in.size() != out.size())
    throw std::invalid_argument("aem_heap_sort: size mismatch");
  Machine& mach = in.machine();
  ExtPriorityQueue<T, Less> pq(mach, less, tuning);
  {
    Scanner<T> scan(in);
    while (!scan.done()) pq.push(scan.next());
  }
  {
    Writer<T> w(out);
    while (!pq.empty()) w.push(pq.pop_min());
    w.finish();
  }
}

}  // namespace aem
