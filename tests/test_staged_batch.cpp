// Tests for sort/staged_batch.hpp: the staged batch of merge_runs and the
// external priority queue's refill, kept as one contiguous position range
// per source.  With each source folding ascending, consecutive positions,
// as a sorted run read back does, it must keep exactly what a bounded
// std::set of occurrences (the reference) keeps after every fold, however
// the sources interleave, and drain it in the set's order with every chunk
// reported right after its last element, so the kernels' "below the staged
// max" decisions, their output and their pointer updates cannot change.
// The batch keeps views of what it folds, so every folded value here lives
// until the drain.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "sort/occ.hpp"
#include "sort/staged_batch.hpp"
#include "util/rng.hpp"

namespace {

using Key = std::uint64_t;
using KeyLess = std::less<Key>;
using Batch = aem::sort_detail::StagedBatch<Key, KeyLess>;
using Occ = aem::sort_detail::Occ<Key>;
using OccLess = aem::sort_detail::OccLess<Key, KeyLess>;

bool same(const Occ& a, const Occ& b) {
  return a.val == b.val && a.run == b.run && a.pos == b.pos;
}

/// The reference: the bounded ordered set the sort kernels used to keep.
class RefBatch {
 public:
  explicit RefBatch(std::size_t cap) : cap_(cap), set_(OccLess(KeyLess{})) {}
  /// Returns true iff o was kept.
  bool offer(const Occ& o) {
    if (!admits(o)) return false;
    if (set_.size() == cap_) set_.erase(std::prev(set_.end()));
    set_.insert(o);
    return true;
  }
  bool admits(const Occ& o) const {
    return set_.size() < cap_ || OccLess(KeyLess{})(o, *set_.rbegin());
  }
  const std::set<Occ, OccLess>& items() const { return set_; }

 private:
  std::size_t cap_;
  std::set<Occ, OccLess> set_;
};

/// Checks size, maximum and every source's range against the reference.
void expect_matches(const Batch& b, const RefBatch& ref,
                    std::size_t sources) {
  ASSERT_EQ(b.size(), ref.items().size());
  if (!ref.items().empty()) {
    ASSERT_TRUE(same(b.max(), *ref.items().rbegin()));
  }
  std::map<std::uint32_t, std::pair<std::uint64_t, std::uint64_t>> want;
  std::map<std::uint32_t, std::size_t> count;
  for (const Occ& o : ref.items()) {
    auto [it, fresh] = want.try_emplace(o.run, o.pos, o.pos + 1);
    it->second.first = std::min(it->second.first, o.pos);
    it->second.second = std::max(it->second.second, o.pos + 1);
    ++count[o.run];
  }
  for (std::uint32_t s = 0; s < sources; ++s) {
    const auto [lo, hi] = b.range(s);
    const auto w = want.find(s);
    if (w == want.end()) {
      ASSERT_EQ(lo, hi) << "source " << s;
    } else {
      // The reference's kept positions of s are contiguous too.
      ASSERT_EQ(w->second.second - w->second.first, count[s]);
      ASSERT_EQ(lo, w->second.first) << "source " << s;
      ASSERT_EQ(hi, w->second.second) << "source " << s;
    }
  }
}

/// Folds `keys` as positions pos.. of `source` into both structures and
/// checks admits(), the kept count and (with `sources`) the whole state.
void fold_both(Batch& b, RefBatch& ref, std::size_t source, std::uint64_t pos,
               std::span<const Key> keys, std::size_t sources = 0) {
  const auto s = static_cast<std::uint32_t>(source);
  if (!keys.empty()) {
    ASSERT_EQ(b.admits(Occ{keys[0], s, pos}), ref.admits(Occ{keys[0], s, pos}));
  }
  const std::size_t kept = b.fold(source, pos, keys);
  // The reference sees every key: those after the first refused one are
  // refused too, so the batch's stopping early changes nothing.
  std::size_t ref_kept = 0;
  for (std::size_t i = 0; i < keys.size(); ++i)
    ref_kept += ref.offer(Occ{keys[i], s, pos + i});
  ASSERT_EQ(kept, ref_kept);
  if (sources > 0) {
    ASSERT_NO_FATAL_FAILURE(expect_matches(b, ref, sources));
  } else {
    ASSERT_EQ(b.size(), ref.items().size());
    ASSERT_TRUE(same(b.max(), *ref.items().rbegin()));
  }
}

/// Folds one key, which must outlive the next drain or clear.
void offer_both(Batch& b, RefBatch& ref, std::size_t source,
                std::uint64_t pos, const Key& key, std::size_t sources = 0) {
  fold_both(b, ref, source, pos, std::span<const Key>(&key, 1), sources);
}

/// Drains `b` and checks it against the reference: the emitted keys in
/// order, each chunk reported right after its last element with the
/// reference's values, and each source's chunks in position order covering
/// exactly its kept range.
void expect_drains_to(Batch& b, const RefBatch& ref) {
  const std::vector<Occ> want(ref.items().begin(), ref.items().end());
  std::map<std::pair<std::uint32_t, std::uint64_t>, Key> value_at;
  std::map<std::uint32_t, std::pair<std::uint64_t, std::uint64_t>> range;
  for (const Occ& o : want) {
    value_at[{o.run, o.pos}] = o.val;
    auto [it, fresh] = range.try_emplace(o.run, o.pos, o.pos);
    it->second.second = o.pos + 1;
  }
  std::vector<Key> got;
  std::map<std::uint32_t, std::uint64_t> next;  // per source: next chunk pos
  for (const auto& [s, r] : range) next[s] = r.first;
  b.drain(
      [&](std::span<const Key> vals) {
        EXPECT_FALSE(vals.empty());
        got.insert(got.end(), vals.begin(), vals.end());
      },
      [&](const Batch::Chunk& c) {
        ASSERT_FALSE(got.empty());
        ASSERT_LE(got.size(), want.size());
        ASSERT_FALSE(c.values.empty());
        const Occ& last = want[got.size() - 1];
        EXPECT_EQ(last.run, c.source);
        EXPECT_EQ(last.pos, c.pos + c.values.size() - 1);
        EXPECT_EQ(c.pos, next[c.source]);
        next[c.source] = c.pos + c.values.size();
        for (std::size_t i = 0; i < c.values.size(); ++i)
          EXPECT_EQ(c.values[i], (value_at[{c.source, c.pos + i}]));
      });
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) EXPECT_EQ(got[i], want[i].val);
  for (const auto& [s, r] : range) EXPECT_EQ(next[s], r.second);
  EXPECT_TRUE(b.empty());
}

struct Offer {
  std::size_t source;
  std::uint64_t pos;
  Key key;
};

/// `n` offers with keys in [0, key_range) from random sources in
/// [0, sources): the sources interleave at random, and each offers its own
/// keys ascending at consecutive positions (source s from 1000 * s on).
std::vector<Offer> ascending_offers(aem::util::Rng& rng, std::size_t n,
                                    std::uint64_t key_range,
                                    std::size_t sources) {
  std::vector<Offer> offers(n);
  std::vector<std::vector<Key>> descending(sources);
  for (Offer& o : offers) {
    o.source = rng.next() % sources;
    descending[o.source].push_back(rng.next() % key_range);
  }
  for (auto& keys : descending) std::sort(keys.rbegin(), keys.rend());
  std::vector<std::uint64_t> next(sources);
  for (std::size_t s = 0; s < sources; ++s) next[s] = 1000 * s;
  for (Offer& o : offers) {
    o.key = descending[o.source].back();
    descending[o.source].pop_back();
    o.pos = next[o.source]++;
  }
  return offers;
}

/// Offers ascending_offers(...) to both structures, then checks the drain.
void check_round(Batch& b, RefBatch& ref, aem::util::Rng& rng, std::size_t n,
                 std::uint64_t key_range, std::size_t sources) {
  const std::vector<Offer> offers =
      ascending_offers(rng, n, key_range, sources);
  for (const Offer& o : offers)
    ASSERT_NO_FATAL_FAILURE(offer_both(b, ref, o.source, o.pos, o.key));
  expect_drains_to(b, ref);
}

TEST(BoundedHeapTest, MatchesBoundedSetOverRandomOffers) {
  aem::util::Rng rng(1301);
  for (std::size_t cap : {2u, 3u, 7u, 16u, 63u, 64u, 100u})
    for (std::uint64_t key_range : {1ull, 3ull, 1000ull, ~0ull})
      for (std::size_t sources : {1u, 4u, 33u}) {
        Batch b(cap, sources, KeyLess{});
        RefBatch ref(cap);
        check_round(b, ref, rng, 500, key_range, sources);
      }
}

TEST(BoundedHeapTest, InterleavedAscendingSourcesLikeTheMerge) {
  // The merge's regime: every source delivers its own ascending run, the
  // sources interleave in random order and in bursts of a block's length,
  // each burst folded at once.
  aem::util::Rng rng(1307);
  for (std::size_t sources : {1u, 2u, 4u, 9u, 64u})
    for (std::size_t cap : {1u, 5u, 64u, 1000u}) {
      std::vector<std::vector<Key>> runs(sources);
      std::size_t total = 0;
      for (auto& run : runs) {
        run.resize(rng.next() % 300);
        for (Key& v : run) v = rng.next() % 50;
        std::sort(run.begin(), run.end());
        total += run.size();
      }
      Batch b(cap, sources, KeyLess{});
      RefBatch ref(cap);
      std::vector<std::size_t> next(sources, 0);
      while (total > 0) {
        const std::size_t s = rng.next() % sources;
        const std::size_t burst =
            std::min<std::size_t>(1 + rng.next() % 8, runs[s].size() - next[s]);
        ASSERT_NO_FATAL_FAILURE(fold_both(
            b, ref, s, next[s],
            std::span<const Key>(runs[s].data() + next[s], burst), sources));
        next[s] += burst;
        total -= burst;
      }
      expect_drains_to(b, ref);
    }
}

TEST(BoundedHeapTest, SourceWhoseTailWasEvictedStaysOut) {
  // Once the batch evicts, it stays full and its maximum only falls, so a
  // source that lost its tail offers only values above the maximum: its
  // range, even when emptied, never grows again before the drain.
  Batch b(2, 2, KeyLess{});
  RefBatch ref(2);
  const std::array<Offer, 6> offers = {Offer{0, 0, 10}, Offer{0, 1, 20},
                                       Offer{1, 0, 1},  Offer{1, 1, 2},
                                       Offer{0, 2, 30}, Offer{1, 2, 3}};
  for (std::size_t i = 0; i < offers.size(); ++i) {
    // After the first four, source 1 has evicted both of source 0's.
    if (i == 4) {
      EXPECT_FALSE(b.admits(Occ{30, 0, 2}));
    }
    const Offer& o = offers[i];
    ASSERT_NO_FATAL_FAILURE(offer_both(b, ref, o.source, o.pos, o.key, 2));
  }
  expect_drains_to(b, ref);
}

TEST(BoundedHeapTest, ManyEqualKeysKeepSmallestTieBreakers) {
  // All keys equal: the kept set is decided by the source alone.  The
  // sources arrive descending, one element each, so every offer after the
  // tenth evicts.
  Batch b(10, 100, KeyLess{});
  const Key seven = 7;
  for (std::size_t s = 100; s-- > 0;)
    b.fold(s, 0, std::span<const Key>(&seven, 1));
  std::vector<std::uint32_t> sources;
  b.drain([](std::span<const Key>) {},
          [&](const Batch::Chunk& c) { sources.push_back(c.source); });
  ASSERT_EQ(sources.size(), 10u);
  for (std::uint32_t i = 0; i < 10; ++i) EXPECT_EQ(sources[i], i);
}

TEST(BoundedHeapTest, CapacityOneKeepsTheMinimum) {
  aem::util::Rng rng(1302);
  for (std::size_t sources : {1u, 5u}) {
    Batch b(1, sources, KeyLess{});
    RefBatch ref(1);
    const std::vector<Offer> offers = ascending_offers(rng, 200, 50, sources);
    for (const Offer& o : offers) {
      ASSERT_NO_FATAL_FAILURE(
          offer_both(b, ref, o.source, o.pos, o.key, sources));
      EXPECT_EQ(b.size(), 1u);
    }
    expect_drains_to(b, ref);
  }
}

TEST(BoundedHeapTest, CapacityAboveOfferCountKeepsEverything) {
  aem::util::Rng rng(1303);
  Batch b(1000, 3, KeyLess{});
  RefBatch ref(1000);
  const std::vector<Offer> offers = ascending_offers(rng, 40, 5, 3);
  for (const Offer& o : offers)
    ASSERT_NO_FATAL_FAILURE(offer_both(b, ref, o.source, o.pos, o.key, 3));
  EXPECT_EQ(b.size(), 40u);
  EXPECT_FALSE(b.full());
  expect_drains_to(b, ref);
}

TEST(BoundedHeapTest, ReuseAfterClearAcrossRounds) {
  // Like the sort kernels' rounds: offer, drain (which empties), repeat —
  // with the storage shared across rounds and a fresh reference each time;
  // every third round is abandoned by clear() instead of drained.
  aem::util::Rng rng(1304);
  Batch b(32, 4, KeyLess{});
  for (int round = 0; round < 30; ++round) {
    RefBatch ref(32);
    const std::size_t n = 10 + 17 * static_cast<std::size_t>(round % 10);
    if (round % 3 == 2) {
      const std::vector<Offer> offers = ascending_offers(rng, n, 7, 4);
      for (const Offer& o : offers)
        b.fold(o.source, o.pos, std::span<const Key>(&o.key, 1));
      b.clear();
      EXPECT_TRUE(b.empty());
      continue;
    }
    check_round(b, ref, rng, n, round % 2 == 0 ? 4 : 1u << 20, 4);
  }
}

TEST(BoundedHeapTest, SortedIsAscending) {
  aem::util::Rng rng(1305);
  Batch b(256, 8, KeyLess{});
  const std::vector<Offer> offers = ascending_offers(rng, 4096, 97, 8);
  for (const Offer& o : offers)
    b.fold(o.source, o.pos, std::span<const Key>(&o.key, 1));
  std::vector<Occ> batch;
  b.drain([](std::span<const Key>) {},
          [&](const Batch::Chunk& c) {
            for (std::size_t i = 0; i < c.values.size(); ++i)
              batch.push_back(Occ{c.values[i], c.source, c.pos + i});
          });
  // Chunk reports follow the output order, so their elements ascend.
  ASSERT_EQ(batch.size(), 256u);
  EXPECT_TRUE(std::is_sorted(batch.begin(), batch.end(), OccLess(KeyLess{})));
  EXPECT_TRUE(std::adjacent_find(batch.begin(), batch.end(), same) ==
              batch.end());
}

TEST(BoundedHeapTest, SortedEqualsTheBoundedSetInBothRegimes) {
  // The drained batch must equal the reference set element for element
  // whether the cap is never reached or the batch evicts many times among
  // many equal keys.  The caps reach merge_runs' real OUT size (8192 at
  // sort_aem's shape).  Every offer comes from its own source.
  aem::util::Rng rng(1306);
  struct Regime {
    std::size_t cap, offers;
    std::uint64_t key_range;
  };
  for (const Regime& r : {Regime{8192, 5000, 1u << 20}, Regime{8192, 5000, 3},
                          Regime{512, 20000, 5}, Regime{8192, 60000, 2}}) {
    Batch b(r.cap, r.offers, KeyLess{});
    RefBatch ref(r.cap);
    std::vector<Key> keys(r.offers);
    for (Key& key : keys) key = rng.next() % r.key_range;
    std::uint64_t replaced = 0;
    for (std::size_t id = 0; id < r.offers; ++id) {
      // Descending sources: every later equal key sorts first, so a full
      // batch keeps evicting its maximum.
      const std::size_t source = r.offers - 1 - id;
      const Occ o{keys[id], static_cast<std::uint32_t>(source), 0};
      replaced += b.full() && b.admits(o);
      b.fold(source, 0, std::span<const Key>(&keys[id], 1));
      ref.offer(o);
    }
    ASSERT_EQ(b.full(), r.cap <= r.offers);
    if (b.full()) {
      EXPECT_GT(replaced, r.offers / 10);
    }
    expect_drains_to(b, ref);
  }
}

TEST(BoundedHeapTest, RetainedStorageStaysBoundedOverManyRounds) {
  // 200 rounds on one batch, alternating slowly rising sources (few
  // evictions) with sources spread over a wide key range: the chunk table
  // and the drain buffers are reused every round, and each round keeps and
  // drains exactly what the reference does.
  aem::util::Rng rng(1309);
  constexpr std::size_t kCap = 300, kSources = 6, kOffers = 1000;
  Batch b(kCap, kSources, KeyLess{});
  for (int round = 0; round < 200; ++round) {
    RefBatch ref(kCap);
    std::vector<Offer> offers;
    if (round % 2 == 1) {
      offers = ascending_offers(rng, kOffers, 1000, kSources);
    } else {
      std::vector<Key> tail(kSources, 0);
      std::vector<std::uint64_t> pos(kSources, 0);
      for (std::size_t i = 0; i < kOffers; ++i) {
        const std::size_t s = rng.next() % kSources;
        tail[s] += rng.next() % 3;
        offers.push_back(Offer{s, pos[s]++, tail[s]});
      }
    }
    for (const Offer& o : offers)
      ASSERT_NO_FATAL_FAILURE(offer_both(b, ref, o.source, o.pos, o.key));
    expect_drains_to(b, ref);
  }
}

TEST(BoundedHeapTest, RejectsZeroCapacity) {
  EXPECT_THROW(Batch(0, 1, KeyLess{}), std::invalid_argument);
}

TEST(StagedBatchTest, DifferentialAgainstBoundedSet) {
  // Random caps, heavy duplicates, sources folding block-sized stretches
  // of their ascending runs in random interleavings, several rounds per
  // batch: after every fold the kept set (each source's range) and the
  // maximum are checked, and every drain against the reference's order.
  aem::util::Rng rng(3101);
  constexpr std::size_t kBlock = 16;
  for (int trial = 0; trial < 60; ++trial) {
    const std::size_t cap = 1 + rng.next() % 200;
    const std::size_t sources = 1 + rng.next() % 24;
    const std::uint64_t key_range =
        std::array<std::uint64_t, 4>{1, 3, 40, ~0ull}[rng.next() % 4];
    Batch b(cap, sources, KeyLess{});
    for (int round = 0; round < 3; ++round) {
      RefBatch ref(cap);
      std::vector<std::vector<Key>> runs(sources);
      std::vector<std::size_t> next(sources, 0);
      std::size_t left = 0;
      for (auto& run : runs) {
        run.resize(rng.next() % 120);
        for (Key& v : run) v = rng.next() % key_range;
        std::sort(run.begin(), run.end());
        left += run.size();
      }
      while (left > 0) {
        const std::size_t s = rng.next() % sources;
        const std::size_t len = std::min<std::size_t>(
            1 + rng.next() % kBlock, runs[s].size() - next[s]);
        ASSERT_NO_FATAL_FAILURE(fold_both(
            b, ref, s, 500 + next[s],
            std::span<const Key>(runs[s].data() + next[s], len), sources));
        next[s] += len;
        left -= len;
      }
      ASSERT_NO_FATAL_FAILURE(expect_drains_to(b, ref));
    }
  }
}

TEST(StagedBatchTest, ChunkValuesAreTheFoldedStorage) {
  // The batch copies nothing at fold time: every drained chunk's values are
  // the very elements folded, at their positions in the caller's run, even
  // after evictions shortened the chunk.
  aem::util::Rng rng(3102);
  constexpr std::size_t kCap = 40, kSources = 5, kBlock = 8;
  std::vector<std::vector<Key>> runs(kSources);
  for (auto& run : runs) {
    run.resize(64);
    for (Key& v : run) v = rng.next() % 500;
    std::sort(run.begin(), run.end());
  }
  Batch b(kCap, kSources, KeyLess{});
  RefBatch ref(kCap);
  for (std::size_t at = 0; at < 64; at += kBlock)
    for (std::size_t s = 0; s < kSources; ++s)
      ASSERT_NO_FATAL_FAILURE(fold_both(
          b, ref, s, at, std::span<const Key>(runs[s].data() + at, kBlock)));
  ASSERT_TRUE(b.full());
  std::size_t chunks = 0;
  b.drain([](std::span<const Key>) {},
          [&](const Batch::Chunk& c) {
            ++chunks;
            const std::vector<Key>& run = runs[c.source];
            EXPECT_EQ(c.values.data(), run.data() + c.pos);
            EXPECT_LE(c.pos + c.values.size(), run.size());
          });
  EXPECT_GT(chunks, 0u);
}

TEST(StagedBatchTest, OneChunkPerFoldEvenWhenContiguous) {
  // Two folds of one source at consecutive positions stay two chunks, so
  // the merge sees the end of each block read (its pointer update) apart.
  Batch b(16, 1, KeyLess{});
  const std::vector<Key> first = {1, 2, 3}, second = {4, 5};
  EXPECT_EQ(b.fold(0, 10, first), 3u);
  EXPECT_EQ(b.fold(0, 13, second), 2u);
  EXPECT_EQ(b.range(0), (std::pair<std::uint64_t, std::uint64_t>{10, 15}));
  std::vector<std::size_t> emitted_before_end;
  std::size_t emitted = 0;
  b.drain([&](std::span<const Key> v) { emitted += v.size(); },
          [&](const Batch::Chunk& c) {
            emitted_before_end.push_back(emitted);
            EXPECT_EQ(c.source, 0u);
          });
  EXPECT_EQ(emitted_before_end, (std::vector<std::size_t>{3, 5}));
}

#ifndef NDEBUG
TEST(BoundedHeapDeathTest, DescentInsideOneSourceAsserts) {
  Batch b(8, 2, KeyLess{});
  const Key five = 5, three = 3, four = 4;
  b.fold(0, 0, std::span<const Key>(&five, 1));
  b.fold(1, 0, std::span<const Key>(&three, 1));  // another source may go lower
  EXPECT_DEATH(b.fold(0, 1, std::span<const Key>(&four, 1)), "continue");
}

TEST(BoundedHeapDeathTest, GapInsideOneSourceAsserts) {
  Batch b(8, 1, KeyLess{});
  const Key five = 5, six = 6;
  b.fold(0, 0, std::span<const Key>(&five, 1));
  EXPECT_DEATH(b.fold(0, 2, std::span<const Key>(&six, 1)), "continue");
}
#endif

}  // namespace
