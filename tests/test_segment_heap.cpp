// Tests for sort/segment_heap.hpp: the staged batch of merge_runs and the
// external priority queue's refill, kept as one ascending segment per
// source.  With each source offering ascending, as a sorted run read back
// does, it must keep exactly what a bounded std::set (the reference) keeps
// after every offer, however the sources interleave, and emit it in the
// set's order, so the kernels' "below the staged max" decisions and their
// output cannot change.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <iterator>
#include <set>
#include <stdexcept>
#include <utility>
#include <vector>

#include "sort/segment_heap.hpp"
#include "util/rng.hpp"

namespace {

using aem::sort_detail::SegmentHeap;

/// (key, tie-breaker) ordered lexicographically: a strict total order with
/// many equal keys, like OccLess on duplicate-heavy input.
using Item = std::pair<std::uint64_t, std::uint64_t>;
using ItemLess = std::less<Item>;
using Heap = SegmentHeap<Item, ItemLess>;

/// The reference: the bounded ordered set the sort kernels used to keep.
class RefBatch {
 public:
  explicit RefBatch(std::size_t cap) : cap_(cap) {}
  void offer(const Item& v) {
    if (set_.size() < cap_) {
      set_.insert(v);
    } else if (v < *set_.rbegin()) {
      set_.erase(std::prev(set_.end()));
      set_.insert(v);
    }
  }
  bool admits(const Item& v) const {
    return set_.size() < cap_ || v < *set_.rbegin();
  }
  const std::set<Item>& items() const { return set_; }

 private:
  std::size_t cap_;
  std::set<Item> set_;
};

/// Everything drain() emits, in order.
std::vector<Item> drained(Heap& heap) {
  std::vector<Item> out;
  heap.drain([&](const Item& v) { out.push_back(v); });
  return out;
}

/// Offers `v` from `source` to both structures and checks size, max and
/// admits() against the reference.
void offer_both(Heap& heap, RefBatch& ref, std::size_t source,
                const Item& v) {
  ASSERT_EQ(heap.admits(v), ref.admits(v));
  heap.offer(source, v);
  ref.offer(v);
  ASSERT_EQ(heap.size(), ref.items().size());
  ASSERT_EQ(heap.max(), *ref.items().rbegin());
}

/// Drains `heap` and checks it emitted the reference set in order.
void expect_drains_to(Heap& heap, const RefBatch& ref) {
  const std::vector<Item> batch = drained(heap);
  ASSERT_EQ(batch.size(), ref.items().size());
  EXPECT_TRUE(std::equal(batch.begin(), batch.end(), ref.items().begin()));
  EXPECT_TRUE(heap.empty());
}

struct Offer {
  std::size_t source;
  Item item;
};

/// `n` offers with keys in [0, key_range), unique tie-breakers and random
/// sources in [0, sources), each source's items then sorted among its own
/// slots: the sources interleave at random and each offers ascending.
std::vector<Offer> ascending_offers(aem::util::Rng& rng, std::size_t n,
                                    std::uint64_t key_range,
                                    std::size_t sources,
                                    std::uint64_t& next_id) {
  std::vector<Offer> offers(n);
  std::vector<std::vector<Item>> descending(sources);
  for (Offer& o : offers) {
    o.source = rng.next() % sources;
    o.item = Item{rng.next() % key_range, next_id++};
    descending[o.source].push_back(o.item);
  }
  for (auto& items : descending) std::sort(items.rbegin(), items.rend());
  for (Offer& o : offers) {
    o.item = descending[o.source].back();
    descending[o.source].pop_back();
  }
  return offers;
}

/// Offers ascending_offers(...) to both structures, then checks the
/// drained batch.
void check_round(Heap& heap, RefBatch& ref, aem::util::Rng& rng,
                 std::size_t n, std::uint64_t key_range, std::size_t sources,
                 std::uint64_t& next_id) {
  for (const Offer& o : ascending_offers(rng, n, key_range, sources, next_id))
    ASSERT_NO_FATAL_FAILURE(offer_both(heap, ref, o.source, o.item));
  expect_drains_to(heap, ref);
}

TEST(BoundedHeapTest, MatchesBoundedSetOverRandomOffers) {
  aem::util::Rng rng(1301);
  for (std::size_t cap : {2u, 3u, 7u, 16u, 63u, 64u, 100u})
    for (std::uint64_t key_range : {1ull, 3ull, 1000ull, ~0ull})
      for (std::size_t sources : {1u, 4u, 33u}) {
        Heap heap(cap, 500, sources, ItemLess{});
        RefBatch ref(cap);
        std::uint64_t id = 0;
        check_round(heap, ref, rng, 500, key_range, sources, id);
      }
}

TEST(BoundedHeapTest, InterleavedAscendingSourcesLikeTheMerge) {
  // The merge's regime: every source delivers its own ascending run, the
  // sources interleave in random order and in bursts of a block's length.
  aem::util::Rng rng(1307);
  for (std::size_t sources : {1u, 2u, 4u, 9u, 64u})
    for (std::size_t cap : {1u, 5u, 64u, 1000u}) {
      std::vector<std::vector<Item>> runs(sources);
      std::uint64_t id = 0;
      for (auto& run : runs) {
        run.resize(rng.next() % 300);
        for (Item& v : run) v = Item{rng.next() % 50, id++};
        std::sort(run.begin(), run.end());
      }
      Heap heap(cap, id, sources, ItemLess{});
      RefBatch ref(cap);
      std::vector<std::size_t> next(sources, 0);
      for (std::size_t left = id; left > 0;) {
        const std::size_t s = rng.next() % sources;
        const std::size_t burst = 1 + rng.next() % 8;
        for (std::size_t b = 0; b < burst && next[s] < runs[s].size(); ++b) {
          ASSERT_NO_FATAL_FAILURE(
              offer_both(heap, ref, s, runs[s][next[s]++]));
          --left;
        }
      }
      expect_drains_to(heap, ref);
    }
}

TEST(BoundedHeapTest, SourceWhoseTailWasEvictedStaysOut) {
  // Once the batch evicts, it stays full and its maximum only falls, so a
  // source that lost its tail offers only values above the maximum: its
  // segment, even when emptied, never grows again before the drain.
  Heap heap(2, 8, 2, ItemLess{});
  RefBatch ref(2);
  for (const Offer& o : {Offer{0, {10, 0}}, Offer{0, {20, 1}},
                         Offer{1, {1, 2}}, Offer{1, {2, 3}}})
    ASSERT_NO_FATAL_FAILURE(offer_both(heap, ref, o.source, o.item));
  // Source 1 evicted both of source 0's elements.
  EXPECT_FALSE(heap.admits(Item{30, 4}));
  ASSERT_NO_FATAL_FAILURE(offer_both(heap, ref, 0, Item{30, 4}));
  ASSERT_NO_FATAL_FAILURE(offer_both(heap, ref, 1, Item{3, 5}));
  expect_drains_to(heap, ref);
}

TEST(BoundedHeapTest, ManyEqualKeysKeepSmallestTieBreakers) {
  // All keys equal: the kept set is decided by the tie-breaker alone.  The
  // tie-breakers arrive descending, one source each, so every offer after
  // the tenth evicts.
  Heap heap(10, 100, 100, ItemLess{});
  for (std::uint64_t id = 100; id-- > 0;) heap.offer(id, Item{7, id});
  const std::vector<Item> batch = drained(heap);
  ASSERT_EQ(batch.size(), 10u);
  for (std::uint64_t i = 0; i < 10; ++i) EXPECT_EQ(batch[i], (Item{7, i}));
}

TEST(BoundedHeapTest, CapacityOneKeepsTheMinimum) {
  aem::util::Rng rng(1302);
  for (std::size_t sources : {1u, 5u}) {
    Heap heap(1, 200, sources, ItemLess{});
    RefBatch ref(1);
    std::uint64_t id = 0;
    for (const Offer& o : ascending_offers(rng, 200, 50, sources, id)) {
      ASSERT_NO_FATAL_FAILURE(offer_both(heap, ref, o.source, o.item));
      EXPECT_EQ(heap.size(), 1u);
    }
    expect_drains_to(heap, ref);
  }
}

TEST(BoundedHeapTest, CapacityAboveOfferCountKeepsEverything) {
  aem::util::Rng rng(1303);
  Heap heap(1000, 40, 3, ItemLess{});
  RefBatch ref(1000);
  std::uint64_t id = 0;
  for (const Offer& o : ascending_offers(rng, 40, 5, 3, id))
    ASSERT_NO_FATAL_FAILURE(offer_both(heap, ref, o.source, o.item));
  EXPECT_EQ(heap.size(), 40u);
  EXPECT_FALSE(heap.full());
  EXPECT_EQ(heap.node_capacity(), 40u);  // min(cap, expected)
  expect_drains_to(heap, ref);
}

TEST(BoundedHeapTest, ReuseAfterClearAcrossRounds) {
  // Like the sort kernels' rounds: offer, drain (which empties), repeat —
  // with the storage shared across rounds and a fresh reference each time;
  // every third round is abandoned by clear() instead of drained.
  aem::util::Rng rng(1304);
  Heap heap(32, 2000, 4, ItemLess{});
  std::uint64_t id = 0;
  for (int round = 0; round < 30; ++round) {
    RefBatch ref(32);
    const std::size_t n = 10 + 17 * static_cast<std::size_t>(round % 10);
    if (round % 3 == 2) {
      for (const Offer& o : ascending_offers(rng, n, 7, 4, id))
        heap.offer(o.source, o.item);
      heap.clear();
      EXPECT_TRUE(heap.empty());
      continue;
    }
    check_round(heap, ref, rng, n, round % 2 == 0 ? 4 : 1u << 20, 4, id);
  }
}

TEST(BoundedHeapTest, SortedIsAscending) {
  aem::util::Rng rng(1305);
  Heap heap(256, 4096, 8, ItemLess{});
  std::uint64_t id = 0;
  for (const Offer& o : ascending_offers(rng, 4096, 97, 8, id))
    heap.offer(o.source, o.item);
  const std::vector<Item> batch = drained(heap);
  ASSERT_EQ(batch.size(), 256u);
  EXPECT_TRUE(std::is_sorted(batch.begin(), batch.end()));
  EXPECT_TRUE(std::adjacent_find(batch.begin(), batch.end()) == batch.end());
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
    Heap heap(r.cap, r.offers, r.offers, ItemLess{});
    RefBatch ref(r.cap);
    std::uint64_t replaced = 0;
    for (std::uint64_t id = 0; id < r.offers; ++id) {
      // Descending tie-breakers: every later equal key sorts first, so a
      // full batch keeps evicting its maximum.
      const Item v{rng.next() % r.key_range, r.offers - id};
      replaced += heap.full() && heap.admits(v);
      heap.offer(id, v);
      ref.offer(v);
    }
    ASSERT_EQ(heap.full(), r.cap <= r.offers);
    if (heap.full()) {
      EXPECT_GT(replaced, r.offers / 10);
    }
    expect_drains_to(heap, ref);
  }
}

TEST(BoundedHeapTest, RetainedStorageStaysBoundedOverManyRounds) {
  // 200 rounds, alternating slowly rising sources (few evictions) with
  // sources spread over a wide key range: the node pool never grows past
  // min(cap, expected).
  aem::util::Rng rng(1309);
  constexpr std::size_t kCap = 300, kSources = 6, kOffers = 1000;
  Heap heap(kCap, kOffers, kSources, ItemLess{});
  std::uint64_t id = 0;
  for (int round = 0; round < 200; ++round) {
    RefBatch ref(kCap);
    if (round % 2 == 1) {
      ASSERT_NO_FATAL_FAILURE(
          check_round(heap, ref, rng, kOffers, 1000, kSources, id));
    } else {
      std::vector<std::uint64_t> tail(kSources, 0);
      for (std::size_t i = 0; i < kOffers; ++i) {
        const std::size_t s = rng.next() % kSources;
        tail[s] += rng.next() % 3;
        ASSERT_NO_FATAL_FAILURE(
            offer_both(heap, ref, s, Item{tail[s], id++}));
      }
      expect_drains_to(heap, ref);
    }
    ASSERT_EQ(heap.node_capacity(), kCap);
  }
}

TEST(BoundedHeapTest, RejectsZeroCapacity) {
  EXPECT_THROW(Heap(0, 10, 1, ItemLess{}), std::invalid_argument);
}

#ifndef NDEBUG
TEST(BoundedHeapDeathTest, DescentInsideOneSourceAsserts) {
  Heap heap(8, 8, 2, ItemLess{});
  heap.offer(0, Item{5, 0});
  heap.offer(1, Item{3, 1});  // another source may go lower
  EXPECT_DEATH(heap.offer(0, Item{4, 2}), "tail");
}
#endif

}  // namespace
