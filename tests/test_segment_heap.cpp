// Tests for sort/segment_heap.hpp: the staged batch of merge_runs and the
// external priority queue's refill, kept as ascending segments per source.
// It must keep exactly what a bounded std::set (the reference) keeps after
// every offer, whatever order the sources deliver in, and emit it in the
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

/// Offers `n` items with keys in [0, key_range), unique tie-breakers and
/// random sources in [0, sources) — so every source descends often — then
/// checks the drained batch.
void check_round(Heap& heap, RefBatch& ref, aem::util::Rng& rng,
                 std::size_t n, std::uint64_t key_range, std::size_t sources,
                 std::uint64_t& next_id) {
  for (std::size_t i = 0; i < n; ++i) {
    const Item v{rng.next() % key_range, next_id++};
    ASSERT_NO_FATAL_FAILURE(offer_both(heap, ref, rng.next() % sources, v));
  }
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

TEST(BoundedHeapTest, DescentsInsideOneSourceStayExact) {
  // Corrupted deliveries: each source is ascending except for occasional
  // values far below (or far above) its tail, which open new segments.
  aem::util::Rng rng(1308);
  for (std::size_t sources : {1u, 3u})
    for (std::size_t cap : {1u, 8u, 100u, 4096u}) {
      Heap heap(cap, 3000, sources, ItemLess{});
      RefBatch ref(cap);
      std::vector<std::uint64_t> tail(sources, 0);
      std::uint64_t id = 0;
      std::size_t descents = 0;
      for (int i = 0; i < 3000; ++i) {
        const std::size_t s = rng.next() % sources;
        std::uint64_t key = tail[s] + rng.next() % 4;
        if (rng.next() % 10 == 0) {
          key = rng.next() % (tail[s] + 1);  // a descent
          ++descents;
        } else if (rng.next() % 50 == 0) {
          key = tail[s] + 100000;  // a spike the next value falls below
        }
        tail[s] = key;
        ASSERT_NO_FATAL_FAILURE(offer_both(heap, ref, s, Item{key, id++}));
      }
      EXPECT_GT(descents, 200u);
      expect_drains_to(heap, ref);
    }
}

TEST(BoundedHeapTest, ManyEqualKeysKeepSmallestTieBreakers) {
  // All keys equal: the kept set is decided by the tie-breaker alone, and a
  // descending source opens a segment per offer until the batch is full.
  Heap heap(10, 100, 1, ItemLess{});
  for (std::uint64_t id = 100; id-- > 0;) heap.offer(0, Item{7, id});
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
    for (int i = 0; i < 200; ++i) {
      const Item v{rng.next() % 50, id++};
      ASSERT_NO_FATAL_FAILURE(offer_both(heap, ref, rng.next() % sources, v));
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
  for (int i = 0; i < 40; ++i)
    ASSERT_NO_FATAL_FAILURE(
        offer_both(heap, ref, rng.next() % 3, Item{rng.next() % 5, id++}));
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
      for (std::size_t i = 0; i < n; ++i)
        heap.offer(rng.next() % 4, Item{rng.next() % 7, id++});
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
  for (std::uint64_t id = 0; id < 4096; ++id)
    heap.offer(id % 8, Item{rng.next() % 97, id});
  const std::vector<Item> batch = drained(heap);
  ASSERT_EQ(batch.size(), 256u);
  EXPECT_TRUE(std::is_sorted(batch.begin(), batch.end()));
  EXPECT_TRUE(std::adjacent_find(batch.begin(), batch.end()) == batch.end());
}

TEST(BoundedHeapTest, SortedEqualsTheBoundedSetInBothRegimes) {
  // The drained batch must equal the reference set element for element
  // whether the cap is never reached or the batch evicts many times among
  // many equal keys.  The caps reach merge_runs' real OUT size (8192 at
  // sort_aem's shape).
  aem::util::Rng rng(1306);
  struct Regime {
    std::size_t cap, offers;
    std::uint64_t key_range;
  };
  for (const Regime& r : {Regime{8192, 5000, 1u << 20}, Regime{8192, 5000, 3},
                          Regime{512, 20000, 5}, Regime{8192, 60000, 2}}) {
    Heap heap(r.cap, r.offers, 4, ItemLess{});
    RefBatch ref(r.cap);
    std::uint64_t replaced = 0;
    for (std::uint64_t id = 0; id < r.offers; ++id) {
      // Descending tie-breakers: every later equal key sorts first, so a
      // full batch keeps evicting its maximum.
      const Item v{rng.next() % r.key_range, r.offers - id};
      replaced += heap.full() && heap.admits(v);
      heap.offer(id % 4, v);
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
  // 200 rounds, alternating merge-like rounds (few long segments) with
  // corrupted ones (a segment per descent): the node pool never grows past
  // min(cap, expected) and the segment table past twice the most segments
  // one round can hold live (at most the cap).
  aem::util::Rng rng(1309);
  constexpr std::size_t kCap = 300, kSources = 6, kOffers = 1000;
  Heap heap(kCap, kOffers, kSources, ItemLess{});
  std::uint64_t id = 0;
  for (int round = 0; round < 200; ++round) {
    RefBatch ref(kCap);
    std::vector<std::uint64_t> tail(kSources, 0);
    const bool corrupted = round % 2 == 1;
    for (std::size_t i = 0; i < kOffers; ++i) {
      const std::size_t s = rng.next() % kSources;
      tail[s] = corrupted ? rng.next() % 1000 : tail[s] + rng.next() % 3;
      ASSERT_NO_FATAL_FAILURE(offer_both(heap, ref, s, Item{tail[s], id++}));
    }
    expect_drains_to(heap, ref);
    ASSERT_EQ(heap.node_capacity(), kCap);
    ASSERT_LE(heap.segment_capacity(), 2 * kCap);
  }
}

TEST(BoundedHeapTest, RejectsZeroCapacity) {
  EXPECT_THROW(Heap(0, 10, 1, ItemLess{}), std::invalid_argument);
}

}  // namespace
