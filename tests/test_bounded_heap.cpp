// Tests for sort/bounded_heap.hpp: the staged batch of merge_runs and the
// external priority queue's refill.  The heap must keep exactly what a
// bounded std::set (the reference) keeps after every offer, so the kernels'
// "below the staged max" decisions cannot change.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <iterator>
#include <set>
#include <stdexcept>
#include <utility>
#include <vector>

#include "sort/bounded_heap.hpp"
#include "util/rng.hpp"

namespace {

using aem::sort_detail::BoundedMaxHeap;

/// (key, tie-breaker) ordered lexicographically: a strict total order with
/// many equal keys, like OccLess on duplicate-heavy input.
using Item = std::pair<std::uint64_t, std::uint64_t>;
using ItemLess = std::less<Item>;
using Heap = BoundedMaxHeap<Item, ItemLess>;

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

/// Offers `n` items with keys in [0, key_range) and unique tie-breakers to
/// both structures, checking size, max and admits() after every offer, and
/// the sorted batch at the end.
void check_round(Heap& heap, RefBatch& ref, aem::util::Rng& rng,
                 std::size_t n, std::uint64_t key_range,
                 std::uint64_t& next_id) {
  for (std::size_t i = 0; i < n; ++i) {
    const Item v{rng.next() % key_range, next_id++};
    ASSERT_EQ(heap.admits(v), ref.admits(v));
    heap.offer(v);
    ref.offer(v);
    ASSERT_EQ(heap.size(), ref.items().size());
    ASSERT_EQ(heap.max(), *ref.items().rbegin());
  }
  const auto batch = heap.sorted();
  ASSERT_TRUE(std::equal(batch.begin(), batch.end(), ref.items().begin(),
                         ref.items().end()));
}

TEST(BoundedHeapTest, MatchesBoundedSetOverRandomOffers) {
  aem::util::Rng rng(1301);
  for (std::size_t cap : {2u, 3u, 7u, 16u, 63u, 64u, 100u})
    for (std::uint64_t key_range : {1ull, 3ull, 1000ull, ~0ull}) {
      Heap heap(cap, 500, ItemLess{});
      RefBatch ref(cap);
      std::uint64_t id = 0;
      check_round(heap, ref, rng, 500, key_range, id);
    }
}

TEST(BoundedHeapTest, ManyEqualKeysKeepSmallestTieBreakers) {
  // All keys equal: the kept set is decided by the tie-breaker alone.
  Heap heap(10, 100, ItemLess{});
  for (std::uint64_t id = 100; id-- > 0;) heap.offer(Item{7, id});
  const auto batch = heap.sorted();
  ASSERT_EQ(batch.size(), 10u);
  for (std::uint64_t i = 0; i < 10; ++i) EXPECT_EQ(batch[i], (Item{7, i}));
}

TEST(BoundedHeapTest, CapacityOneKeepsTheMinimum) {
  aem::util::Rng rng(1302);
  Heap heap(1, 1, ItemLess{});
  RefBatch ref(1);
  std::uint64_t id = 0;
  check_round(heap, ref, rng, 200, 50, id);
  EXPECT_EQ(heap.size(), 1u);
}

TEST(BoundedHeapTest, CapacityAboveOfferCountKeepsEverything) {
  aem::util::Rng rng(1303);
  Heap heap(1000, 40, ItemLess{});
  RefBatch ref(1000);
  std::uint64_t id = 0;
  check_round(heap, ref, rng, 40, 5, id);
  EXPECT_EQ(heap.size(), 40u);
  EXPECT_FALSE(heap.full());
}

TEST(BoundedHeapTest, ReuseAfterClearAcrossRounds) {
  // Like the sort kernels' rounds: clear(), refill, sorted(), repeat — with
  // the heap storage shared across rounds and a fresh reference each time.
  aem::util::Rng rng(1304);
  Heap heap(32, 32, ItemLess{});
  std::uint64_t id = 0;
  for (int round = 0; round < 20; ++round) {
    heap.clear();
    EXPECT_TRUE(heap.empty());
    RefBatch ref(32);
    check_round(heap, ref, rng, 10 + 17 * static_cast<std::size_t>(round),
                round % 2 == 0 ? 4 : 1u << 20, id);
  }
}

TEST(BoundedHeapTest, SortedIsAscending) {
  aem::util::Rng rng(1305);
  Heap heap(256, 4096, ItemLess{});
  for (std::uint64_t id = 0; id < 4096; ++id)
    heap.offer(Item{rng.next() % 97, id});
  const auto batch = heap.sorted();
  ASSERT_EQ(batch.size(), 256u);
  EXPECT_TRUE(std::is_sorted(batch.begin(), batch.end()));
  EXPECT_TRUE(std::adjacent_find(batch.begin(), batch.end()) == batch.end());
}

TEST(BoundedHeapTest, SortedEqualsTheBoundedSetInBothRegimes) {
  // sorted() must return the reference set element for element whether the
  // items are still in push_heap order (the cap is never reached) or have
  // been reshuffled by many replace-tops among many equal keys.  The caps
  // reach merge_runs' real OUT size (8192 at sort_aem's shape), far above
  // the sizes the tests above sort.
  aem::util::Rng rng(1306);
  struct Regime {
    std::size_t cap, offers;
    std::uint64_t key_range;
  };
  for (const Regime& r : {Regime{8192, 5000, 1u << 20}, Regime{8192, 5000, 3},
                          Regime{512, 20000, 5}, Regime{8192, 60000, 2}}) {
    Heap heap(r.cap, r.offers, ItemLess{});
    RefBatch ref(r.cap);
    std::uint64_t replaced = 0;
    for (std::uint64_t id = 0; id < r.offers; ++id) {
      // Descending tie-breakers: every later equal key sorts first, so a
      // full heap keeps replacing its top.
      const Item v{rng.next() % r.key_range, r.offers - id};
      replaced += heap.full() && heap.admits(v);
      heap.offer(v);
      ref.offer(v);
    }
    ASSERT_EQ(heap.full(), r.cap <= r.offers);
    if (heap.full()) {
      EXPECT_GT(replaced, r.offers / 10);
    }
    const auto batch = heap.sorted();
    ASSERT_EQ(batch.size(), ref.items().size());
    EXPECT_TRUE(std::equal(batch.begin(), batch.end(), ref.items().begin()));
  }
}

TEST(BoundedHeapTest, RejectsZeroCapacity) {
  EXPECT_THROW(Heap(0, 10, ItemLess{}), std::invalid_argument);
}

}  // namespace
