// Tests for the low-write algorithm suite (docs/MODEL.md section 18):
// mul_sat / SortBudget saturation at extreme omega, the read-favoring
// sample sort (sort/lowwrite_samplesort.hpp), the buffered-heap PQ tuning
// (PqTuning::kBuffered), and the write-efficient batched store puts
// (KvStore::put_inline_batch) — correctness, charge pinning, the omega = 1
// identity guards, and a randomized put/get/scan property test on plain
// and sharded machines.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
#include <queue>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/ext_array.hpp"
#include "core/machine.hpp"
#include "core/sharding.hpp"
#include "pq/ext_pq.hpp"
#include "sort/budget.hpp"
#include "sort/lowwrite_samplesort.hpp"
#include "sort/mergesort.hpp"
#include "sort/samplesort.hpp"
#include "store/kv_store.hpp"
#include "util/math.hpp"
#include "util/rng.hpp"

namespace {

using namespace aem;
using store::IndexKind;
using store::KvStore;
using store::Slot;
using store::StoreConfig;
using store::StoreStats;

Config cfg(std::size_t M, std::size_t B, std::uint64_t w) {
  Config c;
  c.memory_elems = M;
  c.block_elems = B;
  c.write_cost = w;
  return c;
}

ExtArray<std::uint64_t> stage(Machine& mach,
                              const std::vector<std::uint64_t>& host,
                              const char* name = "in") {
  ExtArray<std::uint64_t> arr(mach, host.size(), name);
  arr.unsafe_host_fill(host);
  return arr;
}

// --- mul_sat / SortBudget saturation (the fanout-wrap bugfix) -------------

TEST(MulSatTest, SaturatesInsteadOfWrapping) {
  EXPECT_EQ(util::mul_sat(0, 123), 0u);
  EXPECT_EQ(util::mul_sat(123, 0), 0u);
  EXPECT_EQ(util::mul_sat(std::uint64_t{1} << 20, std::uint64_t{1} << 20),
            std::uint64_t{1} << 40);
  EXPECT_EQ(util::mul_sat(UINT64_MAX, 1), UINT64_MAX);
  EXPECT_EQ(util::mul_sat(1, UINT64_MAX), UINT64_MAX);
  EXPECT_EQ(util::mul_sat(UINT64_MAX, 2), UINT64_MAX);
  EXPECT_EQ(util::mul_sat(std::uint64_t{1} << 33, std::uint64_t{1} << 33),
            UINT64_MAX);
  // The exact boundary: floor(UINT64_MAX / 3) * 3 fits, one more saturates.
  const std::uint64_t third = UINT64_MAX / 3;
  EXPECT_EQ(util::mul_sat(third, 3), third * 3);
  EXPECT_EQ(util::mul_sat(third + 1, 3), UINT64_MAX);
}

TEST(SortBudgetTest, FanoutClampsAtExtremeOmega) {
  // M = 64, B = 8: m_eff = 2, small_batch = 32.  The clamp edge sits at
  // omega = 2^30 (omega * m_eff == 2^31 == kMaxFanout exactly).
  {
    Machine mach(cfg(64, 8, (std::uint64_t{1} << 30) - 1));
    EXPECT_EQ(SortBudget::from(mach).fanout, (std::size_t{1} << 31) - 2);
  }
  {
    Machine mach(cfg(64, 8, std::uint64_t{1} << 30));
    EXPECT_EQ(SortBudget::from(mach).fanout, SortBudget::kMaxFanout);
  }
  {
    Machine mach(cfg(64, 8, (std::uint64_t{1} << 30) + 1));
    EXPECT_EQ(SortBudget::from(mach).fanout, SortBudget::kMaxFanout);
  }
  {
    // The motivating regression: omega = 2^40 wrapped omega * m_eff * ...
    // nowhere near — it produced 2^41 mod 2^64 fine, but the ISSUE case is
    // the clamp: the fanout must park at kMaxFanout, and base (2^40 * 32)
    // must come through exactly, unwrapped.
    Machine mach(cfg(64, 8, std::uint64_t{1} << 40));
    const SortBudget b = SortBudget::from(mach);
    EXPECT_EQ(b.fanout, SortBudget::kMaxFanout);
    EXPECT_EQ(b.base, std::size_t{1} << 45);
  }
  {
    // omega = 2^63: omega * m_eff and omega * small_batch both overflow
    // 64 bits; pre-fix the wrapped products poisoned fanout (0 violates
    // every d >= 2 precondition) and base (0 spins make_chunks forever).
    Machine mach(cfg(64, 8, std::uint64_t{1} << 63));
    const SortBudget b = SortBudget::from(mach);
    EXPECT_EQ(b.fanout, SortBudget::kMaxFanout);
    EXPECT_EQ(b.base, std::numeric_limits<std::size_t>::max());
  }
  {
    Machine mach(cfg(64, 8, UINT64_MAX));
    const SortBudget b = SortBudget::from(mach);
    EXPECT_EQ(b.fanout, SortBudget::kMaxFanout);
    EXPECT_EQ(b.base, std::numeric_limits<std::size_t>::max());
    // A saturated base routes every input to the base case — which must
    // still sort.
    util::Rng rng(17);
    auto keys = util::random_keys(200, rng);
    auto in = stage(mach, keys);
    ExtArray<std::uint64_t> out(mach, keys.size(), "out");
    aem_merge_sort(in, out);
    auto expect = keys;
    std::sort(expect.begin(), expect.end());
    EXPECT_EQ(out.unsafe_host_view(), expect);
  }
}

// --- read-favoring sample sort --------------------------------------------

TEST(LowWriteSampleSortTest, SortsAcrossGeometries) {
  const struct {
    std::size_t M, B, N;
    std::uint64_t w;
  } cases[] = {
      {1024, 16, 20000, 16}, {1024, 16, 65536, 64}, {4096, 16, 40000, 16},
      {256, 8, 5000, 32},    {1024, 16, 1, 16},     {1024, 16, 0, 16},
  };
  for (const auto& c : cases) {
    Machine mach(cfg(c.M, c.B, c.w));
    util::Rng rng(c.N + 31);
    auto keys = util::random_keys(c.N, rng);
    auto in = stage(mach, keys);
    ExtArray<std::uint64_t> out(mach, c.N, "out");
    aem_lowwrite_sample_sort(in, out);
    auto expect = keys;
    std::sort(expect.begin(), expect.end());
    EXPECT_EQ(out.unsafe_host_view(), expect)
        << "M=" << c.M << " B=" << c.B << " N=" << c.N << " w=" << c.w;
    EXPECT_LE(mach.ledger().high_water(), c.M)
        << "M=" << c.M << " B=" << c.B << " N=" << c.N << " w=" << c.w;
  }
}

TEST(LowWriteSampleSortTest, HeavyDuplicatesAndAllEqual) {
  {
    // Tiny alphabet: most splitter candidates collide, so the distinct
    // filter and the depth guard carry the recursion.
    Machine mach(cfg(1024, 16, 16));
    util::Rng rng(37);
    std::vector<std::uint64_t> keys(30000);
    for (auto& k : keys) k = rng.below(4);
    auto in = stage(mach, keys);
    ExtArray<std::uint64_t> out(mach, keys.size(), "out");
    aem_lowwrite_sample_sort(in, out);
    auto expect = keys;
    std::sort(expect.begin(), expect.end());
    EXPECT_EQ(out.unsafe_host_view(), expect);
  }
  {
    // All equal: the sample is fully degenerate (zero distinct splitters)
    // on every level until the depth guard hands off to small_sort.
    Machine mach(cfg(1024, 16, 16));
    std::vector<std::uint64_t> keys(20000, 42);
    auto in = stage(mach, keys);
    ExtArray<std::uint64_t> out(mach, keys.size(), "out");
    aem_lowwrite_sample_sort(in, out);
    EXPECT_EQ(out.unsafe_host_view(), keys);
  }
}

TEST(LowWriteSampleSortTest, CustomComparatorDescending) {
  Machine mach(cfg(1024, 16, 16));
  util::Rng rng(41);
  auto keys = util::random_keys(30000, rng);
  auto in = stage(mach, keys);
  ExtArray<std::uint64_t> out(mach, keys.size(), "out");
  // Non-default Less: exercises the std::upper_bound window fallback.
  aem_lowwrite_sample_sort(in, out, std::greater<std::uint64_t>{});
  auto expect = keys;
  std::sort(expect.begin(), expect.end(), std::greater<std::uint64_t>{});
  EXPECT_EQ(out.unsafe_host_view(), expect);
}

TEST(LowWriteSampleSortTest, OmegaOneChargeIdenticalToSampleSort) {
  util::Rng rng(43);
  auto keys = util::random_keys(30000, rng);

  Machine lw(cfg(1024, 16, 1));
  auto in1 = stage(lw, keys);
  ExtArray<std::uint64_t> out1(lw, keys.size(), "out");
  aem_lowwrite_sample_sort(in1, out1);

  Machine classic(cfg(1024, 16, 1));
  auto in2 = stage(classic, keys);
  ExtArray<std::uint64_t> out2(classic, keys.size(), "out");
  aem_sample_sort(in2, out2);

  EXPECT_EQ(lw.stats(), classic.stats());
  EXPECT_EQ(lw.cost(), classic.cost());
  EXPECT_EQ(out1.unsafe_host_view(), out2.unsafe_host_view());
}

TEST(LowWriteSampleSortTest, TradesReadsForWritesAtHighOmega) {
  // The acceptance inequality: at omega >= 16 on an input that actually
  // distributes (N > omega * M/2), strictly fewer charged writes AND
  // strictly more charged reads than the omega-aware mergesort.
  const std::size_t M = 1024, B = 16, N = 65536;
  const std::uint64_t w = 16;  // base = 8192 < N
  util::Rng rng(47);
  auto keys = util::random_keys(N, rng);

  Machine ms(cfg(M, B, w));
  auto in1 = stage(ms, keys);
  ExtArray<std::uint64_t> out1(ms, N, "out");
  aem_merge_sort(in1, out1);

  Machine lw(cfg(M, B, w));
  auto in2 = stage(lw, keys);
  ExtArray<std::uint64_t> out2(lw, N, "out");
  aem_lowwrite_sample_sort(in2, out2);

  EXPECT_EQ(out1.unsafe_host_view(), out2.unsafe_host_view());
  EXPECT_LT(lw.stats().writes, ms.stats().writes);
  EXPECT_GT(lw.stats().reads, ms.stats().reads);
}

// --- buffered-heap priority queue -----------------------------------------

TEST(BufferedPqTest, InterleavedMatchesStdPriorityQueue) {
  Machine mach(cfg(256, 16, 16));
  ExtPriorityQueue<std::uint64_t> pq(mach, std::less<std::uint64_t>{},
                                     PqTuning::kBuffered);
  ASSERT_EQ(pq.tuning(), PqTuning::kBuffered);  // fanout 64 > m_eff 4
  std::priority_queue<std::uint64_t, std::vector<std::uint64_t>,
                      std::greater<std::uint64_t>>
      ref;
  util::Rng rng(53);
  for (std::size_t step = 0; step < 20000; ++step) {
    if (ref.empty() || rng.below(100) < 60) {
      const std::uint64_t v = rng.next();
      pq.push(v);
      ref.push(v);
    } else {
      ASSERT_EQ(pq.pop_min(), ref.top());
      ref.pop();
    }
    ASSERT_EQ(pq.size(), ref.size());
  }
  while (!ref.empty()) {
    ASSERT_EQ(pq.pop_min(), ref.top());
    ref.pop();
  }
  EXPECT_TRUE(pq.empty());
  EXPECT_LE(mach.ledger().high_water(), 256u);
}

TEST(BufferedPqTest, RefillSurvivorBoundHolds) {
  // min_cap = M/8 = 32 at B = 16 -> head_cap = 2: a refill may keep at most
  // two surviving run cursors resident no matter how many raw runs exist.
  // A full drain after many small flushes exercises the bound (refill
  // throws logic_error if it is ever violated).
  Machine mach(cfg(256, 16, 32));
  ExtPriorityQueue<std::uint64_t> pq(mach, std::less<std::uint64_t>{},
                                     PqTuning::kBuffered);
  util::Rng rng(59);
  auto keys = util::random_keys(20000, rng);
  for (std::uint64_t k : keys) pq.push(k);
  std::sort(keys.begin(), keys.end());
  for (std::uint64_t k : keys) ASSERT_EQ(pq.pop_min(), k);
  EXPECT_TRUE(pq.empty());
}

TEST(BufferedPqTest, DowngradesToLegacyAtOmegaOne) {
  Machine mach(cfg(256, 16, 1));
  ExtPriorityQueue<std::uint64_t> pq(mach, std::less<std::uint64_t>{},
                                     PqTuning::kBuffered);
  EXPECT_EQ(pq.tuning(), PqTuning::kLegacy);  // fanout == m_eff: no gain

  // And the downgrade is charge-identical end to end.
  util::Rng rng(61);
  auto keys = util::random_keys(20000, rng);
  Machine leg(cfg(4096, 16, 1));
  auto in1 = stage(leg, keys);
  ExtArray<std::uint64_t> out1(leg, keys.size(), "out");
  aem_heap_sort(in1, out1, std::less<std::uint64_t>{}, PqTuning::kLegacy);
  Machine buf(cfg(4096, 16, 1));
  auto in2 = stage(buf, keys);
  ExtArray<std::uint64_t> out2(buf, keys.size(), "out");
  aem_heap_sort(in2, out2, std::less<std::uint64_t>{}, PqTuning::kBuffered);
  EXPECT_EQ(leg.stats(), buf.stats());
  EXPECT_EQ(leg.cost(), buf.cost());
  EXPECT_EQ(out1.unsafe_host_view(), out2.unsafe_host_view());
}

TEST(BufferedPqTest, StrictlyFewerWritesThanLegacyAtHighOmega) {
  // M = 4096, B = 16: insert buffer 512, m_eff = 64.  N = 40960 makes 80
  // level-0 runs, so the legacy queue cascades (width 64) and pays a
  // rewrite pass the buffered tuning (width omega * 64 = 1024) absorbs.
  const std::size_t N = 40960;
  util::Rng rng(67);
  auto keys = util::random_keys(N, rng);

  Machine leg(cfg(4096, 16, 16));
  auto in1 = stage(leg, keys);
  ExtArray<std::uint64_t> out1(leg, N, "out");
  aem_heap_sort(in1, out1, std::less<std::uint64_t>{}, PqTuning::kLegacy);

  Machine buf(cfg(4096, 16, 16));
  auto in2 = stage(buf, keys);
  ExtArray<std::uint64_t> out2(buf, N, "out");
  aem_heap_sort(in2, out2, std::less<std::uint64_t>{}, PqTuning::kBuffered);

  EXPECT_EQ(out1.unsafe_host_view(), out2.unsafe_host_view());
  EXPECT_LT(buf.stats().writes, leg.stats().writes);
}

// --- batched store puts ---------------------------------------------------

/// Builds a fence store of `records` inline records with keys
/// 10, 20, 30, ... so the key -> log-page mapping is known by construction
/// (B records per page, in key order).
KvStore known_store(Machine& mach, std::size_t records) {
  std::vector<Slot> slots;
  for (std::size_t i = 0; i < records; ++i)
    slots.push_back(Slot{10 * (i + 1), 1, i});
  ExtArray<Slot> arr(mach, slots.size(), "input.slots");
  arr.unsafe_host_fill(std::span<const Slot>(slots));
  ExtArray<std::uint64_t> payload(mach, 0, "input.payload");
  KvStore kv(mach, StoreConfig{IndexKind::kFence});
  kv.build(arr, payload);
  return kv;
}

TEST(KvStorePutBatchTest, AbsorbsPageGroupsAtOneReadOneWrite) {
  Machine mach(cfg(4096, 16, 8));
  KvStore kv = known_store(mach, 64);  // 4 log pages of B = 16 slots

  using Op = std::pair<std::uint64_t, std::uint64_t>;
  // Eight hits, all on page 0 (keys 10..160): ONE read, ONE write.
  {
    std::vector<Op> ops;
    for (std::uint64_t k = 1; k <= 8; ++k) ops.emplace_back(10 * k, 7000 + k);
    const IoStats before = mach.stats();
    EXPECT_EQ(kv.put_inline_batch(ops), 8u);
    EXPECT_EQ(kv.stats().put_log_reads, 1u);
    EXPECT_EQ(kv.stats().put_writes, 1u);
    const IoStats d = mach.stats() - before;
    EXPECT_EQ(d.reads, 1u);
    EXPECT_EQ(d.writes, 1u);
  }
  // Keys below every stored key: free misses — zero I/O.
  {
    const std::vector<Op> ops = {{1, 1}, {2, 2}, {3, 3}};
    const IoStats before = mach.stats();
    EXPECT_EQ(kv.put_inline_batch(ops), 0u);
    EXPECT_EQ(mach.stats() - before, IoStats{});
    EXPECT_EQ(kv.stats().put_log_reads, 1u);  // unchanged
  }
  // An in-page miss (key 15 falls between 10 and 20) reads its group's page
  // but dirties nothing: one read, zero writes.
  {
    const std::vector<Op> ops = {{15, 9}};
    const IoStats before = mach.stats();
    EXPECT_EQ(kv.put_inline_batch(ops), 0u);
    const IoStats d = mach.stats() - before;
    EXPECT_EQ(d.reads, 1u);
    EXPECT_EQ(d.writes, 0u);
  }
  // Hits on pages 0 and 3 (keys 10 and 640): two groups, 2 reads, 2 writes.
  {
    const std::vector<Op> ops = {{640, 1}, {10, 2}, {20, 3}};
    const IoStats before = mach.stats();
    EXPECT_EQ(kv.put_inline_batch(ops), 3u);
    const IoStats d = mach.stats() - before;
    EXPECT_EQ(d.reads, 2u);
    EXPECT_EQ(d.writes, 2u);
  }
  // The new values are durably in place.
  auto v = kv.get(10);
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ((*v)[0], 2u);
}

TEST(KvStorePutBatchTest, BatchOfOneChargesLikePutInline) {
  for (const std::uint64_t key : {std::uint64_t{30}, std::uint64_t{35},
                                  std::uint64_t{1}}) {  // hit, miss, free miss
    Machine a(cfg(4096, 16, 8));
    KvStore ka = known_store(a, 64);
    Machine b(cfg(4096, 16, 8));
    KvStore kb = known_store(b, 64);

    const IoStats before_a = a.stats();
    const IoStats before_b = b.stats();
    ka.put_inline(key, 99);
    const std::vector<std::pair<std::uint64_t, std::uint64_t>> ops = {
        {key, 99}};
    kb.put_inline_batch(ops);
    EXPECT_EQ(a.stats() - before_a, b.stats() - before_b) << "key=" << key;
    EXPECT_EQ(a.cost(), b.cost()) << "key=" << key;
    EXPECT_EQ(ka.stats(), kb.stats()) << "key=" << key;
  }
}

TEST(KvStorePutBatchTest, CompactIndexFallsBackToSequential) {
  // kCompact cannot place keys host-side; the batch must charge exactly
  // like the per-op loop (same fallback rule as the batched scan path).
  std::vector<Slot> slots;
  for (std::size_t i = 0; i < 64; ++i) slots.push_back(Slot{10 * (i + 1), 1, i});
  auto build = [&](Machine& mach, IndexKind kind) {
    ExtArray<Slot> arr(mach, slots.size(), "input.slots");
    arr.unsafe_host_fill(std::span<const Slot>(slots));
    ExtArray<std::uint64_t> payload(mach, 0, "input.payload");
    KvStore kv(mach, StoreConfig{kind});
    kv.build(arr, payload);
    return kv;
  };
  std::vector<std::pair<std::uint64_t, std::uint64_t>> ops;
  util::Rng rng(71);
  for (std::size_t i = 0; i < 32; ++i)
    ops.emplace_back(10 * (1 + rng.below(64)), rng.next());

  Machine a(cfg(4096, 16, 8));
  KvStore ka = build(a, IndexKind::kCompact);
  const IoStats before_a = a.stats();
  for (const auto& [k, v] : ops) ka.put_inline(k, v);
  const IoStats seq = a.stats() - before_a;

  Machine b(cfg(4096, 16, 8));
  KvStore kb = build(b, IndexKind::kCompact);
  const IoStats before_b = b.stats();
  kb.put_inline_batch(ops);
  EXPECT_EQ(b.stats() - before_b, seq);
  EXPECT_EQ(ka.stats(), kb.stats());
}

/// The randomized property test of the PR: per-op, batched, and
/// batched-on-sharded stores driven through identical put/get/scan
/// interleavings must agree on every result and on every semantic counter —
/// in particular orphaned_words, where a batched put that hits the same
/// spilled slot twice in one group could double-count the stranded payload.
TEST(KvStorePutBatchTest, RandomizedInterleavingsMatchPerOpAndSharded) {
  const std::size_t records = 512;
  util::Rng wrng(73);
  std::vector<Slot> slots;
  std::vector<std::uint64_t> payload;
  std::vector<std::uint64_t> keys;
  for (std::size_t i = 0; i < records; ++i) {
    Slot s;
    s.key = wrng.next() & ~1ull;
    keys.push_back(s.key);
    if (wrng.below(100) < 30) {  // spilled: the orphan fodder
      s.len = 2 + wrng.below(20);
      s.pos = payload.size();
      for (std::uint64_t j = 0; j < s.len; ++j) payload.push_back(wrng.next());
    } else {
      s.len = 1;
      s.pos = wrng.next();
    }
    slots.push_back(s);
  }

  struct Store {
    Machine* mach;
    KvStore kv;
  };
  auto build = [&](Machine& mach) {
    ExtArray<Slot> arr(mach, slots.size(), "input.slots");
    arr.unsafe_host_fill(std::span<const Slot>(slots));
    ExtArray<std::uint64_t> pay(mach, payload.size(), "input.payload");
    pay.unsafe_host_fill(std::span<const std::uint64_t>(payload));
    KvStore kv(mach, StoreConfig{IndexKind::kFence});
    kv.build(arr, pay);
    return kv;
  };

  Machine perop_m(cfg(4096, 16, 8));
  KvStore perop = build(perop_m);
  Machine batch_m(cfg(4096, 16, 8));
  KvStore batch = build(batch_m);
  ShardConfig sc;
  sc.frontend = cfg(4096, 16, 8);
  sc.devices.assign(4, cfg(4096, 16, 8));
  sc.placement = Placement::kRoundRobin;
  ShardedMachine shard_m(sc);
  KvStore shard = build(shard_m);

  util::Rng rng(79);
  auto some_key = [&]() -> std::uint64_t {
    const std::uint64_t r = rng.below(100);
    if (r < 70) return keys[rng.below(keys.size())];
    if (r < 85) return rng.next() | 1;  // guaranteed miss
    return rng.next() & ~1ull;          // maybe-present even key
  };

  for (std::size_t round = 0; round < 40; ++round) {
    const std::uint64_t action = rng.below(100);
    if (action < 50) {
      // A put batch (sometimes repeating a key within the batch, so one
      // page group sees the same slot twice: orphan exactly once).
      std::vector<std::pair<std::uint64_t, std::uint64_t>> ops;
      const std::size_t n = 1 + rng.below(32);
      for (std::size_t i = 0; i < n; ++i) {
        const std::uint64_t key = (!ops.empty() && rng.below(100) < 20)
                                      ? ops[rng.below(ops.size())].first
                                      : some_key();
        ops.emplace_back(key, rng.next());
      }
      std::size_t h1 = 0;
      for (const auto& [k, v] : ops)
        if (perop.put_inline(k, v)) ++h1;
      const std::size_t h2 = batch.put_inline_batch(ops);
      const std::size_t h3 = shard.put_inline_batch(ops);
      ASSERT_EQ(h1, h2) << "round " << round;
      ASSERT_EQ(h2, h3) << "round " << round;
    } else if (action < 85) {
      for (std::size_t i = 0; i < 8; ++i) {
        const std::uint64_t key = some_key();
        const auto a = perop.get(key);
        const auto b = batch.get(key);
        const auto c = shard.get(key);
        ASSERT_EQ(a, b) << "round " << round << " key " << key;
        ASSERT_EQ(b, c) << "round " << round << " key " << key;
      }
    } else {
      std::uint64_t lo = rng.next(), hi = rng.next();
      if (lo > hi) std::swap(lo, hi);
      std::vector<std::pair<std::uint64_t, std::uint64_t>> sa, sb, sc2;
      perop.scan(lo, hi, [&](std::uint64_t k, std::span<const std::uint64_t> v) {
        sa.emplace_back(k, v.empty() ? 0 : v[0]);
      });
      batch.scan(lo, hi, [&](std::uint64_t k, std::span<const std::uint64_t> v) {
        sb.emplace_back(k, v.empty() ? 0 : v[0]);
      });
      shard.scan(lo, hi, [&](std::uint64_t k, std::span<const std::uint64_t> v) {
        sc2.emplace_back(k, v.empty() ? 0 : v[0]);
      });
      ASSERT_EQ(sa, sb) << "round " << round;
      ASSERT_EQ(sb, sc2) << "round " << round;
    }
  }

  // Semantic counters agree everywhere; the batched paths never charge
  // MORE log I/O than per-op, and the sharded facade is charge-identical
  // to the plain batched machine.
  const StoreStats& a = perop.stats();
  const StoreStats& b = batch.stats();
  const StoreStats& c = shard.stats();
  EXPECT_EQ(a.puts, b.puts);
  EXPECT_EQ(a.put_hits, b.put_hits);
  EXPECT_EQ(a.orphaned_words, b.orphaned_words);
  EXPECT_EQ(a.gets, b.gets);
  EXPECT_EQ(a.get_hits, b.get_hits);
  EXPECT_EQ(a.scans, b.scans);
  EXPECT_EQ(a.scan_records, b.scan_records);
  EXPECT_LE(b.put_log_reads, a.put_log_reads);
  EXPECT_LE(b.put_writes, a.put_writes);
  EXPECT_EQ(b, c);  // full facade invariance, field for field
  EXPECT_EQ(batch_m.stats(), shard_m.stats());
  EXPECT_EQ(batch_m.cost(), shard_m.cost());
}

}  // namespace
