// Tests for store/: the Elias–Fano sequence coder and the external-memory
// KV object store — round-trips against host mirrors for both index
// flavors, duplicate (upsert) semantics, spilled payloads, scan ranges,
// charged-cost and ledger discipline, cache interaction, fault-injection
// round-trips, facade invariance on a sharded machine, and golden pins of
// the store's charges, traces and scan results.
#include <gtest/gtest.h>

#include <algorithm>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <map>
#include <numeric>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "core/ext_array.hpp"
#include "core/faults.hpp"
#include "core/machine.hpp"
#include "core/metrics.hpp"
#include "core/sharding.hpp"
#include "core/trace.hpp"
#include "store/elias_fano.hpp"
#include "store/kv_store.hpp"
#include "util/rng.hpp"

namespace {

using namespace aem;
using store::EliasFano;
using store::IndexKind;
using store::KvStore;
using store::Slot;
using store::StoreConfig;

Config cfg(std::size_t M, std::size_t B, std::uint64_t w) {
  Config c;
  c.memory_elems = M;
  c.block_elems = B;
  c.write_cost = w;
  return c;
}

// --- Elias–Fano ----------------------------------------------------------

std::vector<std::uint64_t> monotone_values(std::size_t n, unsigned bits,
                                           std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<std::uint64_t> v(n);
  const std::uint64_t mask =
      bits >= 64 ? ~0ull : ((1ull << bits) - 1);
  for (auto& x : v) x = rng.next() & mask;
  std::sort(v.begin(), v.end());
  return v;
}

TEST(EliasFanoTest, AccessRoundTrips) {
  for (unsigned bits : {1u, 7u, 16u, 40u, 64u}) {
    const auto v = monotone_values(257, bits, 11 + bits);
    EliasFano ef(v, bits);
    ASSERT_EQ(ef.size(), v.size());
    for (std::size_t i = 0; i < v.size(); ++i)
      EXPECT_EQ(ef.access(i), v[i]) << "bits=" << bits << " i=" << i;
  }
}

TEST(EliasFanoTest, PredecessorMatchesReference) {
  const unsigned bits = 20;
  const auto v = monotone_values(300, bits, 42);
  EliasFano ef(v, bits);
  util::Rng rng(7);
  auto reference = [&](std::uint64_t q) -> std::size_t {
    auto it = std::upper_bound(v.begin(), v.end(), q);
    if (it == v.begin()) return EliasFano::npos;
    return static_cast<std::size_t>(it - v.begin()) - 1;
  };
  for (int t = 0; t < 2000; ++t) {
    const std::uint64_t q = rng.next() & ((1ull << bits) - 1);
    EXPECT_EQ(ef.predecessor(q), reference(q)) << "q=" << q;
  }
  // Exact values and off-by-ones.
  for (std::size_t i = 0; i < v.size(); i += 13) {
    EXPECT_EQ(ef.access(ef.predecessor(v[i])), v[i]);
    if (v[i] > 0) {
      EXPECT_EQ(ef.predecessor(v[i] - 1), reference(v[i] - 1));
    }
  }
}

TEST(EliasFanoTest, EmptyAndSingle) {
  EliasFano empty(std::vector<std::uint64_t>{}, 16);
  EXPECT_EQ(empty.size(), 0u);
  EXPECT_EQ(empty.bits(), 0u);
  EXPECT_EQ(empty.predecessor(123), EliasFano::npos);

  EliasFano one(std::vector<std::uint64_t>{9}, 16);
  EXPECT_EQ(one.access(0), 9u);
  EXPECT_EQ(one.predecessor(8), EliasFano::npos);
  EXPECT_EQ(one.predecessor(9), 0u);
  EXPECT_EQ(one.predecessor(1000), 0u);
}

TEST(EliasFanoTest, DuplicateValuesAreKeptAndPredecessorReturnsLast) {
  const std::vector<std::uint64_t> v = {3, 3, 3, 7, 7, 20};
  EliasFano ef(v, 8);
  for (std::size_t i = 0; i < v.size(); ++i) EXPECT_EQ(ef.access(i), v[i]);
  EXPECT_EQ(ef.predecessor(3), 2u);
  EXPECT_EQ(ef.predecessor(7), 4u);
  EXPECT_EQ(ef.predecessor(19), 4u);
  EXPECT_EQ(ef.predecessor(20), 5u);
}

TEST(EliasFanoTest, RejectsBadInput) {
  EXPECT_THROW(EliasFano({2, 1}, 8), std::invalid_argument);
  EXPECT_THROW(EliasFano({255, 256}, 8), std::invalid_argument);
  EXPECT_THROW(EliasFano({0}, 0), std::invalid_argument);
  EXPECT_THROW(EliasFano({0}, 65), std::invalid_argument);
}

TEST(EliasFanoTest, CompressesToFewBitsPerValue) {
  // Universe 2^(log2 n + 8): the coder should land near 2 + 8 bits/value,
  // far below the 64 of an explicit array.
  const std::size_t n = 1024;
  const unsigned bits = 10 + 8;
  const auto v = monotone_values(n, bits, 3);
  EliasFano ef(v, bits);
  EXPECT_LE(ef.bits(), (2 + 8 + 1) * n);
  EXPECT_LT(ef.bits(), 64 * n / 4);
}

// --- KV store ------------------------------------------------------------

struct Dataset {
  std::vector<Slot> slots;             // input order (insertion order)
  std::vector<std::uint64_t> payload;  // words spilled slots point into
  // Reference: key -> value of the LAST record with that key (upsert).
  std::map<std::uint64_t, std::vector<std::uint64_t>> latest;
};

/// Random records: ~10% empty values, ~55% inline, rest spilled at
/// 2..max_spill words; one in `dup_one_in` (default ~20%) duplicates an
/// earlier key.  Keys are even so key|1 is a guaranteed miss.
Dataset make_dataset(std::size_t n, std::uint64_t seed,
                     std::size_t max_spill = 40,
                     std::uint64_t dup_one_in = 5) {
  util::Rng rng(seed);
  Dataset d;
  d.slots.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    std::uint64_t key;
    if (i > 0 && rng.below(dup_one_in) == 0) {
      key = d.slots[rng.below(i)].key;  // duplicate
    } else {
      key = rng.next() & ~1ull;
    }
    const std::uint64_t kind = rng.below(100);
    Slot s;
    s.key = key;
    std::vector<std::uint64_t> value;
    if (kind < 10) {
      s.len = 0;
      s.pos = 0;
    } else if (kind < 65) {
      s.len = 1;
      s.pos = rng.next();
      value.push_back(s.pos);
    } else {
      s.len = 2 + rng.below(max_spill - 1);
      s.pos = d.payload.size();
      for (std::uint64_t w = 0; w < s.len; ++w) {
        const std::uint64_t word = rng.next();
        d.payload.push_back(word);
        value.push_back(word);
      }
    }
    d.latest[key] = value;
    d.slots.push_back(s);
  }
  return d;
}

/// Stages a dataset into machine-owned input arrays (uncharged: inputs in
/// external memory are the problem statement).
std::pair<ExtArray<Slot>, ExtArray<std::uint64_t>> stage(Machine& mach,
                                                         const Dataset& d) {
  ExtArray<Slot> slots(mach, d.slots.size(), "input.slots");
  slots.unsafe_host_fill(std::span<const Slot>(d.slots));
  ExtArray<std::uint64_t> payload(mach, d.payload.size(), "input.payload");
  payload.unsafe_host_fill(std::span<const std::uint64_t>(d.payload));
  return {std::move(slots), std::move(payload)};
}

/// All records with lo <= key <= hi in key order, duplicates in input
/// order — what scan() must visit.
std::vector<std::pair<std::uint64_t, std::vector<std::uint64_t>>>
expected_range(const Dataset& d, std::uint64_t lo, std::uint64_t hi) {
  std::vector<std::size_t> idx(d.slots.size());
  std::iota(idx.begin(), idx.end(), 0);
  std::stable_sort(idx.begin(), idx.end(), [&](std::size_t a, std::size_t b) {
    return d.slots[a].key < d.slots[b].key;
  });
  std::vector<std::pair<std::uint64_t, std::vector<std::uint64_t>>> out;
  for (std::size_t i : idx) {
    const Slot& s = d.slots[i];
    if (s.key < lo || s.key > hi) continue;
    std::vector<std::uint64_t> value;
    if (s.len == 1) {
      value.push_back(s.pos);
    } else if (s.len >= 2) {
      for (std::uint64_t w = 0; w < s.len; ++w)
        value.push_back(d.payload[s.pos + w]);
    }
    out.emplace_back(s.key, std::move(value));
  }
  return out;
}

void round_trip(IndexKind kind, std::size_t n, std::uint64_t seed) {
  Machine mach(cfg(4096, 16, 8));
  const Dataset d = make_dataset(n, seed);
  auto [slots, payload] = stage(mach, d);
  KvStore kv(mach, StoreConfig{kind, 8});
  kv.build(slots, payload);
  EXPECT_EQ(kv.records(), n);

  // Every latest-version key is found with its latest value.
  for (const auto& [key, value] : d.latest) {
    const auto got = kv.get(key);
    ASSERT_TRUE(got.has_value()) << to_string(kind) << " key=" << key;
    EXPECT_EQ(*got, value) << to_string(kind) << " key=" << key;
  }
  // Odd keys were never inserted.
  util::Rng rng(seed ^ 0x9e3779b97f4a7c15ull);
  for (int t = 0; t < 64; ++t)
    EXPECT_FALSE(kv.get(rng.next() | 1).has_value());

  const auto& st = kv.stats();
  EXPECT_EQ(st.gets, d.latest.size() + 64);
  EXPECT_EQ(st.get_hits, d.latest.size());

  // Scans: full range and a few random windows.
  auto check_scan = [&](std::uint64_t lo, std::uint64_t hi) {
    std::vector<std::pair<std::uint64_t, std::vector<std::uint64_t>>> seen;
    kv.scan(lo, hi, [&](std::uint64_t key,
                        std::span<const std::uint64_t> value) {
      seen.emplace_back(key,
                        std::vector<std::uint64_t>(value.begin(), value.end()));
    });
    EXPECT_EQ(seen, expected_range(d, lo, hi))
        << to_string(kind) << " scan [" << lo << ", " << hi << "]";
  };
  check_scan(0, ~0ull);
  for (int t = 0; t < 8; ++t) {
    std::uint64_t lo = rng.next(), hi = rng.next();
    if (lo > hi) std::swap(lo, hi);
    check_scan(lo, hi);
  }
}

TEST(KvStoreTest, FenceRoundTrip) { round_trip(IndexKind::kFence, 600, 1); }
TEST(KvStoreTest, CompactRoundTrip) {
  round_trip(IndexKind::kCompact, 600, 2);
}
TEST(KvStoreTest, FenceRoundTripLarger) {
  round_trip(IndexKind::kFence, 2000, 3);
}
TEST(KvStoreTest, CompactRoundTripLarger) {
  round_trip(IndexKind::kCompact, 2000, 4);
}

TEST(KvStoreTest, EmptyAndSingleRecord) {
  for (IndexKind kind : {IndexKind::kFence, IndexKind::kCompact}) {
    Machine mach(cfg(4096, 16, 4));
    ExtArray<Slot> none(mach, 0, "input.slots");
    ExtArray<std::uint64_t> nopay(mach, 0, "input.payload");
    KvStore empty(mach, StoreConfig{kind, 8});
    empty.build(none, nopay);
    EXPECT_FALSE(empty.get(7).has_value());
    EXPECT_EQ(empty.scan(0, ~0ull, [](auto, auto) {}), 0u);

    ExtArray<Slot> one(mach, 1, "input.one");
    const Slot s{42, 1, 777};
    one.unsafe_host_fill(std::span<const Slot>(&s, 1));
    KvStore single(mach, StoreConfig{kind, 8});
    single.build(one, nopay);
    ASSERT_TRUE(single.get(42).has_value());
    EXPECT_EQ(*single.get(42), std::vector<std::uint64_t>{777});
    EXPECT_FALSE(single.get(41).has_value());
    EXPECT_FALSE(single.get(43).has_value());
  }
}

TEST(KvStoreTest, EmptyStoreGetChargesNothingAndInvertedScanIsFree) {
  for (IndexKind kind : {IndexKind::kFence, IndexKind::kCompact}) {
    Machine mach(cfg(4096, 16, 4));
    ExtArray<Slot> none(mach, 0, "input.slots");
    ExtArray<std::uint64_t> nopay(mach, 0, "input.payload");
    KvStore kv(mach, StoreConfig{kind, 8});
    kv.build(none, nopay);

    const IoStats before = mach.stats();
    EXPECT_FALSE(kv.get(0).has_value());
    EXPECT_FALSE(kv.get(~0ull).has_value());
    // An empty store has no page that could hold any key: the miss must be
    // decided from the (resident) index alone, with zero charged I/O.
    EXPECT_EQ(mach.stats(), before);

    // lo > hi is an empty range, not an error — and also free.
    std::size_t visited = 0;
    EXPECT_EQ(kv.scan(10, 5, [&](auto, auto) { ++visited; }), 0u);
    EXPECT_EQ(visited, 0u);
    EXPECT_EQ(mach.stats(), before);
  }
}

TEST(KvStoreTest, InvertedScanRangeVisitsNothingOnPopulatedStore) {
  Machine mach(cfg(4096, 16, 4));
  const std::vector<Slot> slots = {Slot{10, 1, 1}, Slot{20, 1, 2},
                                   Slot{30, 1, 3}};
  ExtArray<Slot> in(mach, slots.size(), "input.slots");
  in.unsafe_host_fill(std::span<const Slot>(slots));
  ExtArray<std::uint64_t> nopay(mach, 0, "input.payload");
  for (IndexKind kind : {IndexKind::kFence, IndexKind::kCompact}) {
    KvStore kv(mach, StoreConfig{kind, 8});
    kv.build(in, nopay);
    std::size_t visited = 0;
    EXPECT_EQ(kv.scan(25, 15, [&](auto, auto) { ++visited; }), 0u);
    EXPECT_EQ(visited, 0u);
    // Degenerate single-point ranges still work on either side.
    EXPECT_EQ(kv.scan(20, 20, [&](auto, auto) { ++visited; }), 1u);
    EXPECT_EQ(visited, 1u);
  }
}

// Regression: get/scan at exactly the minimum key must not underflow the
// locate_page(lo - 1) probe — including when the minimum key is 0, where
// lo - 1 would wrap to 2^64 - 1 and "find" the last page.
TEST(KvStoreTest, MinimumKeyBoundaryHasNoUnderflow) {
  for (const std::uint64_t min_key : {0ull, 5ull}) {
    const std::vector<Slot> slots = {Slot{min_key, 1, 100},
                                     Slot{min_key + 7, 1, 101},
                                     Slot{min_key + 9, 1, 102}};
    for (IndexKind kind : {IndexKind::kFence, IndexKind::kCompact}) {
      Machine mach(cfg(4096, 16, 4));
      ExtArray<Slot> in(mach, slots.size(), "input.slots");
      in.unsafe_host_fill(std::span<const Slot>(slots));
      ExtArray<std::uint64_t> nopay(mach, 0, "input.payload");
      KvStore kv(mach, StoreConfig{kind, 8});
      kv.build(in, nopay);

      ASSERT_TRUE(kv.get(min_key).has_value()) << "min_key=" << min_key;
      EXPECT_EQ(*kv.get(min_key), std::vector<std::uint64_t>{100});
      std::vector<std::uint64_t> seen;
      kv.scan(min_key, min_key + 9,
              [&](std::uint64_t, std::span<const std::uint64_t> v) {
                seen.push_back(v[0]);
              });
      EXPECT_EQ(seen, (std::vector<std::uint64_t>{100, 101, 102}));
      // A scan FROM the minimum key (lo - 1 < every key) starts at page 0.
      seen.clear();
      kv.scan(min_key, min_key, [&](std::uint64_t,
                                    std::span<const std::uint64_t> v) {
        seen.push_back(v[0]);
      });
      EXPECT_EQ(seen, std::vector<std::uint64_t>{100});
    }
  }
}

TEST(KvStoreTest, DuplicateKeysLastInsertWins) {
  Machine mach(cfg(4096, 16, 4));
  // 100 versions of the same key interleaved with filler, then a final one.
  std::vector<Slot> slots;
  for (std::uint64_t i = 0; i < 100; ++i) {
    slots.push_back(Slot{1000, 1, i});      // version i of key 1000
    slots.push_back(Slot{2 * i, 1, i * 3});  // filler
  }
  ExtArray<Slot> in(mach, slots.size(), "input.slots");
  in.unsafe_host_fill(std::span<const Slot>(slots));
  ExtArray<std::uint64_t> nopay(mach, 0, "input.payload");
  for (IndexKind kind : {IndexKind::kFence, IndexKind::kCompact}) {
    KvStore kv(mach, StoreConfig{kind, 8});
    kv.build(in, nopay);
    ASSERT_TRUE(kv.get(1000).has_value());
    EXPECT_EQ(*kv.get(1000), std::vector<std::uint64_t>{99});
    // A scan still visits every version, oldest first.
    std::vector<std::uint64_t> versions;
    kv.scan(1000, 1000, [&](std::uint64_t, std::span<const std::uint64_t> v) {
      versions.push_back(v[0]);
    });
    ASSERT_EQ(versions.size(), 100u);
    for (std::uint64_t i = 0; i < 100; ++i) EXPECT_EQ(versions[i], i);
  }
}

TEST(KvStoreTest, EmptyValueIsPresentButEmpty) {
  Machine mach(cfg(4096, 16, 4));
  const std::vector<Slot> slots = {Slot{10, 0, 0}, Slot{20, 1, 5}};
  ExtArray<Slot> in(mach, slots.size(), "input.slots");
  in.unsafe_host_fill(std::span<const Slot>(slots));
  ExtArray<std::uint64_t> nopay(mach, 0, "input.payload");
  KvStore kv(mach);
  kv.build(in, nopay);
  const auto got = kv.get(10);
  ASSERT_TRUE(got.has_value());
  EXPECT_TRUE(got->empty());
}

TEST(KvStoreTest, FenceGetIsOneLogReadAndChargedAccordingly) {
  // All-inline store, no cache: a fence get is exactly one charged log
  // read (plus zero payload reads), the figure MODEL.md section 14 claims.
  Machine mach(cfg(4096, 16, 8));
  const Dataset d = make_dataset(512, 5, /*max_spill=*/2);
  std::vector<Slot> inline_slots = d.slots;
  for (Slot& s : inline_slots)
    if (s.len >= 2) {
      s.len = 1;
      s.pos = 123;
    }
  ExtArray<Slot> in(mach, inline_slots.size(), "input.slots");
  in.unsafe_host_fill(std::span<const Slot>(inline_slots));
  ExtArray<std::uint64_t> nopay(mach, 0, "input.payload");
  KvStore kv(mach, StoreConfig{IndexKind::kFence, 8});
  kv.build(in, nopay);

  util::Rng rng(17);
  for (int t = 0; t < 128; ++t) {
    const std::uint64_t key = inline_slots[rng.below(inline_slots.size())].key;
    const IoStats before = mach.stats();
    ASSERT_TRUE(kv.get(key).has_value());
    const IoStats after = mach.stats();
    EXPECT_LE(after.reads - before.reads, 1u);
    EXPECT_EQ(after.writes, before.writes);
  }
  EXPECT_EQ(kv.stats().max_get_log_reads, 1u);
}

TEST(KvStoreTest, CompactIndexIsSmallerAtBoundedExtraReads) {
  Machine mach(cfg(4096, 16, 8));
  const Dataset d = make_dataset(2000, 6);
  auto [slots, payload] = stage(mach, d);
  KvStore fence(mach, StoreConfig{IndexKind::kFence, 8});
  fence.build(slots, payload);
  KvStore compact(mach, StoreConfig{IndexKind::kCompact, 8});
  compact.build(slots, payload);

  // Strictly fewer index bits...
  EXPECT_LT(compact.index_bits(), fence.index_bits());
  EXPECT_EQ(fence.index_bits(), fence.log_blocks() * 64u);

  // ...at a query cost that stays within the fence index's bound plus the
  // (rare) quantization-collision walk.
  util::Rng rng(23);
  for (int t = 0; t < 256; ++t) {
    const std::uint64_t key = d.slots[rng.below(d.slots.size())].key;
    ASSERT_TRUE(compact.get(key).has_value());
    ASSERT_TRUE(fence.get(key).has_value());
  }
  EXPECT_EQ(fence.stats().max_get_log_reads, 1u);
  EXPECT_LE(compact.stats().max_get_log_reads, 2u);
  // On average the compact index is still ~1 read per get.
  EXPECT_LE(compact.stats().get_log_reads,
            compact.stats().gets + compact.stats().gets / 4);
}

TEST(KvStoreTest, IndexIsChargedToLedgerAndReleasedOnDestruction) {
  Machine mach(cfg(4096, 16, 8));
  const Dataset d = make_dataset(1500, 7);
  const std::size_t baseline = mach.ledger().used();
  {
    auto [slots, payload] = stage(mach, d);
    KvStore fence(mach, StoreConfig{IndexKind::kFence, 8});
    fence.build(slots, payload);
    // The padded Eytzinger fence layout is resident for the store's
    // lifetime: at least one word per log page, under 2n + 1.
    EXPECT_EQ(mach.ledger().used(), baseline + fence.index_resident_words());
    EXPECT_GE(fence.index_resident_words(), fence.log_blocks());
    EXPECT_LT(fence.index_resident_words(), 2 * fence.log_blocks() + 2);

    KvStore compact(mach, StoreConfig{IndexKind::kCompact, 8});
    compact.build(slots, payload);
    EXPECT_EQ(mach.ledger().used(), baseline + fence.index_resident_words() +
                                        compact.index_resident_words());
    // The compact structure occupies fewer words than one fence per page.
    EXPECT_LT(compact.index_resident_words(), fence.log_blocks());
  }
  EXPECT_EQ(mach.ledger().used(), baseline);
  EXPECT_FALSE(mach.ledger_poisoned());
}

TEST(KvStoreTest, BuildFlushesCacheBeforeReportingCost) {
  Config c = cfg(4096, 16, 8);
  c.cache.capacity_blocks = 32;
  Machine mach(c);
  const Dataset d = make_dataset(800, 8);
  auto [slots, payload] = stage(mach, d);
  KvStore kv(mach, StoreConfig{IndexKind::kFence, 8});
  kv.build(slots, payload);
  // flush_cache() semantics hold before any cost read: nothing dirty is
  // hiding deferred construction writes from build_cost().
  EXPECT_EQ(mach.cache()->resident_dirty(), 0u);
  EXPECT_GT(kv.build_writes(), 0u);
  EXPECT_GE(kv.build_cost(),
            kv.build_reads() + mach.omega() * kv.build_writes());
}

TEST(KvStoreTest, CacheMakesRepeatGetsFree) {
  Config c = cfg(4096, 16, 8);
  c.cache.capacity_blocks = 64;
  Machine mach(c);
  const Dataset d = make_dataset(400, 9);
  auto [slots, payload] = stage(mach, d);
  KvStore kv(mach, StoreConfig{IndexKind::kFence, 8});
  kv.build(slots, payload);
  const std::uint64_t key = d.latest.begin()->first;
  const auto first = kv.get(key);
  const IoStats before = mach.stats();
  const auto second = kv.get(key);
  const IoStats after = mach.stats();
  EXPECT_EQ(first, second);
  // The page (and any payload blocks) are resident now: zero charged I/O.
  EXPECT_EQ(after.reads, before.reads);
  EXPECT_EQ(after.writes, before.writes);
}

TEST(KvStoreTest, MetricsSectionReflectsStoreState) {
  Machine mach(cfg(4096, 16, 8));
  const Dataset d = make_dataset(300, 10);
  auto [slots, payload] = stage(mach, d);
  KvStore kv(mach, StoreConfig{IndexKind::kCompact, 8});
  kv.build(slots, payload);
  kv.get(d.latest.begin()->first);
  kv.scan(0, ~0ull, [](auto, auto) {});

  MetricsSnapshot snap = snapshot_metrics(mach, "store-case");
  EXPECT_FALSE(snap.store.enabled);  // the machine knows nothing of stores
  snap.store = kv.metrics_section();
  EXPECT_TRUE(snap.store.enabled);
  EXPECT_EQ(snap.store.index, "compact");
  EXPECT_EQ(snap.store.records, kv.records());
  EXPECT_EQ(snap.store.log_blocks, kv.log_blocks());
  EXPECT_EQ(snap.store.index_bits, kv.index_bits());
  EXPECT_EQ(snap.store.stats.gets, 1u);
  EXPECT_EQ(snap.store.stats.scans, 1u);
  EXPECT_EQ(snap.store.stats.scan_records, kv.records());
  const std::string j = to_json(snap);
  EXPECT_NE(j.find(MetricsSnapshot::kSchema), std::string::npos);
  EXPECT_NE(j.find("\"store\":{\"enabled\":true,\"index\":\"compact\""),
            std::string::npos);
}

// The sort phase charges the sort alone, durable or not: the layout pass
// is billed to store.build.layout, never to both phases.
TEST(KvStoreTest, SortPhaseIsTheSameDurableOrNot) {
  const Dataset d = make_dataset(800, 12);
  std::vector<IoStats> sort_io;
  for (std::size_t interval : {0, 4}) {
    Machine mach(cfg(4096, 16, 8));
    auto [slots, payload] = stage(mach, d);
    KvStore kv(mach, StoreConfig{IndexKind::kFence, 8, interval});
    kv.build(slots, payload);
    for (const PhaseMetrics& p : snapshot_metrics(mach).phases)
      if (p.name == "store.build.sort") sort_io.push_back(p.io);
  }
  ASSERT_EQ(sort_io.size(), 2u);
  EXPECT_GT(sort_io[0].writes, 0u);
  EXPECT_EQ(sort_io[0], sort_io[1]);
}

TEST(KvStoreTest, RebuildAndUnbuiltUseThrow) {
  Machine mach(cfg(4096, 16, 4));
  KvStore kv(mach);
  EXPECT_THROW(kv.get(1), std::logic_error);
  EXPECT_THROW(kv.scan(0, 1, [](auto, auto) {}), std::logic_error);
  ExtArray<Slot> none(mach, 0, "input.slots");
  ExtArray<std::uint64_t> nopay(mach, 0, "input.payload");
  kv.build(none, nopay);
  EXPECT_THROW(kv.build(none, nopay), std::logic_error);
}

TEST(KvStoreFaultTest, RoundTripsOnAFaultyDevice) {
  const Dataset d = make_dataset(500, 11);
  for (const std::uint64_t seed : {99, 7, 11}) {
    SCOPED_TRACE(seed);
    Machine mach(cfg(4096, 16, 8));
    FaultConfig fc;
    fc.seed = seed;
    fc.read_fault_rate = 0.02;
    fc.silent_write_rate = 0.01;
    fc.torn_write_rate = 0.01;
    fc.max_retries = 16;
    mach.install_faults(fc);

    auto [slots, payload] = stage(mach, d);
    KvStore kv(mach, StoreConfig{IndexKind::kCompact, 8});
    kv.build(slots, payload);
    for (const auto& [key, value] : d.latest) {
      const auto got = kv.get(key);
      ASSERT_TRUE(got.has_value()) << "key=" << key;
      EXPECT_EQ(*got, value);
    }
    // Recovery work actually happened and was charged.
    EXPECT_GT(mach.faults()->stats().read_retries +
                  mach.faults()->stats().write_retries,
              0u);
  }
}

TEST(KvStoreShardTest, FacadeInvariantAcrossPlainAndShardedMachines) {
  const Dataset d = make_dataset(700, 12);

  Machine plain(cfg(4096, 16, 8));
  auto [ps, pp] = stage(plain, d);
  KvStore pkv(plain, StoreConfig{IndexKind::kFence, 8});
  pkv.build(ps, pp);

  ShardConfig sc;
  sc.frontend = cfg(4096, 16, 8);
  for (int i = 0; i < 4; ++i) sc.devices.push_back(cfg(4096, 16, 8));
  sc.placement = Placement::kRoundRobin;
  ShardedMachine sharded(sc);
  auto [ss, sp] = stage(sharded, d);
  KvStore skv(sharded, StoreConfig{IndexKind::kFence, 8});
  skv.build(ss, sp);

  // Facade invariance: identical frontend counters and store figures.
  EXPECT_EQ(pkv.build_reads(), skv.build_reads());
  EXPECT_EQ(pkv.build_writes(), skv.build_writes());
  EXPECT_EQ(pkv.build_cost(), skv.build_cost());

  util::Rng rng(13);
  for (int t = 0; t < 100; ++t) {
    const std::uint64_t key = d.slots[rng.below(d.slots.size())].key;
    EXPECT_EQ(pkv.get(key), skv.get(key));
  }
  EXPECT_EQ(plain.stats().reads, sharded.stats().reads);
  EXPECT_EQ(plain.stats().writes, sharded.stats().writes);
  EXPECT_EQ(pkv.stats(), skv.stats());

  // Device conservation: native transfers sum to the frontend counts
  // (equal geometry: amplification 1).
  EXPECT_EQ(sharded.devices_stats().reads, sharded.stats().reads);
  EXPECT_EQ(sharded.devices_stats().writes, sharded.stats().writes);
}

// --- put_inline (the serving write path) ---------------------------------

TEST(KvStorePutTest, PutInlineChargesOneReadModifyWrite) {
  // All-inline store, cache 0: an in-place put is exactly one log read plus
  // one log write, Q = 1 + omega.
  const std::uint64_t omega = 8;
  Machine mach(cfg(4096, 16, omega));
  util::Rng rng(51);
  std::vector<Slot> slots;
  for (std::size_t i = 0; i < 300; ++i)
    slots.push_back(Slot{2 * i, 1, rng.next()});
  ExtArray<Slot> in(mach, slots.size(), "input.slots");
  in.unsafe_host_fill(std::span<const Slot>(slots));
  ExtArray<std::uint64_t> nopay(mach, 0, "input.payload");
  KvStore kv(mach, StoreConfig{IndexKind::kFence, 8});
  kv.build(in, nopay);

  const IoStats before = mach.stats();
  const std::uint64_t cost_before = mach.cost();
  EXPECT_TRUE(kv.put_inline(100, 0xdecaf));
  EXPECT_EQ(mach.stats().reads - before.reads, 1u);
  EXPECT_EQ(mach.stats().writes - before.writes, 1u);
  EXPECT_EQ(mach.cost() - cost_before, 1 + omega);
  const auto got = kv.get(100);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, std::vector<std::uint64_t>{0xdecaf});

  // An absent key charges the probe read(s) but writes nothing.
  const IoStats miss_before = mach.stats();
  EXPECT_FALSE(kv.put_inline(101, 1));  // odd keys are never present
  EXPECT_EQ(mach.stats().writes, miss_before.writes);
  EXPECT_GE(mach.stats().reads - miss_before.reads, 1u);

  EXPECT_EQ(kv.stats().puts, 2u);
  EXPECT_EQ(kv.stats().put_hits, 1u);
  EXPECT_EQ(kv.stats().put_writes, 1u);
  EXPECT_GE(kv.stats().put_log_reads, 2u);
  EXPECT_EQ(kv.stats().orphaned_words, 0u);
}

TEST(KvStorePutTest, PutInlineOrphansSpilledValuesAndScansSeeTheUpdate) {
  Machine mach(cfg(4096, 16, 8));
  std::vector<Slot> slots;
  std::vector<std::uint64_t> payload;
  // Keys 0..99 (x2): key 40 spills 5 words, everything else is inline.
  for (std::size_t i = 0; i < 100; ++i) {
    if (i == 20) {
      Slot s{2 * i, 5, payload.size()};
      for (int w = 0; w < 5; ++w) payload.push_back(1000 + w);
      slots.push_back(s);
    } else {
      slots.push_back(Slot{2 * i, 1, i});
    }
  }
  ExtArray<Slot> in(mach, slots.size(), "input.slots");
  in.unsafe_host_fill(std::span<const Slot>(slots));
  ExtArray<std::uint64_t> pay(mach, payload.size(), "input.payload");
  pay.unsafe_host_fill(std::span<const std::uint64_t>(payload));
  KvStore kv(mach, StoreConfig{IndexKind::kFence, 8});
  kv.build(in, pay);

  ASSERT_EQ(kv.get(40)->size(), 5u);
  EXPECT_TRUE(kv.put_inline(40, 7));
  EXPECT_EQ(kv.stats().orphaned_words, 5u);
  EXPECT_EQ(*kv.get(40), std::vector<std::uint64_t>{7});

  // Scans serve the updated record too (the log itself was rewritten).
  std::map<std::uint64_t, std::vector<std::uint64_t>> seen;
  kv.scan(0, ~0ull, [&](std::uint64_t key,
                        std::span<const std::uint64_t> value) {
    seen[key] = std::vector<std::uint64_t>(value.begin(), value.end());
  });
  EXPECT_EQ(seen.at(40), std::vector<std::uint64_t>{7});
  EXPECT_EQ(seen.size(), 100u);
}

TEST(KvStorePutTest, PutInlineUpdatesTheLastDuplicate) {
  // Three records share key 10; get() serves the LAST insert, so put must
  // update that one for upsert semantics to survive.
  Machine mach(cfg(4096, 16, 8));
  std::vector<Slot> slots = {Slot{10, 1, 111}, Slot{4, 1, 4},
                             Slot{10, 1, 222}, Slot{10, 1, 333},
                             Slot{30, 1, 30}};
  ExtArray<Slot> in(mach, slots.size(), "input.slots");
  in.unsafe_host_fill(std::span<const Slot>(slots));
  ExtArray<std::uint64_t> nopay(mach, 0, "input.payload");
  KvStore kv(mach, StoreConfig{IndexKind::kFence, 8});
  kv.build(in, nopay);

  ASSERT_EQ(*kv.get(10), std::vector<std::uint64_t>{333});
  EXPECT_TRUE(kv.put_inline(10, 444));
  EXPECT_EQ(*kv.get(10), std::vector<std::uint64_t>{444});
  EXPECT_EQ(*kv.get(4), std::vector<std::uint64_t>{4});
  EXPECT_EQ(*kv.get(30), std::vector<std::uint64_t>{30});
}

TEST(KvStorePutTest, PutInlineOnEmptyStoreAndBoundaryKeys) {
  Machine mach(cfg(4096, 16, 8));
  ExtArray<Slot> none(mach, 0, "input.slots");
  ExtArray<std::uint64_t> nopay(mach, 0, "input.payload");
  KvStore kv(mach, StoreConfig{IndexKind::kFence, 8});
  kv.build(none, nopay);
  EXPECT_FALSE(kv.put_inline(0, 1));
  EXPECT_FALSE(kv.put_inline(~0ull, 1));
  EXPECT_EQ(kv.stats().puts, 2u);
  EXPECT_EQ(kv.stats().put_hits, 0u);
  EXPECT_EQ(kv.stats().put_writes, 0u);

  // A key below the whole store never touches the log.
  Machine mach2(cfg(4096, 16, 8));
  std::vector<Slot> slots = {Slot{100, 1, 1}, Slot{200, 1, 2}};
  ExtArray<Slot> in(mach2, slots.size(), "input.slots");
  in.unsafe_host_fill(std::span<const Slot>(slots));
  ExtArray<std::uint64_t> nopay2(mach2, 0, "input.payload");
  KvStore kv2(mach2, StoreConfig{IndexKind::kFence, 8});
  kv2.build(in, nopay2);
  EXPECT_FALSE(kv2.put_inline(50, 9));
  EXPECT_TRUE(kv2.put_inline(200, 9));  // last key is reachable
  EXPECT_EQ(*kv2.get(200), std::vector<std::uint64_t>{9});
}

TEST(KvStorePutTest, PutInlineFacadeInvariantOnShardedMachine) {
  const Dataset d = make_dataset(400, 19);
  auto drive = [&](Machine& mach) {
    auto [s, p] = stage(mach, d);
    KvStore kv(mach, StoreConfig{IndexKind::kFence, 8});
    kv.build(s, p);
    util::Rng rng(23);
    std::vector<bool> hits;
    for (int t = 0; t < 60; ++t)
      hits.push_back(
          kv.put_inline(d.slots[rng.below(d.slots.size())].key, rng.next()));
    return std::pair<std::vector<bool>, store::StoreStats>(hits, kv.stats());
  };
  Machine plain(cfg(4096, 16, 8));
  const auto plain_out = drive(plain);

  ShardConfig sc;
  sc.frontend = cfg(4096, 16, 8);
  for (int i = 0; i < 4; ++i) sc.devices.push_back(cfg(4096, 16, 8));
  ShardedMachine sharded(sc);
  const auto shard_out = drive(sharded);

  EXPECT_EQ(plain_out.first, shard_out.first);
  EXPECT_EQ(plain_out.second, shard_out.second);
  EXPECT_EQ(plain.stats().reads, sharded.stats().reads);
  EXPECT_EQ(plain.stats().writes, sharded.stats().writes);
  EXPECT_EQ(sharded.devices_stats().writes, sharded.stats().writes);
}

// --- golden pins: the store's block-transfer path ------------------------
//
// Build, scans, gets and an in-place put on four store configurations, with
// the exact build bill, the ledger high-water mark, an FNV-1a hash of the
// full trace (op kind, array, block), a checksum of everything the scans
// visited, and the final StoreStats pinned.  The constants do not depend on
// how the store issues its transfers, only on which blocks move in what
// order, so any refactor of the store's I/O path that moves a charge, an
// I/O's position or a visited value shows up here.

class Fnv {
 public:
  void add(std::uint64_t x) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (x >> (8 * i)) & 0xff;
      h_ *= 0x100000001B3ull;
    }
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xCBF29CE484222325ull;
};

struct StorePin {
  std::uint64_t build_reads = 0, build_writes = 0, build_cost = 0;
  std::uint64_t high_water = 0, trace = 0, scan = 0;
  store::StoreStats stats;
  bool operator==(const StorePin&) const = default;
};

struct StoreCase {
  const char* name;
  StoreConfig store;
  std::size_t cache_blocks;  // 0 = plain machine
  StorePin pin;
};

StorePin run_store_case(const StoreCase& c) {
  Config mc = cfg(4096, 16, 8);
  mc.cache.capacity_blocks = c.cache_blocks;
  Machine mach(mc);
  mach.enable_trace();
  const Dataset d = make_dataset(900, 77);
  auto [slots, payload] = stage(mach, d);
  KvStore kv(mach, c.store);
  kv.build(slots, payload);

  StorePin pin;
  pin.build_reads = kv.build_reads();
  pin.build_writes = kv.build_writes();
  pin.build_cost = kv.build_cost();
  Fnv visits;
  auto visit = [&](std::uint64_t key, std::span<const std::uint64_t> value) {
    visits.add(key);
    visits.add(value.size());
    for (std::uint64_t w : value) visits.add(w);
  };
  kv.scan(1ull << 62, 1ull << 63, visit);  // middle range
  kv.scan(0, ~0ull, visit);                // full range
  kv.scan(~0ull - 1, ~0ull, visit);        // empty tail
  for (std::size_t i : {0u, 311u, 899u}) kv.get(d.slots[i].key);
  kv.get(d.slots[5].key | 1);  // keys are even: a guaranteed miss
  kv.put_inline(d.slots[42].key, 0xfeed);
  kv.scan(d.slots[42].key, d.slots[42].key, visit);
  pin.scan = visits.value();

  Fnv trace;
  for (const TraceOp& op : mach.trace()->ops()) {
    trace.add(static_cast<std::uint64_t>(op.kind));
    trace.add(op.array);
    trace.add(op.block);
  }
  pin.trace = trace.value();
  pin.high_water = mach.ledger().high_water();
  pin.stats = kv.stats();
  return pin;
}

// compact_extra_bits = 1 makes adjacent fences collide, so the compact
// case pins probe walks (max_get_log_reads 2) as well.
const StoreCase kStoreGolden[] = {
    {"fence", StoreConfig{IndexKind::kFence, 8}, 0,
     {783, 494, 4735, 2137, 0xf953613244ac13a7ull, 0xe7b8efb5539fa0d3ull,
      {4, 3, 4, 4, 1, 4, 1175, 1, 1, 1, 1, 13}}},
    {"compact", StoreConfig{IndexKind::kCompact, 1}, 0,
     {783, 494, 4735, 2137, 0xbdcfbce27b367b2full, 0xe7b8efb5539fa0d3ull,
      {4, 3, 5, 4, 2, 4, 1175, 1, 1, 1, 1, 13}}},
    {"fence+lru", StoreConfig{IndexKind::kFence, 8}, 32,
     {755, 494, 4707, 2137, 0x874e4d7185bde60full, 0xe7b8efb5539fa0d3ull,
      {4, 3, 4, 4, 1, 4, 1175, 1, 1, 1, 1, 13}}},
    {"fence+durable", StoreConfig{IndexKind::kFence, 8, 4}, 0,
     {809, 523, 4993, 2137, 0x400aed1182e85aadull, 0xe7b8efb5539fa0d3ull,
      {4, 3, 4, 4, 1, 4, 1175, 1, 1, 1, 1, 13}}},
};

TEST(KvStoreGoldenTest, ChargesTracesAndScansMatchPins) {
  for (const StoreCase& c : kStoreGolden) {
    const StorePin got = run_store_case(c);
    const store::StoreStats& s = got.stats;
    char line[400];
    std::snprintf(
        line, sizeof line,
        "{%" PRIu64 ", %" PRIu64 ", %" PRIu64 ", %" PRIu64 ", 0x%016" PRIx64
        "ull, 0x%016" PRIx64 "ull, {%" PRIu64 ", %" PRIu64 ", %" PRIu64
        ", %" PRIu64 ", %" PRIu64 ", %" PRIu64 ", %" PRIu64 ", %" PRIu64
        ", %" PRIu64 ", %" PRIu64 ", %" PRIu64 ", %" PRIu64 "}}",
        got.build_reads, got.build_writes, got.build_cost, got.high_water,
        got.trace, got.scan, s.gets, s.get_hits, s.get_log_reads,
        s.get_payload_reads, s.max_get_log_reads, s.scans, s.scan_records,
        s.puts, s.put_hits, s.put_log_reads, s.put_writes, s.orphaned_words);
    EXPECT_EQ(got, c.pin) << c.name << ": " << line;
  }
}

// The build alone, on an input large enough for three sort runs (run
// length M/2 = 2048 slots) where one record in two repeats an earlier key,
// so the sort's tie order decides which version each key's last slot holds.
// Pinned on a plain machine and on a cached one with checksummed faults:
// the build bill and an FNV-1a hash of the log's host view (every slot's
// key, len and pos).  A run formation that reorders equal keys, or moves a
// charge, shows up here.
struct BuildPin {
  std::uint64_t reads = 0, writes = 0, cost = 0, log = 0;
  bool operator==(const BuildPin&) const = default;
};

BuildPin run_build_case(bool cached_and_faulty) {
  Config mc = cfg(4096, 16, 8);
  if (cached_and_faulty) mc.cache.capacity_blocks = 64;
  Machine mach(mc);
  if (cached_and_faulty) {
    FaultConfig fc;
    fc.seed = 99;
    fc.read_fault_rate = 0.02;
    fc.silent_write_rate = 0.01;
    fc.torn_write_rate = 0.01;
    fc.max_retries = 16;
    mach.install_faults(fc);
  }
  const Dataset d = make_dataset(5000, 78, 40, 2);
  auto [slots, payload] = stage(mach, d);
  KvStore kv(mach, StoreConfig{IndexKind::kFence, 8});
  kv.build(slots, payload);
  Fnv log;
  for (const Slot& s : kv.log_array().unsafe_host_view()) {
    log.add(s.key);
    log.add(s.len);
    log.add(s.pos);
  }
  return BuildPin{kv.build_reads(), kv.build_writes(), kv.build_cost(),
                  log.value()};
}

TEST(KvStoreTest, BuildMatchesPins) {
  const BuildPin want[] = {
      {4899, 3245, 30859, 0x2fd67531246d3b10ull},
      {8357, 3392, 35493, 0x2fd67531246d3b10ull},
  };
  for (const bool faulty : {false, true}) {
    const BuildPin got = run_build_case(faulty);
    char line[160];
    std::snprintf(line, sizeof line,
                  "{%" PRIu64 ", %" PRIu64 ", %" PRIu64 ", 0x%016" PRIx64
                  "ull},",
                  got.reads, got.writes, got.cost, got.log);
    EXPECT_EQ(got, want[faulty]) << (faulty ? "cached+faulty" : "plain")
                                 << ": " << line;
  }
}

}  // namespace
