// Tests for traffic/: the fixed-bucket Q histogram (exact percentiles,
// power-of-two coarse floors, merge associativity), the deterministic
// request generator (pure-function substreams, Zipf shape, hot-set drift,
// pinned stream hashes),
// and the TrafficEngine (served/rejected identity, admission control,
// idle-engine zero charge and identical metrics, --jobs byte-equality through the sweep harness).
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "core/ext_array.hpp"
#include "core/faults.hpp"
#include "core/machine.hpp"
#include "core/metrics.hpp"
#include "core/sharding.hpp"
#include "harness/parallel_sweep.hpp"
#include "store/kv_store.hpp"
#include "traffic/engine.hpp"
#include "traffic/histogram.hpp"
#include "traffic/request_gen.hpp"
#include "trace_fnv.hpp"
#include "util/rng.hpp"

namespace {

using namespace aem;
using store::IndexKind;
using store::KvStore;
using store::Slot;
using store::StoreConfig;
using traffic::EngineConfig;
using traffic::KeyDist;
using traffic::OpKind;
using traffic::QHistogram;
using traffic::Request;
using traffic::RequestGen;
using traffic::TrafficConfig;
using traffic::TrafficEngine;

Config cfg(std::size_t M, std::size_t B, std::uint64_t w) {
  Config c;
  c.memory_elems = M;
  c.block_elems = B;
  c.write_cost = w;
  return c;
}

// --- QHistogram ----------------------------------------------------------

TEST(QHistogramTest, ExactPercentilesOnSmallValues) {
  QHistogram h;
  for (std::uint64_t q = 1; q <= 100; ++q) h.record(q);
  EXPECT_EQ(h.total(), 100u);
  EXPECT_EQ(h.sum(), 5050u);
  EXPECT_EQ(h.max(), 100u);
  EXPECT_DOUBLE_EQ(h.mean(), 50.5);
  // Nearest-rank on exact buckets: p50 is the 50th of 100, etc.
  EXPECT_EQ(h.percentile(5000), 50u);
  EXPECT_EQ(h.percentile(9900), 99u);
  EXPECT_EQ(h.percentile(9990), 100u);
  EXPECT_EQ(h.percentile(10000), 100u);
  EXPECT_EQ(h.percentile(1), 1u);
}

TEST(QHistogramTest, ZeroCostRequestsAreExact) {
  QHistogram h;
  for (int i = 0; i < 10; ++i) h.record(0);
  h.record(7);
  EXPECT_EQ(h.percentile(5000), 0u);
  EXPECT_EQ(h.percentile(10000), 7u);
  EXPECT_EQ(h.max(), 7u);
}

TEST(QHistogramTest, CoarseBucketsReportPowerOfTwoFloors) {
  QHistogram h;
  h.record(5000);  // >= kExactLimit: lands in the [4096, 8192) bucket
  EXPECT_EQ(h.total(), 1u);
  EXPECT_EQ(h.max(), 5000u);   // max is tracked exactly
  EXPECT_EQ(h.sum(), 5000u);   // so is the sum (mean stays exact)
  EXPECT_EQ(h.percentile(10000), 4096u);  // percentile reports the floor
}

// The four pinned permyriad boundaries of the percentile contract (see the
// header comment of traffic/histogram.hpp), including the exact/coarse
// bucket seam at kExactLimit.
TEST(QHistogramTest, PercentileBoundariesPinned) {
  QHistogram empty;
  // Empty histogram: the documented 0 sentinel for EVERY in-range permyriad
  // (a disabled traffic section reports all-zero percentiles).
  EXPECT_EQ(empty.percentile(0), 0u);
  EXPECT_EQ(empty.percentile(5000), 0u);
  EXPECT_EQ(empty.percentile(10000), 0u);
  // Out of range throws even on an empty histogram.
  EXPECT_THROW(empty.percentile(10001), std::invalid_argument);

  QHistogram h;
  h.record(7);
  h.record(42);
  h.record(QHistogram::kExactLimit - 1);  // 4095: the last exact bucket
  h.record(QHistogram::kExactLimit);      // 4096: the first coarse bucket
  EXPECT_EQ(h.percentile(0), 7u);     // rank clamps to 1: the minimum
  EXPECT_EQ(h.percentile(2500), 7u);  // nearest rank 1 of 4
  EXPECT_EQ(h.percentile(7500), QHistogram::kExactLimit - 1);  // rank 3: exact
  EXPECT_EQ(h.percentile(10000), QHistogram::kExactLimit);  // max's floor
  EXPECT_EQ(h.max(), QHistogram::kExactLimit);              // max stays exact
  EXPECT_THROW(h.percentile(10001), std::invalid_argument);
  // The motivating regression: a per-cent unit slip (9900 * 10) must fail
  // loudly instead of clamping to a plausible-looking p100.
  EXPECT_THROW(h.percentile(99000), std::invalid_argument);
}

TEST(QHistogramTest, MergeIsAssociativeAndMatchesWhole) {
  util::Rng rng(99);
  QHistogram whole, a, b, c;
  for (int i = 0; i < 3000; ++i) {
    // Mix exact-range and coarse-range values.
    const std::uint64_t q =
        (i % 7 == 0) ? 4096 + rng.below(1 << 16) : rng.below(4096);
    whole.record(q);
    (i % 3 == 0 ? a : i % 3 == 1 ? b : c).record(q);
  }
  QHistogram ab_c = a;
  ab_c.merge(b);
  ab_c.merge(c);
  QHistogram a_bc = b;
  a_bc.merge(c);
  a_bc.merge(a);
  EXPECT_EQ(ab_c, a_bc);
  EXPECT_EQ(ab_c, whole);
  EXPECT_EQ(ab_c.percentile(9900), whole.percentile(9900));
}

// --- RequestGen ----------------------------------------------------------

TEST(RequestGenTest, SameSeedSameStreamAndChunkingIsFree) {
  TrafficConfig tc;
  tc.requests = 512;
  tc.dist = KeyDist::kZipf;
  tc.key_space = 256;
  tc.key_stride = 2;
  tc.write_fraction = 0.3;
  tc.scan_fraction = 0.1;
  const RequestGen g1(tc, 42), g2(tc, 42), g3(tc, 43);
  bool any_diff = false;
  for (std::uint64_t i = 0; i < tc.requests; ++i) {
    const Request a = g1.at(i);
    const Request b = g2.at(i);
    EXPECT_EQ(a.op, b.op) << i;
    EXPECT_EQ(a.key, b.key) << i;
    EXPECT_EQ(a.value, b.value) << i;
    EXPECT_EQ(a.scan_len, b.scan_len) << i;
    const Request c = g3.at(i);
    any_diff = any_diff || c.key != a.key || c.op != a.op;
    // Keys honor the stride mapping.
    EXPECT_EQ(a.key % tc.key_stride, 0u);
    EXPECT_LT(a.key, tc.key_space * tc.key_stride);
  }
  EXPECT_TRUE(any_diff) << "different seeds produced identical streams";
  // Out-of-order access is the chunking contract: at(i) never depends on
  // which requests were generated before it.
  EXPECT_EQ(g1.at(17).key, g2.at(17).key);
  const Request tail_first = g1.at(511);
  for (std::uint64_t i = 0; i < 511; ++i) g1.at(i);
  const Request tail_again = g1.at(511);
  EXPECT_EQ(tail_first.key, tail_again.key);
  EXPECT_EQ(tail_first.op, tail_again.op);
}

TEST(RequestGenTest, MixFractionsShowUpInTheStream) {
  TrafficConfig tc;
  tc.requests = 4000;
  tc.dist = KeyDist::kUniform;
  tc.key_space = 128;
  tc.write_fraction = 0.5;
  tc.scan_fraction = 0.25;
  const RequestGen g(tc, 7);
  std::uint64_t gets = 0, puts = 0, scans = 0;
  for (std::uint64_t i = 0; i < tc.requests; ++i) {
    const Request r = g.at(i);
    if (r.op == OpKind::kGet) ++gets;
    if (r.op == OpKind::kPut) ++puts;
    if (r.op == OpKind::kScan) {
      ++scans;
      EXPECT_EQ(r.scan_len, tc.scan_len);
    }
  }
  EXPECT_EQ(gets + puts + scans, tc.requests);
  // Loose 3-sigma-ish bands around the configured mix.
  EXPECT_NEAR(static_cast<double>(puts) / tc.requests, 0.5, 0.05);
  EXPECT_NEAR(static_cast<double>(scans) / tc.requests, 0.25, 0.05);
}

TEST(RequestGenTest, ZipfIsAHotPrefix) {
  TrafficConfig tc;
  tc.requests = 20000;
  tc.dist = KeyDist::kZipf;
  tc.zipf_theta = 0.99;
  tc.key_space = 1000;
  const RequestGen g(tc, 5);
  std::vector<std::uint64_t> count(tc.key_space, 0);
  for (std::uint64_t i = 0; i < tc.requests; ++i) ++count[g.at(i).key];
  // Slot 0 is the mode, and the first 10% of slots carry most of the mass
  // (theta = 0.99 gives the hot 10% roughly 2/3 of the draws).
  std::uint64_t head = 0;
  for (std::size_t s = 0; s < 100; ++s) head += count[s];
  EXPECT_GT(count[0], count[10]);
  EXPECT_GT(count[0], tc.requests / 100);
  EXPECT_GT(head * 2, tc.requests);  // > 50% in the hot prefix
}

TEST(RequestGenTest, HotSetDriftMovesTheWindow) {
  TrafficConfig tc;
  tc.requests = 2000;
  tc.dist = KeyDist::kHotSet;
  tc.key_space = 100;
  tc.hot_fraction = 0.1;  // 10-slot window
  tc.hot_weight = 0.9;
  tc.drift_every = 1000;
  const RequestGen g(tc, 3);
  // Epoch 0: window [0, 10).  Epoch 1: window [10, 20).
  auto in_window = [&](std::uint64_t lo, std::uint64_t i) {
    const std::uint64_t key = g.at(i).key;
    return key >= lo && key < lo + 10;
  };
  std::uint64_t hits0 = 0, hits1 = 0;
  for (std::uint64_t i = 0; i < 1000; ++i) hits0 += in_window(0, i);
  for (std::uint64_t i = 1000; i < 2000; ++i) hits1 += in_window(10, i);
  EXPECT_GT(hits0, 800u);  // 90% hot weight + uniform spillover
  EXPECT_GT(hits1, 800u);
}

TEST(RequestGenTest, ConfigValidationRejectsNonsense) {
  TrafficConfig tc;
  tc.requests = 1;
  tc.key_space = 0;
  EXPECT_THROW(RequestGen(tc, 1), std::invalid_argument);
  tc.key_space = 8;
  tc.zipf_theta = 1.5;
  EXPECT_THROW(RequestGen(tc, 1), std::invalid_argument);
  tc.zipf_theta = 0.99;
  tc.write_fraction = 0.8;
  tc.scan_fraction = 0.3;  // sums past 1
  EXPECT_THROW(RequestGen(tc, 1), std::invalid_argument);
  tc.scan_fraction = 0.0;
  tc.batch_size = 0;
  EXPECT_THROW(RequestGen(tc, 1), std::invalid_argument);
}

// The emitted stream is part of the output contract (every traffic bench's
// rows depend on it), so it is pinned: an FNV-1a hash of (op, key, value,
// scan_len) over the first 2^16 requests of one config per distribution.
// The pins were recorded before the generator's zipf constants were hoisted
// into members; a host-side change to at() must leave them unedited.
std::uint64_t stream_hash(const TrafficConfig& tc, std::uint64_t seed) {
  const RequestGen g(tc, seed);
  test::Fnv h;
  for (std::uint64_t i = 0; i < (1u << 16); ++i) {
    const Request r = g.at(i);
    h.add(static_cast<std::uint64_t>(r.op));
    h.add(r.key);
    h.add(r.value);
    h.add(r.scan_len);
  }
  return h.value();
}

TEST(RequestGenTest, StreamsMatchPinnedHashes) {
  TrafficConfig zipf;
  zipf.dist = KeyDist::kZipf;
  zipf.zipf_theta = 0.99;
  zipf.key_space = 1u << 20;
  zipf.write_fraction = 0.05;
  zipf.scan_fraction = 0.05;
  EXPECT_EQ(stream_hash(zipf, 41), 0x0C1FFAB9592F7234ull);

  TrafficConfig hot;
  hot.dist = KeyDist::kHotSet;
  hot.key_space = 1u << 20;
  hot.key_stride = 3;
  hot.hot_fraction = 0.1;
  hot.hot_weight = 0.9;
  hot.drift_every = 4096;
  hot.write_fraction = 0.5;
  hot.scan_fraction = 0.05;
  hot.scan_len = 8;
  EXPECT_EQ(stream_hash(hot, 7), 0xCF29870F40ED752Bull);

  TrafficConfig uniform;
  uniform.dist = KeyDist::kUniform;
  uniform.key_space = 1000003;
  uniform.write_fraction = 0.3;
  uniform.scan_fraction = 0.1;
  EXPECT_EQ(stream_hash(uniform, 5), 0x813291E4988B85E2ull);
}

// --- TrafficEngine -------------------------------------------------------

/// A small all-inline store at keys {0, 2, ..., 2*(n-1)} on a fresh
/// machine: the generator's slot * 2 mapping hits present keys only.
struct Rig {
  Machine mach;
  KvStore kv;

  explicit Rig(std::size_t n, std::uint64_t omega = 8,
               std::uint64_t seed = 1234)
      : mach(cfg(4096, 16, omega)), kv(mach, StoreConfig{IndexKind::kFence, 8}) {
    util::Rng rng(seed);
    std::vector<Slot> slots;
    for (std::size_t i = 0; i < n; ++i)
      slots.push_back(Slot{2 * i, 1, rng.next()});
    ExtArray<Slot> in(mach, slots.size(), "input.slots");
    in.unsafe_host_fill(std::span<const Slot>(slots));
    ExtArray<std::uint64_t> nopay(mach, 0, "input.payload");
    kv.build(in, nopay);
  }
};

TrafficConfig small_stream(std::uint64_t requests, std::size_t key_space) {
  TrafficConfig tc;
  tc.requests = requests;
  tc.dist = KeyDist::kZipf;
  tc.key_space = key_space;
  tc.key_stride = 2;
  tc.write_fraction = 0.25;
  tc.scan_fraction = 0.05;
  tc.scan_len = 4;
  tc.batch_size = 4;
  return tc;
}

TEST(TrafficEngineTest, ServesTheWholeStreamAndBalancesTheBooks) {
  Rig rig(256);
  EngineConfig ec;
  ec.traffic = small_stream(400, 256);
  TrafficEngine eng(rig.kv, rig.mach, ec, 77);
  const IoStats before = rig.mach.stats();
  const std::uint64_t cost_before = rig.mach.cost();
  eng.run();

  const auto& es = eng.stats();
  EXPECT_EQ(es.generated, 400u);
  EXPECT_EQ(es.served, 400u);
  EXPECT_EQ(es.rejected, 0u);
  EXPECT_EQ(es.gets + es.puts + es.scans, es.served);
  EXPECT_GT(es.gets, 0u);
  EXPECT_GT(es.puts, 0u);
  EXPECT_EQ(eng.histogram().total(), es.served);
  EXPECT_EQ(es.windows, 1u);  // window_requests = 0: one window
  // The engine's deltas are the machine's deltas.
  EXPECT_EQ(es.io.reads, rig.mach.stats().reads - before.reads);
  EXPECT_EQ(es.io.writes, rig.mach.stats().writes - before.writes);
  EXPECT_EQ(es.cost, rig.mach.cost() - cost_before);
  EXPECT_GT(es.cost, 0u);
  // Every stream key is present, so gets hit and puts update.
  EXPECT_EQ(es.get_hits, es.gets);
  EXPECT_EQ(es.put_hits, es.puts);
  // Percentiles are monotone and the mean sits between p50 and max.
  const TrafficMetrics tm = eng.metrics_section();
  EXPECT_LE(tm.q_p50, tm.q_p99);
  EXPECT_LE(tm.q_p99, tm.q_p999);
  EXPECT_LE(tm.q_p999, tm.q_max);
  EXPECT_TRUE(tm.enabled);
  EXPECT_EQ(tm.dist, "zipf");
  // One-shot contract.
  EXPECT_THROW(eng.run(), std::logic_error);
}

TEST(TrafficEngineTest, AdmissionControlRejectsWithoutCharging) {
  Rig open_rig(128), gated_rig(128);
  EngineConfig open_ec;
  open_ec.traffic = small_stream(256, 128);
  TrafficEngine open_eng(open_rig.kv, open_rig.mach, open_ec, 55);
  open_eng.run();

  EngineConfig gated_ec = open_ec;
  gated_ec.q_budget = 8;
  gated_ec.window_requests = 64;
  TrafficEngine gated(gated_rig.kv, gated_rig.mach, gated_ec, 55);
  gated.run();

  const auto& es = gated.stats();
  EXPECT_EQ(es.served + es.rejected, es.generated);
  EXPECT_GT(es.rejected, 0u);
  EXPECT_GT(es.served, 0u);  // every window serves until its budget is spent
  EXPECT_EQ(es.windows, 4u);
  EXPECT_LT(es.cost, open_eng.stats().cost);
  EXPECT_GT(gated.rejection_rate(), 0.0);
  EXPECT_LT(gated.rejection_rate(), 1.0);
  // Rejected batches must not show up in the histogram.
  EXPECT_EQ(gated.histogram().total(), es.served);
}

TEST(TrafficEngineTest, ZeroBudgetStillAdvancesAndRejectsEverything) {
  Rig rig(64);
  EngineConfig ec;
  ec.traffic = small_stream(128, 64);
  ec.q_budget = 1;           // spent after the first nonzero-Q batch
  ec.window_requests = 128;  // a single window
  TrafficEngine eng(rig.kv, rig.mach, ec, 9);
  eng.run();
  const auto& es = eng.stats();
  EXPECT_EQ(es.served + es.rejected, es.generated);
  EXPECT_GT(es.rejected, 0u);
}

TEST(TrafficEngineTest, IdleEngineChargesNothing) {
  Rig bare(64);  // the same store, never touched by an engine
  Rig rig(64);
  const IoStats before = rig.mach.stats();
  const std::uint64_t cost_before = rig.mach.cost();
  EngineConfig ec;
  ec.traffic.requests = 0;
  ec.traffic.key_space = 64;
  ec.traffic.key_stride = 2;
  TrafficEngine eng(rig.kv, rig.mach, ec, 1);
  eng.run();
  EXPECT_EQ(rig.mach.stats().reads, before.reads);
  EXPECT_EQ(rig.mach.stats().writes, before.writes);
  EXPECT_EQ(rig.mach.cost(), cost_before);
  EXPECT_EQ(eng.stats().cost, 0u);
  EXPECT_EQ(eng.histogram().total(), 0u);
  EXPECT_EQ(eng.throughput_mille(), 0u);
  EXPECT_DOUBLE_EQ(eng.rejection_rate(), 0.0);
  // Instrumenting a store for serving is free until requests arrive: the
  // whole metrics snapshot matches the engine-free twin's.
  EXPECT_EQ(to_json(snapshot_metrics(rig.mach, "t")),
            to_json(snapshot_metrics(bare.mach, "t")));
}

TEST(TrafficEngineTest, BooksBalanceOnAFaultyDevice) {
  for (const std::uint64_t seed : {17, 7, 13}) {
    SCOPED_TRACE(seed);
    Machine mach(cfg(4096, 16, 8));
    FaultConfig fc;
    fc.seed = seed;
    fc.read_fault_rate = 0.02;
    fc.silent_write_rate = 0.01;
    fc.torn_write_rate = 0.01;
    fc.max_retries = 16;
    mach.install_faults(fc);
    util::Rng rng(1234);
    std::vector<Slot> slots;
    for (std::size_t i = 0; i < 128; ++i)
      slots.push_back(Slot{2 * i, 1, rng.next()});
    ExtArray<Slot> in(mach, slots.size(), "input.slots");
    in.unsafe_host_fill(std::span<const Slot>(slots));
    ExtArray<std::uint64_t> nopay(mach, 0, "input.payload");
    KvStore kv(mach, StoreConfig{IndexKind::kFence, 8});
    kv.build(in, nopay);

    EngineConfig ec;
    ec.traffic = small_stream(256, 128);
    const IoStats before = mach.stats();
    const std::uint64_t cost_before = mach.cost();
    TrafficEngine eng(kv, mach, ec, 31);
    eng.run();

    // Recovery retries ran and every extra I/O still lands in the engine's
    // deltas: the books balance on a faulty device too.
    EXPECT_GT(mach.faults()->stats().read_retries +
                  mach.faults()->stats().write_retries,
              0u);
    const auto& es = eng.stats();
    EXPECT_EQ(es.served + es.rejected, es.generated);
    EXPECT_EQ(es.rejected, 0u);
    EXPECT_EQ(eng.histogram().total(), es.served);
    EXPECT_EQ(es.io.reads, mach.stats().reads - before.reads);
    EXPECT_EQ(es.io.writes, mach.stats().writes - before.writes);
    EXPECT_EQ(es.cost, mach.cost() - cost_before);
    EXPECT_EQ(es.get_hits, es.gets);
    EXPECT_EQ(es.put_hits, es.puts);
  }
}

TEST(TrafficEngineTest, ShardedFrontendCountersArePlacementInvariant) {
  auto serve = [](Placement p) {
    ShardConfig sc;
    sc.frontend = cfg(4096, 16, 8);
    sc.devices.assign(4, cfg(4096, 16, 8));
    sc.placement = p;
    sc.range_chunk_blocks = 4;
    ShardedMachine mach(sc);
    KvStore kv(mach, StoreConfig{IndexKind::kFence, 8});
    util::Rng rng(4321);
    std::vector<Slot> slots;
    for (std::size_t i = 0; i < 256; ++i)
      slots.push_back(Slot{2 * i, 1, rng.next()});
    ExtArray<Slot> in(mach, slots.size(), "input.slots");
    in.unsafe_host_fill(std::span<const Slot>(slots));
    ExtArray<std::uint64_t> nopay(mach, 0, "input.payload");
    kv.build(in, nopay);

    EngineConfig ec;
    ec.traffic = small_stream(300, 256);
    TrafficEngine eng(kv, mach, ec, 66);
    eng.run();
    return std::pair<traffic::EngineStats, QHistogram>(eng.stats(),
                                                       eng.histogram());
  };
  const auto [rr_stats, rr_hist] = serve(Placement::kRoundRobin);
  const auto [rg_stats, rg_hist] = serve(Placement::kRange);
  EXPECT_EQ(rr_stats, rg_stats);
  EXPECT_EQ(rr_hist, rg_hist);
}

TEST(TrafficEngineTest, SweepRowsAreByteIdenticalForAnyJobs) {
  auto sweep = [](std::size_t jobs) {
    harness::SweepConfig sc;
    sc.jobs = jobs;
    sc.base_seed = 21;
    return harness::run_sweep(6, sc, [](harness::PointContext& ctx) {
      Rig rig(128, /*omega=*/8, /*seed=*/900 + ctx.index());
      EngineConfig ec;
      ec.traffic = small_stream(200, 128);
      ec.q_budget = ctx.index() % 2 == 0 ? 0 : 32;
      ec.window_requests = 50;
      TrafficEngine eng(rig.kv, rig.mach, ec, ctx.seed());
      eng.run();
      const TrafficMetrics tm = eng.metrics_section();
      ctx.row({std::to_string(eng.stats().served),
               std::to_string(eng.stats().rejected),
               std::to_string(eng.stats().cost), std::to_string(tm.q_p50),
               std::to_string(tm.q_p99), std::to_string(tm.q_p999),
               std::to_string(tm.q_max)});
    });
  };
  const auto r1 = sweep(1);
  for (const std::size_t jobs : {4ul, 16ul}) {
    const auto rn = sweep(jobs);
    ASSERT_EQ(rn.size(), r1.size()) << "jobs=" << jobs;
    for (std::size_t i = 0; i < r1.size(); ++i)
      EXPECT_EQ(rn[i].rows, r1[i].rows) << "jobs=" << jobs << " point=" << i;
  }
}

}  // namespace
