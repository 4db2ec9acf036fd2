// Tests for the reliability layer: the deterministic power-cut schedule
// (FaultConfig::crash_after_writes / CrashError), crash-consistent KvStore
// builds and recover(), retry-exhaustion boundaries, and the device-outage
// degraded-serving path (wait / queue / drain / fail-over).
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/ext_array.hpp"
#include "core/faults.hpp"
#include "core/machine.hpp"
#include "core/metrics.hpp"
#include "core/sharding.hpp"
#include "store/kv_store.hpp"
#include "util/rng.hpp"

namespace {

using namespace aem;
using store::IndexKind;
using store::KvStore;
using store::RecoveryReport;
using store::Slot;
using store::StoreConfig;

Config cfg(std::size_t M, std::size_t B, std::uint64_t w) {
  Config c;
  c.memory_elems = M;
  c.block_elems = B;
  c.write_cost = w;
  return c;
}

// --- crash schedule ------------------------------------------------------

TEST(CrashScheduleTest, FiresAtExactWriteOnceAndRearmsOnReset) {
  Machine mach(cfg(64, 8, 4));
  FaultConfig c;
  c.crash_after_writes = 3;
  mach.install_faults(c);
  EXPECT_TRUE(mach.faults()->crash_armed());
  // A crash-only schedule is not fault injection: it must not flip
  // ExtArray onto the verified path.
  EXPECT_FALSE(mach.faults()->injects_faults());

  mach.on_write(0, 0);
  mach.on_write(0, 1);
  try {
    mach.on_write(0, 2);  // the 3rd charged write is the cut
    FAIL() << "expected CrashError";
  } catch (const CrashError& e) {
    EXPECT_EQ(e.after_writes(), 3u);
    EXPECT_EQ(e.at().writes, 3u);
    EXPECT_EQ(e.at().reads, 0u);
  }
  // The cut write was charged; the counters survive.
  EXPECT_EQ(mach.stats().writes, 3u);
  EXPECT_EQ(mach.cost(), 12u);

  // One-shot: the schedule disarmed itself as it fired.
  EXPECT_FALSE(mach.faults()->crash_armed());
  EXPECT_EQ(mach.faults()->crashes_fired(), 1u);
  EXPECT_NO_THROW(mach.on_write(0, 3));
  EXPECT_NO_THROW(mach.on_write(0, 4));

  // reset() re-arms the same point relative to a rewound write counter.
  mach.reset_stats();
  mach.faults()->reset();
  EXPECT_TRUE(mach.faults()->crash_armed());
  EXPECT_EQ(mach.faults()->crashes_fired(), 0u);
  mach.on_write(0, 0);
  mach.on_write(0, 1);
  EXPECT_THROW(mach.on_write(0, 2), CrashError);
}

TEST(CrashScheduleTest, ReadsNeverTripTheCut) {
  Machine mach(cfg(64, 8, 1));
  FaultConfig c;
  c.crash_after_writes = 1;
  mach.install_faults(c);
  for (int i = 0; i < 100; ++i) EXPECT_NO_THROW(mach.on_read(0, 0));
  EXPECT_THROW(mach.on_write(0, 0), CrashError);
}

TEST(CrashScheduleTest, PointAtOrBelowTheWriteCountFiresOnTheNextWrite) {
  // Armed after the machine has already written past the point: the cut is
  // still a write-side event, so a read passes and the next write fires.
  Machine mach(cfg(64, 8, 1));
  for (std::uint64_t b = 0; b < 3; ++b) mach.on_write(0, b);
  FaultConfig c;
  c.crash_after_writes = 2;
  mach.install_faults(c);
  EXPECT_NO_THROW(mach.on_read(0, 0));
  EXPECT_TRUE(mach.faults()->crash_armed());
  try {
    mach.on_write(0, 3);
    FAIL() << "expected CrashError";
  } catch (const CrashError& e) {
    EXPECT_EQ(e.after_writes(), 2u);
    EXPECT_EQ(e.at().writes, 4u);
    EXPECT_EQ(e.at().reads, 1u);
  }
  EXPECT_FALSE(mach.faults()->crash_armed());
}

// --- retry-exhaustion boundary -------------------------------------------

/// Finds a seed whose read-fault draw pattern is exactly `k` faults then a
/// clean attempt, mirroring the per-attempt draw order of the ExtArray
/// read path (one fault draw, plus one corruption-offset draw when it
/// fires).
std::uint64_t seed_with_k_read_faults(double rate, std::size_t k) {
  for (std::uint64_t seed = 1; seed < 100000; ++seed) {
    FaultConfig c;
    c.seed = seed;
    c.read_fault_rate = rate;
    FaultPolicy probe(c);
    bool ok = true;
    for (std::size_t i = 0; i < k && ok; ++i) {
      if (probe.draw_read_fault())
        probe.draw_u64();  // the corruption offset the real path consumes
      else
        ok = false;
    }
    if (ok && !probe.draw_read_fault()) return seed;
  }
  ADD_FAILURE() << "no seed with " << k << " leading read faults";
  return 1;
}

// Exactly-max retries succeeds; one fewer throws FaultError — on the SAME
// deterministic fault schedule — and the two runs' charges agree up to the
// final (never-performed) attempt.
TEST(RetryExhaustionTest, BoundaryBetweenSuccessAndFaultError) {
  const std::size_t k = 3;  // leading failures before the clean attempt
  const std::uint64_t seed = seed_with_k_read_faults(0.5, k);

  struct Run {
    bool threw = false;
    IoStats io;
    FaultStats faults;
  };
  auto run = [&](std::size_t max_retries) {
    Machine mach(cfg(64, 8, 4));
    FaultConfig c;
    c.seed = seed;
    c.read_fault_rate = 0.5;
    c.max_retries = max_retries;
    mach.install_faults(c);
    ExtArray<std::uint64_t> a(mach, 8, "a");
    const std::vector<std::uint64_t> host(8, 5);
    a.unsafe_host_fill(std::span<const std::uint64_t>(host));
    std::vector<std::uint64_t> buf(8);
    Run r;
    try {
      a.read_block(0, std::span<std::uint64_t>(buf));
      EXPECT_EQ(buf[0], 5u);  // the surviving attempt delivered clean data
    } catch (const FaultError& e) {
      r.threw = true;
      EXPECT_FALSE(e.is_write());
      EXPECT_EQ(e.attempts(), max_retries + 1);
    }
    r.io = mach.stats();
    r.faults = mach.faults()->stats();
    return r;
  };

  const Run ok = run(k);
  EXPECT_FALSE(ok.threw) << "max_retries == k must absorb k failures";
  const Run bad = run(k - 1);
  EXPECT_TRUE(bad.threw) << "max_retries == k-1 must exhaust";

  // Identical schedule, so the ledgers agree up to the last attempt: the
  // successful run performs exactly one more charged read (the clean
  // attempt) and notes one more retry; every failure count matches.
  EXPECT_EQ(ok.io.reads, bad.io.reads + 1);
  EXPECT_EQ(ok.io.writes, bad.io.writes);
  EXPECT_EQ(ok.faults.checksum_failures, bad.faults.checksum_failures);
  EXPECT_EQ(ok.faults.read_faults, bad.faults.read_faults);
  EXPECT_EQ(ok.faults.read_retries, bad.faults.read_retries + 1);
}

// --- crash-consistent KvStore builds -------------------------------------

struct Workload {
  std::vector<Slot> slots;
  std::vector<std::uint64_t> payload;
};

Workload make_workload(std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  Workload w;
  for (std::size_t i = 0; i < n; ++i) {
    Slot s;
    s.key = rng.next() & ~1ull;
    const std::uint64_t kind = rng.below(100);
    if (kind < 60) {
      s.len = 1;
      s.pos = rng.next();
    } else {
      s.len = 2 + rng.below(10);
      s.pos = w.payload.size();
      for (std::uint64_t j = 0; j < s.len; ++j) w.payload.push_back(rng.next());
    }
    w.slots.push_back(s);
  }
  return w;
}

std::pair<ExtArray<Slot>, ExtArray<std::uint64_t>> stage(Machine& mach,
                                                         const Workload& w) {
  ExtArray<Slot> slots(mach, w.slots.size(), "input.slots");
  slots.unsafe_host_fill(std::span<const Slot>(w.slots));
  ExtArray<std::uint64_t> payload(mach, w.payload.size(), "input.payload");
  payload.unsafe_host_fill(std::span<const std::uint64_t>(w.payload));
  return {std::move(slots), std::move(payload)};
}

TEST(DurableBuildTest, ServesIdenticallyToPlainBuildAtManifestCost) {
  const Workload w = make_workload(400, 17);
  for (IndexKind kind : {IndexKind::kFence, IndexKind::kCompact}) {
    Machine plain_mach(cfg(4096, 16, 8));
    auto [ps, pp] = stage(plain_mach, w);
    KvStore plain(plain_mach, StoreConfig{kind, 8, /*manifest_interval=*/0});
    plain.build(ps, pp);

    Machine dur_mach(cfg(4096, 16, 8));
    auto [ds, dp] = stage(dur_mach, w);
    KvStore durable(dur_mach, StoreConfig{kind, 8, /*manifest_interval=*/4});
    durable.build(ds, dp);

    // Byte-identical on-device layout, identical serving.
    EXPECT_EQ(plain.log_array().unsafe_host_view(),
              durable.log_array().unsafe_host_view());
    EXPECT_EQ(plain.payload_array().unsafe_host_view(),
              durable.payload_array().unsafe_host_view());
    util::Rng rng(91);
    for (int t = 0; t < 32; ++t) {
      const std::uint64_t key =
          w.slots[rng.below(w.slots.size())].key ^ (t % 4 == 0 ? 1 : 0);
      EXPECT_EQ(plain.get(key), durable.get(key));
    }

    // Durability is priced: at least the sorted + committed manifests plus
    // one checkpoint per interval, never free.
    EXPECT_GE(durable.manifest_commits(), 2u);
    EXPECT_GT(durable.build_writes(), plain.build_writes());
  }
}

TEST(DurableBuildTest, CrashAndRecoverAcrossCrashPoints) {
  const Workload w = make_workload(512, 23);
  const StoreConfig sc{IndexKind::kFence, 8, /*manifest_interval=*/4};

  // Uncrashed durable reference.
  Machine ref_mach(cfg(4096, 16, 8));
  auto [rs, rp] = stage(ref_mach, w);
  KvStore ref(ref_mach, sc);
  ref.build(rs, rp);
  const std::uint64_t total_writes = ref_mach.stats().writes;
  ASSERT_GT(total_writes, 10u);

  // Cuts at 5/40/70/95% of the build's writes, plus two absolute cuts at
  // writes 45 and 60.
  std::vector<std::uint64_t> cuts;
  for (const std::uint64_t pct : {5ull, 40ull, 70ull, 95ull})
    cuts.push_back(std::max<std::uint64_t>(1, total_writes * pct / 100));
  cuts.insert(cuts.end(), {45, 60});

  bool saw_resume = false;
  for (const std::uint64_t cut : cuts) {
    SCOPED_TRACE(cut);
    Machine mach(cfg(4096, 16, 8));
    FaultConfig fc;
    fc.crash_after_writes = cut;
    mach.install_faults(fc);
    auto [slots, payload] = stage(mach, w);
    KvStore kv(mach, sc);
    bool crashed = false;
    try {
      kv.build(slots, payload);
    } catch (const CrashError&) {
      crashed = true;
    }
    ASSERT_TRUE(crashed);

    const RecoveryReport rep = kv.recover(slots, payload);
    saw_resume |= rep.outcome == RecoveryReport::Outcome::kResumed;
    EXPECT_GT(rep.reads, 0u) << "recovery must charge its detection scan";

    // Recovered store is byte-identical to the uncrashed build and serves
    // the same answers.
    EXPECT_EQ(kv.log_array().unsafe_host_view(),
              ref.log_array().unsafe_host_view())
        << "outcome=" << to_string(rep.outcome);
    EXPECT_EQ(kv.payload_array().unsafe_host_view(),
              ref.payload_array().unsafe_host_view());
    util::Rng rng(cut);
    for (int t = 0; t < 16; ++t) {
      const std::uint64_t key = w.slots[rng.below(w.slots.size())].key;
      EXPECT_EQ(kv.get(key), ref.get(key));
    }

    // The pass was billed on the machine and surfaced in the metrics.
    EXPECT_EQ(mach.recovery_stats().scans, 1u);
    EXPECT_EQ(mach.recovery_stats().reads, rep.reads);
    EXPECT_EQ(mach.recovery_stats().writes, rep.writes);
    const MetricsSnapshot s = snapshot_metrics(mach, "recover");
    EXPECT_TRUE(s.reliability.enabled);
    EXPECT_EQ(s.reliability.crashes, 1u);
    EXPECT_EQ(s.reliability.recovery.scans, 1u);
  }
  EXPECT_TRUE(saw_resume) << "no crash point exercised a mid-layout resume";
}

TEST(DurableBuildTest, RecoverMisuseThrowsDescriptively) {
  const Workload w = make_workload(64, 3);
  {
    Machine mach(cfg(4096, 16, 4));
    auto [slots, payload] = stage(mach, w);
    KvStore kv(mach, StoreConfig{IndexKind::kFence, 8, 4});
    kv.build(slots, payload);
    EXPECT_THROW(kv.recover(slots, payload), std::logic_error);  // built
  }
  {
    Machine mach(cfg(4096, 16, 4));
    auto [slots, payload] = stage(mach, w);
    KvStore kv(mach);  // non-durable
    EXPECT_THROW(kv.recover(slots, payload), std::logic_error);
  }
}

// --- device outages ------------------------------------------------------

ShardConfig shard_cfg(std::size_t devices, std::vector<OutageSpec> outages) {
  ShardConfig sc;
  sc.frontend = cfg(4096, 16, 8);
  sc.devices.assign(devices, cfg(4096, 16, 8));
  sc.outages = std::move(outages);
  return sc;
}

TEST(OutageConfigTest, ValidateRejectsBadWindows) {
  EXPECT_THROW(ShardedMachine(shard_cfg(2, {{5, 1, 0}})),
               std::invalid_argument);  // unknown device
  EXPECT_THROW(ShardedMachine(shard_cfg(2, {{0, 1, 9}, {0, 20, 30}})),
               std::invalid_argument);  // duplicate device
  EXPECT_THROW(ShardedMachine(shard_cfg(2, {{0, 10, 10}})),
               std::invalid_argument);  // window ends before it starts
  EXPECT_THROW(ShardedMachine(shard_cfg(2, {{0, 10, 5}})),
               std::invalid_argument);
  EXPECT_NO_THROW(ShardedMachine(shard_cfg(2, {{0, 10, 20}, {1, 30, 0}})));
}

/// Reads and writes every block of an array a few times; returns the sum
/// of the first word of every block read, so callers can compare results.
std::uint64_t drive(Machine& mach) {
  ExtArray<std::uint64_t> arr(mach, 40 * mach.B(), "traffic");
  Buffer<std::uint64_t> buf(mach, mach.B());
  std::uint64_t acc = 0;
  for (std::uint64_t pass = 0; pass < 3; ++pass) {
    for (std::uint64_t bi = 0; bi < arr.blocks(); ++bi) {
      arr.read_block(bi, buf.span());
      acc += buf[0];
      buf[0] = pass * 1000 + bi;
      arr.write_block(bi, std::span<const std::uint64_t>(
                              buf.data(), arr.block_elems(bi)));
    }
  }
  return acc;
}

TEST(OutageTest, ReadsWaitWritesQueueAndDrainWithExactAccounting) {
  ShardedMachine calm(shard_cfg(2, {}));
  const std::uint64_t calm_acc = drive(calm);

  // A window the backoff polls can wait out (the polls advance the clock).
  ShardedMachine dark(shard_cfg(2, {{1, 40, 70}}));
  const std::uint64_t dark_acc = drive(dark);

  // Degraded, not wrong: identical results, identical write counters, and
  // the read overhead is EXACTLY the charged backoff polls.
  EXPECT_EQ(calm_acc, dark_acc);
  EXPECT_EQ(calm.stats().writes, dark.stats().writes);
  const OutageStats& os = dark.outage_stats(1);
  EXPECT_GT(os.wait_rounds, 0u);
  EXPECT_GT(os.backoff_ios, 0u);
  EXPECT_EQ(os.failed_reads, 0u);
  EXPECT_EQ(dark.stats().reads, calm.stats().reads + os.backoff_ios);

  // Every write deferred while down was replayed once the window closed.
  EXPECT_GT(os.queued_writes, 0u);
  EXPECT_EQ(os.drained_writes, os.queued_writes);
  EXPECT_EQ(dark.pending_writes(1), 0u);

  // Device conservation: both devices end with the same native transfer
  // totals as the calm twin (the queue defers charges, never drops them).
  EXPECT_EQ(calm.device(1).stats().writes, dark.device(1).stats().writes);

  const MetricsSnapshot s = snapshot_metrics(dark, "outage");
  EXPECT_TRUE(s.reliability.enabled);
  ASSERT_EQ(s.reliability.outages.size(), 1u);
  EXPECT_EQ(s.reliability.outages[0].device, 1u);
  EXPECT_EQ(s.reliability.outages[0].stats.drained_writes, os.drained_writes);
}

TEST(ReliabilityZeroCostTest, UnhitCrashPointAndUnopenedOutageAreFree) {
  // The insurance is free until the disaster happens.  An armed crash point
  // beyond the horizon: the same traffic charges exactly what a plain
  // machine charges.
  Machine plain(cfg(4096, 16, 8));
  Machine armed(cfg(4096, 16, 8));
  FaultConfig fc;
  fc.crash_after_writes = ~0ull >> 1;
  armed.install_faults(fc);
  EXPECT_EQ(drive(plain), drive(armed));
  EXPECT_EQ(plain.stats(), armed.stats());
  EXPECT_EQ(plain.cost(), armed.cost());
  EXPECT_EQ(armed.faults()->crashes_fired(), 0u);

  // An outage window that never opens: counters, per-device totals and the
  // metrics JSON match the calm twin once the reliability section (where
  // the configured window legitimately shows as a row) is cleared.
  ShardedMachine calm(shard_cfg(2, {}));
  ShardedMachine far(shard_cfg(2, {{1, ~0ull >> 1, 0}}));
  EXPECT_EQ(drive(calm), drive(far));
  EXPECT_EQ(calm.stats(), far.stats());
  EXPECT_EQ(calm.cost(), far.cost());
  EXPECT_EQ(calm.devices_stats(), far.devices_stats());
  MetricsSnapshot mc = snapshot_metrics(calm, "t");
  MetricsSnapshot mf = snapshot_metrics(far, "t");
  mc.reliability = ReliabilityMetrics{};
  mf.reliability = ReliabilityMetrics{};
  EXPECT_EQ(to_json(mc), to_json(mf));
}

TEST(OutageTest, PermanentOutageExhaustsIntoFaultError) {
  ShardedMachine mach(shard_cfg(2, {{1, 10, 0}}));  // never comes back
  try {
    drive(mach);
    FAIL() << "expected FaultError";
  } catch (const FaultError& e) {
    EXPECT_FALSE(e.is_write());
    EXPECT_EQ(e.attempts(), 9u);  // the first try plus 8 waits
  }
  // The fixed wait schedule: 8 rounds of 1, 2, 4, 8, 16, 32, 64, 64 polls.
  const OutageStats& os = mach.outage_stats(1);
  EXPECT_EQ(os.failed_reads, 1u);
  EXPECT_EQ(os.wait_rounds, 8u);
  EXPECT_EQ(os.backoff_ios, 191u);
}

}  // namespace
