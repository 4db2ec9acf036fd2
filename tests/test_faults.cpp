// Tests for core/faults + core/remap: deterministic fault schedules,
// endurance bookkeeping, config validation, metrics surfacing, the
// zero-overhead-when-off guarantee, and the descriptive-misuse errors on
// machine-less arrays and buffers.
#include <gtest/gtest.h>

#include <sstream>
#include <vector>

#include "core/ext_array.hpp"
#include "core/faults.hpp"
#include "core/machine.hpp"
#include "core/metrics.hpp"
#include "core/remap.hpp"
#include "core/trace_io.hpp"
#include "sort/mergesort.hpp"
#include "store/kv_store.hpp"
#include "util/rng.hpp"

namespace {

using namespace aem;

Config cfg(std::size_t M, std::size_t B, std::uint64_t w) {
  Config c;
  c.memory_elems = M;
  c.block_elems = B;
  c.write_cost = w;
  return c;
}

TEST(FaultConfigTest, ValidateRejectsBadRates) {
  FaultConfig c;
  c.read_fault_rate = 1.5;
  EXPECT_THROW(c.validate(), std::invalid_argument);
  c.read_fault_rate = -0.1;
  EXPECT_THROW(c.validate(), std::invalid_argument);
  c.read_fault_rate = 0.0;
  c.silent_write_rate = 0.7;
  c.torn_write_rate = 0.6;  // sum > 1: one draw cannot decide
  EXPECT_THROW(c.validate(), std::invalid_argument);
  c.torn_write_rate = 0.3;
  EXPECT_NO_THROW(c.validate());
  // The constructor validates too.
  FaultConfig bad;
  bad.torn_write_rate = 2.0;
  EXPECT_THROW(FaultPolicy{bad}, std::invalid_argument);
}

TEST(FaultPolicyTest, ScheduleIsDeterministic) {
  FaultConfig c;
  c.seed = 777;
  c.read_fault_rate = 0.3;
  c.silent_write_rate = 0.2;
  c.torn_write_rate = 0.1;
  FaultPolicy a(c), b(c);
  for (int i = 0; i < 2000; ++i) {
    ASSERT_EQ(a.draw_read_fault(), b.draw_read_fault()) << "draw " << i;
    ASSERT_EQ(a.draw_write_fault(), b.draw_write_fault()) << "draw " << i;
    ASSERT_EQ(a.draw_u64(), b.draw_u64()) << "draw " << i;
  }
  EXPECT_EQ(a.stats(), b.stats());
  // reset() rewinds to the same stream.
  const std::uint64_t first = a.draw_u64();
  a.reset();
  b.reset();
  EXPECT_EQ(a.draw_u64(), b.draw_u64());
  (void)first;
}

TEST(FaultPolicyTest, RatesAreHonoured) {
  {
    FaultConfig c;  // all-zero rates: nothing ever fires
    FaultPolicy p(c);
    EXPECT_FALSE(p.injects_faults());
    for (int i = 0; i < 100; ++i) {
      EXPECT_FALSE(p.draw_read_fault());
      EXPECT_EQ(p.draw_write_fault(), FaultKind::kNone);
    }
    EXPECT_EQ(p.stats(), FaultStats{});
  }
  {
    FaultConfig c;
    c.read_fault_rate = 1.0;
    c.silent_write_rate = 1.0;
    FaultPolicy p(c);
    EXPECT_TRUE(p.injects_faults());
    for (int i = 0; i < 50; ++i) {
      EXPECT_TRUE(p.draw_read_fault());
      EXPECT_EQ(p.draw_write_fault(), FaultKind::kSilentWrite);
    }
    EXPECT_EQ(p.stats().read_faults, 50u);
    EXPECT_EQ(p.stats().silent_write_faults, 50u);
  }
  {
    FaultConfig c;
    c.torn_write_rate = 1.0;
    FaultPolicy p(c);
    for (int i = 0; i < 50; ++i)
      EXPECT_EQ(p.draw_write_fault(), FaultKind::kTornWrite);
  }
  {
    // A moderate rate lands near its expectation over many draws.
    FaultConfig c;
    c.read_fault_rate = 0.25;
    FaultPolicy p(c);
    int fired = 0;
    for (int i = 0; i < 10000; ++i) fired += p.draw_read_fault() ? 1 : 0;
    EXPECT_GT(fired, 2200);
    EXPECT_LT(fired, 2800);
  }
}

TEST(FaultPolicyTest, EnduranceRetirement) {
  FaultConfig c;
  c.endurance = 3;
  FaultPolicy p(c);
  EXPECT_TRUE(p.injects_faults());
  EXPECT_FALSE(p.record_write(0, 5));
  EXPECT_FALSE(p.record_write(0, 5));
  EXPECT_FALSE(p.record_write(0, 5));
  EXPECT_FALSE(p.retired(0, 5));
  EXPECT_TRUE(p.record_write(0, 5));  // 4th write: past the budget
  EXPECT_TRUE(p.retired(0, 5));
  EXPECT_EQ(p.lifetime_writes(0, 5), 4u);
  EXPECT_EQ(p.stats().retired_blocks, 1u);
  EXPECT_EQ(p.stats().retired_writes, 1u);
  // Other blocks are unaffected; unlimited endurance never retires.
  EXPECT_FALSE(p.retired(0, 4));
  EXPECT_FALSE(p.retired(1, 5));
  FaultPolicy unlimited{FaultConfig{}};
  for (int i = 0; i < 100; ++i) EXPECT_FALSE(unlimited.record_write(0, 0));
}

TEST(RemapTableTest, AssignsSparesInOrderAndExhausts) {
  RemapTable t(2);
  EXPECT_TRUE(t.empty());
  EXPECT_EQ(t.slot_of(7), RemapTable::npos);
  EXPECT_EQ(t.remap(7), 0u);
  EXPECT_EQ(t.remap(3), 1u);
  EXPECT_FALSE(t.empty());
  EXPECT_EQ(t.active(), 2u);
  EXPECT_EQ(t.spares_used(), 2u);
  EXPECT_EQ(t.slot_of(7), 0u);
  EXPECT_EQ(t.slot_of(3), 1u);
  try {
    t.remap(9);
    FAIL() << "expected SparesExhausted";
  } catch (const SparesExhausted& e) {
    EXPECT_EQ(e.logical_block(), 9u);
    EXPECT_EQ(e.spare_capacity(), 2u);
  }
}

TEST(FaultChecksumTest, SensitiveToEveryByte) {
  const unsigned char a[4] = {1, 2, 3, 4};
  const unsigned char b[4] = {1, 2, 3, 5};
  EXPECT_NE(fault_checksum(a, 4), fault_checksum(b, 4));
  EXPECT_NE(fault_checksum(a, 4), fault_checksum(a, 3));
  EXPECT_EQ(fault_checksum(a, 4), fault_checksum(a, 4));
  EXPECT_EQ(fault_checksum(a, 0), 0xCBF29CE484222325ull);  // FNV basis
}

// Every single-byte flip of a KvStore manifest slot must change its
// checksum; checked on a full 64-Slot store block (the four-lane path) and
// on every short length (the word and byte tails, and lane chunks followed
// by both).
TEST(FaultChecksumTest, EverySingleByteFlipIsDetected) {
  const unsigned char masks[] = {0x01, 0x80, 0xFF, 0x5A, 0xA5, 0x10};
  auto expect_flips_detected = [&](std::vector<unsigned char> bytes) {
    const std::uint64_t clean = fault_checksum(bytes.data(), bytes.size());
    for (std::size_t off = 0; off < bytes.size(); ++off) {
      for (unsigned char m : masks) {
        bytes[off] ^= m;
        EXPECT_NE(fault_checksum(bytes.data(), bytes.size()), clean)
            << "length " << bytes.size() << " offset " << off << " mask "
            << int{m};
        bytes[off] ^= m;
      }
    }
  };
  util::Rng rng(0xC5);
  std::vector<store::Slot> block(64);
  for (store::Slot& s : block) s = {rng.next(), rng.next(), rng.next()};
  ASSERT_EQ(block.size() * sizeof(store::Slot), 1536u);
  const auto* raw = reinterpret_cast<const unsigned char*>(block.data());
  expect_flips_detected({raw, raw + block.size() * sizeof(store::Slot)});
  // An all-zero block: the flips must not be absorbed by zero words.
  expect_flips_detected(std::vector<unsigned char>(1536, 0));
  for (std::size_t len = 1; len <= 40; ++len) {
    std::vector<unsigned char> bytes(len);
    for (unsigned char& b : bytes) b = static_cast<unsigned char>(rng.next());
    expect_flips_detected(bytes);
  }
  EXPECT_EQ(fault_checksum(nullptr, 0), 0xCBF29CE484222325ull);
}

// The zero-overhead-when-off guarantee: an installed policy whose rates are
// all zero must leave Q byte-identical to a machine with no policy at all.
TEST(FaultOverheadTest, ZeroRatePolicyLeavesCostsIdentical) {
  const std::size_t N = 1 << 11;
  util::Rng rng(31);
  const auto host = util::random_keys(N, rng);

  auto run = [&](bool install) {
    Machine mach(cfg(256, 16, 8));
    if (install) mach.install_faults(FaultConfig{});
    ExtArray<std::uint64_t> in(mach, N, "in");
    in.unsafe_host_fill(host);
    ExtArray<std::uint64_t> out(mach, N, "out");
    aem_merge_sort(in, out);
    return std::pair<IoStats, std::uint64_t>(mach.stats(), mach.cost());
  };

  const auto clean = run(false);
  const auto zero_rate = run(true);
  EXPECT_EQ(clean.first, zero_rate.first);
  EXPECT_EQ(clean.second, zero_rate.second);
}

TEST(FaultMetricsTest, V2SchemaCarriesFaultCounters) {
  Machine mach(cfg(128, 8, 4));
  FaultConfig c;
  c.seed = 5;
  c.read_fault_rate = 0.5;  // high enough that retries certainly happen
  c.max_retries = 64;
  mach.install_faults(c);

  const std::size_t N = 256;
  util::Rng rng(37);
  const auto host = util::random_keys(N, rng);
  ExtArray<std::uint64_t> in(mach, N, "in");
  in.unsafe_host_fill(host);
  ExtArray<std::uint64_t> out(mach, N, "out");
  aem_merge_sort(in, out);

  auto expect = host;
  std::sort(expect.begin(), expect.end());
  EXPECT_EQ(out.unsafe_host_view(), expect);

  const MetricsSnapshot s = snapshot_metrics(mach, "faulty");
  EXPECT_TRUE(s.faults_enabled);
  EXPECT_EQ(s.fault_config.seed, 5u);
  EXPECT_GT(s.fault_stats.read_faults, 0u);
  EXPECT_GT(s.fault_stats.checksum_failures, 0u);
  EXPECT_GT(s.fault_stats.read_retries, 0u);

  const std::string j = to_json(s);
  EXPECT_NE(j.find(MetricsSnapshot::kSchema), std::string::npos);
  EXPECT_NE(j.find("\"faults\":{\"enabled\":true,\"seed\":5"),
            std::string::npos);
  EXPECT_NE(j.find("\"injected\":{\"read\":" +
                   std::to_string(s.fault_stats.read_faults)),
            std::string::npos);
  EXPECT_NE(j.find("\"recovery\":{\"read_retries\":" +
                   std::to_string(s.fault_stats.read_retries)),
            std::string::npos);
}

// Satellite: identical (seed, config, program) must reproduce the identical
// fault schedule, metrics snapshot, and recorded trace — bit for bit.
TEST(FaultDeterminismTest, IdenticalSeedGivesIdenticalRun) {
  auto run = [] {
    Machine mach(cfg(256, 16, 8));
    FaultConfig c;
    c.seed = 1234;
    c.read_fault_rate = 0.05;
    c.silent_write_rate = 0.02;
    c.torn_write_rate = 0.02;
    c.max_retries = 64;
    mach.install_faults(c);
    mach.enable_trace();

    const std::size_t N = 1 << 10;
    util::Rng rng(41);
    const auto host = util::random_keys(N, rng);
    ExtArray<std::uint64_t> in(mach, N, "in");
    in.unsafe_host_fill(host);
    ExtArray<std::uint64_t> out(mach, N, "out");
    aem_merge_sort(in, out);

    const std::string json = to_json(snapshot_metrics(mach, "det"));
    std::ostringstream tr;
    write_trace(tr, *mach.trace());
    return std::pair<std::string, std::string>(json, tr.str());
  };
  const auto a = run();
  const auto b = run();
  EXPECT_EQ(a.first, b.first);    // metrics snapshot, including fault stats
  EXPECT_EQ(a.second, b.second);  // full I/O trace
}

TEST(FaultDeterminismTest, DifferentSeedsDiverge) {
  auto stats_for = [](std::uint64_t seed) {
    Machine mach(cfg(128, 8, 4));
    FaultConfig c;
    c.seed = seed;
    c.read_fault_rate = 0.2;
    c.max_retries = 64;
    mach.install_faults(c);
    const std::size_t N = 512;
    util::Rng rng(43);
    const auto host = util::random_keys(N, rng);
    ExtArray<std::uint64_t> in(mach, N, "in");
    in.unsafe_host_fill(host);
    ExtArray<std::uint64_t> out(mach, N, "out");
    aem_merge_sort(in, out);
    return mach.faults()->stats();
  };
  EXPECT_NE(stats_for(1), stats_for(2));
}

TEST(MisuseTest, MachinelessExtArrayThrowsDescriptively) {
  ExtArray<std::uint64_t> fresh;  // default-constructed: no machine
  EXPECT_THROW(fresh.machine(), std::logic_error);
  std::vector<std::uint64_t> buf(8);
  EXPECT_THROW(fresh.read_block(0, std::span<std::uint64_t>(buf)),
               std::logic_error);

  Machine mach(cfg(64, 8, 1));
  ExtArray<std::uint64_t> a(mach, 16, "a");
  ExtArray<std::uint64_t> b(std::move(a));
  EXPECT_EQ(b.size(), 16u);
  EXPECT_NO_THROW(b.machine());
  // The moved-from array is a machine-less placeholder, not a live alias.
  EXPECT_THROW(a.machine(), std::logic_error);
  EXPECT_THROW(a.read_block(0, std::span<std::uint64_t>(buf)),
               std::logic_error);
  EXPECT_THROW(a.write_block(0, std::span<const std::uint64_t>(buf)),
               std::logic_error);
  a = std::move(b);  // move-assign revives it
  EXPECT_NO_THROW(a.machine());
  EXPECT_THROW(b.machine(), std::logic_error);
}

TEST(MisuseTest, DetachedBufferResizeThrows) {
  Buffer<int> detached;
  EXPECT_NO_THROW(detached.resize(0));  // no allocation, nothing to account
  EXPECT_THROW(detached.resize(8), std::logic_error);

  Machine mach(cfg(64, 8, 1));
  Buffer<int> live(mach, 8);
  Buffer<int> taken(std::move(live));
  EXPECT_NO_THROW(taken.resize(16));
  EXPECT_THROW(live.resize(4), std::logic_error);
}

TEST(MisuseTest, OutOfRangeBlockNamesTheBounds) {
  Machine mach(cfg(64, 8, 1));
  ExtArray<std::uint64_t> a(mach, 16, "a");  // 2 blocks
  std::vector<std::uint64_t> buf(8);
  try {
    a.read_block(5, std::span<std::uint64_t>(buf));
    FAIL() << "expected out_of_range";
  } catch (const std::out_of_range& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("block index 5"), std::string::npos) << msg;
    EXPECT_NE(msg.find("2 blocks"), std::string::npos) << msg;
  }
}

}  // namespace
