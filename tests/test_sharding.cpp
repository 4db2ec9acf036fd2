// core/sharding: routing bijections, facade invariance against the plain
// machine, device conservation, write amplification across unequal block
// sizes, wear-spread aggregation, and the metrics sharding section.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/ext_array.hpp"
#include "core/machine.hpp"
#include "core/metrics.hpp"
#include "core/sharding.hpp"

namespace {

using namespace aem;

Config base_config(std::uint64_t omega = 8, std::size_t B = 16) {
  Config cfg;
  cfg.memory_elems = 1024;
  cfg.block_elems = B;
  cfg.write_cost = omega;
  return cfg;
}

ShardConfig uniform_shard(std::size_t devices,
                          Placement placement = Placement::kRoundRobin,
                          std::size_t chunk = 4) {
  ShardConfig sc;
  sc.frontend = base_config();
  sc.devices.assign(devices, base_config());
  sc.placement = placement;
  sc.range_chunk_blocks = chunk;
  return sc;
}

/// The canonical mixed read/write driver used by the invariance tests.
void drive(Machine& mach, std::size_t blocks = 64, std::size_t passes = 4) {
  auto phase = mach.phase("drive");
  ExtArray<std::uint64_t> arr(mach, blocks * mach.B(), "hot");
  Buffer<std::uint64_t> buf(mach, mach.B());
  for (std::size_t i = 0; i < passes * blocks; ++i) {
    const std::uint64_t bi = (i * 7) % blocks;
    arr.read_block(bi, buf.span());
    buf[0] = i;
    arr.write_block(bi, std::span<const std::uint64_t>(
                            buf.data(), arr.block_elems(bi)));
  }
}

TEST(ShardConfigTest, PlacementNames) {
  EXPECT_STREQ(to_string(Placement::kRoundRobin), "round-robin");
  EXPECT_STREQ(to_string(Placement::kRange), "range");
}

TEST(ShardConfigTest, ValidateRejectsBadConfigs) {
  ShardConfig sc = uniform_shard(2);
  EXPECT_NO_THROW(sc.validate());

  ShardConfig none = sc;
  none.devices.clear();
  EXPECT_THROW(none.validate(), std::invalid_argument);

  ShardConfig cached = sc;
  cached.devices[1].cache.capacity_blocks = 8;
  EXPECT_THROW(cached.validate(), std::invalid_argument);

  ShardConfig odd_b = sc;
  odd_b.devices[0].block_elems = 10;  // does not divide 16
  EXPECT_THROW(odd_b.validate(), std::invalid_argument);

  ShardConfig coarse = sc;
  coarse.devices[0].block_elems = 32;  // larger than the frontend's 16
  EXPECT_THROW(coarse.validate(), std::invalid_argument);

  ShardConfig zero_chunk = sc;
  zero_chunk.range_chunk_blocks = 0;
  EXPECT_THROW(zero_chunk.validate(), std::invalid_argument);

  ShardConfig bad_dev = sc;
  bad_dev.devices[1].write_cost = 0;
  EXPECT_THROW(bad_dev.validate(), std::invalid_argument);

  // The constructor routes through validate() too.
  EXPECT_THROW(ShardedMachine{none}, std::invalid_argument);
}

TEST(ShardRoutingTest, RoundRobinIsABijection) {
  ShardedMachine mach(uniform_shard(3));
  std::set<std::pair<std::size_t, std::uint64_t>> seen;
  for (std::uint64_t b = 0; b < 999; ++b) {
    const auto r = mach.route(b);
    EXPECT_EQ(r.device, b % 3);
    EXPECT_EQ(r.local, b / 3);
    EXPECT_TRUE(seen.emplace(r.device, r.local).second) << "block " << b;
  }
  // 999 blocks over 3 devices: locals are dense per device.
  for (std::size_t d = 0; d < 3; ++d)
    for (std::uint64_t l = 0; l < 333; ++l)
      EXPECT_TRUE(seen.count({d, l})) << d << "," << l;
}

TEST(ShardRoutingTest, RangeIsABijectionWithContiguousChunks) {
  ShardedMachine mach(uniform_shard(3, Placement::kRange, /*chunk=*/4));
  std::set<std::pair<std::size_t, std::uint64_t>> seen;
  for (std::uint64_t b = 0; b < 960; ++b) {
    const auto r = mach.route(b);
    // Blocks within one chunk stay on one device, at consecutive locals.
    EXPECT_EQ(r.device, (b / 4) % 3);
    EXPECT_EQ(r.local, (b / 12) * 4 + b % 4);
    EXPECT_TRUE(seen.emplace(r.device, r.local).second) << "block " << b;
  }
  for (std::size_t d = 0; d < 3; ++d)
    for (std::uint64_t l = 0; l < 320; ++l)
      EXPECT_TRUE(seen.count({d, l})) << d << "," << l;
}

TEST(ShardRoutingTest, SingleDeviceRoutesIdentity) {
  for (Placement p : {Placement::kRoundRobin, Placement::kRange}) {
    ShardedMachine mach(uniform_shard(1, p));
    for (std::uint64_t b : {0ull, 1ull, 63ull, 1000000ull}) {
      const auto r = mach.route(b);
      EXPECT_EQ(r.device, 0u);
      EXPECT_EQ(r.local, b);
    }
  }
}

TEST(ShardedMachineTest, FacadeMatchesPlainMachineExactly) {
  const std::pair<std::size_t, Placement> shapes[] = {
      {1, Placement::kRoundRobin}, {1, Placement::kRange},
      {3, Placement::kRoundRobin}, {3, Placement::kRange}};
  for (const auto& [devices, p] : shapes) {
    SCOPED_TRACE("D=" + std::to_string(devices));
    Machine plain(base_config());
    plain.enable_trace();
    drive(plain);

    ShardedMachine sharded(uniform_shard(devices, p));
    sharded.enable_trace();
    drive(sharded);

    EXPECT_TRUE(plain.stats() == sharded.stats());
    EXPECT_EQ(plain.cost(), sharded.cost());
    ASSERT_EQ(plain.trace()->size(), sharded.trace()->size());
    const auto& po = plain.trace()->ops();
    const auto& so = sharded.trace()->ops();
    for (std::size_t i = 0; i < po.size(); ++i) {
      EXPECT_EQ(po[i].kind, so[i].kind) << i;
      EXPECT_EQ(po[i].array, so[i].array) << i;
      EXPECT_EQ(po[i].block, so[i].block) << i;
    }
    // The whole snapshot agrees once the sharding section — the one part
    // that legitimately differs — is cleared on both sides.
    MetricsSnapshot mp = snapshot_metrics(plain, "t");
    MetricsSnapshot ms = snapshot_metrics(sharded, "t");
    mp.sharding = ShardingMetrics{};
    ms.sharding = ShardingMetrics{};
    EXPECT_EQ(to_json(mp), to_json(ms));
    // D = 1 (MODEL.md section 13): the one device mirrors the facade, with
    // amplification 1 and identity routing.
    if (devices == 1) {
      EXPECT_TRUE(sharded.device(0).stats() == plain.stats());
      EXPECT_EQ(sharded.device(0).cost(), plain.cost());
    }
  }
}

TEST(ShardedMachineTest, DeviceTransfersConservedAcrossPlacements) {
  for (Placement p : {Placement::kRoundRobin, Placement::kRange}) {
    ShardedMachine mach(uniform_shard(4, p));
    drive(mach);
    const IoStats facade = mach.stats();
    EXPECT_TRUE(mach.devices_stats() == facade);
    EXPECT_EQ(mach.devices_cost(), mach.cost());
    IoStats sum;
    for (std::size_t d = 0; d < mach.device_count(); ++d)
      sum += mach.device(d).stats();
    EXPECT_TRUE(sum == facade);
  }
}

TEST(ShardedMachineTest, RegisterArrayMirrorsOntoDevices) {
  ShardedMachine mach(uniform_shard(2));
  const std::uint32_t a = mach.register_array("alpha");
  const std::uint32_t b = mach.register_array("beta");
  EXPECT_EQ(a, 0u);
  EXPECT_EQ(b, 1u);
  for (std::size_t d = 0; d < 2; ++d) {
    ASSERT_EQ(mach.device(d).array_count(), 2u);
    EXPECT_EQ(mach.device(d).array_name(a), "alpha");
    EXPECT_EQ(mach.device(d).array_name(b), "beta");
  }
}

TEST(ShardedMachineTest, ResetStatsResetsDevicesToo) {
  ShardedMachine mach(uniform_shard(2));
  drive(mach);
  ASSERT_GT(mach.device(0).stats().reads, 0u);
  mach.reset_stats();
  EXPECT_EQ(mach.stats().reads, 0u);
  for (std::size_t d = 0; d < 2; ++d) {
    EXPECT_EQ(mach.device(d).stats().reads, 0u);
    EXPECT_EQ(mach.device(d).stats().writes, 0u);
  }
}

TEST(ShardedMachineTest, AmplificationSplitsCoarseBlocksOntoFineDevices) {
  // Frontend B=16 over devices with B=4: every logical transfer becomes 4
  // native transfers on the owning device, charged at device prices.
  ShardConfig sc;
  sc.frontend = base_config(/*omega=*/8, /*B=*/16);
  sc.devices.assign(2, base_config(/*omega=*/8, /*B=*/4));
  ShardedMachine mach(sc);
  EXPECT_EQ(mach.amplification(0), 4u);

  const std::uint32_t a = mach.register_array("x");
  mach.on_read(a, 2);   // device 0, local 1 -> native blocks 4..7
  mach.on_write(a, 3);  // device 1, local 1 -> native blocks 4..7

  EXPECT_EQ(mach.stats().reads, 1u);
  EXPECT_EQ(mach.stats().writes, 1u);
  EXPECT_EQ(mach.device(0).stats().reads, 4u);
  EXPECT_EQ(mach.device(0).stats().writes, 0u);
  EXPECT_EQ(mach.device(1).stats().writes, 4u);
  // Device cost prices the native transfers: 4 writes at omega=8.
  EXPECT_EQ(mach.device(1).cost(), 32u);
  EXPECT_EQ(mach.devices_cost(), 4u + 32u);

  // The native wear lands on the amplified block range.
  ShardConfig wsc = sc;
  ShardedMachine wm(wsc);
  wm.enable_device_wear_tracking();
  const std::uint32_t wa = wm.register_array("x");
  wm.on_write(wa, 3);
  const WearStats ws = wm.device(1).wear_stats();
  EXPECT_EQ(ws.blocks_written, 4u);
  EXPECT_EQ(ws.max_writes, 1u);
}

TEST(ShardedMachineTest, WearSpreadReflectsImbalance) {
  ShardedMachine mach(uniform_shard(2));
  EXPECT_DOUBLE_EQ(mach.wear_spread(), 1.0);  // no writes yet

  const std::uint32_t a = mach.register_array("x");
  // Even blocks only: round-robin sends every write to device 0.
  for (std::uint64_t b = 0; b < 16; b += 2) mach.on_write(a, b);
  EXPECT_DOUBLE_EQ(mach.wear_spread(), 2.0);

  // Balance it: same number of odd-block writes -> spread back to 1.
  for (std::uint64_t b = 1; b < 16; b += 2) mach.on_write(a, b);
  EXPECT_DOUBLE_EQ(mach.wear_spread(), 1.0);
}

TEST(ShardedMachineTest, HeterogeneousOmegasPricePerDevice) {
  ShardConfig sc = uniform_shard(2);
  sc.devices[0].write_cost = 1;
  sc.devices[1].write_cost = 100;
  sc.frontend.write_cost = 10;
  ShardedMachine mach(sc);
  const std::uint32_t a = mach.register_array("x");
  mach.on_write(a, 0);  // device 0, omega 1
  mach.on_write(a, 1);  // device 1, omega 100
  EXPECT_EQ(mach.cost(), 20u);           // facade prices at frontend omega
  EXPECT_EQ(mach.devices_cost(), 101u);  // devices price at their own
}

TEST(ShardedMachineTest, MetricsV4ShardingSection) {
  ShardedMachine mach(uniform_shard(2, Placement::kRange, /*chunk=*/4));
  mach.enable_device_wear_tracking();
  drive(mach);
  MetricsSnapshot s = snapshot_metrics(mach, "shard");
  EXPECT_TRUE(s.sharding.enabled);
  EXPECT_EQ(s.sharding.placement, "range");
  EXPECT_EQ(s.sharding.chunk_blocks, 4u);
  ASSERT_EQ(s.sharding.devices.size(), 2u);
  EXPECT_EQ(s.sharding.devices[0].name, "dev0");
  EXPECT_EQ(s.sharding.devices[0].amplification, 1u);
  EXPECT_TRUE(s.sharding.devices[0].wear_enabled);
  EXPECT_EQ(s.sharding.total_io.reads + s.sharding.total_io.writes,
            mach.stats().reads + mach.stats().writes);
  EXPECT_DOUBLE_EQ(s.sharding.wear_spread, mach.wear_spread());

  const std::string j = to_json(s);
  EXPECT_NE(j.find(MetricsSnapshot::kSchema), std::string::npos);
  EXPECT_NE(j.find("\"sharding\":{\"enabled\":true,\"placement\":\"range\""),
            std::string::npos);
  EXPECT_NE(j.find("\"per_device\":[{\"name\":\"dev0\""), std::string::npos);

  // A plain machine reports the section disabled and empty.
  Machine plain(base_config());
  MetricsSnapshot ps = snapshot_metrics(plain, "plain");
  EXPECT_FALSE(ps.sharding.enabled);
  EXPECT_TRUE(ps.sharding.devices.empty());
  EXPECT_NE(to_json(ps).find("\"sharding\":{\"enabled\":false"),
            std::string::npos);
}

TEST(ShardedMachineTest, ExtArrayTrafficRoutesThroughDevices) {
  // End-to-end through the charged door: ExtArray blocks land on the
  // devices the routing says, with per-device wear on local indices.
  ShardedMachine mach(uniform_shard(2));
  mach.enable_device_wear_tracking();
  ExtArray<std::uint64_t> arr(mach, 8 * mach.B(), "a");
  Buffer<std::uint64_t> buf(mach, mach.B());
  for (std::uint64_t b = 0; b < 8; ++b) {
    buf[0] = b;
    arr.write_block(b, std::span<const std::uint64_t>(
                           buf.data(), arr.block_elems(b)));
  }
  EXPECT_EQ(mach.device(0).stats().writes, 4u);  // blocks 0,2,4,6
  EXPECT_EQ(mach.device(1).stats().writes, 4u);  // blocks 1,3,5,7
  EXPECT_DOUBLE_EQ(mach.wear_spread(), 1.0);
  const WearStats w0 = mach.device(0).wear_stats();
  EXPECT_EQ(w0.blocks_written, 4u);  // locals 0..3
}

}  // namespace
