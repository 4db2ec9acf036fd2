// Unit tests for core/metrics: snapshot correctness against a live machine,
// the full key layout of the JSON serialization, and the per-line
// identities check_metrics enforces before a bench writes a line.
#include <gtest/gtest.h>

#include <functional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/ext_array.hpp"
#include "core/machine.hpp"
#include "core/metrics.hpp"

namespace {

using namespace aem;

Config small_config() {
  Config cfg;
  cfg.memory_elems = 64;
  cfg.block_elems = 8;
  cfg.write_cost = 4;
  return cfg;
}

TEST(MetricsTest, SnapshotCapturesMachineState) {
  Machine mach(small_config());
  mach.enable_wear_tracking();
  mach.enable_trace();
  std::uint32_t a = mach.register_array("alpha");
  std::uint32_t b = mach.register_array("beta");
  {
    auto p = mach.phase("pass");
    mach.on_read(a, 0);
    mach.on_write(a, 0);
    mach.on_write(a, 0);
    mach.on_write(b, 3);
  }
  Buffer<int> buf(mach, 16);

  const MetricsSnapshot s = snapshot_metrics(mach, "unit");
  EXPECT_EQ(s.label, "unit");
  EXPECT_EQ(s.memory_elems, 64u);
  EXPECT_EQ(s.block_elems, 8u);
  EXPECT_EQ(s.write_cost, 4u);

  EXPECT_EQ(s.io.reads, 1u);
  EXPECT_EQ(s.io.writes, 3u);
  EXPECT_EQ(s.cost, 1u + 4u * 3u);

  EXPECT_EQ(s.ledger_used, 16u);
  EXPECT_EQ(s.ledger_high_water, 16u);
  EXPECT_FALSE(s.ledger_poisoned);

  ASSERT_EQ(s.phases.size(), 1u);
  EXPECT_EQ(s.phases[0].name, "pass");
  EXPECT_EQ(s.phases[0].io.reads, 1u);
  EXPECT_EQ(s.phases[0].io.writes, 3u);

  EXPECT_TRUE(s.wear_enabled);
  EXPECT_EQ(s.wear_blocks_written, 2u);  // alpha block 0, beta block 3
  EXPECT_EQ(s.wear_max_writes, 2u);
  ASSERT_EQ(s.wear_arrays.size(), 2u);
  EXPECT_EQ(s.wear_arrays[0].name, "alpha");
  EXPECT_EQ(s.wear_arrays[0].writes, 2u);
  EXPECT_EQ(s.wear_arrays[1].name, "beta");
  EXPECT_EQ(s.wear_arrays[1].blocks_written, 1u);

  EXPECT_TRUE(s.trace_enabled);
  EXPECT_EQ(s.trace_ops, 4u);

  ASSERT_EQ(s.arrays.size(), 2u);
  EXPECT_EQ(s.arrays[0], "alpha");
  EXPECT_EQ(s.arrays[1], "beta");
}

TEST(MetricsTest, SnapshotOfFreshMachineIsEmptyButValid) {
  Machine mach(small_config());
  const MetricsSnapshot s = snapshot_metrics(mach);
  EXPECT_EQ(s.io.total_ios(), 0u);
  EXPECT_TRUE(s.phases.empty());
  EXPECT_FALSE(s.wear_enabled);
  EXPECT_FALSE(s.trace_enabled);
  const std::string j = to_json(s);
  EXPECT_NE(j.find(MetricsSnapshot::kSchema), std::string::npos);
  EXPECT_NE(j.find("\"phases\":[]"), std::string::npos);
  // Without an installed FaultPolicy the faults section reports defaults.
  EXPECT_NE(j.find("\"faults\":{\"enabled\":false"), std::string::npos);
  // Same for the cache section in bypass mode.
  EXPECT_NE(j.find("\"cache\":{\"enabled\":false"), std::string::npos);
}

TEST(MetricsTest, SnapshotSurfacesCacheState) {
  Config cfg = small_config();
  cfg.cache.capacity_blocks = 4;
  cfg.cache.policy = CachePolicy::kCleanFirst;
  Machine mach(cfg);
  ExtArray<int> arr(mach, 32, "data");
  std::vector<int> blk(8, 7);
  arr.write_block(0, std::span<const int>(blk));   // write miss (allocate)
  arr.write_block(0, std::span<const int>(blk));   // write hit (coalesced)
  arr.read_block(0, std::span<int>(blk));          // read hit
  mach.flush_cache();

  const MetricsSnapshot s = snapshot_metrics(mach, "cached");
  EXPECT_TRUE(s.cache_enabled);
  EXPECT_EQ(s.cache_config.capacity_blocks, 4u);
  EXPECT_EQ(s.cache_config.policy, CachePolicy::kCleanFirst);
  // omega = 4, capacity 4: window = 4 - max(1, 4/4) = 3.
  EXPECT_EQ(s.cache_window, 3u);
  EXPECT_EQ(s.cache_stats.write_misses, 1u);
  EXPECT_EQ(s.cache_stats.write_hits, 1u);
  EXPECT_EQ(s.cache_stats.read_hits, 1u);
  EXPECT_EQ(s.cache_stats.write_backs, 1u);
  EXPECT_EQ(s.cache_resident, 1u);
  EXPECT_EQ(s.cache_resident_dirty, 0u);

  const std::string j = to_json(s);
  EXPECT_NE(j.find("\"cache\":{\"enabled\":true,\"policy\":\"clean-first\","
                   "\"capacity_blocks\":4,\"clean_window\":3"),
            std::string::npos);
  EXPECT_NE(j.find("\"write_backs\":1"), std::string::npos);
}

TEST(MetricsTest, JsonContainsStableSchemaAndFields) {
  Machine mach(small_config());
  std::uint32_t a = mach.register_array("in");
  {
    auto p = mach.phase("sort.merge");
    mach.on_read(a, 0);
    mach.on_write(a, 0);
  }
  const std::string j = to_json(snapshot_metrics(mach, "case-1"));
  EXPECT_EQ(j.find('\n'), std::string::npos);  // one line per snapshot
  EXPECT_NE(j.find(MetricsSnapshot::kSchema), std::string::npos);
  for (const char* needle :
       {"\"label\":\"case-1\"",
        "\"config\":{\"memory_elems\":64,\"block_elems\":8,\"write_cost\":4",
        "\"io\":{\"reads\":1,\"writes\":1,\"total\":2,\"cost\":5}",
        "\"name\":\"sort.merge\"", "\"ledger\":", "\"poisoned\":false",
        "\"wear\":{\"enabled\":false", "\"faults\":{\"enabled\":false",
        "\"injected\":{\"read\":0", "\"recovery\":{\"read_retries\":0",
        "\"cache\":{\"enabled\":false,\"policy\":\"lru\"",
        "\"trace\":{\"enabled\":false", "\"arrays\":[\"in\"]"}) {
    EXPECT_NE(j.find(needle), std::string::npos) << "missing " << needle
                                                 << " in " << j;
  }
}

// Every key the writer emits, pinned once: write_json writes each key
// whatever its value, so this line (a default snapshot plus one default row
// in each list) is the schema's key set.
TEST(MetricsTest, DefaultSnapshotPinsEveryKey) {
  MetricsSnapshot s;
  s.phases.emplace_back();
  s.wear_arrays.emplace_back();
  s.sharding.devices.emplace_back();
  s.reliability.outages.emplace_back();
  s.arrays.emplace_back();
  const std::string want =
      "{\"schema\":\"" + std::string(MetricsSnapshot::kSchema) +
      "\",\"label\":\"\","
      "\"config\":{\"memory_elems\":0,\"block_elems\":0,\"write_cost\":1},"
      "\"io\":{\"reads\":0,\"writes\":0,\"total\":0,\"cost\":0},"
      "\"ledger\":{\"used\":0,\"high_water\":0,\"poisoned\":false,"
      "\"over_released\":0},"
      "\"phases\":[{\"name\":\"\",\"io\":{\"reads\":0,\"writes\":0}}],"
      "\"wear\":{\"enabled\":false,\"blocks_written\":0,\"max_writes\":0,"
      "\"mean_writes\":0,\"arrays\":[{\"name\":\"\",\"array\":0,"
      "\"blocks_written\":0,\"writes\":0,\"max_writes\":0}]},"
      "\"faults\":{\"enabled\":false,\"seed\":1,\"read_fault_rate\":0,"
      "\"silent_write_rate\":0,\"torn_write_rate\":0,\"endurance\":0,"
      "\"spare_blocks\":0,\"max_retries\":4,"
      "\"injected\":{\"read\":0,\"silent_write\":0,\"torn_write\":0,"
      "\"retired_write\":0},\"recovery\":{\"read_retries\":0,"
      "\"write_retries\":0,\"verify_failures\":0,\"checksum_failures\":0,"
      "\"retired_blocks\":0,\"remaps\":0}},"
      "\"cache\":{\"enabled\":false,\"policy\":\"lru\",\"capacity_blocks\":0,"
      "\"clean_window\":0,\"read_hits\":0,\"read_misses\":0,\"write_hits\":0,"
      "\"write_misses\":0,\"evictions_clean\":0,\"evictions_dirty\":0,"
      "\"write_backs\":0,\"flushes\":0,\"invalidated_dirty\":0,"
      "\"resident\":0,\"resident_dirty\":0},"
      "\"sharding\":{\"enabled\":false,\"placement\":\"\",\"devices\":1,"
      "\"chunk_blocks\":0,\"total\":{\"reads\":0,\"writes\":0,\"cost\":0},"
      "\"wear_spread\":0,\"per_device\":[{\"name\":\"\",\"memory_elems\":0,"
      "\"block_elems\":0,\"write_cost\":1,\"amplification\":1,\"io\":{"
      "\"reads\":0,\"writes\":0,\"cost\":0},\"wear\":{\"enabled\":false,"
      "\"blocks_written\":0,\"max_writes\":0,\"mean_writes\":0}}]},"
      "\"store\":{\"enabled\":false,\"index\":\"\",\"records\":0,"
      "\"log_blocks\":0,\"payload_words\":0,\"payload_blocks\":0,"
      "\"index_bits\":0,\"index_bits_per_page\":0,\"gets\":0,\"get_hits\":0,"
      "\"get_log_reads\":0,\"get_payload_reads\":0,\"max_get_log_reads\":0,"
      "\"scans\":0,\"scan_records\":0,\"puts\":0,\"put_hits\":0,"
      "\"put_log_reads\":0,\"put_writes\":0,\"orphaned_words\":0,"
      "\"build\":{\"reads\":0,\"writes\":0,\"cost\":0}},"
      "\"reliability\":{\"enabled\":false,\"crash_after_writes\":0,"
      "\"crashes\":0,"
      "\"recovery\":{\"scans\":0,\"reads\":0,\"writes\":0,\"cost\":0},"
      "\"outages\":[{\"name\":\"\",\"device\":0,\"down_at\":0,\"up_at\":0,"
      "\"down_now\":false,\"wait_rounds\":0,\"backoff_ios\":0,"
      "\"failed_reads\":0,\"queued_writes\":0,\"drained_writes\":0,"
      "\"pending_writes\":0}]},"
      "\"traffic\":{\"enabled\":false,\"dist\":\"\",\"generated\":0,"
      "\"served\":0,\"rejected\":0,\"rejection_rate\":0,\"gets\":0,"
      "\"puts\":0,\"scans\":0,\"io\":{\"reads\":0,\"writes\":0,\"cost\":0},"
      "\"q\":{\"p50\":0,\"p99\":0,\"p999\":0,\"max\":0,\"mean\":0},"
      "\"imbalance\":1,\"wear_horizon\":0,\"windows\":0,\"q_budget\":0},"
      "\"trace\":{\"enabled\":false,\"ops\":0},\"arrays\":[\"\"]}";
  EXPECT_EQ(to_json(s), want);
}

// One row per identity: a hand-built snapshot that breaks it is rejected,
// and the message names the label and every field the identity involves.
TEST(CheckMetricsTest, RejectsEachBrokenIdentityNamingItsFields) {
  const auto sharded = [](MetricsSnapshot& s) {
    s.sharding.enabled = true;
    ShardDeviceMetrics d;
    d.io = IoStats{3, 2};
    s.sharding.devices = {d, d};
    s.sharding.total_io = IoStats{6, 4};
  };
  const auto traffic = [](MetricsSnapshot& s) {
    s.traffic.enabled = true;
    s.traffic.generated = 10;
    s.traffic.served = 8;
    s.traffic.rejected = 2;
  };
  MetricsSnapshot ok;
  EXPECT_NO_THROW(check_metrics(ok));
  sharded(ok);
  traffic(ok);
  EXPECT_NO_THROW(check_metrics(ok));

  struct Case {
    std::function<void(MetricsSnapshot&)> brk;
    std::vector<std::string> fields;
  };
  const std::vector<Case> cases = {
      {[](auto& s) { s.sharding.enabled = true; }, {"sharding.per_device"}},
      {[&](auto& s) { sharded(s); s.sharding.total_io.reads = 7; },
       {"sharding.per_device", "sharding.total", "reads=7"}},
      {[&](auto& s) { sharded(s); s.sharding.total_io.writes = 5; },
       {"sharding.per_device", "sharding.total", "writes=5"}},
      {[](auto& s) { s.cache_enabled = true; s.cache_resident_dirty = 2; },
       {"cache.resident_dirty = 2"}},
      {[](auto& s) { s.store.enabled = true; s.store.index = "btree"; },
       {"store.index", "btree"}},
      {[](auto& s) { s.reliability.crashes = 1; }, {"reliability.crashes = 1"}},
      {[](auto& s) { s.reliability.recovery.scans = 1; },
       {"reliability.recovery.scans = 1"}},
      {[](auto& s) { s.reliability.outages.emplace_back(); },
       {"reliability.outages = 1"}},
      {[&](auto& s) { traffic(s); s.traffic.served = 7; },
       {"traffic.served", "traffic.rejected", "traffic.generated = 10"}},
      {[&](auto& s) { traffic(s); s.traffic.q_p50 = 5; },
       {"traffic.q", "p50 = 5", "p99 = 0"}},
      {[&](auto& s) { traffic(s); s.traffic.q_p999 = 9; s.traffic.q_p99 = 9; },
       {"traffic.q", "p999 = 9", "max = 0"}},
      {[](auto& s) { s.traffic.generated = 4; }, {"traffic.generated = 4"}},
      {[](auto& s) { s.traffic.cost = 6; }, {"traffic.io.cost = 6"}},
  };
  for (std::size_t i = 0; i < cases.size(); ++i) {
    MetricsSnapshot s;
    s.label = "case-" + std::to_string(i);
    cases[i].brk(s);
    try {
      check_metrics(s);
      ADD_FAILURE() << s.label << " was accepted";
    } catch (const std::logic_error& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find("\"" + s.label + "\""), std::string::npos) << msg;
      for (const std::string& f : cases[i].fields)
        EXPECT_NE(msg.find(f), std::string::npos) << f << " not in: " << msg;
    }
  }
}

TEST(MetricsTest, JsonEscapesControlAndQuoteCharacters) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(json_escape("a\nb\tc"), "a\\nb\\tc");
  EXPECT_EQ(json_escape(std::string("a\x01") + "b"), "a\\u0001b");
}

TEST(MetricsTest, SnapshotSurfacesPoisonedLedger) {
  Machine mach(small_config());
  mach.ledger().release(7);  // over-release: poison
  const MetricsSnapshot s = snapshot_metrics(mach);
  EXPECT_TRUE(s.ledger_poisoned);
  EXPECT_EQ(s.ledger_over_released, 7u);
  const std::string j = to_json(s);
  EXPECT_NE(j.find("\"poisoned\":true"), std::string::npos);
  EXPECT_NE(j.find("\"over_released\":7"), std::string::npos);
}

}  // namespace
