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
#include "sort/mergesort.hpp"
#include "util/rng.hpp"

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
  EXPECT_EQ(s.wear.blocks_written, 2u);  // alpha block 0, beta block 3
  EXPECT_EQ(s.wear.max_writes, 2u);
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

// Every field set to a distinct value, in key order (1, 2, 3, ...; doubles
// end in .5), with one row in each list: a field written under another
// field's key — put_hits under "get_hits", say — breaks the ascending run.
// DefaultSnapshotPinsEveryKey sees only zeros and cannot tell them apart.
TEST(MetricsTest, EveryCounterReachesItsOwnKey) {
  MetricsSnapshot s;
  s.label = "all";
  s.memory_elems = 1;
  s.block_elems = 2;
  s.write_cost = 3;
  s.io = IoStats{4, 5};
  s.cost = 6;
  s.ledger_used = 7;
  s.ledger_high_water = 8;
  s.ledger_poisoned = true;
  s.ledger_over_released = 9;
  s.phases.push_back(PhaseMetrics{"p", IoStats{10, 11}});
  s.wear_enabled = true;
  s.wear.blocks_written = 12;
  s.wear.max_writes = 13;
  s.wear.mean_writes = 14.5;
  s.wear_arrays.push_back({"w", 15, 16, 17, 18});
  s.faults_enabled = true;
  s.fault_config.seed = 19;
  s.fault_config.read_fault_rate = 0.25;
  s.fault_config.silent_write_rate = 0.125;
  s.fault_config.torn_write_rate = 0.0625;
  s.fault_config.endurance = 20;
  s.fault_config.spare_blocks = 21;
  s.fault_config.max_retries = 22;
  s.fault_stats.read_faults = 23;
  s.fault_stats.silent_write_faults = 24;
  s.fault_stats.torn_write_faults = 25;
  s.fault_stats.retired_writes = 26;
  s.fault_stats.read_retries = 27;
  s.fault_stats.write_retries = 28;
  s.fault_stats.verify_failures = 29;
  s.fault_stats.checksum_failures = 30;
  s.fault_stats.retired_blocks = 31;
  s.fault_stats.remaps = 32;
  s.cache_enabled = true;
  s.cache_config.policy = CachePolicy::kCleanFirst;
  s.cache_config.capacity_blocks = 33;
  s.cache_window = 34;
  s.cache_stats.read_hits = 35;
  s.cache_stats.read_misses = 36;
  s.cache_stats.write_hits = 37;
  s.cache_stats.write_misses = 38;
  s.cache_stats.evictions_clean = 39;
  s.cache_stats.evictions_dirty = 40;
  s.cache_stats.write_backs = 41;
  s.cache_stats.flushes = 42;
  s.cache_stats.invalidated_dirty = 43;
  s.cache_resident = 44;
  s.cache_resident_dirty = 45;
  s.sharding.enabled = true;
  s.sharding.placement = "range";
  s.sharding.chunk_blocks = 46;
  s.sharding.total_io = IoStats{47, 48};
  s.sharding.total_cost = 49;
  s.sharding.wear_spread = 50.5;
  ShardDeviceMetrics& dev = s.sharding.devices.emplace_back();
  dev.name = "dev0";
  dev.memory_elems = 51;
  dev.block_elems = 52;
  dev.write_cost = 53;
  dev.amplification = 54;
  dev.io = IoStats{55, 56};
  dev.cost = 57;
  dev.wear_enabled = true;
  dev.wear.blocks_written = 58;
  dev.wear.max_writes = 59;
  dev.wear.mean_writes = 60.5;
  s.store.enabled = true;
  s.store.index = "compact";
  s.store.records = 61;
  s.store.log_blocks = 62;
  s.store.payload_words = 63;
  s.store.payload_blocks = 64;
  s.store.index_bits = 65;
  s.store.index_bits_per_page = 66.5;
  s.store.stats.gets = 67;
  s.store.stats.get_hits = 68;
  s.store.stats.get_log_reads = 69;
  s.store.stats.get_payload_reads = 70;
  s.store.stats.max_get_log_reads = 71;
  s.store.stats.scans = 72;
  s.store.stats.scan_records = 73;
  s.store.stats.puts = 74;
  s.store.stats.put_hits = 75;
  s.store.stats.put_log_reads = 76;
  s.store.stats.put_writes = 77;
  s.store.stats.orphaned_words = 78;
  s.store.build.reads = 79;
  s.store.build.writes = 80;
  s.store.build_cost = 81;
  s.reliability.enabled = true;
  s.reliability.crash_after_writes = 82;
  s.reliability.crashes = 83;
  s.reliability.recovery = RecoveryStats{84, 85, 86, 87};
  OutageMetrics& out = s.reliability.outages.emplace_back();
  out.name = "dev1";
  out.device = 88;
  out.down_at = 89;
  out.up_at = 90;
  out.down_now = true;
  out.stats.wait_rounds = 91;
  out.stats.backoff_ios = 92;
  out.stats.failed_reads = 93;
  out.stats.queued_writes = 94;
  out.stats.drained_writes = 95;
  out.pending_writes = 96;
  s.traffic.enabled = true;
  s.traffic.dist = "zipf";
  s.traffic.stats.generated = 97;
  s.traffic.stats.served = 98;
  s.traffic.stats.rejected = 99;
  s.traffic.rejection_rate = 100.5;
  s.traffic.stats.gets = 101;
  s.traffic.stats.puts = 102;
  s.traffic.stats.scans = 103;
  s.traffic.stats.io.reads = 104;
  s.traffic.stats.io.writes = 105;
  s.traffic.stats.cost = 106;
  s.traffic.q_p50 = 107;
  s.traffic.q_p99 = 108;
  s.traffic.q_p999 = 109;
  s.traffic.q_max = 110;
  s.traffic.q_mean = 111.5;
  s.traffic.imbalance = 112.5;
  s.traffic.wear_horizon = 113;
  s.traffic.stats.windows = 114;
  s.traffic.q_budget = 115;
  s.trace_enabled = true;
  s.trace_ops = 116;
  s.arrays.push_back("a");
  const std::string want =
      "{\"schema\":\"" + std::string(MetricsSnapshot::kSchema) +
      "\",\"label\":\"all\","
      "\"config\":{\"memory_elems\":1,\"block_elems\":2,\"write_cost\":3},"
      "\"io\":{\"reads\":4,\"writes\":5,\"total\":9,\"cost\":6},"
      "\"ledger\":{\"used\":7,\"high_water\":8,\"poisoned\":true,"
      "\"over_released\":9},"
      "\"phases\":[{\"name\":\"p\",\"io\":{\"reads\":10,\"writes\":11}}],"
      "\"wear\":{\"enabled\":true,\"blocks_written\":12,\"max_writes\":13,"
      "\"mean_writes\":14.5,\"arrays\":[{\"name\":\"w\",\"array\":15,"
      "\"blocks_written\":16,\"writes\":17,\"max_writes\":18}]},"
      "\"faults\":{\"enabled\":true,\"seed\":19,\"read_fault_rate\":0.25,"
      "\"silent_write_rate\":0.125,\"torn_write_rate\":0.0625,"
      "\"endurance\":20,\"spare_blocks\":21,\"max_retries\":22,"
      "\"injected\":{\"read\":23,\"silent_write\":24,\"torn_write\":25,"
      "\"retired_write\":26},\"recovery\":{\"read_retries\":27,"
      "\"write_retries\":28,\"verify_failures\":29,\"checksum_failures\":30,"
      "\"retired_blocks\":31,\"remaps\":32}},"
      "\"cache\":{\"enabled\":true,\"policy\":\"clean-first\","
      "\"capacity_blocks\":33,\"clean_window\":34,\"read_hits\":35,"
      "\"read_misses\":36,\"write_hits\":37,\"write_misses\":38,"
      "\"evictions_clean\":39,\"evictions_dirty\":40,\"write_backs\":41,"
      "\"flushes\":42,\"invalidated_dirty\":43,\"resident\":44,"
      "\"resident_dirty\":45},"
      "\"sharding\":{\"enabled\":true,\"placement\":\"range\",\"devices\":1,"
      "\"chunk_blocks\":46,\"total\":{\"reads\":47,\"writes\":48,"
      "\"cost\":49},\"wear_spread\":50.5,\"per_device\":[{\"name\":\"dev0\","
      "\"memory_elems\":51,\"block_elems\":52,\"write_cost\":53,"
      "\"amplification\":54,\"io\":{\"reads\":55,\"writes\":56,\"cost\":57},"
      "\"wear\":{\"enabled\":true,\"blocks_written\":58,\"max_writes\":59,"
      "\"mean_writes\":60.5}}]},"
      "\"store\":{\"enabled\":true,\"index\":\"compact\",\"records\":61,"
      "\"log_blocks\":62,\"payload_words\":63,\"payload_blocks\":64,"
      "\"index_bits\":65,\"index_bits_per_page\":66.5,\"gets\":67,"
      "\"get_hits\":68,\"get_log_reads\":69,\"get_payload_reads\":70,"
      "\"max_get_log_reads\":71,\"scans\":72,\"scan_records\":73,"
      "\"puts\":74,\"put_hits\":75,\"put_log_reads\":76,\"put_writes\":77,"
      "\"orphaned_words\":78,"
      "\"build\":{\"reads\":79,\"writes\":80,\"cost\":81}},"
      "\"reliability\":{\"enabled\":true,\"crash_after_writes\":82,"
      "\"crashes\":83,"
      "\"recovery\":{\"scans\":84,\"reads\":85,\"writes\":86,\"cost\":87},"
      "\"outages\":[{\"name\":\"dev1\",\"device\":88,\"down_at\":89,"
      "\"up_at\":90,\"down_now\":true,\"wait_rounds\":91,\"backoff_ios\":92,"
      "\"failed_reads\":93,\"queued_writes\":94,\"drained_writes\":95,"
      "\"pending_writes\":96}]},"
      "\"traffic\":{\"enabled\":true,\"dist\":\"zipf\",\"generated\":97,"
      "\"served\":98,\"rejected\":99,\"rejection_rate\":100.5,\"gets\":101,"
      "\"puts\":102,\"scans\":103,"
      "\"io\":{\"reads\":104,\"writes\":105,\"cost\":106},"
      "\"q\":{\"p50\":107,\"p99\":108,\"p999\":109,\"max\":110,"
      "\"mean\":111.5},"
      "\"imbalance\":112.5,\"wear_horizon\":113,\"windows\":114,"
      "\"q_budget\":115},"
      "\"trace\":{\"enabled\":true,\"ops\":116},\"arrays\":[\"a\"]}";
  EXPECT_EQ(to_json(s), want);
}

// aem_trace's wear section is wear_from_trace of the recorded program: it
// must report the wear the live machine counted, array names aside.
TEST(MetricsTest, TraceWearMatchesLiveWear) {
  Machine mach(small_config());
  mach.enable_wear_tracking();
  mach.enable_trace();
  const std::size_t N = 512;
  util::Rng rng(3);
  ExtArray<std::uint64_t> in(mach, N, "in");
  in.unsafe_host_fill(util::random_keys(N, rng));
  ExtArray<std::uint64_t> out(mach, N, "out");
  aem_merge_sort(in, out);
  mach.on_write(out.id(), 0);  // a block written more than once
  ASSERT_GT(mach.wear_stats().max_writes, 1u);

  std::vector<ArrayWear> live = mach.wear_by_array();
  ASSERT_GE(live.size(), 2u);  // the sort's run scratch and the output
  for (ArrayWear& row : live) {
    EXPECT_FALSE(row.name.empty()) << row.array;
    row.name.clear();
  }
  const std::vector<ArrayWear> traced = wear_from_trace(*mach.trace());
  EXPECT_EQ(traced, live);
  EXPECT_EQ(total_wear(traced), mach.wear_stats());
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
    s.traffic.stats.generated = 10;
    s.traffic.stats.served = 8;
    s.traffic.stats.rejected = 2;
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
      {[&](auto& s) { traffic(s); s.traffic.stats.served = 7; },
       {"traffic.served", "traffic.rejected", "traffic.generated = 10"}},
      {[&](auto& s) { traffic(s); s.traffic.q_p50 = 5; },
       {"traffic.q", "p50 = 5", "p99 = 0"}},
      {[&](auto& s) { traffic(s); s.traffic.q_p999 = 9; s.traffic.q_p99 = 9; },
       {"traffic.q", "p999 = 9", "max = 0"}},
      {[](auto& s) { s.traffic.stats.generated = 4; },
       {"traffic.generated = 4"}},
      {[](auto& s) { s.traffic.stats.cost = 6; }, {"traffic.io.cost = 6"}},
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
