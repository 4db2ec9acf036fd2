#include "core/metrics.hpp"

#include <cmath>
#include <cstdio>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "core/machine.hpp"
#include "core/sharding.hpp"

namespace aem {

namespace {

// Doubles are rendered with enough digits to round-trip, but without the
// locale-dependence of operator<<.
std::string fmt_double(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

const char* fmt_bool(bool b) { return b ? "true" : "false"; }

void write_io(std::ostream& os, const IoStats& io) {
  os << "{\"reads\":" << io.reads << ",\"writes\":" << io.writes << "}";
}

}  // namespace

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (unsigned char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += static_cast<char>(c);
        }
    }
  }
  return out;
}

MetricsSnapshot snapshot_metrics(const Machine& mach, std::string label) {
  MetricsSnapshot s;
  s.label = std::move(label);

  const Config& cfg = mach.config();
  s.memory_elems = cfg.memory_elems;
  s.block_elems = cfg.block_elems;
  s.write_cost = cfg.write_cost;

  s.io = mach.stats();
  s.cost = mach.cost();

  const MemoryLedger& ledger = mach.ledger();
  s.ledger_used = ledger.used();
  s.ledger_high_water = ledger.high_water();
  s.ledger_poisoned = ledger.poisoned();
  s.ledger_over_released = ledger.over_released();

  for (std::uint32_t id = 0; id < mach.phase_count(); ++id) {
    const IoStats& io = mach.phase_io(id);
    if (io.reads == 0 && io.writes == 0) continue;
    s.phases.push_back(PhaseMetrics{mach.phase_name(id), io});
  }

  s.wear_enabled = mach.wear_tracking();
  s.wear_arrays = mach.wear_by_array();
  s.wear = total_wear(s.wear_arrays);

  if (const FaultPolicy* fp = mach.faults()) {
    s.faults_enabled = true;
    s.fault_config = fp->config();
    s.fault_stats = fp->stats();
    s.reliability.crash_after_writes = fp->config().crash_after_writes;
    s.reliability.crashes = fp->crashes_fired();
  }
  s.reliability.recovery = mach.recovery_stats();

  if (const BlockCache* bc = mach.cache()) {
    s.cache_enabled = true;
    s.cache_config = bc->config();
    s.cache_window = bc->window();
    s.cache_stats = bc->stats();
    s.cache_resident = bc->resident();
    s.cache_resident_dirty = bc->resident_dirty();
  }

  if (const auto* sm = dynamic_cast<const ShardedMachine*>(&mach)) {
    s.sharding.enabled = true;
    s.sharding.placement = to_string(sm->placement());
    s.sharding.chunk_blocks = sm->shard_config().range_chunk_blocks;
    s.sharding.total_io = sm->devices_stats();
    s.sharding.total_cost = sm->devices_cost();
    s.sharding.wear_spread = sm->wear_spread();
    for (std::size_t d = 0; d < sm->device_count(); ++d) {
      const Machine& dev = sm->device(d);
      ShardDeviceMetrics row;
      row.name = "dev" + std::to_string(d);
      row.memory_elems = dev.config().memory_elems;
      row.block_elems = dev.config().block_elems;
      row.write_cost = dev.config().write_cost;
      row.amplification = sm->amplification(d);
      row.io = dev.stats();
      row.cost = dev.cost();
      row.wear_enabled = dev.wear_tracking();
      row.wear = dev.wear_stats();
      s.sharding.devices.push_back(std::move(row));
    }
    for (const OutageSpec& o : sm->shard_config().outages) {
      if (o.down_at == 0) continue;  // disabled entry
      OutageMetrics om;
      om.name = "dev" + std::to_string(o.device);
      om.device = o.device;
      om.down_at = o.down_at;
      om.up_at = o.up_at;
      om.down_now = sm->device_down(o.device);
      om.stats = sm->outage_stats(o.device);
      om.pending_writes = sm->pending_writes(o.device);
      s.reliability.outages.push_back(std::move(om));
    }
  }

  s.reliability.enabled =
      s.reliability.crash_after_writes != 0 || s.reliability.crashes != 0 ||
      s.reliability.recovery.scans != 0 || !s.reliability.outages.empty();

  s.trace_enabled = mach.tracing();
  if (const Trace* tr = mach.trace()) s.trace_ops = tr->size();

  s.arrays.reserve(mach.array_count());
  for (std::uint32_t id = 0; id < mach.array_count(); ++id)
    s.arrays.push_back(mach.array_name(id));

  return s;
}

void write_json(std::ostream& os, const MetricsSnapshot& s) {
  os << "{\"schema\":\"" << MetricsSnapshot::kSchema << "\"";
  os << ",\"label\":\"" << json_escape(s.label) << "\"";

  os << ",\"config\":{\"memory_elems\":" << s.memory_elems
     << ",\"block_elems\":" << s.block_elems
     << ",\"write_cost\":" << s.write_cost << "}";

  os << ",\"io\":{\"reads\":" << s.io.reads << ",\"writes\":" << s.io.writes
     << ",\"total\":" << s.io.total_ios() << ",\"cost\":" << s.cost << "}";

  os << ",\"ledger\":{\"used\":" << s.ledger_used
     << ",\"high_water\":" << s.ledger_high_water
     << ",\"poisoned\":" << fmt_bool(s.ledger_poisoned)
     << ",\"over_released\":" << s.ledger_over_released << "}";

  os << ",\"phases\":[";
  for (std::size_t i = 0; i < s.phases.size(); ++i) {
    if (i != 0) os << ",";
    os << "{\"name\":\"" << json_escape(s.phases[i].name) << "\",\"io\":";
    write_io(os, s.phases[i].io);
    os << "}";
  }
  os << "]";

  os << ",\"wear\":{\"enabled\":" << fmt_bool(s.wear_enabled)
     << ",\"blocks_written\":" << s.wear.blocks_written
     << ",\"max_writes\":" << s.wear.max_writes
     << ",\"mean_writes\":" << fmt_double(s.wear.mean_writes)
     << ",\"arrays\":[";
  for (std::size_t i = 0; i < s.wear_arrays.size(); ++i) {
    const ArrayWear& m = s.wear_arrays[i];
    if (i != 0) os << ",";
    os << "{\"name\":\"" << json_escape(m.name) << "\",\"array\":" << m.array
       << ",\"blocks_written\":" << m.blocks_written
       << ",\"writes\":" << m.writes << ",\"max_writes\":" << m.max_writes
       << "}";
  }
  os << "]}";

  {
    const FaultConfig& fc = s.fault_config;
    const FaultStats& fs = s.fault_stats;
    os << ",\"faults\":{\"enabled\":" << fmt_bool(s.faults_enabled)
       << ",\"seed\":" << fc.seed
       << ",\"read_fault_rate\":" << fmt_double(fc.read_fault_rate)
       << ",\"silent_write_rate\":" << fmt_double(fc.silent_write_rate)
       << ",\"torn_write_rate\":" << fmt_double(fc.torn_write_rate)
       << ",\"endurance\":" << fc.endurance
       << ",\"spare_blocks\":" << fc.spare_blocks
       << ",\"max_retries\":" << fc.max_retries
       << ",\"injected\":{\"read\":" << fs.read_faults
       << ",\"silent_write\":" << fs.silent_write_faults
       << ",\"torn_write\":" << fs.torn_write_faults
       << ",\"retired_write\":" << fs.retired_writes << "}"
       << ",\"recovery\":{\"read_retries\":" << fs.read_retries
       << ",\"write_retries\":" << fs.write_retries
       << ",\"verify_failures\":" << fs.verify_failures
       << ",\"checksum_failures\":" << fs.checksum_failures
       << ",\"retired_blocks\":" << fs.retired_blocks
       << ",\"remaps\":" << fs.remaps << "}}";
  }

  {
    const CacheConfig& cc = s.cache_config;
    const CacheStats& cs = s.cache_stats;
    os << ",\"cache\":{\"enabled\":" << fmt_bool(s.cache_enabled)
       << ",\"policy\":\"" << to_string(cc.policy) << "\""
       << ",\"capacity_blocks\":" << cc.capacity_blocks
       << ",\"clean_window\":" << s.cache_window
       << ",\"read_hits\":" << cs.read_hits
       << ",\"read_misses\":" << cs.read_misses
       << ",\"write_hits\":" << cs.write_hits
       << ",\"write_misses\":" << cs.write_misses
       << ",\"evictions_clean\":" << cs.evictions_clean
       << ",\"evictions_dirty\":" << cs.evictions_dirty
       << ",\"write_backs\":" << cs.write_backs
       << ",\"flushes\":" << cs.flushes
       << ",\"invalidated_dirty\":" << cs.invalidated_dirty
       << ",\"resident\":" << s.cache_resident
       << ",\"resident_dirty\":" << s.cache_resident_dirty << "}";
  }

  {
    const ShardingMetrics& sh = s.sharding;
    os << ",\"sharding\":{\"enabled\":" << fmt_bool(sh.enabled)
       << ",\"placement\":\"" << json_escape(sh.placement) << "\""
       << ",\"devices\":" << sh.devices.size()
       << ",\"chunk_blocks\":" << sh.chunk_blocks
       << ",\"total\":{\"reads\":" << sh.total_io.reads
       << ",\"writes\":" << sh.total_io.writes
       << ",\"cost\":" << sh.total_cost << "}"
       << ",\"wear_spread\":" << fmt_double(sh.wear_spread)
       << ",\"per_device\":[";
    for (std::size_t i = 0; i < sh.devices.size(); ++i) {
      const ShardDeviceMetrics& d = sh.devices[i];
      if (i != 0) os << ",";
      os << "{\"name\":\"" << json_escape(d.name) << "\""
         << ",\"memory_elems\":" << d.memory_elems
         << ",\"block_elems\":" << d.block_elems
         << ",\"write_cost\":" << d.write_cost
         << ",\"amplification\":" << d.amplification
         << ",\"io\":{\"reads\":" << d.io.reads
         << ",\"writes\":" << d.io.writes << ",\"cost\":" << d.cost << "}"
         << ",\"wear\":{\"enabled\":" << fmt_bool(d.wear_enabled)
         << ",\"blocks_written\":" << d.wear.blocks_written
         << ",\"max_writes\":" << d.wear.max_writes
         << ",\"mean_writes\":" << fmt_double(d.wear.mean_writes) << "}}";
    }
    os << "]}";
  }

  {
    const StoreMetrics& sm = s.store;
    const store::StoreStats& st = sm.stats;
    os << ",\"store\":{\"enabled\":" << fmt_bool(sm.enabled)
       << ",\"index\":\"" << json_escape(sm.index) << "\""
       << ",\"records\":" << sm.records
       << ",\"log_blocks\":" << sm.log_blocks
       << ",\"payload_words\":" << sm.payload_words
       << ",\"payload_blocks\":" << sm.payload_blocks
       << ",\"index_bits\":" << sm.index_bits
       << ",\"index_bits_per_page\":" << fmt_double(sm.index_bits_per_page)
       << ",\"gets\":" << st.gets << ",\"get_hits\":" << st.get_hits
       << ",\"get_log_reads\":" << st.get_log_reads
       << ",\"get_payload_reads\":" << st.get_payload_reads
       << ",\"max_get_log_reads\":" << st.max_get_log_reads
       << ",\"scans\":" << st.scans
       << ",\"scan_records\":" << st.scan_records
       << ",\"puts\":" << st.puts << ",\"put_hits\":" << st.put_hits
       << ",\"put_log_reads\":" << st.put_log_reads
       << ",\"put_writes\":" << st.put_writes
       << ",\"orphaned_words\":" << st.orphaned_words
       << ",\"build\":{\"reads\":" << sm.build.reads
       << ",\"writes\":" << sm.build.writes
       << ",\"cost\":" << sm.build_cost << "}}";
  }

  {
    const ReliabilityMetrics& r = s.reliability;
    os << ",\"reliability\":{\"enabled\":" << fmt_bool(r.enabled)
       << ",\"crash_after_writes\":" << r.crash_after_writes
       << ",\"crashes\":" << r.crashes
       << ",\"recovery\":{\"scans\":" << r.recovery.scans
       << ",\"reads\":" << r.recovery.reads
       << ",\"writes\":" << r.recovery.writes
       << ",\"cost\":" << r.recovery.cost << "}"
       << ",\"outages\":[";
    for (std::size_t i = 0; i < r.outages.size(); ++i) {
      const OutageMetrics& o = r.outages[i];
      if (i != 0) os << ",";
      os << "{\"name\":\"" << json_escape(o.name) << "\""
         << ",\"device\":" << o.device << ",\"down_at\":" << o.down_at
         << ",\"up_at\":" << o.up_at
         << ",\"down_now\":" << fmt_bool(o.down_now)
         << ",\"wait_rounds\":" << o.stats.wait_rounds
         << ",\"backoff_ios\":" << o.stats.backoff_ios
         << ",\"failed_reads\":" << o.stats.failed_reads
         << ",\"queued_writes\":" << o.stats.queued_writes
         << ",\"drained_writes\":" << o.stats.drained_writes
         << ",\"pending_writes\":" << o.pending_writes << "}";
    }
    os << "]}";
  }

  {
    const TrafficMetrics& tm = s.traffic;
    const traffic::EngineStats& es = tm.stats;
    os << ",\"traffic\":{\"enabled\":" << fmt_bool(tm.enabled)
       << ",\"dist\":\"" << json_escape(tm.dist) << "\""
       << ",\"generated\":" << es.generated << ",\"served\":" << es.served
       << ",\"rejected\":" << es.rejected
       << ",\"rejection_rate\":" << fmt_double(tm.rejection_rate)
       << ",\"gets\":" << es.gets << ",\"puts\":" << es.puts
       << ",\"scans\":" << es.scans
       << ",\"io\":{\"reads\":" << es.io.reads
       << ",\"writes\":" << es.io.writes << ",\"cost\":" << es.cost << "}"
       << ",\"q\":{\"p50\":" << tm.q_p50 << ",\"p99\":" << tm.q_p99
       << ",\"p999\":" << tm.q_p999 << ",\"max\":" << tm.q_max
       << ",\"mean\":" << fmt_double(tm.q_mean) << "}"
       << ",\"imbalance\":" << fmt_double(tm.imbalance)
       << ",\"wear_horizon\":" << tm.wear_horizon
       << ",\"windows\":" << es.windows << ",\"q_budget\":" << tm.q_budget
       << "}";
  }

  os << ",\"trace\":{\"enabled\":" << fmt_bool(s.trace_enabled)
     << ",\"ops\":" << s.trace_ops << "}";

  os << ",\"arrays\":[";
  for (std::size_t i = 0; i < s.arrays.size(); ++i) {
    if (i != 0) os << ",";
    os << "\"" << json_escape(s.arrays[i]) << "\"";
  }
  os << "]}";
}

std::string to_json(const MetricsSnapshot& s) {
  std::ostringstream os;
  write_json(os, s);
  return os.str();
}

void check_metrics(const MetricsSnapshot& s) {
  const auto fail = [&s](const std::string& what) {
    throw std::logic_error("metrics line \"" + s.label + "\": " + what);
  };
  const auto num = [](std::uint64_t v) { return std::to_string(v); };

  if (s.sharding.enabled) {
    if (s.sharding.devices.empty()) fail("sharding.per_device is empty");
    IoStats sum;
    for (const ShardDeviceMetrics& d : s.sharding.devices) sum += d.io;
    if (!(sum == s.sharding.total_io))
      fail("sharding.per_device io sums to " + to_string(sum) +
           ", sharding.total says " + to_string(s.sharding.total_io));
  }
  if (s.cache_enabled && s.cache_resident_dirty != 0)
    fail("cache.resident_dirty = " + num(s.cache_resident_dirty) +
         " (snapshot taken before a flush)");
  if (s.store.enabled && s.store.index != "fence" &&
      s.store.index != "compact")
    fail("store.index \"" + s.store.index + "\" is neither fence nor compact");
  const ReliabilityMetrics& r = s.reliability;
  if (!r.enabled &&
      (r.crashes != 0 || r.recovery.scans != 0 || !r.outages.empty()))
    fail("reliability disabled with residue: reliability.crashes = " +
         num(r.crashes) + ", reliability.recovery.scans = " +
         num(r.recovery.scans) + ", reliability.outages = " +
         num(r.outages.size()));
  const TrafficMetrics& t = s.traffic;
  const traffic::EngineStats& es = t.stats;
  if (t.enabled) {
    if (es.served + es.rejected != es.generated)
      fail("traffic.served + traffic.rejected = " + num(es.served) + " + " +
           num(es.rejected) + " != traffic.generated = " + num(es.generated));
    if (t.q_p50 > t.q_p99 || t.q_p99 > t.q_p999 || t.q_p999 > t.q_max)
      fail("traffic.q not monotone: p50 = " + num(t.q_p50) + ", p99 = " +
           num(t.q_p99) + ", p999 = " + num(t.q_p999) +
           ", max = " + num(t.q_max));
  } else if (es.generated != 0 || es.cost != 0) {
    fail("traffic disabled with residue: traffic.generated = " +
         num(es.generated) + ", traffic.io.cost = " + num(es.cost));
  }
}

}  // namespace aem
