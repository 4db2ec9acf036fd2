// Structured machine observability: a stable, versioned snapshot of
// everything a Machine measures — I/O counters, per-phase attribution,
// ledger high-water, wear histogram summary, trace status, and the machine
// configuration — serialized to a line of JSON.
//
// Consumers: bench binaries (--metrics=FILE appends one snapshot per
// measured case, each checked by check_metrics first), scripts/
// run_experiments.sh (collects the per-bench .metrics.jsonl files), and
// tools/aem_trace (--json=FILE renders a recorded trace in the same
// schema).  The schema is documented in docs/MODEL.md section 8 and
// versioned by the "schema" field: kSchema changes when a key is removed,
// renamed or changes meaning, never for an added key.
//
// Each counter is declared once, in the struct its layer keeps, and the
// sections embed those structs whole: IoStats, WearStats, ArrayWear and
// OutageStats (core/stats.hpp), FaultStats, CacheStats, and the store's
// and traffic engine's StoreStats and EngineStats, declared below because
// their layers sit above this header.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "core/cache.hpp"
#include "core/faults.hpp"
#include "core/stats.hpp"

namespace aem {

namespace store {

/// Access counters of one store (block-read call counts on the store's
/// arrays — equal to charged reads at cache capacity 0; with a cache some
/// of them are free pool hits, visible in the machine's own deltas).
struct StoreStats {
  std::uint64_t gets = 0;
  std::uint64_t get_hits = 0;
  std::uint64_t get_log_reads = 0;      // log-block reads across all gets
  std::uint64_t get_payload_reads = 0;  // payload-block reads across all gets
  std::uint64_t max_get_log_reads = 0;  // worst single get (probe-walk length)
  std::uint64_t scans = 0;
  std::uint64_t scan_records = 0;  // records visited across all scans
  std::uint64_t puts = 0;
  std::uint64_t put_hits = 0;       // puts that found (and updated) their key
  std::uint64_t put_log_reads = 0;  // log-block reads across all puts
  std::uint64_t put_writes = 0;     // log-block writes across all puts
  /// Payload words stranded by puts that overwrote a spilled value with an
  /// inline one — dead weight a compacting rebuild would reclaim.
  std::uint64_t orphaned_words = 0;

  friend bool operator==(const StoreStats&, const StoreStats&) = default;
};

}  // namespace store

namespace traffic {

/// Counters of one engine run.  io/cost are charged frontend deltas across
/// run() (including the final cache flush on a stream that served work).
struct EngineStats {
  std::uint64_t generated = 0;
  std::uint64_t served = 0;
  std::uint64_t rejected = 0;
  std::uint64_t gets = 0;
  std::uint64_t puts = 0;
  std::uint64_t scans = 0;
  std::uint64_t get_hits = 0;
  std::uint64_t put_hits = 0;
  std::uint64_t windows = 0;
  IoStats io;
  std::uint64_t cost = 0;

  friend bool operator==(const EngineStats&, const EngineStats&) = default;
};

}  // namespace traffic

class Machine;

struct PhaseMetrics {
  std::string name;
  IoStats io;
};

/// One row per backend device of a ShardedMachine (core/sharding.hpp).
struct ShardDeviceMetrics {
  std::string name;  // "dev0", "dev1", ...
  std::uint64_t memory_elems = 0;
  std::uint64_t block_elems = 0;
  std::uint64_t write_cost = 1;
  std::uint64_t amplification = 1;  // native transfers per logical block
  IoStats io;                       // native transfer counts
  std::uint64_t cost = 0;           // reads + write_cost * writes, per device
  bool wear_enabled = false;
  WearStats wear;
};

/// The `sharding` section: per-device rows plus totals.  Default-state
/// (`enabled == false`, empty rows) on a plain Machine.
struct ShardingMetrics {
  bool enabled = false;
  std::string placement;            // "round-robin" | "range"
  std::uint64_t chunk_blocks = 0;   // range-placement chunk length
  IoStats total_io;                 // sum of per-device native transfers
  std::uint64_t total_cost = 0;     // sum of per-device costs (device omegas)
  double wear_spread = 0.0;         // max/mean device write counts (1 = even)
  std::vector<ShardDeviceMetrics> devices;
};

/// The `store` section: KV-store layout, index size, serving counters and
/// build bill.  The machine knows nothing about stores, so snapshot_metrics
/// leaves this default (`enabled == false`); benches that measure a store
/// attach it by hand (`snap.store = store.metrics_section()`).
struct StoreMetrics {
  bool enabled = false;
  std::string index;  // "fence" | "compact"
  std::uint64_t records = 0;
  std::uint64_t log_blocks = 0;
  std::uint64_t payload_words = 0;
  std::uint64_t payload_blocks = 0;
  std::uint64_t index_bits = 0;
  double index_bits_per_page = 0.0;
  store::StoreStats stats;
  IoStats build;  // charged I/O of the build
  std::uint64_t build_cost = 0;
};

/// One row per device with a configured outage window (`reliability`
/// section; core/sharding.hpp OutageSpec).
struct OutageMetrics {
  std::string name;  // "dev0", "dev1", ...
  std::uint64_t device = 0;
  std::uint64_t down_at = 0;
  std::uint64_t up_at = 0;  // 0 = never recovers
  bool down_now = false;    // inside the window at snapshot time
  OutageStats stats;
  std::uint64_t pending_writes = 0;  // still queued at snapshot time
};

/// The `reliability` section: the crash-point schedule and hits, the
/// recovery bill noted on the machine
/// (Machine::note_recovery — e.g. KvStore::recover), and one degraded-
/// serving row per device with an outage window.  `enabled` is false — and
/// everything zero/empty — when none of those features has been armed or
/// exercised.
struct ReliabilityMetrics {
  bool enabled = false;
  std::uint64_t crash_after_writes = 0;  // configured crash point (0 = none)
  std::uint64_t crashes = 0;             // CrashErrors fired
  RecoveryStats recovery;
  std::vector<OutageMetrics> outages;
};

/// The `traffic` section: request-stream serving figures — the generated
/// /served/rejected identity, per-request charged-Q percentiles over the
/// engine's fixed-bucket histogram, device-load imbalance, and the wear-out
/// horizon.  The machine knows nothing about traffic engines, so
/// snapshot_metrics leaves this default (`enabled == false`); benches that
/// drive an engine attach it by hand
/// (`snap.traffic = engine.metrics_section()`).
struct TrafficMetrics {
  bool enabled = false;
  std::string dist;  // "uniform" | "zipf" | "hotset"
  traffic::EngineStats stats;   // get_hits and put_hits are not written
  double rejection_rate = 0.0;  // rejected / generated (the SLO metric)
  std::uint64_t q_p50 = 0;      // per-request charged-Q percentiles
  std::uint64_t q_p99 = 0;
  std::uint64_t q_p999 = 0;
  std::uint64_t q_max = 0;
  double q_mean = 0.0;
  double imbalance = 1.0;  // per-device served-cost max/mean (1 = even)
  /// Stream replays until the hottest device block retires (0 = no
  /// endurance configured or no writes observed).
  std::uint64_t wear_horizon = 0;
  std::uint64_t q_budget = 0;  // per-window Q budget (0 = off)
};

/// A point-in-time copy of a Machine's observable state.  Plain data: it can
/// also be filled by hand (tools/aem_trace builds one from a trace without a
/// live machine).
struct MetricsSnapshot {
  static constexpr std::string_view kSchema = "aem.machine.metrics/v11";

  /// Free-form tag naming the measured case ("E1 N=65536 omega=16", ...).
  std::string label;

  // config
  std::uint64_t memory_elems = 0;
  std::uint64_t block_elems = 0;
  std::uint64_t write_cost = 1;

  // io
  IoStats io;
  std::uint64_t cost = 0;

  // ledger
  std::uint64_t ledger_used = 0;
  std::uint64_t ledger_high_water = 0;
  bool ledger_poisoned = false;
  std::uint64_t ledger_over_released = 0;

  // phases (only those that performed I/O, in registration order)
  std::vector<PhaseMetrics> phases;

  // wear (total_wear of the rows)
  bool wear_enabled = false;
  WearStats wear;
  std::vector<ArrayWear> wear_arrays;

  // faults (fault-injection config and counters; `faults.enabled` is false
  // — and the counters zero — when no FaultPolicy is installed)
  bool faults_enabled = false;
  FaultConfig fault_config;
  FaultStats fault_stats;

  // cache (block-cache config, counters, and residency; `cache.enabled` is
  // false — and everything else zero/default — in bypass mode)
  bool cache_enabled = false;
  CacheConfig cache_config;
  std::uint64_t cache_window = 0;  // effective kCleanFirst window
  CacheStats cache_stats;
  std::uint64_t cache_resident = 0;
  std::uint64_t cache_resident_dirty = 0;

  // sharding (multi-device aggregation; `sharding.enabled` is false — and
  // the rows empty — when the machine is not a ShardedMachine)
  ShardingMetrics sharding;

  // store (KV-store section, attached by the measuring bench — see
  // StoreMetrics above)
  StoreMetrics store;

  // reliability (crash schedule, recovery bill, and
  // per-device outage rows — see ReliabilityMetrics above)
  ReliabilityMetrics reliability;

  // traffic (request-stream serving section, attached by the measuring
  // bench — see TrafficMetrics above)
  TrafficMetrics traffic;

  // trace
  bool trace_enabled = false;
  std::uint64_t trace_ops = 0;

  // registered arrays, by id
  std::vector<std::string> arrays;
};

/// Snapshots the machine's current state.  Read-only and out of the hot
/// path: call it once per measured case, not per I/O.
MetricsSnapshot snapshot_metrics(const Machine& mach, std::string label = "");

/// Serializes the snapshot as a single-line JSON object (stable key order).
/// Every key is written whatever its value; nothing is checked.
void write_json(std::ostream& os, const MetricsSnapshot& s);

/// Checks the per-line identities of an emitted snapshot: sharding devices
/// present and summing to the totals, no dirty cache residue, a known store
/// index, an idle reliability section with no residue, and balanced,
/// monotone traffic books (or an idle traffic section charging nothing).
/// Throws std::logic_error naming the label and the broken identity.
void check_metrics(const MetricsSnapshot& s);
std::string to_json(const MetricsSnapshot& s);

/// JSON string escaping (exposed for tests and ad-hoc emitters).
std::string json_escape(std::string_view s);

}  // namespace aem
