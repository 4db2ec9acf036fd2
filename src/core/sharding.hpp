// Multi-device sharding: one frontend Machine striped over D independent
// backend Machines (core/sharding).
//
// The (M,B,omega)-AEM model prices a single asymmetric device.  Real NVM
// deployments aggregate an ARRAY of such devices, each with its own block
// size, write cost, and endurance budget; an algorithm sees one logical
// block space while every logical transfer lands on exactly one device.
// ShardedMachine models this as a Machine subclass: ExtArray, BlockCache,
// the sorts, permute, and SpMxV run UNMODIFIED on top of it, because the
// facade keeps the plain Machine contract (ledger, phases, trace, faults,
// cache, counters) bit-for-bit — and ADDITIONALLY routes every charged
// logical block I/O to a per-device Machine that charges it at device
// prices.  docs/MODEL.md section 13 is the formal contract.
//
// Two invariants make the aggregate trustworthy:
//
//  * Facade invariance: the frontend counters, trace, ledger, and metrics
//    are byte-identical to a plain Machine(frontend) run of the same
//    program, for every D and placement (at D=1 the whole snapshot is —
//    ShardedMachineTest.FacadeMatchesPlainMachineExactly holds the guard).
//    Placement can never change an algorithm's measured Q; it changes
//    where the cost LANDS.
//  * Device conservation: each logical block maps to exactly one device
//    (route() is a bijection logical -> (device, local)), and every logical
//    transfer becomes exactly frontend_B / device_B native transfers on
//    that device — no I/O is lost or double-charged across the array.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "core/machine.hpp"
#include "core/stats.hpp"
#include "util/math.hpp"

namespace aem {

/// How logical blocks are assigned to devices.
enum class Placement : std::uint8_t {
  /// Block b -> device b mod D: adjacent blocks land on distinct devices,
  /// spreading both sequential scans and hot spots evenly (RAID-0 style).
  kRoundRobin,
  /// Chunked range striping: contiguous runs of `range_chunk_blocks`
  /// logical blocks stay on one device before moving to the next.  Keeps
  /// locality per device but concentrates hot prefixes (bench_s1_shard
  /// measures the wear-spread contrast).
  kRange,
};

const char* to_string(Placement p);

/// One device's planned outage window, in frontend op-clock units (the
/// frontend's charged reads + writes since construction or the last
/// reset_stats()).  The device is down for every logical transfer whose
/// frontend charge lands at clock in [down_at, up_at); up_at 0 means the
/// device never comes back.  While a device is down, reads against it wait
/// (at most 8 rounds of 1, 2, 4, ..., 64, 64 charged frontend poll reads,
/// then FaultError) and writes queue, draining at device prices once the
/// window closes.
struct OutageSpec {
  std::size_t device = 0;
  std::uint64_t down_at = 0;  // 0 disables this entry
  std::uint64_t up_at = 0;    // 0 = never recovers
};

/// Configuration for a ShardedMachine: the frontend (logical) machine the
/// algorithm sees, plus one Config per backend device.
struct ShardConfig {
  /// The logical machine: M, B, omega, ledger capacity, optional cache and
  /// faults — exactly what a plain Machine would be built from.
  Config frontend;

  /// One entry per device, in device-id order.  Each device may have its
  /// own block size (must divide frontend.block_elems), write cost, and
  /// fault/endurance schedule.  Device caches are rejected: caching lives
  /// ABOVE placement, on the frontend, so a hit never reaches any device.
  std::vector<Config> devices;

  Placement placement = Placement::kRoundRobin;

  /// Chunk length (in logical blocks) for Placement::kRange.
  std::size_t range_chunk_blocks = 64;

  /// Planned device outages (at most one window per device).  Empty (the
  /// default) keeps the serving path byte-identical to the pre-outage
  /// facade: the hot path pays one bool test per transfer.
  std::vector<OutageSpec> outages;

  /// Throws std::invalid_argument on: no devices, an invalid frontend or
  /// device Config, a device block size that does not divide the frontend
  /// block size, a device cache, a zero range chunk, or a bad outage entry
  /// (unknown device, duplicate device, window that ends before it starts).
  void validate() const;
};

/// A Machine whose charged I/Os are additionally striped across D member
/// Machines.  The base-class state IS the frontend: all algorithm-facing
/// behaviour (ledger, phases, cache, faults, trace, Q) is inherited
/// unchanged; the overrides only append per-device accounting.
class ShardedMachine : public Machine {
 public:
  explicit ShardedMachine(ShardConfig cfg);

  // --- the device array --------------------------------------------------
  std::size_t device_count() const { return devices_.size(); }
  Machine& device(std::size_t d) { return *devices_.at(d); }
  const Machine& device(std::size_t d) const { return *devices_.at(d); }
  const ShardConfig& shard_config() const { return scfg_; }
  Placement placement() const { return scfg_.placement; }

  /// Native device transfers per logical block on device d
  /// (= frontend B / device B; write amplification for coarse frontends
  /// over fine devices).
  std::size_t amplification(std::size_t d) const { return amp_.at(d); }

  // --- routing (exposed for tests and diagnostics) ------------------------
  struct Route {
    std::size_t device = 0;       // which member machine
    std::uint64_t local = 0;      // logical block index ON that device
  };
  Route route(std::uint64_t block) const;

  // --- aggregates ---------------------------------------------------------
  /// Element-wise sum of the per-device IoStats (native transfer counts).
  IoStats devices_stats() const;
  /// Sum over devices of reads_d + omega_d * writes_d — the real money
  /// spent by the array, priced per device (saturating).
  std::uint64_t devices_cost() const;
  /// max/mean of per-device native write counts; 1.0 when the array has
  /// seen no writes.  1.0 = perfectly balanced, D = one device takes all.
  double wear_spread() const;
  /// Turns on the per-(array, block) write histogram on every device.
  void enable_device_wear_tracking();

  // --- degraded serving (outage schedule) ---------------------------------
  /// Frontend op clock the outage windows are evaluated against: charged
  /// frontend reads + writes so far (including backoff polls).
  std::uint64_t op_clock() const { return stats().total_ios(); }
  /// True while device d is inside its configured outage window.
  bool device_down(std::size_t d) const;
  const OutageStats& outage_stats(std::size_t d) const {
    return ostats_.at(d);
  }
  /// Native writes still queued for device d (deferred while it was down
  /// and not yet drained).
  std::size_t pending_writes(std::size_t d) const {
    return queued_.at(d).size();
  }
  /// Replays every queued write whose device has recovered, at device
  /// prices, in FIFO order.  Runs automatically before each logical
  /// transfer; public so callers can settle the array at a quiet point
  /// before reading aggregate counters.
  void drain_recovered();

  // --- Machine overrides --------------------------------------------------
  std::uint32_t register_array(std::string name) override;
  void reset_stats() override;
  IoTicket on_read(std::uint32_t array, std::uint64_t block) override;
  IoTicket on_write(std::uint32_t array, std::uint64_t block) override;

 private:
  struct QueuedWrite {
    std::uint32_t array = 0;
    std::uint64_t native = 0;  // device-native block index
  };

  /// Bounded-retry wait for a down device (reads).  Each retry charges
  /// frontend poll reads; throws FaultError on exhaustion.
  void wait_for_device(std::size_t d, std::uint32_t array,
                       std::uint64_t block);

  ShardConfig scfg_;
  std::vector<std::unique_ptr<Machine>> devices_;
  std::vector<std::size_t> amp_;  // amp_[d] = frontend B / device d's B

  // route() runs once per charged logical transfer, so the two divisors it
  // needs (device count, range chunk length) are precomputed reciprocals —
  // a high multiply plus shifts instead of two hardware divides per block.
  util::FastDiv64 div_devices_;
  util::FastDiv64 div_chunk_;

  // Outage state (all empty-schedule costs: one bool test per transfer).
  bool outages_armed_ = false;
  std::vector<std::uint64_t> down_at_;  // per device; 0 = no outage
  std::vector<std::uint64_t> up_at_;
  std::vector<std::vector<QueuedWrite>> queued_;
  std::vector<OutageStats> ostats_;
};

}  // namespace aem
