// Fault injection and endurance modelling for the AEM machine.
//
// The model charges omega per write *because* NVM cells wear out and writes
// can fail (Jacob & Sitchinava Section 1).  A FaultPolicy turns the
// simulator's perfect device into one that actually exhibits those failure
// modes, deterministically:
//
//  * transient read faults  — a read's transfer is corrupted this one time;
//    its read check fails, the stored block is intact and a (charged)
//    retry succeeds;
//  * silent write faults    — the write "succeeds" but the stored block is
//    corrupted; only verification (read-back or a read check) can tell;
//  * torn write faults      — only a prefix of the block is persisted;
//  * endurance retirement   — after `endurance` lifetime writes a physical
//    block wears out permanently: further writes to it do not take effect
//    and the recovery layer must migrate the block to a spare (core/remap);
//  * power cuts             — the machine loses power after an exact number
//    of charged writes (CrashError).
//
// Every fault decision is drawn from a counter-based SplitMix64 stream, so
// an identical (seed, config, program) triple reproduces the exact same
// fault schedule bit for bit — fault runs are as replayable as clean ones.
//
// The policy itself only *decides*; ExtArray (core/ext_array.hpp), which
// owns the stored bytes, acts on the decisions.  It models a perfect
// device-side ECC: a failed write attempt marks its block known-corrupt
// (and changes no bytes) until a write succeeds, and a read check fails on
// a known-corrupt block or a transient fault.  Its recovery layer
// (verify-after-write, bounded retry, remap to spares) charges every retry
// through the normal Machine accounting path, so the omega-weighted price
// of robustness shows up in Q like any other I/O.
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/stats.hpp"

namespace aem {

/// What (if anything) the device does to one attempted operation.
enum class FaultKind : std::uint8_t {
  kNone,
  kTransientRead,  // the transfer corrupted; stored data intact
  kSilentWrite,    // stored data corrupted; write reports success
  kTornWrite,      // only a prefix of the block is persisted
  kRetiredBlock,   // block past its endurance budget; write does not take
};

const char* to_string(FaultKind k);

struct FaultConfig {
  /// Seed of the deterministic fault schedule.
  std::uint64_t seed = 1;

  /// Per-operation fault probabilities in [0, 1].  The two write rates are
  /// mutually exclusive outcomes of one draw, so their sum must be <= 1.
  double read_fault_rate = 0.0;
  double silent_write_rate = 0.0;
  double torn_write_rate = 0.0;

  /// Lifetime writes a physical block endures before permanent retirement.
  /// 0 = unlimited (no retirement).
  std::uint64_t endurance = 0;

  /// Spare physical blocks available per array for wear-leveling remap of
  /// retired blocks.  0 = no spares (a retired block is unrecoverable).
  std::size_t spare_blocks = 0;

  /// Bound on recovery retries per logical operation (per physical block:
  /// a remap to a fresh spare resets the count).
  std::size_t max_retries = 4;

  /// Deterministic power-cut point: once the machine's charged write
  /// counter reaches this value, the policy throws CrashError from the
  /// write hot path.  The Nth write is charged (and, on the plain path,
  /// persisted) before the cut lands, so the crash point is reproducible
  /// to the exact block transfer.  One-shot: firing disarms the schedule
  /// until reset().  0 = unarmed.
  std::uint64_t crash_after_writes = 0;

  /// Throws std::invalid_argument on out-of-range rates.
  void validate() const;
};

/// Counters of everything the fault/recovery machinery did.  Flows into the
/// metrics snapshot (docs/MODEL.md sections 8 and 10).
struct FaultStats {
  // injected faults
  std::uint64_t read_faults = 0;
  std::uint64_t silent_write_faults = 0;
  std::uint64_t torn_write_faults = 0;
  std::uint64_t retired_writes = 0;  // write attempts on retired blocks

  // recovery activity (each retry is also charged in the machine's IoStats)
  std::uint64_t read_retries = 0;
  std::uint64_t write_retries = 0;
  std::uint64_t verify_failures = 0;    // verify-after-write mismatches
  std::uint64_t checksum_failures = 0;  // failed read checks
  std::uint64_t retired_blocks = 0;     // blocks past the endurance budget
  std::uint64_t remaps = 0;             // retired blocks migrated to spares

  friend bool operator==(const FaultStats&, const FaultStats&) = default;
};

/// Machine-level recovery accounting: every recovery pass (e.g.
/// KvStore::recover()) notes its full charged bill on the machine it ran
/// on, and the totals surface in the metrics snapshot's "reliability"
/// section.  The underlying I/Os are also counted in the
/// machine's IoStats like any other charged transfer — this is
/// attribution, not double-charging.
struct RecoveryStats {
  std::uint64_t scans = 0;   // recovery passes run
  std::uint64_t reads = 0;   // charged reads across all passes
  std::uint64_t writes = 0;  // charged writes across all passes
  std::uint64_t cost = 0;    // Q = reads + omega*writes across all passes
  friend bool operator==(const RecoveryStats&, const RecoveryStats&) = default;
};

/// Thrown from the write hot path when the configured power-cut point
/// (FaultConfig::crash_after_writes) is reached: the simulated machine
/// loses power after exactly `after_writes()` charged writes.  Host-side
/// state of the interrupted computation must be considered lost; external
/// state persists only up to the crash discipline of the writing layer
/// (KvStore's manifest, ExtArray's verified writes).  The machine's
/// counters stay valid and include the cut write.
class CrashError : public std::runtime_error {
 public:
  CrashError(std::uint64_t after_writes, IoStats at);

  /// The configured crash point (charged writes at the cut).
  std::uint64_t after_writes() const { return after_writes_; }
  /// The machine's I/O counters at the moment of the cut.
  IoStats at() const { return at_; }

 private:
  std::uint64_t after_writes_;
  IoStats at_;
};

/// Thrown by the recovery layer when a block stays bad after the bounded
/// retries (uncorrectable corruption, or a retired block with no spare).
class FaultError : public std::runtime_error {
 public:
  FaultError(bool is_write, std::uint32_t array, std::uint64_t block,
             std::size_t attempts, const std::string& detail);

  bool is_write() const { return is_write_; }
  std::uint32_t array() const { return array_; }
  std::uint64_t block() const { return block_; }
  std::size_t attempts() const { return attempts_; }

 private:
  bool is_write_;
  std::uint32_t array_;
  std::uint64_t block_;
  std::size_t attempts_;
};

/// The checksum of KvStore's manifest slots (store/kv_store.hpp): an
/// FNV-1a-style hash over 8-byte words, h = (h ^ w) * FNV_prime, run in
/// four independent lanes over each 32-byte chunk, the lanes then folded
/// into h the same way, with a word-wise and then byte-wise tail for
/// lengths that are not a multiple of 32.  Every step is a bijection in
/// both h (the prime is odd) and w, so a change confined to one word —
/// any single-byte corruption — always changes the result.  Zero bytes
/// hash to the FNV offset basis.
std::uint64_t fault_checksum(const void* data, std::size_t bytes);

/// The seed-driven fault schedule plus endurance bookkeeping.  Installed on
/// a Machine (Machine::install_faults); consulted by ExtArray on every
/// block transfer.  Decisions are drawn from a counter-based stream, so the
/// schedule is a pure function of (seed, sequence of draws).
class FaultPolicy {
 public:
  explicit FaultPolicy(FaultConfig cfg);

  const FaultConfig& config() const { return cfg_; }
  const FaultStats& stats() const { return stats_; }

  /// Rewinds the schedule and clears all counters, wear counts, and
  /// retirements — the state a fresh policy with the same config has.
  void reset();

  /// True if any fault kind can actually fire (rates or endurance set).
  /// A crash-only schedule does NOT count: a power cut interrupts the
  /// program but never corrupts a completed transfer, so it must not switch
  /// ExtArray onto the verified path (whose extra verify charges would
  /// break the crash-unarmed byte-identity guarantee).
  bool injects_faults() const {
    return read_thresh_ != 0 || silent_thresh_ != 0 || torn_thresh_ != 0 ||
           cfg_.endurance != 0;
  }

  /// True while the power-cut schedule is armed and has not fired yet.
  bool crash_armed() const { return crash_arm_ != 0; }
  /// Crash points hit since construction / reset().
  std::uint64_t crashes_fired() const { return crashes_fired_; }

  // --- schedule draws (each advances the deterministic stream) ------------
  bool draw_read_fault();
  /// kNone, kSilentWrite, or kTornWrite (one draw decides).
  FaultKind draw_write_fault();
  /// Raw draw used to pick corruption offsets / torn prefix lengths.
  std::uint64_t draw_u64();

  // --- endurance ----------------------------------------------------------
  /// Records one lifetime write to a physical block and returns true if the
  /// block is (now or already) retired.
  bool record_write(std::uint32_t array, std::uint64_t block);
  bool retired(std::uint32_t array, std::uint64_t block) const;
  /// Lifetime write count of a physical block.
  std::uint64_t lifetime_writes(std::uint32_t array, std::uint64_t block) const;

  // --- recovery counters (bumped by ExtArray's recovery layer) ------------
  void note_read_retry() { ++stats_.read_retries; }
  void note_write_retry() { ++stats_.write_retries; }
  void note_verify_failure() { ++stats_.verify_failures; }
  void note_checksum_failure() { ++stats_.checksum_failures; }
  void note_remap() { ++stats_.remaps; }

  // --- crash schedule (machine hot path) ----------------------------------
  /// Throws CrashError if the armed power-cut point has been reached (the
  /// schedule disarms itself as it fires — one cut per arm).
  void check_budget(const IoStats& s) {
    if (crash_arm_ != 0 && s.writes >= crash_arm_) fire_crash(s);
  }

 private:
  [[noreturn]] void fire_crash(const IoStats& at);

  std::uint64_t draw(std::uint64_t salt);

  FaultConfig cfg_;
  // Rates pre-scaled to uint64 thresholds: a draw r faults iff r < thresh.
  std::uint64_t read_thresh_ = 0;
  std::uint64_t silent_thresh_ = 0;
  std::uint64_t torn_thresh_ = 0;
  std::uint64_t counter_ = 0;
  std::uint64_t crash_arm_ = 0;  // remaining power-cut point; 0 = unarmed
  std::uint64_t crashes_fired_ = 0;
  FaultStats stats_;
  // writes_[array][block] = lifetime write count (dense, like the machine's
  // wear histogram; spare blocks get ids just past the logical range).
  std::vector<std::vector<std::uint64_t>> writes_;
};

}  // namespace aem
