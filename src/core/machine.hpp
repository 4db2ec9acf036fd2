// The (M,B,omega)-AEM machine: cost accounting, capacity enforcement,
// phase attribution, and optional trace recording.
//
// The machine itself stores no data — external arrays (core/ext_array.hpp)
// own their storage and report every block transfer here.  This keeps the
// machine non-templated while arrays are typed.
//
// Hot-path design: on_read/on_write run once per simulated block transfer,
// so every experiment's wall clock is bounded by their cost.  All per-I/O
// work is therefore flat-array arithmetic:
//
//  * phase names are interned to dense ids at PhaseScope construction, and
//    the duplicate-name check runs once per scope push — attribute() is a
//    loop over a small precomputed id list incrementing flat counters;
//  * the wear histogram is a per-array vector indexed by block (block
//    indices are dense: arrays are contiguous), not a map over
//    (array, block) pairs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/cache.hpp"
#include "core/config.hpp"
#include "core/faults.hpp"
#include "core/ledger.hpp"
#include "core/stats.hpp"
#include "core/trace.hpp"

namespace aem {

/// One queued block transfer for Machine::submit: the same
/// (kind, array, block) triple on_read/on_write take.
struct BlockOp {
  OpKind kind = OpKind::kRead;
  std::uint32_t array = 0;
  std::uint64_t block = 0;
};

class Machine {
 public:
  explicit Machine(Config cfg);
  virtual ~Machine() = default;

  Machine(const Machine&) = delete;
  Machine& operator=(const Machine&) = delete;

  // --- model parameters -------------------------------------------------
  const Config& config() const { return cfg_; }
  std::size_t M() const { return cfg_.memory_elems; }
  std::size_t B() const { return cfg_.block_elems; }
  std::uint64_t omega() const { return cfg_.write_cost; }
  /// m = ceil(M/B).
  std::size_t m() const { return cfg_.m(); }
  /// n = ceil(N/B) for a given element count N.
  std::size_t n_of(std::size_t elems) const { return cfg_.blocks_for(elems); }

  // --- accounting --------------------------------------------------------
  IoStats stats() const { return stats_; }
  /// Q = Q_r + omega * Q_w since construction or the last reset.
  std::uint64_t cost() const { return stats_.cost(cfg_.write_cost); }
  virtual void reset_stats();

  MemoryLedger& ledger() { return ledger_; }
  const MemoryLedger& ledger() const { return ledger_; }
  /// True if any reservation over-released (a masked double-release bug);
  /// see MemoryLedger::poisoned().
  bool ledger_poisoned() const { return ledger_.poisoned(); }

  // --- phase attribution ---------------------------------------------------
  /// RAII scope attributing subsequent I/Os to a named phase.  Phases nest
  /// hierarchically: an I/O counts toward every phase on the stack, so an
  /// outer phase's stats subsume those of the phases it encloses.  A name
  /// already active on the stack is counted once (the dedup is decided here,
  /// at push time, not per I/O).
  class PhaseScope {
   public:
    PhaseScope(Machine& mach, std::string_view name);
    ~PhaseScope();
    PhaseScope(const PhaseScope&) = delete;
    PhaseScope& operator=(const PhaseScope&) = delete;

   private:
    Machine& mach_;
    bool owns_slot_;  // false when this name was already active (duplicate)
  };

  PhaseScope phase(std::string_view name) { return PhaseScope(*this, name); }

  /// Per-phase I/O counters, by name, for phases that performed any I/O.
  /// Built on demand from the interned-id storage (not the hot path).
  std::map<std::string, IoStats> phase_stats() const;
  void clear_phase_stats();

  /// Interned-phase introspection (stable ids, used by core/metrics).
  std::size_t phase_count() const { return phase_names_.size(); }
  const std::string& phase_name(std::uint32_t id) const;
  const IoStats& phase_io(std::uint32_t id) const;

  // --- wear tracking ---------------------------------------------------
  /// NVM cells have limited write endurance, so beyond total write COUNT
  /// (the omega-weighted cost), write CONCENTRATION matters: an algorithm
  /// that hammers one block ages it omega-independent-ly.  When enabled,
  /// the machine histograms writes per (array, block).
  void enable_wear_tracking() { wear_.emplace(); }
  bool wear_tracking() const { return wear_.has_value(); }

  /// One row per written array, by id (empty when wear tracking is off);
  /// `name` is empty for an id no array registered.
  std::vector<ArrayWear> wear_by_array() const;
  WearStats wear_stats() const { return total_wear(wear_by_array()); }

  // --- fault injection & endurance (core/faults) ---------------------------
  /// Installs (replacing any previous) a deterministic fault policy: from
  /// now on ExtArray block transfers are subject to the configured fault
  /// schedule, recovery machinery, and crash point.  With no policy
  /// installed the machine is the perfect device it always was — the hot
  /// path only pays one null-pointer test, and Q is byte-identical.
  void install_faults(FaultConfig cfg);
  FaultPolicy* faults() { return faults_.get(); }
  const FaultPolicy* faults() const { return faults_.get(); }

  // --- reliability (recovery-bill attribution) -----------------------------
  /// Accumulated bills of recovery passes run on this machine (e.g.
  /// KvStore::recover()); cleared by reset_stats().  Surfaces in the
  /// metrics snapshot's "reliability" section.
  const RecoveryStats& recovery_stats() const { return recovery_; }
  /// Notes one recovery pass's full charged bill (reads / writes / Q
  /// deltas of the pass).  The I/Os themselves were charged through
  /// on_read/on_write as usual; this records their attribution.
  void note_recovery(std::uint64_t reads, std::uint64_t writes,
                     std::uint64_t cost) {
    ++recovery_.scans;
    recovery_.reads += reads;
    recovery_.writes += writes;
    recovery_.cost += cost;
  }

  // --- block cache (core/cache.hpp) ----------------------------------------
  /// The write-back block cache between ExtArray traffic and the counters,
  /// built by the constructor from Config::cache; nullptr at capacity 0
  /// (bypass: the hot path pays one null-pointer test, and Q is
  /// byte-identical to the uncached machine).
  BlockCache* cache() { return cache_.get(); }
  const BlockCache* cache() const { return cache_.get(); }
  /// Writes back every dirty cached block (each a charged omega-write that
  /// can fault and retry like any other); returns the write-back count.
  /// Call it before reading cost() off a cached run — resident dirty
  /// blocks are deferred writes Q has not seen yet.  No-op without a cache.
  std::size_t flush_cache() { return cache_ ? cache_->flush() : 0; }

  // --- tracing -------------------------------------------------------------
  /// Starts recording ops into a fresh trace (dropping any previous one).
  void enable_trace();
  bool tracing() const { return trace_ != nullptr; }
  /// The active trace, or nullptr when tracing is disabled.
  Trace* trace() { return trace_.get(); }
  const Trace* trace() const { return trace_.get(); }
  /// Detaches and returns the recorded trace, disabling tracing.
  std::unique_ptr<Trace> take_trace();

  // --- hooks used by ExtArray ----------------------------------------------
  /// Registers an array; the returned id appears in traces and diagnostics.
  /// Virtual (with on_read/on_write/reset_stats) so core/sharding's
  /// ShardedMachine can mirror the call onto its member devices; the
  /// overhead on the plain machine is one indirect call per simulated I/O,
  /// measured by perfbench's core.machine_ns_per_op.
  virtual std::uint32_t register_array(std::string name);
  const std::string& array_name(std::uint32_t id) const;
  std::size_t array_count() const { return arrays_.size(); }

  /// Charges one block read / write and records it if tracing.
  virtual IoTicket on_read(std::uint32_t array, std::uint64_t block);
  virtual IoTicket on_write(std::uint32_t array, std::uint64_t block);

  /// Charges `ops` in order, each through on_write/on_read exactly as a
  /// caller's own loop would (docs/MODEL.md section 17): same counters,
  /// wear, phases, trace, fault schedule, and mid-span throws.
  void submit(std::span<const BlockOp> ops);

 private:
  friend class PhaseScope;

  /// Heterogeneous string hashing so phase interning can look up a
  /// string_view without materializing a std::string.
  struct StringHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view s) const {
      return std::hash<std::string_view>{}(s);
    }
  };

  std::uint32_t intern_phase(std::string_view name);

  Config cfg_;
  MemoryLedger ledger_;
  IoStats stats_;
  std::vector<std::string> arrays_;

  // Phase interning + attribution state.  active_phases_ holds the DISTINCT
  // ids currently on the scope stack, in push order; phase_active_ is the
  // per-id membership flag that makes the duplicate check O(1) at push.
  std::vector<std::string> phase_names_;
  std::unordered_map<std::string, std::uint32_t, StringHash, std::equal_to<>>
      phase_ids_;
  std::vector<IoStats> phase_totals_;
  std::vector<std::uint8_t> phase_active_;
  std::vector<std::uint32_t> active_phases_;

  std::unique_ptr<Trace> trace_;
  std::unique_ptr<FaultPolicy> faults_;
  std::unique_ptr<BlockCache> cache_;
  RecoveryStats recovery_;
  // wear_[array][block] = write count; vectors grow on demand (block indices
  // are dense within an array, so this is a flat histogram, not a map).
  std::optional<std::vector<std::vector<std::uint64_t>>> wear_;

  void attribute(bool is_write) {
    for (std::uint32_t id : active_phases_) {
      IoStats& s = phase_totals_[id];
      if (is_write) {
        ++s.writes;
      } else {
        ++s.reads;
      }
    }
  }

  void record_wear(std::uint32_t array, std::uint64_t block) {
    auto& per_array = *wear_;
    if (array >= per_array.size()) per_array.resize(array + 1);
    auto& blocks = per_array[array];
    if (block >= blocks.size()) blocks.resize(block + 1, 0);
    ++blocks[block];
  }
};

}  // namespace aem
