// Asymmetry-aware write-back block cache (buffer pool) for the AEM machine.
//
// A BlockCache sits between ExtArray block traffic and the Machine's cost
// counters: reads and writes of resident blocks are served from the pool
// for free, writes dirty their block instead of paying omega immediately,
// and the deferred device write is charged once — at eviction or flush —
// no matter how many times the block was rewritten while resident.  That
// write coalescing is exactly what a buffer pool buys on write-expensive
// memory, and the eviction policy decides who pays for it:
//
//  * kLru        — classic least-recently-used, the symmetric-cost default;
//  * kClock      — second-chance approximation of LRU (reference bits);
//  * kCleanFirst — the asymmetry-aware policy (CFLRU-style): evicting a
//    clean block costs a possible future read (1), evicting a dirty block
//    costs a certain write (omega) plus the future read, so the victim is
//    the coldest clean block within a window of the coldest blocks, and
//    the true LRU block when that window holds none.  The window is
//    derived from the machine's omega (capacity - max(1, capacity/omega)),
//    so at omega = 1 the window is empty and the policy degenerates to
//    exact LRU — the classic EM special case stays classic.  The victim is
//    the one a scan of the window would return, but it is read off a
//    maintained cold-run cursor (the coldest clean frame plus the count of
//    dirty frames colder than it) in amortized O(1), not found by a scan.
//
// The pool models a device-side buffer (an SSD's DRAM cache, a controller
// buffer): its capacity does NOT count against the algorithm's internal
// memory M, and its hits produce no machine I/O, no trace ops, and no wear.
// Write-backs are real charged writes that go through the full ExtArray
// device path — under an installed FaultPolicy they can fault, retry,
// verify, and retire blocks like any other write.
//
// Residency is found through a dense frame table per array: block index ->
// frame (kNil when not resident), so a lookup is two bounds-checked vector
// reads, and an insert or eviction allocates nothing once the table has
// grown.  The host-memory price is 4 bytes per table slot; a table grows
// by doubling to cover the largest block index inserted into its array
// (so under 8 bytes per block of that index), and is released when the
// array is invalidated.  Neither tables nor frames count against M.
//
// Capacity 0 is the strict bypass mode: no cache object is installed and
// the transfer path — and therefore Q — is byte-identical to the uncached
// library (pinned by CachedMachineTest.CapacityZeroConfigIsAPlainMachine,
// same pattern as the fault subsystem's zero-rate guarantee).
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <vector>

namespace aem {

/// Eviction policy of the block cache.
enum class CachePolicy : std::uint8_t {
  kLru,         // least recently used
  kClock,       // second-chance / reference bits
  kCleanFirst,  // asymmetry-aware: prefer clean victims in a cold window
};

const char* to_string(CachePolicy p);

struct CacheConfig {
  /// Pool capacity in blocks.  0 = bypass: no cache is installed and the
  /// I/O path is byte-identical to the uncached library.
  std::size_t capacity_blocks = 0;

  CachePolicy policy = CachePolicy::kLru;
};

/// Counters of everything the cache did.  Flows into the metrics snapshot
/// (docs/MODEL.md sections 8 and 11).
struct CacheStats {
  std::uint64_t read_hits = 0;
  std::uint64_t read_misses = 0;   // each paid one charged device read
  std::uint64_t write_hits = 0;    // rewrite of a resident block: free
  std::uint64_t write_misses = 0;  // write-allocate, no device I/O yet
  std::uint64_t evictions_clean = 0;
  std::uint64_t evictions_dirty = 0;  // each paid one charged device write
  std::uint64_t write_backs = 0;      // dirty evictions + flush writes
  std::uint64_t flushes = 0;          // flush() calls
  /// Dirty blocks dropped WITHOUT a write-back: their array was destroyed
  /// or restaged (unsafe_host_fill), so there was no storage left to
  /// persist to.  Nonzero here means Q excludes those writes — flush
  /// before tearing down arrays if full accounting matters.
  std::uint64_t invalidated_dirty = 0;

  friend bool operator==(const CacheStats&, const CacheStats&) = default;
};

/// The buffer pool proper: a fixed set of block frames, an eviction policy,
/// and per-array write-back sinks.  Holds metadata only — the cached bytes
/// live in the owning ExtArray, which registers a Sink so evictions can
/// push dirty blocks back through the charged (and possibly faulty) device
/// write path.  Owned by Machine (built from Config::cache); consulted by
/// ExtArray on every block transfer.  Deterministic: identical op
/// sequences produce identical hits, victims, and charges.
class BlockCache {
 public:
  /// Write-back target of one array, implemented by ExtArray<T>.  The sink
  /// must perform a charged device write of the block's current (pool)
  /// contents; under fault injection that write retries, verifies, and
  /// remaps like any other.  Eviction and flush() both write back through
  /// it, one block per call.
  class Sink {
   public:
    virtual void cache_write_back(std::uint64_t block) = 0;

   protected:
    ~Sink() = default;
  };

  /// `omega` parameterizes the kCleanFirst window; capacity must be
  /// nonzero (capacity 0 means bypass — don't construct a cache at all).
  BlockCache(CacheConfig cfg, std::uint64_t omega);

  BlockCache(const BlockCache&) = delete;
  BlockCache& operator=(const BlockCache&) = delete;

  const CacheConfig& config() const { return cfg_; }
  std::size_t capacity() const { return frames_.size(); }
  /// The kCleanFirst window: how many blocks, counted from the cold (LRU)
  /// end, may hold the clean victim before the true LRU block is evicted.
  /// capacity - max(1, capacity/omega): 0 (exact LRU) at omega = 1, up to
  /// capacity - 1 (protect only the MRU block) as omega grows; 0 for the
  /// other policies.
  std::size_t window() const { return window_; }

  const CacheStats& stats() const { return stats_; }
  /// Clears the counters only; resident blocks and dirtiness are kept
  /// (their deferred write-backs will charge whoever runs next, which is
  /// why measured cases should flush() before reset).
  void reset_stats() { stats_ = CacheStats{}; }

  std::size_t resident() const { return resident_; }
  std::size_t resident_dirty() const { return resident_dirty_; }

  // --- the ExtArray-facing hot path ---------------------------------------
  /// Lookup for a read; on a hit the block is touched (policy-specific) and
  /// true is returned — serve the data from the pool, charge nothing.
  bool find_read(std::uint32_t array, std::uint64_t block) {
    const std::uint32_t frame = lookup(array, block);
    if (frame == kNil) {
      ++stats_.read_misses;
      return false;
    }
    ++stats_.read_hits;
    touch(frame);
    return true;
  }

  /// Lookup for a write; on a hit the block is touched and marked dirty.
  bool find_write(std::uint32_t array, std::uint64_t block) {
    const std::uint32_t frame = lookup(array, block);
    if (frame == kNil) {
      ++stats_.write_misses;
      return false;
    }
    ++stats_.write_hits;
    Frame& f = frames_[frame];
    if (!f.dirty) {
      f.dirty = true;
      ++resident_dirty_;
    }
    touch(frame);
    return true;
  }

  /// Makes `block` resident (it must not already be), evicting a victim if
  /// the pool is full.  A dirty victim is written back through its sink
  /// BEFORE the insertion mutates anything, so an exception thrown by the
  /// write-back (CrashError, FaultError) leaves the victim resident
  /// and dirty, and the new block simply not cached.  `sink` is remembered
  /// as the array's write-back target.
  void insert(std::uint32_t array, std::uint64_t block, bool dirty,
              Sink* sink);

  /// Re-points an array's write-back sink (ExtArray move support).
  void move_sink(std::uint32_t array, Sink* sink);

  /// Writes back every dirty block (deterministically, in ascending
  /// (array, block) order) and marks it clean; resident blocks stay
  /// resident.  Returns the number of charged write-backs.  On an
  /// exception mid-flush, already-flushed blocks are clean, the failing
  /// one stays dirty, and flush() can simply be called again.
  std::size_t flush();

  /// Drops every entry of `array` WITHOUT write-backs (the array's storage
  /// is going away: destruction or restaging).  Dirty drops are counted in
  /// stats().invalidated_dirty.  Releases the array's frame table.  Also
  /// forgets the array's write-back sink — the Sink lives inside the
  /// ExtArray being destroyed, so keeping the pointer would leave
  /// evict_one()/flush() one dirty frame away from a use-after-free.
  void invalidate_array(std::uint32_t array);

  // --- introspection (tests, metrics) -------------------------------------
  bool contains(std::uint32_t array, std::uint64_t block) const;
  bool dirty(std::uint32_t array, std::uint64_t block) const;
  /// True while a live write-back sink is registered for `array` (cleared
  /// by invalidate_array; regression coverage for the dangling-sink bug).
  bool has_sink(std::uint32_t array) const;

 private:
  static constexpr std::uint32_t kNil =
      std::numeric_limits<std::uint32_t>::max();

  struct Frame {
    std::uint32_t array = 0;
    std::uint64_t block = 0;
    bool valid = false;
    bool dirty = false;
    bool ref = false;  // kClock reference bit
    bool cold = false;  // kCleanFirst: in the cold run (see clean_lru_)
    // Recency list links (head = MRU, tail = LRU).
    std::uint32_t prev = kNil;
    std::uint32_t next = kNil;
  };

  /// Per-array state, indexed by the array's machine id.
  struct ArrayIndex {
    // frame_of[block] -> frame holding it, kNil when not resident; grown
    // by doubling on insert, released by invalidate_array.
    std::vector<std::uint32_t> frame_of;
    std::size_t resident = 0;  // valid frames holding this array's blocks
    Sink* sink = nullptr;      // write-back target (nullptr: none)
  };

  /// The frame holding (array, block), or kNil.
  std::uint32_t lookup(std::uint32_t array, std::uint64_t block) const {
    if (array >= arrays_.size()) return kNil;
    const std::vector<std::uint32_t>& t = arrays_[array].frame_of;
    return block < t.size() ? t[block] : kNil;
  }

  /// The array's write-back sink; throws std::logic_error naming `who`
  /// when there is none (the array was destroyed or never registered).
  Sink& sink_for(std::uint32_t array, std::uint64_t block,
                 const char* who) const;

  void touch(std::uint32_t frame);
  void list_push_front(std::uint32_t frame);
  void list_unlink(std::uint32_t frame);

  /// Picks the policy's victim frame (the pool must be full).
  std::uint32_t pick_victim();

  // kCleanFirst cursor.  Walks warmer from `frame` (kNil: none), adding
  // each dirty frame to the cold run, and makes the first clean frame met
  // the new clean_lru_ (kNil if there is none).
  void advance_clean_lru(std::uint32_t frame);
  void leave_cold_run(Frame& f) {
    f.cold = false;
    --cold_run_;
  }
  void join_cold_run(Frame& f) {
    f.cold = true;
    ++cold_run_;
  }
  /// Recomputes the cursor from the recency list in O(capacity) (after
  /// flush() and invalidate_array(), which change many frames at once).
  void rebuild_cold_run();

  /// Writes back (if dirty) and removes the victim.  May throw from the
  /// write-back; in that case the victim is untouched.
  void evict_one();

  CacheConfig cfg_;
  std::size_t window_ = 0;
  std::vector<Frame> frames_;
  std::vector<std::uint32_t> free_;  // unused frame slots (LIFO)
  // arrays_[array]: array ids are dense machine handles, so the frame of
  // (array, block) is two vector loads away — no hashing, no node
  // allocation per insert.
  std::vector<ArrayIndex> arrays_;
  std::uint32_t head_ = kNil;  // MRU
  std::uint32_t tail_ = kNil;  // LRU
  // kCleanFirst only.  clean_lru_ is the coldest clean frame (kNil: every
  // resident frame is dirty); the cold run is the frames colder than it —
  // all dirty, all flagged `cold` — or every resident frame when
  // clean_lru_ is kNil.  A window scan from the tail reaches clean_lru_
  // exactly when cold_run_ < window_.
  std::uint32_t clean_lru_ = kNil;
  std::size_t cold_run_ = 0;
  std::size_t clock_hand_ = 0;
  std::size_t resident_ = 0;
  std::size_t resident_dirty_ = 0;
  CacheStats stats_;
};

}  // namespace aem
