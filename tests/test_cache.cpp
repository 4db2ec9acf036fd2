// Tests for core/cache: eviction-policy mechanics (BlockCache directly),
// charged-cost accounting and write coalescing through ExtArray, the
// omega-derived clean-first window, lifetime edges (moves, destruction,
// restaging), interaction with fault injection (write-back retry /
// retirement / remap, flush under BudgetExceeded), the per-array frame
// table against a std::map reference, and the property that caching never
// changes outputs — only Q.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/cache.hpp"
#include "core/ext_array.hpp"
#include "core/faults.hpp"
#include "core/machine.hpp"
#include "permute/permutation.hpp"
#include "permute/scatter.hpp"
#include "sort/mergesort.hpp"
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

Config cached_cfg(std::size_t M, std::size_t B, std::uint64_t w,
                  std::size_t capacity, CachePolicy p = CachePolicy::kLru) {
  Config c = cfg(M, B, w);
  c.cache.capacity_blocks = capacity;
  c.cache.policy = p;
  return c;
}

/// Records the order of write-backs the cache requested.
struct RecordingSink : BlockCache::Sink {
  std::vector<std::uint64_t> written;
  void cache_write_back(std::uint64_t block) override {
    written.push_back(block);
  }
};

/// Sink that throws on the Nth write-back (1-based), modeling a
/// BudgetExceeded / FaultError escaping mid-eviction.
struct ThrowingSink : BlockCache::Sink {
  explicit ThrowingSink(std::size_t fail_at) : fail_at_(fail_at) {}
  std::size_t fail_at_;
  std::size_t calls = 0;
  void cache_write_back(std::uint64_t) override {
    if (++calls == fail_at_) throw std::runtime_error("write-back failed");
  }
};

// --- config & construction -----------------------------------------------

TEST(BlockCacheTest, ConstructorRejectsZeroCapacity) {
  CacheConfig c;  // capacity 0 = bypass, not a constructible cache
  EXPECT_THROW(BlockCache(c, 8), std::invalid_argument);
}

TEST(BlockCacheTest, CleanFirstWindowDerivesFromOmega) {
  CacheConfig c;
  c.capacity_blocks = 64;
  c.policy = CachePolicy::kCleanFirst;
  // omega = 1: window 0 — the policy IS exact LRU.
  EXPECT_EQ(BlockCache(c, 1).window(), 0u);
  // omega = 8: 64 - max(1, 64/8) = 56.
  EXPECT_EQ(BlockCache(c, 8).window(), 56u);
  // omega >= capacity: 64 - max(1, 64/64) = 63 (protect only the MRU).
  EXPECT_EQ(BlockCache(c, 1024).window(), 63u);
  // Other policies have no window.
  c.policy = CachePolicy::kLru;
  EXPECT_EQ(BlockCache(c, 8).window(), 0u);
}

// --- eviction-policy mechanics (BlockCache directly) ----------------------

TEST(BlockCacheTest, LruEvictsLeastRecentlyTouched) {
  CacheConfig c;
  c.capacity_blocks = 3;
  BlockCache bc(c, 8);
  RecordingSink sink;
  bc.insert(0, 0, true, &sink);
  bc.insert(0, 1, true, &sink);
  bc.insert(0, 2, true, &sink);
  ASSERT_TRUE(bc.find_read(0, 0));  // 0 becomes MRU; LRU order: 1, 2, 0
  bc.insert(0, 3, true, &sink);     // evicts 1
  EXPECT_EQ(sink.written, (std::vector<std::uint64_t>{1}));
  EXPECT_FALSE(bc.contains(0, 1));
  EXPECT_TRUE(bc.contains(0, 0));
  bc.insert(0, 4, true, &sink);  // evicts 2
  EXPECT_EQ(sink.written, (std::vector<std::uint64_t>{1, 2}));
}

TEST(BlockCacheTest, ClockGivesSecondChanceToReferencedFrames) {
  CacheConfig c;
  c.capacity_blocks = 3;
  c.policy = CachePolicy::kClock;
  BlockCache bc(c, 8);
  RecordingSink sink;
  bc.insert(0, 0, true, &sink);  // frame 0
  bc.insert(0, 1, true, &sink);  // frame 1
  bc.insert(0, 2, true, &sink);  // frame 2
  // All ref bits set at insert; the first eviction sweep clears them all
  // and wraps to frame 0: block 0 is the victim despite being "oldest by
  // hand position" — but re-reference block 0 first so its bit survives
  // one extra clear and the hand settles on block 1.
  ASSERT_TRUE(bc.find_read(0, 0));
  bc.insert(0, 3, true, &sink);
  // Sweep: f0 ref->clear, f1 ref->clear, f2 ref->clear, f0 ref(set by
  // find_read? no: find_read sets ref, then cleared once)... the victim is
  // the first frame reached twice with a clear bit: frame 0.
  ASSERT_EQ(sink.written.size(), 1u);
  // Whichever frame was chosen, exactly two of the original three remain
  // and the cache is full again.
  EXPECT_EQ(bc.resident(), 3u);
  EXPECT_TRUE(bc.contains(0, 3));
}

TEST(BlockCacheTest, CleanFirstPrefersCleanVictimInWindow) {
  CacheConfig c;
  c.capacity_blocks = 3;
  c.policy = CachePolicy::kCleanFirst;
  BlockCache bc(c, 8);  // window = 3 - max(1, 3/3) = 2
  ASSERT_EQ(bc.window(), 2u);
  RecordingSink sink;
  bc.insert(0, 0, true, &sink);   // dirty
  bc.insert(0, 1, false, &sink);  // clean
  bc.insert(0, 2, true, &sink);   // dirty; LRU order: 0, 1, 2
  bc.insert(0, 3, true, &sink);
  // Plain LRU would evict dirty block 0 (a charged write-back); the clean
  // scan skips it and evicts clean block 1 for free.
  EXPECT_TRUE(sink.written.empty());
  EXPECT_FALSE(bc.contains(0, 1));
  EXPECT_TRUE(bc.contains(0, 0));
  EXPECT_EQ(bc.stats().evictions_clean, 1u);
  EXPECT_EQ(bc.stats().evictions_dirty, 0u);
}

TEST(BlockCacheTest, CleanFirstFallsBackToLruWhenWindowIsAllDirty) {
  CacheConfig c;
  c.capacity_blocks = 2;
  c.policy = CachePolicy::kCleanFirst;
  BlockCache bc(c, 8);  // window = 2 - max(1, 2/2) = 1: only the tail block
  ASSERT_EQ(bc.window(), 1u);
  RecordingSink sink;
  bc.insert(0, 0, true, &sink);
  bc.insert(0, 1, false, &sink);  // clean, but OUTSIDE the 1-block window
  bc.insert(0, 2, true, &sink);   // window = {0} (dirty): LRU fallback
  EXPECT_EQ(sink.written, (std::vector<std::uint64_t>{0}));
  EXPECT_EQ(bc.stats().evictions_dirty, 1u);
}

TEST(BlockCacheTest, FindWriteMarksDirtyAndEvictionWritesBackOnce) {
  CacheConfig c;
  c.capacity_blocks = 2;
  BlockCache bc(c, 8);
  RecordingSink sink;
  bc.insert(0, 7, false, &sink);
  EXPECT_FALSE(bc.dirty(0, 7));
  ASSERT_TRUE(bc.find_write(0, 7));
  ASSERT_TRUE(bc.find_write(0, 7));  // second dirtying is a no-op
  EXPECT_TRUE(bc.dirty(0, 7));
  EXPECT_EQ(bc.resident_dirty(), 1u);
  bc.insert(0, 8, false, &sink);
  bc.insert(0, 9, false, &sink);  // evicts 7: exactly one write-back
  EXPECT_EQ(sink.written, (std::vector<std::uint64_t>{7}));
  EXPECT_EQ(bc.stats().write_hits, 2u);
  EXPECT_EQ(bc.stats().write_backs, 1u);
}

TEST(BlockCacheTest, FlushWritesDirtyBlocksInDeterministicOrderAndKeepsThem) {
  CacheConfig c;
  c.capacity_blocks = 8;
  BlockCache bc(c, 8);
  RecordingSink sink;
  bc.insert(0, 5, true, &sink);
  bc.insert(0, 2, true, &sink);
  bc.insert(0, 9, false, &sink);
  bc.insert(0, 7, true, &sink);
  EXPECT_EQ(bc.flush(), 3u);
  EXPECT_EQ(sink.written, (std::vector<std::uint64_t>{2, 5, 7}));  // sorted
  EXPECT_EQ(bc.resident(), 4u);  // flush cleans, it does not evict
  EXPECT_EQ(bc.resident_dirty(), 0u);
  EXPECT_EQ(bc.flush(), 0u);  // nothing left to write
  EXPECT_EQ(bc.stats().flushes, 2u);
}

TEST(BlockCacheTest, ExceptionDuringEvictionLeavesVictimResidentAndDirty) {
  CacheConfig c;
  c.capacity_blocks = 2;
  BlockCache bc(c, 8);
  ThrowingSink sink(1);
  bc.insert(0, 0, true, &sink);
  bc.insert(0, 1, true, &sink);
  EXPECT_THROW(bc.insert(0, 2, true, &sink), std::runtime_error);
  // The victim (block 0) is untouched; the new block was never inserted.
  EXPECT_TRUE(bc.contains(0, 0));
  EXPECT_TRUE(bc.dirty(0, 0));
  EXPECT_FALSE(bc.contains(0, 2));
  EXPECT_EQ(bc.resident(), 2u);
  EXPECT_EQ(bc.resident_dirty(), 2u);
}

TEST(BlockCacheTest, ExceptionMidFlushKeepsRemainderDirtyAndIsRetryable) {
  CacheConfig c;
  c.capacity_blocks = 4;
  BlockCache bc(c, 8);
  ThrowingSink sink(2);  // second write-back (block 1) fails
  bc.insert(0, 0, true, &sink);
  bc.insert(0, 1, true, &sink);
  bc.insert(0, 2, true, &sink);
  EXPECT_THROW(bc.flush(), std::runtime_error);
  EXPECT_FALSE(bc.dirty(0, 0));  // flushed before the failure
  EXPECT_TRUE(bc.dirty(0, 1));   // the failing block stays dirty
  EXPECT_TRUE(bc.dirty(0, 2));   // never reached
  EXPECT_EQ(bc.flush(), 2u);     // simply call again
  EXPECT_EQ(bc.resident_dirty(), 0u);
}

TEST(BlockCacheTest, InvalidateArrayDropsDirtyUnchargedAndCountsThem) {
  CacheConfig c;
  c.capacity_blocks = 4;
  BlockCache bc(c, 8);
  RecordingSink a, b;
  bc.insert(0, 0, true, &a);
  bc.insert(1, 0, true, &b);
  bc.insert(0, 1, false, &a);
  bc.invalidate_array(0);
  EXPECT_TRUE(a.written.empty());  // no write-backs on invalidation
  EXPECT_EQ(bc.stats().invalidated_dirty, 1u);
  EXPECT_FALSE(bc.contains(0, 0));
  EXPECT_TRUE(bc.contains(1, 0));  // other arrays untouched
  EXPECT_EQ(bc.resident(), 1u);
  EXPECT_EQ(bc.resident_dirty(), 1u);
}

// --- accounting through ExtArray / Machine --------------------------------

TEST(CachedMachineTest, HitsAreFreeMissesChargeOneRead) {
  Machine mach(cached_cfg(64, 8, 4, 4));
  ExtArray<int> arr(mach, 32, "a");
  std::vector<int> buf(8);
  arr.read_block(0, std::span<int>(buf));  // miss: 1 charged read
  EXPECT_EQ(mach.stats().reads, 1u);
  arr.read_block(0, std::span<int>(buf));  // hit: free
  arr.read_block(0, std::span<int>(buf));
  EXPECT_EQ(mach.stats().reads, 1u);
  EXPECT_EQ(mach.stats().writes, 0u);
  EXPECT_EQ(mach.cache()->stats().read_hits, 2u);
  EXPECT_EQ(mach.cache()->stats().read_misses, 1u);
}

TEST(CachedMachineTest, WritesAreDeferredAndCoalescedUntilFlush) {
  Machine mach(cached_cfg(64, 8, 4, 4));
  ExtArray<int> arr(mach, 32, "a");
  std::vector<int> buf(8, 1);
  for (int rep = 0; rep < 10; ++rep) {
    buf[0] = rep;
    arr.write_block(2, std::span<const int>(buf));
  }
  EXPECT_EQ(mach.stats().writes, 0u);  // nothing charged yet
  EXPECT_EQ(mach.cost(), 0u);
  EXPECT_EQ(mach.flush_cache(), 1u);  // 10 rewrites -> ONE device write
  EXPECT_EQ(mach.stats().writes, 1u);
  EXPECT_EQ(mach.cost(), 4u);  // omega = 4
  // The stored data is the last version.
  std::vector<int> back(8);
  arr.read_block(2, std::span<int>(back));
  EXPECT_EQ(back[0], 9);
}

TEST(CachedMachineTest, HitsProduceNoTraceOpsAndNoWear) {
  Machine mach(cached_cfg(64, 8, 4, 4));
  mach.enable_trace();
  mach.enable_wear_tracking();
  ExtArray<int> arr(mach, 32, "a");
  std::vector<int> buf(8, 3);
  arr.write_block(0, std::span<const int>(buf));  // resident, deferred
  arr.write_block(0, std::span<const int>(buf));
  arr.read_block(0, std::span<int>(buf));
  EXPECT_EQ(mach.trace()->size(), 0u);  // the device saw nothing
  EXPECT_EQ(mach.wear_stats().blocks_written, 0u);
  mach.flush_cache();
  EXPECT_EQ(mach.trace()->size(), 1u);  // exactly the one real write
  EXPECT_EQ(mach.wear_stats().blocks_written, 1u);
  EXPECT_EQ(mach.wear_stats().max_writes, 1u);
}

TEST(CachedMachineTest, HitTicketsAreInvalid) {
  Machine mach(cached_cfg(64, 8, 4, 4));
  mach.enable_trace();
  ExtArray<int> arr(mach, 32, "a");
  std::vector<int> buf(8);
  BlockIo miss = arr.read_block(1, std::span<int>(buf));
  EXPECT_TRUE(miss.ticket.valid());
  BlockIo hit = arr.read_block(1, std::span<int>(buf));
  EXPECT_FALSE(hit.ticket.valid());
}

TEST(CachedMachineTest, ResetStatsKeepsResidencyAndDirtiness) {
  Machine mach(cached_cfg(64, 8, 4, 4));
  ExtArray<int> arr(mach, 32, "a");
  std::vector<int> buf(8, 5);
  arr.write_block(0, std::span<const int>(buf));
  mach.reset_stats();
  EXPECT_EQ(mach.cache()->stats(), CacheStats{});
  EXPECT_EQ(mach.cache()->resident(), 1u);
  EXPECT_EQ(mach.cache()->resident_dirty(), 1u);
  // The deferred write is still owed — and charged to the fresh counters.
  EXPECT_EQ(mach.flush_cache(), 1u);
  EXPECT_EQ(mach.stats().writes, 1u);
}

TEST(CachedMachineTest, MovedArrayKeepsCacheWorking) {
  Machine mach(cached_cfg(64, 8, 4, 4));
  ExtArray<int> a(mach, 32, "a");
  std::vector<int> buf(8, 7);
  a.write_block(3, std::span<const int>(buf));
  ExtArray<int> b = std::move(a);  // sink must be re-pointed at b
  EXPECT_EQ(mach.flush_cache(), 1u);
  std::vector<int> back(8);
  b.read_block(3, std::span<int>(back));
  EXPECT_EQ(back[0], 7);
}

TEST(CachedMachineTest, DestructionDropsDirtyBlocksUncharged) {
  Machine mach(cached_cfg(64, 8, 4, 4));
  {
    ExtArray<int> a(mach, 32, "doomed");
    std::vector<int> buf(8, 7);
    a.write_block(0, std::span<const int>(buf));
  }
  EXPECT_EQ(mach.stats().writes, 0u);  // dropped, not written back
  EXPECT_EQ(mach.cache()->stats().invalidated_dirty, 1u);
  EXPECT_EQ(mach.cache()->resident(), 0u);
  EXPECT_EQ(mach.flush_cache(), 0u);
}

TEST(CachedMachineTest, HostFillDropsStaleCachedBlocks) {
  Machine mach(cached_cfg(64, 8, 4, 4));
  ExtArray<int> a(mach, 32, "a");
  std::vector<int> buf(8);
  a.read_block(0, std::span<int>(buf));  // default-initialized zeros
  std::vector<int> fresh(32);
  for (int i = 0; i < 32; ++i) fresh[i] = 100 + i;
  a.unsafe_host_fill(std::span<const int>(fresh));
  a.read_block(0, std::span<int>(buf));  // must NOT serve the stale zeros
  EXPECT_EQ(buf[0], 100);
}

TEST(CachedMachineTest, CapacityZeroConfigIsAPlainMachine) {
  // Bypass through the Config path: capacity 0 builds no pool, whatever
  // the policy, so ExtArray traffic (where cache dispatch lives) charges
  // exactly what a machine without a cache config charges.
  auto drive = [](Machine& mach) {
    ExtArray<std::uint64_t> arr(mach, 1024, "hot");
    std::vector<std::uint64_t> buf(mach.B());
    for (std::uint64_t i = 0; i < 4 * arr.blocks(); ++i) {
      const std::uint64_t bi = (i * 7) % arr.blocks();
      arr.read_block(bi, std::span<std::uint64_t>(buf));
      buf[0] = i;
      arr.write_block(bi, std::span<const std::uint64_t>(
                              buf.data(), arr.block_elems(bi)));
    }
  };
  Machine plain(cfg(1024, 16, 8));
  drive(plain);
  Machine bypass(cached_cfg(1024, 16, 8, 0, CachePolicy::kCleanFirst));
  drive(bypass);
  EXPECT_EQ(bypass.cache(), nullptr);
  EXPECT_EQ(bypass.flush_cache(), 0u);  // no-op without a cache
  EXPECT_EQ(plain.stats(), bypass.stats());
  EXPECT_EQ(plain.cost(), bypass.cost());
}

// --- interaction with fault injection -------------------------------------

TEST(CacheFaultTest, WriteBackRetriesThroughFaultPolicy) {
  Machine mach(cached_cfg(64, 8, 4, 2));
  FaultConfig fc;
  fc.seed = 7;
  fc.silent_write_rate = 0.5;  // every other write-back attempt corrupts
  fc.max_retries = 50;
  mach.install_faults(fc);
  ExtArray<int> arr(mach, 64, "a");
  std::vector<int> buf(8);
  for (int bi = 0; bi < 8; ++bi) {
    for (int i = 0; i < 8; ++i) buf[i] = bi * 8 + i;
    arr.write_block(bi, std::span<const int>(buf));  // evictions write back
  }
  mach.flush_cache();
  const FaultStats& fs = mach.faults()->stats();
  EXPECT_GT(fs.silent_write_faults, 0u);  // faults really fired
  EXPECT_GT(fs.write_retries, 0u);        // and were retried, charged
  // Every retry was a real omega-write on top of the 8 logical ones.
  EXPECT_GT(mach.stats().writes, 8u);
  // The stored data survived the faulty write-backs (the policy injects
  // no read faults, and every checksum matches).
  for (int bi = 0; bi < 8; ++bi) {
    arr.read_block(bi, std::span<int>(buf));
    for (int i = 0; i < 8; ++i) EXPECT_EQ(buf[i], bi * 8 + i);
  }
}

TEST(CacheFaultTest, WriteBackRetirementMigratesToSpareTransparently) {
  Machine mach(cached_cfg(64, 8, 4, 2));
  FaultConfig fc;
  fc.endurance = 3;  // blocks die after 3 lifetime writes
  fc.spare_blocks = 16;
  mach.install_faults(fc);
  ExtArray<int> arr(mach, 32, "a");
  std::vector<int> buf(8);
  // Hammer block 0 with flushed write-backs until it retires and remaps.
  for (int rep = 0; rep < 6; ++rep) {
    for (int i = 0; i < 8; ++i) buf[i] = rep * 10 + i;
    arr.write_block(0, std::span<const int>(buf));
    mach.flush_cache();
  }
  EXPECT_GT(arr.remapped_blocks(), 0u);
  EXPECT_GT(mach.faults()->stats().remaps, 0u);
  // Reads — cached or not — still deliver the latest data.
  std::vector<int> back(8);
  arr.read_block(0, std::span<int>(back));
  EXPECT_EQ(back[0], 50);
  arr.read_block(0, std::span<int>(back));  // pool hit on a remapped block
  EXPECT_EQ(back[7], 57);
  EXPECT_GT(mach.cache()->stats().read_hits, 0u);
}

TEST(CacheFaultTest, ReadMissOfRemappedBlockRefreshesPoolFrame) {
  // After a block migrates to a spare, a cached read miss reads the spare;
  // the pool hits that follow serve the native region, which must hold
  // the same current data.
  Machine mach(cached_cfg(64, 8, 4, 2));
  FaultConfig fc;
  fc.endurance = 2;
  fc.spare_blocks = 8;
  mach.install_faults(fc);
  ExtArray<int> arr(mach, 32, "a");
  std::vector<int> buf(8);
  for (int rep = 0; rep < 5; ++rep) {
    for (int i = 0; i < 8; ++i) buf[i] = rep * 10 + i;
    arr.write_block(0, std::span<const int>(buf));
    mach.flush_cache();
    // Push block 0 out of the pool so the next read is a true miss.
    arr.write_block(1, std::span<const int>(buf));
    arr.write_block(2, std::span<const int>(buf));
    mach.flush_cache();
  }
  ASSERT_GT(arr.remapped_blocks(), 0u);
  std::vector<int> back(8);
  arr.read_block(0, std::span<int>(back));  // miss: reads the spare
  EXPECT_EQ(back[0], 40);
  arr.read_block(0, std::span<int>(back));  // hit: pool frame must agree
  EXPECT_EQ(back[0], 40);
}

TEST(CacheFaultTest, RemappedWriteBackLeavesThePayloadInThePoolFrame) {
  // A flush whose write-back retires block 0 and moves it to a spare: the
  // failed attempt on the native block must not survive in the pool frame,
  // which the block keeps after the flush, or the next pool hit serves it.
  for (const std::uint64_t seed : {1u, 8u, 10u}) {
    SCOPED_TRACE(seed);
    Machine mach(cached_cfg(64, 8, 4, 4));
    FaultConfig fc;
    fc.seed = seed;
    fc.silent_write_rate = 0.5;
    fc.endurance = 1;
    fc.spare_blocks = 4;
    mach.install_faults(fc);
    ExtArray<int> arr(mach, 64, "a");
    std::vector<int> buf(8);
    for (int i = 0; i < 8; ++i) buf[i] = 70 + i;
    arr.write_block(0, std::span<const int>(buf));
    mach.flush_cache();
    ASSERT_EQ(mach.faults()->stats().remaps, 1u);
    std::vector<int> back(8);
    arr.read_block(0, std::span<int>(back));  // a pool hit
    EXPECT_EQ(mach.cache()->stats().read_hits, 1u);
    EXPECT_EQ(back, buf);
  }
}

TEST(CacheFaultTest, CrashDuringFlushLeavesConsistentStateAndRetries) {
  Machine mach(cached_cfg(64, 8, 4, 8));
  FaultConfig fc;
  fc.crash_after_writes = 2;  // the second flush write-back is the cut
  mach.install_faults(fc);
  ExtArray<int> arr(mach, 64, "a");
  std::vector<int> buf(8, 1);
  arr.write_block(0, std::span<const int>(buf));
  arr.write_block(1, std::span<const int>(buf));
  arr.write_block(2, std::span<const int>(buf));
  EXPECT_THROW(mach.flush_cache(), CrashError);
  // One block was flushed; the one whose write hit the cut is charged but
  // stays dirty, with the third, because the charge threw before the sink
  // marked it clean.  The crash point is one-shot, so retrying completes
  // the flush.
  EXPECT_EQ(mach.stats().writes, 2u);
  EXPECT_EQ(mach.cache()->resident_dirty(), 2u);
  mach.flush_cache();
  EXPECT_EQ(mach.cache()->resident_dirty(), 0u);
  // All three blocks hold their data.
  for (int bi = 0; bi < 3; ++bi) {
    std::vector<int> back(8);
    arr.read_block(bi, std::span<int>(back));
    EXPECT_EQ(back[0], 1);
  }
}

TEST(CacheFaultTest, EvictionCrashKeepsVictimAndDataIntact) {
  Machine mach(cached_cfg(64, 8, 4, 2));
  FaultConfig fc;
  fc.crash_after_writes = 1;  // the first device write is the cut
  mach.install_faults(fc);
  ExtArray<int> arr(mach, 64, "a");
  std::vector<int> one(8, 1), two(8, 2), three(8, 3);
  arr.write_block(0, std::span<const int>(one));
  arr.write_block(1, std::span<const int>(two));
  // The third write must evict a dirty victim; its write-back hits the
  // cut and the victim must stay resident + dirty.
  EXPECT_THROW(arr.write_block(2, std::span<const int>(three)), CrashError);
  EXPECT_EQ(mach.cache()->resident(), 2u);
  EXPECT_EQ(mach.cache()->resident_dirty(), 2u);
  std::vector<int> back(8);
  arr.read_block(0, std::span<int>(back));
  EXPECT_EQ(back[0], 1);
  arr.read_block(1, std::span<int>(back));
  EXPECT_EQ(back[0], 2);
}

TEST(CacheFaultTest, ZeroRateFaultPolicyLeavesFlushChargesUnchanged) {
  // A fault policy with every rate zero takes the recovery write-back path
  // but injects nothing: the flush must charge exactly what the plain
  // machine's flush does and leave both pools clean.
  Machine plain(cached_cfg(1024, 16, 8, 8));
  Machine guarded(cached_cfg(1024, 16, 8, 8));
  guarded.install_faults(FaultConfig{});
  for (Machine* m : {&plain, &guarded}) {
    ExtArray<std::uint64_t> arr(*m, 320, "arr");
    std::vector<std::uint64_t> block(16, 7);
    for (std::uint64_t bi = 0; bi < 20; ++bi)
      arr.write_block(bi, std::span<const std::uint64_t>(block));
    m->flush_cache();
    EXPECT_EQ(m->cache()->resident_dirty(), 0u);
  }
  EXPECT_EQ(plain.stats(), guarded.stats());
  EXPECT_EQ(plain.cache()->stats().write_backs,
            guarded.cache()->stats().write_backs);
}

TEST(CacheFaultTest, TornWriteDuringFlushPinsExactCharges) {
  // Regression guard for the write-back/retry accounting audit: a torn
  // write injected during flush() must charge EXACTLY one extra write and
  // the two verify reads — nothing double-charged, nothing dropped, and the
  // block must come out clean and correct.
  //
  // Find a schedule whose first write draw tears and whose second is clean.
  // The probe replays the exact draw sequence of one flushed block
  // (read_fault_rate = 0, so verify reads draw nothing):
  //   attempt 1: draw_write_fault -> torn, draw_u64 (torn prefix length)
  //   attempt 2: draw_write_fault -> clean
  FaultConfig fc;
  fc.torn_write_rate = 0.5;
  bool found = false;
  for (std::uint64_t seed = 1; seed < 256 && !found; ++seed) {
    fc.seed = seed;
    FaultPolicy probe(fc);
    if (probe.draw_write_fault() == FaultKind::kTornWrite) {
      probe.draw_u64();
      found = probe.draw_write_fault() == FaultKind::kNone;
    }
  }
  ASSERT_TRUE(found) << "no seed < 256 gives torn-then-clean (rate 0.5?)";

  const std::uint64_t omega = 4;
  Machine mach(cached_cfg(64, 8, omega, /*capacity=*/8));
  mach.install_faults(fc);
  ExtArray<int> arr(mach, 64, "a");
  std::vector<int> buf(8);
  for (int i = 0; i < 8; ++i) buf[i] = 30 + i;

  // The write itself is absorbed by the pool: zero device I/O so far.
  arr.write_block(3, std::span<const int>(buf));
  ASSERT_EQ(mach.stats(), (IoStats{0, 0}));
  ASSERT_EQ(mach.cache()->resident_dirty(), 1u);

  EXPECT_EQ(mach.flush_cache(), 1u);

  // Exact charges: write attempt (torn) + verify read + rewrite + verify
  // read = 2 reads, 2 writes, Q = 2 + 2*omega.
  EXPECT_EQ(mach.stats(), (IoStats{2, 2}));
  EXPECT_EQ(mach.cost(), 2 + 2 * omega);
  const FaultStats& fs = mach.faults()->stats();
  EXPECT_EQ(fs.torn_write_faults, 1u);
  EXPECT_EQ(fs.verify_failures, 1u);
  EXPECT_EQ(fs.write_retries, 1u);
  EXPECT_EQ(fs.silent_write_faults, 0u);
  EXPECT_EQ(fs.read_faults, 0u);
  const CacheStats cs = mach.cache()->stats();
  EXPECT_EQ(cs.write_backs, 1u);
  EXPECT_EQ(cs.flushes, 1u);
  EXPECT_EQ(mach.cache()->resident_dirty(), 0u);

  // The block is clean: a second flush writes back nothing and charges
  // nothing (the retry did not leave a phantom dirty bit).
  EXPECT_EQ(mach.flush_cache(), 0u);
  EXPECT_EQ(mach.stats(), (IoStats{2, 2}));
  EXPECT_EQ(mach.cache()->stats().write_backs, 1u);

  // And the stored data survived the torn first attempt.
  std::vector<int> back(8);
  arr.read_block(3, std::span<int>(back));  // pool hit: free
  for (int i = 0; i < 8; ++i) EXPECT_EQ(back[i], 30 + i);
  EXPECT_EQ(mach.stats(), (IoStats{2, 2}));
}

// --- the cache changes Q, never results -----------------------------------

TEST(CacheInvarianceTest, SortAndScatterOutputsMatchUncachedRuns) {
  const std::size_t N = 2048, M = 256, B = 16;
  util::Rng rng(99);
  const std::vector<std::uint64_t> keys = util::random_keys(N, rng);
  const perm::Perm dest = perm::random(N, rng);

  auto run = [&](Config c, bool sort) {
    Machine mach(c);
    ExtArray<std::uint64_t> in(mach, N, "in");
    in.unsafe_host_fill(keys);
    ExtArray<std::uint64_t> out(mach, N, "out");
    mach.reset_stats();
    if (sort) {
      aem_merge_sort(in, out);
    } else {
      scatter_permute(in, std::span<const std::uint64_t>(dest), out);
    }
    mach.flush_cache();
    return std::pair(out.unsafe_host_view(), mach.cost());
  };

  for (bool sort : {true, false}) {
    const auto [expect, q_off] = run(cfg(M, B, 16), sort);
    for (CachePolicy p : {CachePolicy::kLru, CachePolicy::kClock,
                          CachePolicy::kCleanFirst}) {
      for (std::size_t cap : {4u, 32u, 256u}) {
        const auto [got, q] = run(cached_cfg(M, B, 16, cap, p), sort);
        EXPECT_EQ(got, expect)
            << (sort ? "sort" : "scatter") << " policy=" << to_string(p)
            << " cap=" << cap;
        // A flushed pool can only remove I/Os, never add them.
        EXPECT_LE(q, q_off) << (sort ? "sort" : "scatter")
                            << " policy=" << to_string(p) << " cap=" << cap;
      }
    }
  }
}

TEST(CacheInvarianceTest, CleanFirstAtOmegaOneIsExactlyLru) {
  const std::size_t N = 1024, M = 128, B = 8;
  util::Rng rng(5);
  const std::vector<std::uint64_t> keys = util::random_keys(N, rng);
  const perm::Perm dest = perm::random(N, rng);
  auto run = [&](CachePolicy p) {
    Machine mach(cached_cfg(M, B, 1, 16, p));
    ExtArray<std::uint64_t> in(mach, N, "in");
    in.unsafe_host_fill(keys);
    ExtArray<std::uint64_t> out(mach, N, "out");
    mach.reset_stats();
    scatter_permute(in, std::span<const std::uint64_t>(dest), out);
    mach.flush_cache();
    return std::tuple(mach.stats().reads, mach.stats().writes,
                      mach.cache()->stats());
  };
  // Identical counters bit for bit: at omega = 1 the derived window is 0.
  EXPECT_EQ(run(CachePolicy::kCleanFirst), run(CachePolicy::kLru));
}

// --- dangling-sink regression --------------------------------------------
// invalidate_array used to return early when the array had no RESIDENT
// blocks, leaving its Sink pointer registered — a pointer into the ExtArray
// being destroyed.  Any later dirty write-back touching that slot would
// call through freed memory.  The fix forgets the sink unconditionally, and
// evict_one()/flush() refuse (std::logic_error) to dereference a missing
// sink instead of crashing.

TEST(BlockCacheTest, DirtyEvictionWithoutSinkThrowsLogicError) {
  CacheConfig cc;
  cc.capacity_blocks = 1;
  BlockCache bc(cc, 1);
  bc.insert(0, 0, /*dirty=*/true, nullptr);
  // The pool is full, so this insert must evict the sink-less dirty block.
  EXPECT_THROW(bc.insert(0, 1, /*dirty=*/false, nullptr), std::logic_error);
}

TEST(BlockCacheTest, DirtyFlushWithoutSinkThrowsLogicError) {
  CacheConfig cc;
  cc.capacity_blocks = 2;
  BlockCache bc(cc, 1);
  bc.insert(0, 0, /*dirty=*/true, nullptr);
  EXPECT_THROW(bc.flush(), std::logic_error);
}

TEST(BlockCacheTest, InvalidateArrayForgetsSinkEvenWithNoResidentBlocks) {
  RecordingSink sink;
  CacheConfig cc;
  cc.capacity_blocks = 1;
  BlockCache bc(cc, 1);
  bc.insert(0, 0, /*dirty=*/false, &sink);
  EXPECT_TRUE(bc.has_sink(0));
  // Evict array 0's only (clean) block: registration must outlive residency
  // (that is what write-allocate of a later block relies on) ...
  bc.insert(1, 0, /*dirty=*/false, &sink);
  EXPECT_FALSE(bc.contains(0, 0));
  EXPECT_TRUE(bc.has_sink(0));
  // ... but invalidation must clear it even though no block is resident —
  // this is exactly the early-return path that used to leave it dangling.
  bc.invalidate_array(0);
  EXPECT_FALSE(bc.has_sink(0));
  bc.invalidate_array(1);  // resident-block path clears it too
  EXPECT_FALSE(bc.has_sink(1));
}

TEST(CachedMachineTest, DestroyingArrayWithResidentBlocksThenFlushingIsSafe) {
  Machine mach(cached_cfg(4096, 8, 4, 8));
  std::uint32_t dead_id = 0;
  {
    ExtArray<std::uint64_t> doomed(mach, 32, "doomed");
    std::vector<std::uint64_t> blk(8, 7);
    for (std::uint64_t bi = 0; bi < 4; ++bi)
      doomed.write_block(bi, std::span<const std::uint64_t>(blk));
    dead_id = doomed.id();
    EXPECT_EQ(mach.cache()->resident_dirty(), 4u);
    EXPECT_TRUE(mach.cache()->has_sink(dead_id));
  }
  // Destruction dropped the entries AND the sink registration.
  EXPECT_EQ(mach.cache()->resident_dirty(), 0u);
  EXPECT_FALSE(mach.cache()->has_sink(dead_id));
  EXPECT_EQ(mach.cache()->stats().invalidated_dirty, 4u);
  EXPECT_NO_THROW(mach.flush_cache());
  // The pool keeps serving fresh arrays normally afterwards.
  ExtArray<std::uint64_t> fresh(mach, 8, "fresh");
  std::vector<std::uint64_t> blk(8, 9);
  fresh.write_block(0, std::span<const std::uint64_t>(blk));
  EXPECT_EQ(mach.flush_cache(), 1u);
  std::vector<std::uint64_t> back(8, 0);
  fresh.read_block(0, std::span<std::uint64_t>(back));
  EXPECT_EQ(back, blk);
}

// --- clean-first victim: differential check against the window scan ------
// BlockCache finds the clean-first victim from a maintained cursor (the
// coldest clean frame plus the length of the dirty run colder than it).
// The reference below is the definition that cursor must reproduce: an
// explicit recency list and a linear scan of window() frames from the cold
// end.  Both are driven with the same randomized operations and compared
// after every one: residency, dirtiness, and the write-back sequence.

/// Write-back log shared by every array's sink (and by the reference);
/// `fail_in` >= 0 makes the write-back that many calls from now fail, once.
struct WriteBackLog {
  std::vector<std::pair<std::uint32_t, std::uint64_t>> written;
  long fail_in = -1;
  bool write(std::uint32_t array, std::uint64_t block) {
    if (fail_in == 0) {
      fail_in = -1;
      return false;
    }
    if (fail_in > 0) --fail_in;
    written.emplace_back(array, block);
    return true;
  }
};

struct LogSink : BlockCache::Sink {
  LogSink(WriteBackLog& log, std::uint32_t array) : log_(log), array_(array) {}
  void cache_write_back(std::uint64_t block) override {
    if (!log_.write(array_, block))
      throw std::runtime_error("write-back failed");
  }
  WriteBackLog& log_;
  std::uint32_t array_;
};

/// The clean-first policy by definition: front of `frames` is the MRU.
class CleanFirstReference {
 public:
  struct Frame {
    std::uint32_t array;
    std::uint64_t block;
    bool dirty;
  };

  CleanFirstReference(std::size_t capacity, std::size_t window)
      : capacity_(capacity), window_(window) {}

  const std::vector<Frame>& frames() const { return frames_; }

  bool find(std::uint32_t array, std::uint64_t block, bool write) {
    const auto it = locate(array, block);
    if (it == frames_.end()) return false;
    Frame f = *it;
    f.dirty = f.dirty || write;
    frames_.erase(it);
    frames_.insert(frames_.begin(), f);
    return true;
  }

  void insert(std::uint32_t array, std::uint64_t block, bool dirty,
              WriteBackLog& log) {
    if (frames_.size() == capacity_) {
      const auto v = victim();
      if (v->dirty && !log.write(v->array, v->block))
        throw std::runtime_error("write-back failed");
      frames_.erase(v);
    }
    frames_.insert(frames_.begin(), Frame{array, block, dirty});
  }

  void flush(WriteBackLog& log) {
    std::vector<std::pair<std::uint32_t, std::uint64_t>> dirty;
    for (const Frame& f : frames_)
      if (f.dirty) dirty.emplace_back(f.array, f.block);
    std::sort(dirty.begin(), dirty.end());
    for (const auto& [array, block] : dirty) {
      if (!log.write(array, block))
        throw std::runtime_error("write-back failed");
      locate(array, block)->dirty = false;
    }
  }

  void invalidate_array(std::uint32_t array) {
    std::erase_if(frames_, [&](const Frame& f) { return f.array == array; });
  }

  std::size_t resident_dirty() const {
    return static_cast<std::size_t>(
        std::count_if(frames_.begin(), frames_.end(),
                      [](const Frame& f) { return f.dirty; }));
  }

 private:
  std::vector<Frame>::iterator locate(std::uint32_t array,
                                      std::uint64_t block) {
    return std::find_if(frames_.begin(), frames_.end(), [&](const Frame& f) {
      return f.array == array && f.block == block;
    });
  }

  // The linear window scan: the first clean frame among the window()
  // coldest, else the LRU frame.
  std::vector<Frame>::iterator victim() {
    for (std::size_t scanned = 0;
         scanned < window_ && scanned < frames_.size(); ++scanned) {
      const auto it = frames_.end() - 1 - static_cast<std::ptrdiff_t>(scanned);
      if (!it->dirty) return it;
    }
    return frames_.end() - 1;
  }

  std::size_t capacity_;
  std::size_t window_;
  std::vector<Frame> frames_;
};

/// Drives a kCleanFirst BlockCache and the reference with `ops` random
/// operations and returns a description of the first divergence ("" if
/// none).  Write probability drifts between phases, so pools run all
/// clean, mixed, and all dirty.
std::string diverges_from_window_scan(std::size_t capacity,
                                      std::uint64_t omega,
                                      std::size_t expected_window,
                                      std::uint64_t seed, std::size_t ops) {
  constexpr std::uint32_t kArrays = 3;
  CacheConfig c;
  c.capacity_blocks = capacity;
  c.policy = CachePolicy::kCleanFirst;
  BlockCache bc(c, omega);
  if (bc.window() != expected_window)
    return "window " + std::to_string(bc.window()) + " != " +
           std::to_string(expected_window);
  CleanFirstReference ref(capacity, expected_window);
  WriteBackLog real_log, ref_log;
  std::vector<LogSink> sinks;
  for (std::uint32_t a = 0; a < kArrays; ++a) sinks.emplace_back(real_log, a);
  util::Rng rng(seed);
  const std::uint64_t blocks_per_array = capacity / 2 + 2;
  const double phases[] = {0.0, 0.3, 0.9, 1.0};
  double write_p = 0.5;

  // One cached access, the way ExtArray issues it: hit, or miss + insert.
  auto access = [&](std::uint32_t a, std::uint64_t b, bool write) {
    bool real_threw = false, ref_threw = false;
    const bool hit = write ? bc.find_write(a, b) : bc.find_read(a, b);
    if (!hit) {
      try {
        bc.insert(a, b, write, &sinks[a]);
      } catch (const std::runtime_error&) {
        real_threw = true;
      }
    }
    if (!ref.find(a, b, write)) {
      try {
        ref.insert(a, b, write, ref_log);
      } catch (const std::runtime_error&) {
        ref_threw = true;
      }
    }
    return real_threw == ref_threw;
  };

  for (std::size_t op = 0; op < ops; ++op) {
    if (op % 64 == 0) write_p = phases[rng.below(4)];
    const std::uint64_t kind = rng.below(100);
    std::string what;
    bool same_throw = true;
    if (kind < 45) {  // random block: misses, evictions, some hits
      const auto a = static_cast<std::uint32_t>(rng.below(kArrays));
      const std::uint64_t b = rng.below(blocks_per_array);
      what = "access";
      same_throw = access(a, b, rng.uniform01() < write_p);
    } else if (kind < 75 && !ref.frames().empty()) {  // resident: a hit
      const auto& f = ref.frames()[rng.below(ref.frames().size())];
      what = "hit";
      same_throw = access(f.array, f.block, rng.uniform01() < write_p);
    } else if (kind < 83) {  // the coldest clean frame, read or written
      const auto& fr = ref.frames();
      auto it = std::find_if(fr.rbegin(), fr.rend(),
                             [](const auto& f) { return !f.dirty; });
      if (it == fr.rend()) continue;
      what = "coldest-clean";
      same_throw = access(it->array, it->block, rng.below(2) == 0);
    } else if (kind < 88) {  // fresh clean block at the MRU head, then write
      const auto a = static_cast<std::uint32_t>(rng.below(kArrays));
      const std::uint64_t b = blocks_per_array + rng.below(4);
      what = "clean-head-then-write";
      same_throw = access(a, b, false) && access(a, b, true);
    } else if (kind < 93) {  // eviction whose write-back fails
      real_log.fail_in = ref_log.fail_in = 0;
      const auto a = static_cast<std::uint32_t>(rng.below(kArrays));
      what = "failing-eviction";
      same_throw = access(a, rng.below(blocks_per_array), true);
      real_log.fail_in = ref_log.fail_in = -1;
    } else if (kind < 97) {  // flush, sometimes failing mid-run
      const std::size_t dirty = ref.resident_dirty();
      const long fail =
          dirty > 0 && rng.below(2) == 0 ? static_cast<long>(rng.below(dirty))
                                         : -1;
      real_log.fail_in = ref_log.fail_in = fail;
      bool real_threw = false, ref_threw = false;
      try {
        bc.flush();
      } catch (const std::runtime_error&) {
        real_threw = true;
      }
      try {
        ref.flush(ref_log);
      } catch (const std::runtime_error&) {
        ref_threw = true;
      }
      real_log.fail_in = ref_log.fail_in = -1;
      what = "flush";
      same_throw = real_threw == ref_threw;
    } else {
      const auto a = static_cast<std::uint32_t>(rng.below(kArrays));
      bc.invalidate_array(a);
      ref.invalidate_array(a);
      what = "invalidate_array";
    }
    const std::string at = " after op " + std::to_string(op) + " (" + what +
                           ", capacity " + std::to_string(capacity) +
                           ", window " + std::to_string(expected_window) + ")";
    if (!same_throw) return "write-back failure mismatch" + at;
    if (real_log.written != ref_log.written) return "write-backs differ" + at;
    if (bc.resident() != ref.frames().size()) return "resident differs" + at;
    if (bc.resident_dirty() != ref.resident_dirty())
      return "resident_dirty differs" + at;
    for (const auto& f : ref.frames()) {
      if (!bc.contains(f.array, f.block))
        return "block " + std::to_string(f.block) + " of array " +
               std::to_string(f.array) + " missing" + at;
      if (bc.dirty(f.array, f.block) != f.dirty)
        return "dirtiness differs" + at;
    }
  }
  return "";
}

TEST(CleanFirstDifferentialTest, OmegaDerivedWindowsMatchTheWindowScan) {
  // Every window the derivation can produce: omega = 1 (window 0, exact
  // LRU) and each distinct cap - max(1, cap/omega) for omega in [2, cap].
  for (std::size_t cap = 1; cap <= 64; ++cap) {
    std::size_t last = cap + 1;
    for (std::uint64_t omega = 1; omega <= std::max<std::size_t>(cap, 2);
         ++omega) {
      const std::size_t w =
          omega == 1 ? 0
                     : cap - std::max<std::size_t>(
                                 1, cap / std::min<std::size_t>(omega, cap));
      if (w == last) continue;
      last = w;
      EXPECT_EQ(diverges_from_window_scan(cap, omega, w, 7 * cap + omega,
                                          1500),
                "");
    }
  }
}

// --- dense frame table: differential check against a std::map -----------
// BlockCache finds a block's frame through a per-array table indexed by the
// block number.  The reference below keeps residency and dirtiness in a
// std::map and models every counter.  Victim choice is the policies' part
// (pinned above), so the reference learns each victim as the one block the
// cache stopped holding, and checks it was written back exactly when dirty
// (through the array's current sink).  Block ids are sparse and reach
// 2^20, arrays are invalidated and then filled again, sinks are moved, and
// evictions and flushes fail now and then.

std::string dense_index_diverges(CachePolicy policy, std::size_t capacity,
                                 std::uint64_t seed, std::size_t ops) {
  using Key = std::pair<std::uint32_t, std::uint64_t>;
  constexpr std::uint32_t kArrays = 3;
  CacheConfig c;
  c.capacity_blocks = capacity;
  c.policy = policy;
  BlockCache bc(c, 4);
  // Two sinks per array, tagged 2 * array + which; move_sink flips them.
  WriteBackLog log;
  std::vector<LogSink> sinks;
  for (std::uint32_t t = 0; t < 2 * kArrays; ++t) sinks.emplace_back(log, t);
  std::vector<std::uint32_t> which(kArrays, 0);
  auto sink_of = [&](std::uint32_t a) { return &sinks[2 * a + which[a]]; };
  auto tag_of = [&](std::uint32_t a) { return 2 * a + which[a]; };

  util::Rng rng(seed);
  std::vector<std::vector<std::uint64_t>> ids(kArrays);
  for (std::uint32_t a = 0; a < kArrays; ++a) {
    for (std::uint64_t b = 0; b < 6; ++b) ids[a].push_back(b);
    for (int i = 0; i < 12; ++i) ids[a].push_back(rng.below(1u << 16));
  }
  // Block 2^20 + a grows its array's table to 4 MiB; drawn rarely, so the
  // test is not dominated by re-growing it after each invalidation.
  auto draw = [&](std::uint32_t a) {
    return rng.below(64) == 0 ? (std::uint64_t{1} << 20) + a
                              : ids[a][rng.below(ids[a].size())];
  };

  std::map<Key, bool> ref;  // resident block -> dirty
  std::set<Key> seen;       // every block ever inserted
  CacheStats want;
  std::vector<Key> want_log;

  for (std::size_t op = 0; op < ops; ++op) {
    const auto a = static_cast<std::uint32_t>(rng.below(kArrays));
    const std::uint64_t kind = rng.below(100);
    std::string what;
    if (kind < 80) {  // an access the way ExtArray issues it
      const std::uint64_t b = draw(a);
      const bool write = rng.below(3) == 0;
      const auto it = ref.find({a, b});
      const bool hit = write ? bc.find_write(a, b) : bc.find_read(a, b);
      what = write ? "find_write" : "find_read";
      if (hit != (it != ref.end()))
        return what + " hit mismatch at op " + std::to_string(op);
      if (hit) {
        ++(write ? want.write_hits : want.read_hits);
        it->second = it->second || write;
      } else {
        ++(write ? want.write_misses : want.read_misses);
        const bool full = ref.size() == capacity;
        const bool fail = full && rng.below(8) == 0;
        if (fail) log.fail_in = 0;
        bool threw = false;
        try {
          bc.insert(a, b, write, sink_of(a));
        } catch (const std::runtime_error&) {
          threw = true;
        }
        log.fail_in = -1;
        what = "insert";
        if (!threw && full) {  // exactly one other block left the pool
          std::vector<Key> gone;
          for (const auto& [k, d] : ref)
            if (!bc.contains(k.first, k.second)) gone.push_back(k);
          if (gone.size() != 1)
            return std::to_string(gone.size()) + " blocks evicted by insert";
          if (ref[gone[0]]) {
            want_log.emplace_back(tag_of(gone[0].first), gone[0].second);
            ++want.evictions_dirty;
            ++want.write_backs;
          } else {
            ++want.evictions_clean;
          }
          ref.erase(gone[0]);
        }
        if (!threw) ref[{a, b}] = write;
        seen.insert({a, b});
      }
    } else if (kind < 87) {  // flush, sometimes failing partway
      std::size_t dirty = 0;
      for (const auto& [k, d] : ref) dirty += d;
      const long fail = dirty > 0 && rng.below(3) == 0
                            ? static_cast<long>(rng.below(dirty))
                            : -1;
      log.fail_in = fail;
      try {
        bc.flush();
      } catch (const std::runtime_error&) {
      }
      log.fail_in = -1;
      what = "flush";
      ++want.flushes;
      long left = fail < 0 ? static_cast<long>(dirty) : fail;
      for (auto& [k, d] : ref) {  // ascending (array, block)
        if (!d || left == 0) continue;
        want_log.emplace_back(tag_of(k.first), k.second);
        ++want.write_backs;
        d = false;
        --left;
      }
    } else if (kind < 92) {
      bc.invalidate_array(a);
      what = "invalidate_array";
      std::erase_if(ref, [&](const auto& e) {
        if (e.first.first != a) return false;
        want.invalidated_dirty += e.second;
        return true;
      });
      if (bc.has_sink(a)) return "sink kept by invalidate_array";
    } else {
      which[a] ^= 1;
      bc.move_sink(a, sink_of(a));
      what = "move_sink";
    }

    const std::string at = " after op " + std::to_string(op) + " (" + what +
                           ", " + to_string(policy) + ", capacity " +
                           std::to_string(capacity) + ")";
    if (log.written != want_log) return "write-backs differ" + at;
    log.written.clear();
    want_log.clear();
    if (!(bc.stats() == want)) return "stats differ" + at;
    if (bc.resident() != ref.size()) return "resident differs" + at;
    std::size_t dirty = 0;
    for (const auto& [k, d] : ref) {
      dirty += d;
      if (!bc.contains(k.first, k.second) || bc.dirty(k.first, k.second) != d)
        return "block " + std::to_string(k.second) + " of array " +
               std::to_string(k.first) + " wrong" + at;
    }
    if (bc.resident_dirty() != dirty) return "resident_dirty differs" + at;
    for (const Key& k : seen)
      if (!ref.contains(k) && (bc.contains(k.first, k.second) ||
                               bc.dirty(k.first, k.second)))
        return "block " + std::to_string(k.second) + " of array " +
               std::to_string(k.first) + " still resident" + at;
    if (bc.contains(a, std::uint64_t{1} << 40) || bc.contains(kArrays, 0))
      return "unknown block resident" + at;
  }
  return "";
}

TEST(BlockCacheTest, DenseIndexMatchesAReferenceModel) {
  for (const CachePolicy p :
       {CachePolicy::kLru, CachePolicy::kClock, CachePolicy::kCleanFirst})
    for (const std::size_t cap : {1u, 4u, 16u})
      for (std::uint64_t seed = 1; seed <= 3; ++seed)
        EXPECT_EQ(dense_index_diverges(p, cap, 100 * cap + seed, 2000), "");
}

}  // namespace
