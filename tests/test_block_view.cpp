// ExtArray::view_block: charge identity with read_block on every machine
// flavour, views that alias the stored block under faults and remaps, the
// reader range checks a view makes load-bearing, and — in builds with
// asserts live — the stale-view checks of MODEL.md §2.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/ext_array.hpp"
#include "core/machine.hpp"
#include "core/sharding.hpp"
#include "io/cursor.hpp"
#include "io/scanner.hpp"
#include "sort/em_mergesort.hpp"
#include "sort/merge.hpp"
#include "util/rng.hpp"
#include "trace_fnv.hpp"

namespace {

using namespace aem;

Config base_cfg() {
  Config c;
  c.memory_elems = 256;
  c.block_elems = 8;
  c.write_cost = 4;
  return c;
}

Config cached(CachePolicy p) {
  Config c = base_cfg();
  c.cache.capacity_blocks = 6;
  c.cache.policy = p;
  return c;
}

FaultConfig read_faults() {
  FaultConfig fc;
  fc.seed = 23;
  fc.read_fault_rate = 0.1;
  fc.max_retries = 50;
  return fc;
}

/// Blocks die after `endurance` lifetime writes and move to spares.
FaultConfig wear(std::uint64_t endurance) {
  FaultConfig fc;
  fc.endurance = endurance;
  fc.spare_blocks = 64;
  return fc;
}

/// A machine flavour the identity test runs on.
struct Flavour {
  std::string name;
  std::function<std::unique_ptr<Machine>()> make;
  bool remaps = false;  // drive() must see at least one remapped block
};

std::vector<Flavour> flavours() {
  auto plain = [](Config c, std::optional<FaultConfig> fc = std::nullopt,
                  bool trace = false) {
    return [=]() {
      auto m = std::make_unique<Machine>(c);
      if (fc) m->install_faults(*fc);
      if (trace) m->enable_trace();
      return m;
    };
  };
  return {
      {"plain", plain(base_cfg())},
      {"lru", plain(cached(CachePolicy::kLru))},
      {"clean_first", plain(cached(CachePolicy::kCleanFirst))},
      {"faults", plain(base_cfg(), read_faults())},
      {"lru_faults", plain(cached(CachePolicy::kLru), read_faults())},
      {"clean_first_faults",
       plain(cached(CachePolicy::kCleanFirst), read_faults())},
      {"remapped", plain(base_cfg(), wear(3)), true},
      {"lru_remapped", plain(cached(CachePolicy::kLru), wear(3)), true},
      {"sharded_d4",
       [] {
         ShardConfig sc;
         sc.frontend = base_cfg();
         sc.devices.assign(4, base_cfg());
         return std::make_unique<ShardedMachine>(sc);
       }},
      {"traced", plain(base_cfg(), std::nullopt, /*trace=*/true)},
      {"traced_lru_faults",
       plain(cached(CachePolicy::kLru), read_faults(), /*trace=*/true)},
  };
}

/// What one drive observed.
struct Observed {
  IoStats io;
  std::uint64_t cost = 0;
  std::uint64_t trace = 0;
  CacheStats cache;
  FaultStats faults;
  std::vector<std::uint64_t> delivered;
  std::vector<std::uint64_t> stored;
  std::size_t remapped = 0;
};

/// A seeded mix of block reads (through view_block or read_block) and
/// whole-block writes over one array; every delivered element is logged.
Observed drive(Machine& mach, bool views) {
  ExtArray<std::uint64_t> arr(mach, 37 * mach.B() + 3, "a");  // partial tail
  std::vector<std::uint64_t> init(arr.size());
  for (std::size_t i = 0; i < init.size(); ++i) init[i] = i * 2654435761u;
  arr.unsafe_host_fill(init);
  arr.set_atom_extractor([](std::uint64_t v) { return v; });
  Observed o;
  util::Rng rng(41);
  std::vector<std::uint64_t> buf(mach.B());
  for (int op = 0; op < 600; ++op) {
    const std::uint64_t bi = rng.next() % arr.blocks();
    if (rng.next() % 4 == 0) {
      for (std::size_t i = 0; i < arr.block_elems(bi); ++i)
        buf[i] = rng.next();
      arr.write_block(bi, std::span<const std::uint64_t>(
                              buf.data(), arr.block_elems(bi)));
    } else if (views) {
      const BlockView<std::uint64_t> v = arr.view_block(bi);
      o.delivered.insert(o.delivered.end(), v.span().begin(), v.span().end());
    } else {
      const BlockIo io = arr.read_block(bi, std::span<std::uint64_t>(buf));
      o.delivered.insert(o.delivered.end(), buf.begin(),
                         buf.begin() + static_cast<std::ptrdiff_t>(io.count));
    }
  }
  mach.flush_cache();
  o.io = mach.stats();
  o.cost = mach.cost();
  if (mach.trace() != nullptr) o.trace = test::trace_hash(*mach.trace());
  if (mach.cache() != nullptr) o.cache = mach.cache()->stats();
  if (mach.faults() != nullptr) o.faults = mach.faults()->stats();
  o.stored = arr.unsafe_host_view();
  o.remapped = arr.remapped_blocks();
  return o;
}

TEST(BlockViewTest, ChargesAndDeliversExactlyWhatReadBlockDoes) {
  for (const Flavour& f : flavours()) {
    SCOPED_TRACE(f.name);
    auto by_copy = f.make();
    auto by_view = f.make();
    const Observed want = drive(*by_copy, /*views=*/false);
    const Observed got = drive(*by_view, /*views=*/true);
    EXPECT_EQ(got.io, want.io);
    EXPECT_EQ(got.cost, want.cost);
    EXPECT_EQ(got.trace, want.trace);
    EXPECT_EQ(got.cache, want.cache);
    EXPECT_EQ(got.faults, want.faults);
    EXPECT_EQ(got.delivered, want.delivered);
    EXPECT_EQ(got.stored, want.stored);
    EXPECT_EQ(got.remapped, want.remapped);
    EXPECT_GT(want.io.reads, 0u);
    if (f.remaps) {
      EXPECT_GT(want.remapped, 0u);
    } else if (by_copy->faults() != nullptr) {
      EXPECT_GT(want.faults.read_faults, 0u);
    }
  }
}

TEST(BlockViewTest, ViewAliasesStoredBlockUnderInjectedFaults) {
  // With no block remapped every view is of the native region: fault-free,
  // under read faults (a faulted attempt is retried, never delivered), and
  // through the pool on a miss and on a hit.
  for (const bool with_cache : {false, true})
    for (const bool with_faults : {false, true}) {
      SCOPED_TRACE(testing::Message() << "cache " << with_cache << " faults "
                                      << with_faults);
      Machine mach(with_cache ? cached(CachePolicy::kLru) : base_cfg());
      if (with_faults) mach.install_faults(read_faults());
      ExtArray<std::uint64_t> a(mach, 64, "a");  // 8 blocks, 6 frames
      for (std::uint64_t pass = 0; pass < 40; ++pass) {
        const std::uint64_t bi = pass / 2 % a.blocks();  // a miss, then a hit
        EXPECT_EQ(a.view_block(bi).span().data(),
                  a.unsafe_host_view().data() + bi * mach.B());
      }
      if (with_faults) {
        EXPECT_GT(mach.faults()->stats().read_retries, 0u);
      }
    }
}

TEST(BlockViewTest, ViewOfASpareBlockOutlivesOtherRemaps) {
  // Block 0 lives in a spare slot; remapping every other block adds spare
  // slots one by one, and none may move the one block 0's view points at.
  Machine mach(base_cfg());
  mach.install_faults(wear(1));
  const std::size_t B = mach.B();
  ExtArray<std::uint64_t> arr(mach, 16 * B, "a");
  std::vector<std::uint64_t> buf(B);
  auto write = [&](std::uint64_t bi, std::uint64_t fill) {
    std::fill(buf.begin(), buf.end(), fill);
    arr.write_block(bi, buf);
  };
  write(0, 1);
  write(0, 2);  // block 0 retires and moves to a spare
  ASSERT_EQ(arr.remapped_blocks(), 1u);
  const BlockView<std::uint64_t> v = arr.view_block(0);
  EXPECT_NE(v.span().data(), arr.unsafe_host_view().data());
  for (std::uint64_t bi = 1; bi < arr.blocks(); ++bi) {
    write(bi, 10 + bi);
    write(bi, 20 + bi);
  }
  ASSERT_EQ(arr.remapped_blocks(), arr.blocks());
  for (std::size_t i = 0; i < B; ++i) EXPECT_EQ(v[i], 2u);
}

// --- range checks a view makes load-bearing -----------------------------

TEST(BlockViewTest, ScannerRejectsARangeOutsideTheArray) {
  Machine mach(base_cfg());
  ExtArray<int> arr(mach, 20, "a");
  EXPECT_THROW(Scanner<int>(arr, 0, 21), std::out_of_range);
  EXPECT_THROW(Scanner<int>(arr, 12, 11), std::out_of_range);
  EXPECT_EQ(mach.ledger().used(), 0u);  // the reservation was released
  EXPECT_NO_THROW(Scanner<int>(arr, 20, 20));
}

TEST(BlockCursorTest, AtRejectsAnElementPastTheArrayEnd) {
  Machine mach(base_cfg());  // B = 8
  ExtArray<int> arr(mach, 20, "a");  // the last block holds 4 elements
  BlockCursor<int> cur(arr);
  EXPECT_NO_THROW(cur.at(19));
  EXPECT_THROW(cur.at(20), std::out_of_range);  // inside block 2's frame
  EXPECT_THROW(cur.at(24), std::out_of_range);  // past the last block
  EXPECT_EQ(mach.stats().reads, 1u);  // the resident block was not re-read
}

// --- several live views under uncached read faults ----------------------

TEST(BlockViewTest, ViewsOfSeveralRunsHeldAtOnceUnderUncachedReadFaults) {
  Machine mach(base_cfg());  // no cache: every view is of the device block
  mach.install_faults(read_faults());
  const std::size_t B = mach.B(), runs = 5, run_len = 3 * B;
  std::vector<std::uint64_t> keys(runs * run_len);
  util::Rng rng(7);
  for (auto& k : keys) k = rng.next() % 1000;
  for (std::size_t r = 0; r < runs; ++r)
    std::sort(keys.begin() + static_cast<std::ptrdiff_t>(r * run_len),
              keys.begin() + static_cast<std::ptrdiff_t>((r + 1) * run_len));
  ExtArray<std::uint64_t> src(mach, keys.size(), "runs");
  src.unsafe_host_fill(keys);

  // One live view per run: every view must still show its own block after
  // the later reads and their faulted attempts.
  std::vector<BlockView<std::uint64_t>> heads;
  for (std::size_t r = 0; r < runs; ++r)
    heads.push_back(src.view_block(r * run_len / B + 1));
  for (std::size_t r = 0; r < runs; ++r)
    for (std::size_t i = 0; i < B; ++i)
      ASSERT_EQ(heads[r][i], keys[r * run_len + B + i]) << "run " << r;

  std::vector<RunBounds> bounds;
  for (std::size_t r = 0; r < runs; ++r)
    bounds.push_back(RunBounds{r * run_len, (r + 1) * run_len});
  ExtArray<std::uint64_t> merged(mach, keys.size(), "merged");
  merge_runs(src, std::span<const RunBounds>(bounds), merged, 0,
             std::less<std::uint64_t>{});
  ExtArray<std::uint64_t> sorted(mach, keys.size(), "sorted");
  em_merge_sort(src, sorted);  // one Scanner per run, all on `src`
  std::vector<std::uint64_t> want = keys;
  std::stable_sort(want.begin(), want.end());
  EXPECT_GT(mach.faults()->stats().read_faults, 0u);  // faults really fired
  EXPECT_EQ(merged.unsafe_host_view(), want);
  EXPECT_EQ(sorted.unsafe_host_view(), want);
}

// --- view lifetime (MODEL.md §2) ----------------------------------------

TEST(BlockViewTest, EvictionAndOtherWritesLeaveAViewFresh) {
  Machine mach(cached(CachePolicy::kLru));  // 6 frames
  ExtArray<std::uint64_t> arr(mach, 32 * mach.B(), "a");
  std::vector<std::uint64_t> buf(mach.B(), 5);
  const BlockView<std::uint64_t> v = arr.view_block(0);
  for (std::uint64_t bi = 1; bi < 20; ++bi) {  // evicts block 0, dirty ones
    arr.write_block(bi, buf);
    (void)arr.view_block(bi);
  }
  mach.flush_cache();
  EXPECT_EQ(v[0], 0u);  // with asserts live, also checks freshness
}

#ifndef NDEBUG
TEST(BlockViewDeathTest, WriteToAViewedBlockMakesTheViewStale) {
  Machine mach(base_cfg());
  ExtArray<std::uint64_t> log(mach, 32, "log");
  const BlockView<std::uint64_t> page = log.view_block(1);
  // A put_inline-style read-modify-write of the page being viewed.
  std::vector<std::uint64_t> rmw(page.span().begin(), page.span().end());
  rmw[3] = 99;
  log.write_block(1, rmw);
  EXPECT_DEATH((void)page[3], "fresh");
}

TEST(BlockViewDeathTest, GrowthAndMoveMakeViewsStale) {
  Machine mach(base_cfg());
  ExtArray<std::uint64_t> arr(mach, 32, "a");
  const BlockView<std::uint64_t> first = arr.view_block(0);
  const BlockView<std::uint64_t> other = arr.view_block(1);
  (void)arr.view_block(0);  // reads never stale a view
  EXPECT_EQ(first[0], 0u);

  arr.grow_to(64);
  EXPECT_DEATH((void)other.span(), "fresh");

  const BlockView<std::uint64_t> before = arr.view_block(0);
  ExtArray<std::uint64_t> moved(std::move(arr));
  EXPECT_DEATH((void)before[0], "fresh");
}

#endif

}  // namespace
