// Unit tests for core/: config validation, ledger capacity enforcement,
// machine cost accounting, phase attribution, trace recording, ExtArray I/O.
#include <gtest/gtest.h>

#include <limits>
#include <numeric>

#include "core/config.hpp"
#include "core/ext_array.hpp"
#include "core/ledger.hpp"
#include "core/machine.hpp"
#include "core/stats.hpp"
#include "core/trace.hpp"

namespace {

using namespace aem;

Config small_config() {
  Config cfg;
  cfg.memory_elems = 64;
  cfg.block_elems = 8;
  cfg.write_cost = 4;
  return cfg;
}

TEST(ConfigTest, DerivedQuantities) {
  Config cfg = small_config();
  EXPECT_EQ(cfg.m(), 8u);
  EXPECT_EQ(cfg.blocks_for(0), 0u);
  EXPECT_EQ(cfg.blocks_for(1), 1u);
  EXPECT_EQ(cfg.blocks_for(8), 1u);
  EXPECT_EQ(cfg.blocks_for(9), 2u);
}

TEST(ConfigTest, ValidationRejectsBadParameters) {
  Config cfg = small_config();
  cfg.block_elems = 0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = small_config();
  cfg.memory_elems = 4;  // < B
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = small_config();
  cfg.write_cost = 0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  EXPECT_NO_THROW(small_config().validate());
}

TEST(IoStatsTest, CostSaturatesInsteadOfWrapping) {
  const std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  // Multiplication boundary: writes * omega at the edge of 64 bits.
  IoStats two_writes{0, 2};
  EXPECT_EQ(two_writes.cost(kMax / 2), kMax - 1);  // exactly representable
  EXPECT_EQ(two_writes.cost(kMax / 2 + 1), kMax);  // would wrap: saturates
  // Addition boundary: reads + omega*writes crossing the edge.
  IoStats near{kMax - 10, 1};
  EXPECT_EQ(near.cost(10), kMax);        // reads + 10 == kMax exactly
  EXPECT_EQ(near.cost(11), kMax);        // would wrap: saturates
  IoStats wrap{1, kMax};
  EXPECT_EQ(wrap.cost(2), kMax);         // product alone overflows
  // total_ios saturates the same way.
  IoStats both{kMax, kMax};
  EXPECT_EQ(both.total_ios(), kMax);
}

TEST(IoStatsTest, CostFormula) {
  IoStats s{10, 3};
  EXPECT_EQ(s.cost(1), 13u);
  EXPECT_EQ(s.cost(4), 22u);
  EXPECT_EQ(s.total_ios(), 13u);
  IoStats t{1, 1};
  IoStats sum = s + t;
  EXPECT_EQ(sum.reads, 11u);
  EXPECT_EQ(sum.writes, 4u);
  IoStats diff = sum - t;
  EXPECT_EQ(diff, s);
  EXPECT_NE(to_string(s).find("reads=10"), std::string::npos);
}

TEST(LedgerTest, TracksUsageAndHighWater) {
  MemoryLedger ledger(100);
  ledger.acquire(40);
  EXPECT_EQ(ledger.used(), 40u);
  ledger.acquire(30);
  EXPECT_EQ(ledger.used(), 70u);
  EXPECT_EQ(ledger.high_water(), 70u);
  ledger.release(50);
  EXPECT_EQ(ledger.used(), 20u);
  EXPECT_EQ(ledger.high_water(), 70u);
  ledger.reset_high_water();
  EXPECT_EQ(ledger.high_water(), 20u);
}

TEST(LedgerTest, StrictModeThrowsOnOverflow) {
  MemoryLedger ledger(100);
  ledger.acquire(90);
  EXPECT_THROW(ledger.acquire(11), CapacityError);
  // The failed acquire must not corrupt the count.
  EXPECT_EQ(ledger.used(), 90u);
  EXPECT_NO_THROW(ledger.acquire(10));
}

TEST(LedgerTest, CapacityErrorCarriesContext) {
  MemoryLedger ledger(10);
  ledger.acquire(8);
  try {
    ledger.acquire(5);
    FAIL() << "expected CapacityError";
  } catch (const CapacityError& e) {
    EXPECT_EQ(e.requested(), 5u);
    EXPECT_EQ(e.used(), 8u);
    EXPECT_EQ(e.capacity(), 10u);
  }
}

TEST(LedgerTest, OverReleasePoisonsInsteadOfMasking) {
  MemoryLedger ledger(100);
  ledger.acquire(30);
  EXPECT_FALSE(ledger.poisoned());
  ledger.release(50);  // double-release bug: 20 elements never acquired
  EXPECT_TRUE(ledger.poisoned());
  EXPECT_EQ(ledger.over_released(), 20u);
  EXPECT_EQ(ledger.used(), 0u);  // still clamped so accounting continues
  // Poison is sticky across further correct usage...
  ledger.acquire(10);
  ledger.release(10);
  EXPECT_TRUE(ledger.poisoned());
  // ...until explicitly cleared.
  ledger.clear_poison();
  EXPECT_FALSE(ledger.poisoned());
  EXPECT_EQ(ledger.over_released(), 0u);
}

TEST(LedgerTest, MachineSurfacesPoisonedLedger) {
  Machine mach(small_config());
  EXPECT_FALSE(mach.ledger_poisoned());
  mach.ledger().release(1);  // nothing acquired
  EXPECT_TRUE(mach.ledger_poisoned());
}

TEST(LedgerTest, ReservationResizeIsStronglyExceptionSafe) {
  MemoryLedger ledger(100);
  MemoryReservation r(ledger, 60);
  EXPECT_THROW(r.resize(120), CapacityError);  // grow past capacity
  // Strong guarantee: both the reservation and the ledger are unchanged.
  EXPECT_EQ(r.elems(), 60u);
  EXPECT_EQ(ledger.used(), 60u);
  EXPECT_FALSE(ledger.poisoned());
  // The reservation is still fully usable after the failed grow...
  r.resize(80);
  EXPECT_EQ(ledger.used(), 80u);
  // ...and its destructor releases exactly the tracked amount.
  r.reset();
  EXPECT_EQ(ledger.used(), 0u);
  EXPECT_FALSE(ledger.poisoned());
}

TEST(LedgerTest, ReservationRaii) {
  MemoryLedger ledger(100);
  {
    MemoryReservation r(ledger, 60);
    EXPECT_EQ(ledger.used(), 60u);
    r.resize(20);
    EXPECT_EQ(ledger.used(), 20u);
    r.resize(80);
    EXPECT_EQ(ledger.used(), 80u);
  }
  EXPECT_EQ(ledger.used(), 0u);
}

TEST(LedgerTest, ReservationMoveTransfersOwnership) {
  MemoryLedger ledger(100);
  MemoryReservation a(ledger, 30);
  MemoryReservation b = std::move(a);
  EXPECT_EQ(ledger.used(), 30u);
  MemoryReservation c(ledger, 10);
  c = std::move(b);
  EXPECT_EQ(ledger.used(), 30u);  // the 10 was released on assignment
}

TEST(MachineTest, CountsReadsAndWrites) {
  Machine mach(small_config());
  std::uint32_t id = mach.register_array("test");
  mach.on_read(id, 0);
  mach.on_read(id, 1);
  mach.on_write(id, 0);
  EXPECT_EQ(mach.stats().reads, 2u);
  EXPECT_EQ(mach.stats().writes, 1u);
  EXPECT_EQ(mach.cost(), 2u + 4u * 1u);
  mach.reset_stats();
  EXPECT_EQ(mach.cost(), 0u);
}

TEST(MachineTest, ArrayRegistry) {
  Machine mach(small_config());
  std::uint32_t a = mach.register_array("alpha");
  std::uint32_t b = mach.register_array("beta");
  EXPECT_NE(a, b);
  EXPECT_EQ(mach.array_name(a), "alpha");
  EXPECT_EQ(mach.array_name(b), "beta");
  EXPECT_THROW(mach.array_name(99), std::out_of_range);
}

TEST(MachineTest, PhaseAttribution) {
  Machine mach(small_config());
  std::uint32_t id = mach.register_array("t");
  {
    auto p = mach.phase("init");
    mach.on_read(id, 0);
    mach.on_write(id, 0);
    {
      auto inner = mach.phase("inner");
      mach.on_read(id, 1);
    }
    mach.on_read(id, 2);
  }
  mach.on_read(id, 3);  // outside any phase: unattributed
  const auto& ps = mach.phase_stats();
  ASSERT_TRUE(ps.count("init"));
  ASSERT_TRUE(ps.count("inner"));
  // Hierarchical: "init" subsumes the read made inside "inner".
  EXPECT_EQ(ps.at("init").reads, 3u);
  EXPECT_EQ(ps.at("init").writes, 1u);
  EXPECT_EQ(ps.at("inner").reads, 1u);
  EXPECT_EQ(mach.stats().reads, 4u);  // global counter sees everything
}

TEST(MachineTest, DuplicatePhaseNamesAttributeOnce) {
  Machine mach(small_config());
  std::uint32_t id = mach.register_array("t");
  {
    auto outer = mach.phase("pass");
    mach.on_read(id, 0);
    {
      auto inner = mach.phase("pass");  // same name, nested: no double count
      mach.on_read(id, 1);
      mach.on_write(id, 1);
      {
        auto third = mach.phase("pass");  // deeper duplicate still dedups
        mach.on_read(id, 2);
      }
    }
    // The duplicates' exits must not tear down the outer scope's slot.
    mach.on_read(id, 3);
  }
  mach.on_read(id, 4);  // outside: unattributed
  const auto ps = mach.phase_stats();
  ASSERT_TRUE(ps.count("pass"));
  EXPECT_EQ(ps.at("pass").reads, 4u);
  EXPECT_EQ(ps.at("pass").writes, 1u);
  EXPECT_EQ(ps.size(), 1u);
  EXPECT_EQ(mach.stats().reads, 5u);
}

TEST(MachineTest, SequentialSamePhaseNameAccumulates) {
  Machine mach(small_config());
  std::uint32_t id = mach.register_array("t");
  {
    auto p = mach.phase("pass");
    mach.on_read(id, 0);
  }
  {
    auto p = mach.phase("pass");  // re-entered after full exit
    mach.on_write(id, 0);
  }
  const auto ps = mach.phase_stats();
  EXPECT_EQ(ps.at("pass").reads, 1u);
  EXPECT_EQ(ps.at("pass").writes, 1u);
}

TEST(MachineTest, MixedDuplicateAndDistinctPhases) {
  Machine mach(small_config());
  std::uint32_t id = mach.register_array("t");
  {
    auto a = mach.phase("a");
    {
      auto b = mach.phase("b");
      {
        auto a2 = mach.phase("a");  // duplicate of the outermost
        mach.on_write(id, 0);       // counts toward "a" once and "b" once
      }
    }
    mach.on_read(id, 0);  // only "a" active now
  }
  const auto ps = mach.phase_stats();
  EXPECT_EQ(ps.at("a").writes, 1u);
  EXPECT_EQ(ps.at("a").reads, 1u);
  EXPECT_EQ(ps.at("b").writes, 1u);
  EXPECT_EQ(ps.at("b").reads, 0u);
}

TEST(MachineTest, ResetClearsPhasesAndWearButPreservesArrays) {
  Machine mach(small_config());
  mach.enable_wear_tracking();
  std::uint32_t a = mach.register_array("alpha");
  std::uint32_t b = mach.register_array("beta");
  {
    auto p = mach.phase("warmup");
    mach.on_read(a, 0);
    mach.on_write(b, 0);
  }
  ASSERT_EQ(mach.phase_stats().size(), 1u);
  ASSERT_EQ(mach.wear_stats().blocks_written, 1u);

  mach.reset_stats();
  EXPECT_TRUE(mach.phase_stats().empty());
  EXPECT_EQ(mach.wear_stats().blocks_written, 0u);
  EXPECT_EQ(mach.stats(), IoStats{});
  // Registered arrays survive the reset (they are identity, not stats)...
  EXPECT_EQ(mach.array_name(a), "alpha");
  EXPECT_EQ(mach.array_name(b), "beta");
  EXPECT_EQ(mach.array_count(), 2u);
  // ...and phase/wear attribution keeps working afterwards.
  {
    auto p = mach.phase("warmup");
    mach.on_write(a, 1);
  }
  EXPECT_EQ(mach.phase_stats().at("warmup").writes, 1u);
  EXPECT_EQ(mach.wear_stats().blocks_written, 1u);
}

TEST(MachineTest, ResetInsideActivePhaseKeepsAttributing) {
  Machine mach(small_config());
  std::uint32_t id = mach.register_array("t");
  auto p = mach.phase("live");
  mach.on_read(id, 0);
  mach.reset_stats();  // scope still open: later I/Os must still attribute
  mach.on_read(id, 1);
  EXPECT_EQ(mach.phase_stats().at("live").reads, 1u);
}

TEST(MachineTest, TraceRecordsOps) {
  Machine mach(small_config());
  std::uint32_t id = mach.register_array("t");
  mach.enable_trace();
  IoTicket r = mach.on_read(id, 5);
  IoTicket w = mach.on_write(id, 7);
  ASSERT_TRUE(r.valid());
  ASSERT_TRUE(w.valid());
  const Trace* tr = mach.trace();
  ASSERT_NE(tr, nullptr);
  ASSERT_EQ(tr->size(), 2u);
  EXPECT_EQ(tr->op(0).kind, OpKind::kRead);
  EXPECT_EQ(tr->op(0).block, 5u);
  EXPECT_EQ(tr->op(1).kind, OpKind::kWrite);
  EXPECT_EQ(tr->op(1).block, 7u);
  EXPECT_EQ(tr->cost(4), 1u + 4u);
  auto taken = mach.take_trace();
  ASSERT_NE(taken, nullptr);
  EXPECT_FALSE(mach.tracing());
}

TEST(MachineTest, NoTicketsWhenTracingOff) {
  Machine mach(small_config());
  std::uint32_t id = mach.register_array("t");
  IoTicket t = mach.on_read(id, 0);
  EXPECT_FALSE(t.valid());
}

TEST(TraceTest, UseSetAndAtoms) {
  Trace tr;
  IoTicket w = tr.add(OpKind::kWrite, 0, 3);
  tr.set_atoms(w, {10, 11, 12});
  IoTicket r = tr.add(OpKind::kRead, 0, 3);
  tr.mark_used(r, 11);
  tr.mark_used(r, 12);
  EXPECT_EQ(tr.op(0).atoms.size(), 3u);
  EXPECT_EQ(tr.op(1).used.size(), 2u);
  IoStats s = tr.stats();
  EXPECT_EQ(s.reads, 1u);
  EXPECT_EQ(s.writes, 1u);
}

TEST(MachineTest, WearTrackingHistogramsWrites) {
  Machine mach(small_config());
  mach.enable_wear_tracking();
  std::uint32_t a = mach.register_array("a");
  std::uint32_t b = mach.register_array("b");
  mach.on_write(a, 0);
  mach.on_write(a, 0);
  mach.on_write(a, 0);
  mach.on_write(a, 1);
  mach.on_write(b, 0);  // same block index, different array: distinct cell
  auto ws = mach.wear_stats();
  EXPECT_EQ(ws.blocks_written, 3u);
  EXPECT_EQ(ws.max_writes, 3u);
  EXPECT_NEAR(ws.mean_writes, 5.0 / 3.0, 1e-9);
}

TEST(MachineTest, ResetClearsWear) {
  Machine mach(small_config());
  mach.enable_wear_tracking();
  std::uint32_t a = mach.register_array("a");
  mach.on_write(a, 0);
  mach.reset_stats();
  EXPECT_EQ(mach.wear_stats().blocks_written, 0u);
  mach.on_write(a, 1);
  EXPECT_EQ(mach.wear_stats().blocks_written, 1u);
}

TEST(MachineTest, WearTrackingOffByDefault) {
  Machine mach(small_config());
  std::uint32_t a = mach.register_array("a");
  mach.on_write(a, 0);
  EXPECT_FALSE(mach.wear_tracking());
  auto ws = mach.wear_stats();
  EXPECT_EQ(ws.blocks_written, 0u);
  EXPECT_EQ(ws.max_writes, 0u);
}

TEST(ExtArrayTest, BlockGeometry) {
  Machine mach(small_config());  // B = 8
  ExtArray<int> arr(mach, 20, "a");
  EXPECT_EQ(arr.size(), 20u);
  EXPECT_EQ(arr.blocks(), 3u);
  EXPECT_EQ(arr.block_elems(0), 8u);
  EXPECT_EQ(arr.block_elems(1), 8u);
  EXPECT_EQ(arr.block_elems(2), 4u);  // terminal partial block
  EXPECT_THROW(arr.block_elems(3), std::out_of_range);
}

TEST(ExtArrayTest, RoundTripChargesIo) {
  Machine mach(small_config());
  ExtArray<int> arr(mach, 16, "a");
  Buffer<int> buf(mach, 8);
  std::iota(buf.span().begin(), buf.span().end(), 100);
  arr.write_block(1, std::span<const int>(buf.data(), 8));
  EXPECT_EQ(mach.stats().writes, 1u);

  Buffer<int> out(mach, 8);
  BlockIo io = arr.read_block(1, out.span());
  EXPECT_EQ(io.count, 8u);
  EXPECT_EQ(mach.stats().reads, 1u);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(out[i], 100 + i);
}

TEST(ExtArrayTest, PartialBlockWriteSizeMustMatch) {
  Machine mach(small_config());
  ExtArray<int> arr(mach, 12, "a");
  Buffer<int> buf(mach, 8);
  // Block 1 holds 4 elements; writing 8 must fail, writing 4 succeeds.
  EXPECT_THROW(arr.write_block(1, std::span<const int>(buf.data(), 8)),
               std::invalid_argument);
  EXPECT_NO_THROW(arr.write_block(1, std::span<const int>(buf.data(), 4)));
}

TEST(ExtArrayTest, ReadIntoTooSmallBufferThrows) {
  Machine mach(small_config());
  ExtArray<int> arr(mach, 16, "a");
  Buffer<int> tiny(mach, 4);
  EXPECT_THROW(arr.read_block(0, tiny.span()), std::invalid_argument);
}

TEST(ExtArrayTest, HostFillDoesNotCharge) {
  Machine mach(small_config());
  ExtArray<int> arr(mach, 8, "a");
  std::vector<int> init(8, 5);
  arr.unsafe_host_fill(init);
  EXPECT_EQ(mach.stats().reads, 0u);
  EXPECT_EQ(mach.stats().writes, 0u);
  EXPECT_EQ(arr.unsafe_host_view()[3], 5);
  std::vector<int> wrong(4);
  EXPECT_THROW(arr.unsafe_host_fill(wrong), std::invalid_argument);
}

TEST(ExtArrayTest, AtomExtractorRecordsWrites) {
  Machine mach(small_config());
  mach.enable_trace();
  ExtArray<std::uint64_t> arr(mach, 8, "a");
  arr.set_atom_extractor([](const std::uint64_t& v) { return v; });
  Buffer<std::uint64_t> buf(mach, 8);
  for (std::size_t i = 0; i < 8; ++i) buf[i] = 100 + i;
  arr.write_block(0, std::span<const std::uint64_t>(buf.data(), 8));
  const Trace* tr = mach.trace();
  ASSERT_EQ(tr->size(), 1u);
  ASSERT_EQ(tr->op(0).atoms.size(), 8u);
  EXPECT_EQ(tr->op(0).atoms[0], 100u);
  EXPECT_EQ(tr->op(0).atoms[7], 107u);
}

TEST(ExtArrayTest, BufferRegistersWithLedger) {
  Machine mach(small_config());  // M = 64
  EXPECT_EQ(mach.ledger().used(), 0u);
  {
    Buffer<int> a(mach, 40);
    EXPECT_EQ(mach.ledger().used(), 40u);
    EXPECT_THROW(Buffer<int>(mach, 40), CapacityError);  // 80 > 64
    Buffer<int> b(mach, 24);
    EXPECT_EQ(mach.ledger().used(), 64u);
  }
  EXPECT_EQ(mach.ledger().used(), 0u);
  EXPECT_EQ(mach.ledger().high_water(), 64u);
}

}  // namespace
