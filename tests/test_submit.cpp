// Tests for Machine::submit, the in-order loop over on_read/on_write
// (docs/MODEL.md section 17): a span charges exactly what the caller's own
// per-op loop would — counters, phases, wear, trace, the crash point, and,
// on a ShardedMachine, every device and outage window.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/faults.hpp"
#include "core/machine.hpp"
#include "core/sharding.hpp"
#include "core/trace.hpp"

namespace {

using namespace aem;

Config cfg(std::size_t M = 1024, std::size_t B = 16, std::uint64_t w = 8) {
  Config c;
  c.memory_elems = M;
  c.block_elems = B;
  c.write_cost = w;
  return c;
}

// A mixed read/write batch over two arrays with repeated blocks (so wear
// histograms see concentration, not just coverage).
std::vector<BlockOp> mixed_ops(std::size_t n) {
  std::vector<BlockOp> ops;
  for (std::size_t i = 0; i < n; ++i) {
    const OpKind kind = (i % 3 == 2) ? OpKind::kWrite : OpKind::kRead;
    ops.push_back(BlockOp{kind, static_cast<std::uint32_t>(i % 2),
                          static_cast<std::uint64_t>(i % 7)});
  }
  return ops;
}

void replay_per_op(Machine& m, const std::vector<BlockOp>& ops) {
  for (const BlockOp& op : ops) {
    if (op.kind == OpKind::kWrite) {
      m.on_write(op.array, op.block);
    } else {
      m.on_read(op.array, op.block);
    }
  }
}

void expect_same_traces(const Trace* a, const Trace* b) {
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  ASSERT_EQ(a->size(), b->size());
  for (std::size_t i = 0; i < a->size(); ++i) {
    EXPECT_EQ(a->op(i).kind, b->op(i).kind) << "op " << i;
    EXPECT_EQ(a->op(i).array, b->op(i).array) << "op " << i;
    EXPECT_EQ(a->op(i).block, b->op(i).block) << "op " << i;
  }
}

TEST(SubmitTest, MatchesPerOpCountersPhasesWearAndTrace) {
  Machine per_op(cfg());
  Machine batched(cfg());
  for (Machine* m : {&per_op, &batched}) {
    m->register_array("a");
    m->register_array("b");
    m->enable_wear_tracking();
    m->enable_trace();
  }
  const std::vector<BlockOp> ops = mixed_ops(100);
  {
    auto outer = per_op.phase("outer");
    auto inner = per_op.phase("inner");
    replay_per_op(per_op, ops);
  }
  {
    auto outer = batched.phase("outer");
    auto inner = batched.phase("inner");
    batched.submit(ops);
  }

  EXPECT_EQ(per_op.stats(), batched.stats());
  EXPECT_EQ(per_op.cost(), batched.cost());
  EXPECT_EQ(per_op.phase_stats(), batched.phase_stats());
  const auto w1 = per_op.wear_stats();
  const auto w2 = batched.wear_stats();
  EXPECT_EQ(w1.blocks_written, w2.blocks_written);
  EXPECT_EQ(w1.max_writes, w2.max_writes);
  EXPECT_DOUBLE_EQ(w1.mean_writes, w2.mean_writes);
  expect_same_traces(per_op.trace(), batched.trace());
}

TEST(SubmitTest, EmptySpanChargesNothing) {
  Machine m(cfg());
  m.register_array("a");
  m.submit({});
  EXPECT_EQ(m.stats().total_ios(), 0u);
}

TEST(SubmitTest, CrashFiresOnExactNthChargedWriteInsideBatch) {
  // The armed power cut lands mid-span: CrashError fires on exactly the
  // same charged write as the caller's own loop, with every op before it
  // charged and none after.
  FaultConfig fc;
  fc.crash_after_writes = 5;

  Machine per_op(cfg());
  Machine batched(cfg());
  const std::vector<BlockOp> ops = mixed_ops(40);  // writes at i % 3 == 2
  for (Machine* m : {&per_op, &batched}) {
    m->register_array("a");
    m->register_array("b");
    m->install_faults(fc);
  }
  EXPECT_THROW(replay_per_op(per_op, ops), CrashError);
  const IoStats per_at_crash = per_op.stats();
  EXPECT_THROW(batched.submit(ops), CrashError);
  const IoStats batch_at_crash = batched.stats();

  EXPECT_EQ(per_at_crash, batch_at_crash);
  EXPECT_EQ(batch_at_crash.writes, fc.crash_after_writes);

  // One-shot: the fired crash point stays disarmed, so the ops can be
  // resubmitted and charge cleanly.
  EXPECT_NO_THROW(per_op.submit(ops));
  EXPECT_NO_THROW(batched.submit(ops));
  EXPECT_EQ(per_op.stats(), batched.stats());
}

TEST(SubmitTest, CrashBeyondSpanStaysArmed) {
  FaultConfig fc;
  fc.crash_after_writes = 1000;
  Machine m(cfg());
  m.register_array("a");
  m.register_array("b");
  m.install_faults(fc);
  const std::vector<BlockOp> ops = mixed_ops(30);
  EXPECT_NO_THROW(m.submit(ops));
  EXPECT_TRUE(m.faults()->crash_armed());
}

ShardConfig shard_cfg(std::size_t devices, std::size_t dev_block = 16) {
  ShardConfig sc;
  sc.frontend.memory_elems = 1024;
  sc.frontend.block_elems = 16;
  sc.frontend.write_cost = 8;
  for (std::size_t d = 0; d < devices; ++d) {
    Config dev;
    dev.memory_elems = 1024;
    dev.block_elems = dev_block;
    dev.write_cost = 8;
    sc.devices.push_back(dev);
  }
  return sc;
}

TEST(SubmitTest, ShardedBatchMatchesPerOpOnEveryDevice) {
  for (const std::size_t dev_block : {16u, 4u}) {  // amp 1 and amp 4
    ShardedMachine per_op(shard_cfg(3, dev_block));
    ShardedMachine batched(shard_cfg(3, dev_block));
    const std::vector<BlockOp> ops = mixed_ops(120);
    for (ShardedMachine* m : {&per_op, &batched}) {
      m->register_array("a");
      m->register_array("b");
      m->enable_trace();
      m->enable_device_wear_tracking();
    }
    replay_per_op(per_op, ops);
    batched.submit(ops);

    EXPECT_EQ(per_op.stats(), batched.stats());
    expect_same_traces(per_op.trace(), batched.trace());
    EXPECT_EQ(per_op.devices_stats(), batched.devices_stats());
    EXPECT_EQ(per_op.devices_cost(), batched.devices_cost());
    EXPECT_DOUBLE_EQ(per_op.wear_spread(), batched.wear_spread());
    for (std::size_t d = 0; d < 3; ++d) {
      EXPECT_EQ(per_op.device(d).stats(), batched.device(d).stats())
          << "device " << d << " dev_block " << dev_block;
      const auto w1 = per_op.device(d).wear_stats();
      const auto w2 = batched.device(d).wear_stats();
      EXPECT_EQ(w1.blocks_written, w2.blocks_written);
      EXPECT_EQ(w1.max_writes, w2.max_writes);
    }
  }
}

TEST(SubmitTest, ShardedCrashFiresOnExactNthChargedWriteInsideBatch) {
  // The frontend's crash point fires before any device sees the cut write,
  // on the same op for a span as for the caller's own loop.
  FaultConfig fc;
  fc.crash_after_writes = 5;
  ShardedMachine per_op(shard_cfg(3, 4));
  ShardedMachine batched(shard_cfg(3, 4));
  for (ShardedMachine* m : {&per_op, &batched}) {
    m->register_array("a");
    m->register_array("b");
    m->install_faults(fc);
  }
  const std::vector<BlockOp> ops = mixed_ops(40);
  EXPECT_THROW(replay_per_op(per_op, ops), CrashError);
  EXPECT_THROW(batched.submit(ops), CrashError);
  EXPECT_EQ(batched.stats().writes, fc.crash_after_writes);
  EXPECT_EQ(per_op.stats(), batched.stats());
  EXPECT_EQ(per_op.devices_stats(), batched.devices_stats());
  EXPECT_EQ(batched.devices_stats().writes, 4 * (fc.crash_after_writes - 1));
}

TEST(SubmitTest, ShardedOutageWindowDegradesToPerOpPath) {
  ShardConfig sc_a = shard_cfg(2);
  sc_a.outages.push_back(OutageSpec{1, 3, 20});
  ShardConfig sc_b = sc_a;
  ShardedMachine per_op(sc_a);
  ShardedMachine batched(sc_b);
  const std::vector<BlockOp> ops = mixed_ops(40);
  for (ShardedMachine* m : {&per_op, &batched}) {
    m->register_array("a");
    m->register_array("b");
  }
  replay_per_op(per_op, ops);
  batched.submit(ops);

  EXPECT_EQ(per_op.stats(), batched.stats());
  EXPECT_EQ(per_op.devices_stats(), batched.devices_stats());
  for (std::size_t d = 0; d < 2; ++d) {
    EXPECT_EQ(per_op.outage_stats(d), batched.outage_stats(d)) << "dev " << d;
    EXPECT_EQ(per_op.pending_writes(d), batched.pending_writes(d));
  }
}

}  // namespace
