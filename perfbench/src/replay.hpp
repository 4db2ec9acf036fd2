// Layer-by-layer replay of a recorded block-op stream.
//
// A workload's block-level access stream is recorded once on a plain
// machine (Machine::enable_trace / take_trace) and then driven through the
// I/O stack with one layer added at a time:
//
//   machine   bare Machine::on_read / on_write
//   submit    Machine::submit, 64 ops per batch
//   extarray  ExtArray::read_block / write_block (block copy included)
//   cache     + the workload's BlockCache (flush included)
//   faults    + the workload's FaultPolicy
//   sharding  + the D = 4 round-robin ShardedMachine facade
//
// Each replay is checked against the stream's own reads and writes (or,
// under a cache or faults, against the exact accounting identities of those
// layers), so the per-op times of different layers cover identical work.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/ext_array.hpp"
#include "core/machine.hpp"
#include "core/sharding.hpp"
#include "io/scanner.hpp"
#include "io/writer.hpp"

namespace perfbench {

/// A recorded stream: the ops in order and, per array id, how many blocks
/// the replay arrays need.
struct Stream {
  std::vector<aem::BlockOp> ops;
  std::vector<std::uint64_t> array_blocks;
  aem::IoStats stats;
};

inline Stream to_stream(const aem::Trace& trace) {
  Stream s;
  s.ops.reserve(trace.size());
  for (const aem::TraceOp& op : trace.ops()) {
    s.ops.push_back(aem::BlockOp{op.kind, op.array, op.block});
    if (op.array >= s.array_blocks.size()) s.array_blocks.resize(op.array + 1, 0);
    s.array_blocks[op.array] = std::max(s.array_blocks[op.array], op.block + 1);
  }
  s.stats = trace.stats();
  return s;
}

/// Machine ids of a fresh machine start at 0; arrays are created in id order
/// so each recorded id maps to the replay array of the same index.
template <class T>
struct ReplayArrays {
  ReplayArrays(aem::Machine& mach, const Stream& s) : buf(mach.B()) {
    arrays.reserve(s.array_blocks.size());
    for (std::size_t id = 0; id < s.array_blocks.size(); ++id)
      arrays.emplace_back(mach, s.array_blocks[id] * mach.B(),
                          "replay." + std::to_string(id));
  }
  std::vector<aem::ExtArray<T>> arrays;
  std::vector<T> buf;
};

/// Times one replay of the stream through bare on_read / on_write.
inline double replay_machine(const aem::Config& cfg, const Stream& s) {
  aem::Machine mach(cfg);
  for (std::size_t id = 0; id < s.array_blocks.size(); ++id)
    mach.register_array("replay." + std::to_string(id));
  const std::int64_t t0 = now_ns();
  for (const aem::BlockOp& op : s.ops) {
    if (op.kind == aem::OpKind::kRead) {
      mach.on_read(op.array, op.block);
    } else {
      mach.on_write(op.array, op.block);
    }
  }
  const std::int64_t t1 = now_ns();
  if (mach.stats() != s.stats)
    throw std::logic_error("machine replay charged " + aem::to_string(mach.stats()) +
                           ", stream has " + aem::to_string(s.stats));
  return static_cast<double>(t1 - t0);
}

/// Times one replay of the stream as Machine::submit batches of 64 ops.
inline double replay_submit(const aem::Config& cfg, const Stream& s) {
  constexpr std::size_t kBatch = 64;
  aem::Machine mach(cfg);
  for (std::size_t id = 0; id < s.array_blocks.size(); ++id)
    mach.register_array("replay." + std::to_string(id));
  const std::span<const aem::BlockOp> all(s.ops);
  const std::int64_t t0 = now_ns();
  for (std::size_t i = 0; i < all.size(); i += kBatch)
    mach.submit(all.subspan(i, std::min(kBatch, all.size() - i)));
  const std::int64_t t1 = now_ns();
  if (mach.stats() != s.stats)
    throw std::logic_error("submit replay charged " + aem::to_string(mach.stats()) +
                           ", stream has " + aem::to_string(s.stats));
  return static_cast<double>(t1 - t0);
}

/// What an ExtArray-level replay charged, for the identity checks.
struct ExtReplay {
  double ns = 0.0;
  aem::IoStats io;
  aem::CacheStats cache;
  aem::FaultStats faults;
};

/// Times one replay of the stream through ExtArray block transfers on
/// `mach` (whatever cache / faults / sharding it carries), including the
/// final cache flush.
template <class T>
ExtReplay replay_ext(aem::Machine& mach, const Stream& s) {
  ReplayArrays<T> r(mach, s);
  const std::span<T> dst(r.buf);
  const std::span<const T> src(r.buf);
  const std::int64_t t0 = now_ns();
  for (const aem::BlockOp& op : s.ops) {
    if (op.kind == aem::OpKind::kRead) {
      r.arrays[op.array].read_block(op.block, dst);
    } else {
      r.arrays[op.array].write_block(op.block, src);
    }
  }
  mach.flush_cache();
  const std::int64_t t1 = now_ns();
  ExtReplay out;
  out.ns = static_cast<double>(t1 - t0);
  out.io = mach.stats();
  if (const aem::BlockCache* c = mach.cache()) out.cache = c->stats();
  if (const aem::FaultPolicy* f = mach.faults()) out.faults = f->stats();
  return out;
}

inline void expect(bool ok, const std::string& what) {
  if (!ok) throw std::logic_error("replay self-check failed: " + what);
}

/// Checks a cached (and possibly faulted) replay against the stream: every
/// recorded access is a pool hit or miss, each read miss is one charged
/// read, each write-back one charged write; under faults each write attempt
/// adds one verify read and each retry one more transfer.
inline void check_layered(const ExtReplay& r, const Stream& s, bool faults) {
  const aem::CacheStats& c = r.cache;
  expect(c.read_hits + c.read_misses == s.stats.reads, "cache reads != stream reads");
  expect(c.write_hits + c.write_misses == s.stats.writes,
         "cache writes != stream writes");
  const std::uint64_t writes = c.write_backs + r.faults.write_retries;
  expect(r.io.writes == writes, "charged writes != write-backs + write retries");
  const std::uint64_t reads =
      c.read_misses + r.faults.read_retries + (faults ? r.io.writes : 0);
  expect(r.io.reads == reads, "charged reads != misses + retries + verify reads");
  expect(r.faults.remaps == 0, "unexpected remaps");
}

/// Host ns per stream op of each layer, over `reps` interleaved
/// repetitions.  machine and submit are absolute; every other layer is its
/// cost on top of the layer below, the median of per-repetition differences
/// (adjacent replays share the host's speed at that moment, so their
/// difference is steadier than a difference of medians).
struct LayerTimes {
  double machine = 0.0;
  double submit = 0.0;
  double extarray = 0.0;  // ExtArray replay - machine replay
  double cache = 0.0;     // + cache - ExtArray; 0 without a cache
  double faults = 0.0;    // + faults - cache; 0 without a fault policy
  double sharding = 0.0;  // + sharding - the layer below; 0 unsharded
};

/// The stack a workload runs on, as the replays rebuild it.
struct Stack {
  aem::Config plain;            // frontend config without the cache
  aem::CacheConfig cache;       // capacity 0 = no cache layer
  const aem::FaultConfig* faults = nullptr;
  std::size_t devices = 0;      // 0 = no sharding layer (needs a cache)
};

template <class T>
LayerTimes replay_layers(const Stack& st, const Stream& s, int reps, SpanLog* log) {
  std::vector<double> machine, submit, ext, cache, faults, shard;
  const auto n = static_cast<double>(s.ops.size());
  aem::Config cached = st.plain;
  cached.cache = st.cache;
  for (int rep = 0; rep < reps; ++rep) {
    const auto req = static_cast<std::uint64_t>(rep);
    double m = 0.0, e = 0.0, below = 0.0;
    {
      SpanScope sp(log, "replay.machine", req);
      m = replay_machine(st.plain, s) / n;
      machine.push_back(m);
    }
    {
      SpanScope sp(log, "replay.submit", req);
      submit.push_back(replay_submit(st.plain, s) / n);
    }
    {
      SpanScope sp(log, "replay.extarray", req);
      aem::Machine mach(st.plain);
      const ExtReplay r = replay_ext<T>(mach, s);
      expect(r.io == s.stats, "extarray replay charged " + aem::to_string(r.io));
      e = r.ns / n;
      ext.push_back(e - m);
    }
    if (st.cache.capacity_blocks == 0) continue;
    ExtReplay top;
    {
      SpanScope sp(log, "replay.cache", req);
      aem::Machine mach(cached);
      top = replay_ext<T>(mach, s);
      check_layered(top, s, false);
      below = top.ns / n;
      cache.push_back(below - e);
    }
    if (st.faults != nullptr) {
      SpanScope sp(log, "replay.faults", req);
      aem::Machine mach(cached);
      mach.install_faults(*st.faults);
      const double c = below;
      top = replay_ext<T>(mach, s);
      check_layered(top, s, true);
      below = top.ns / n;
      faults.push_back(below - c);
    }
    if (st.devices != 0) {
      SpanScope sp(log, "replay.sharding", req);
      aem::ShardConfig sc;
      sc.frontend = cached;
      sc.devices.assign(st.devices, st.plain);
      aem::ShardedMachine mach(sc);
      if (st.faults != nullptr) mach.install_faults(*st.faults);
      const ExtReplay r = replay_ext<T>(mach, s);
      // Facade invariance: the same charges as the unsharded stack below it,
      // and the devices together carry exactly the facade's transfers.
      expect(r.io == top.io, "sharded facade charged " + aem::to_string(r.io) +
                                 ", unsharded stack " + aem::to_string(top.io));
      expect(mach.devices_stats() == r.io, "device transfers != facade transfers");
      shard.push_back(r.ns / n - below);
    }
  }
  LayerTimes t;
  t.machine = median(machine);
  t.submit = median(submit);
  t.extarray = median(ext);
  t.cache = median(cache);
  t.faults = median(faults);
  t.sharding = median(shard);
  return t;
}

/// Sequential Scanner and Writer passes over `elems` elements on a machine
/// of config `cfg`, each checked to charge one transfer per block; reports
/// the median ns per block as io.scan_ns_per_block / io.writer_ns_per_block.
template <class T>
void io_layers(const aem::Config& cfg, std::size_t elems, int reps, Report& rep,
               SpanLog* log) {
  aem::Machine mach(cfg);
  const aem::ExtArray<T> src(mach, elems, "io.scan");
  aem::ExtArray<T> dst(mach, elems, "io.writer");
  const auto blocks = static_cast<double>(src.blocks());
  std::vector<double> scan_ns, write_ns;
  for (int r = 0; r < reps; ++r) {
    const aem::IoStats s0 = mach.stats();
    {
      SpanScope sp(log, "io.scan", static_cast<std::uint64_t>(r));
      const std::int64_t t0 = now_ns();
      aem::Scanner<T> scan(src);
      while (!scan.done()) scan.next();
      scan_ns.push_back(static_cast<double>(now_ns() - t0) / blocks);
    }
    const aem::IoStats s1 = mach.stats();
    {
      SpanScope sp(log, "io.writer", static_cast<std::uint64_t>(r));
      const std::int64_t t0 = now_ns();
      aem::Writer<T> w(dst);
      for (std::size_t i = 0; i < elems; ++i) w.push(T{});
      w.finish();
      write_ns.push_back(static_cast<double>(now_ns() - t0) / blocks);
    }
    const aem::IoStats s2 = mach.stats();
    if ((s1 - s0) != aem::IoStats{src.blocks(), 0} ||
        (s2 - s1) != aem::IoStats{0, dst.blocks()})
      rep.fail("Scanner/Writer pass charged other than one transfer per block");
  }
  rep.add("io.scan_ns_per_block", median(scan_ns), scan_ns.size());
  rep.add("io.writer_ns_per_block", median(write_ns), write_ns.size());
}

}  // namespace perfbench
