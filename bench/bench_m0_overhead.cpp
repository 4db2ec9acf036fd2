// M0 (meta) — instrumentation overhead of the Machine hot path itself.
//
// Every experiment E1-E10 funnels each simulated block transfer through
// Machine::on_read/on_write, so simulated-I/Os-per-second bounds the
// (N, omega) grids we can afford.  This bench measures that throughput
// under each instrumentation feature (phases, wear, trace) and — the
// regression guard — against a faithful replica of the seed implementation
// (string-keyed std::map phase attribution with an O(depth^2) per-I/O
// duplicate check, and a std::map<(array,block)> wear histogram).
//
// PASS criterion: phase-attributed I/O >= 3x the legacy replica's
// throughput.  The bench prints the ratio and exits nonzero if it regresses
// below 3x, so a slow hot path fails loudly in CI.
//
// More wall-clock sections ride along (M0 is the one bench whose
// tables legitimately contain timings, so it is excluded from the --jobs
// byte-determinism check):
//  * fence-lookup speedup — the branchless Eytzinger rank kernel vs
//    std::upper_bound on the same fence array (report-only: both are
//    host-side and charge nothing, so only the wall clock differs);
//  * merge-kernel speedup — em_merge_group with the loser-tree selection
//    kernel vs the reference O(k) scan at k in {4, 16, 64, 256}; guard:
//    >= --min-kernel-speedup (default 2x) at k >= 64;
//  * parallel-sweep speedup — a fixed grid of mergesort machines through
//    harness::run_sweep at --jobs=1 vs --jobs=N; guard:
//    >= --min-sweep-speedup, default 0 (report-only) because the measured
//    ratio is hardware-bound — on a single-core container it is ~1x no
//    matter how correct the harness is.  CI on a multi-core box passes
//    --jobs=8 --min-sweep-speedup=4.
#include <algorithm>
#include <chrono>
#include <iostream>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "core/sharding.hpp"
#include "sort/em_mergesort.hpp"
#include "sort/mergesort.hpp"
#include "store/kv_store.hpp"
#include "traffic/engine.hpp"
#include "util/search.hpp"

namespace {

using namespace aem;
using namespace aem::bench;

/// Keeps the compiler from proving the measured loop dead.
inline void keep(std::uint64_t v) { asm volatile("" : : "r"(v) : "memory"); }

/// Faithful replica of the SEED Machine instrumentation (pre-interning):
/// phase stack of strings, per-I/O duplicate scan comparing names, map
/// lookups per attributed phase, and an ordered map keyed by (array, block)
/// for wear.  Kept here — not in the library — purely as the baseline the
/// speedup is measured against.
class LegacyMachine {
 public:
  void push_phase(std::string name) { stack_.push_back(std::move(name)); }
  void pop_phase() { stack_.pop_back(); }
  void enable_wear() { wear_enabled_ = true; }

  void on_read(std::uint32_t, std::uint64_t) {
    ++stats_.reads;
    attribute(false);
  }
  void on_write(std::uint32_t array, std::uint64_t block) {
    ++stats_.writes;
    attribute(true);
    if (wear_enabled_) ++wear_[{array, block}];
  }

  const IoStats& stats() const { return stats_; }

 private:
  void attribute(bool is_write) {
    for (std::size_t i = 0; i < stack_.size(); ++i) {
      bool repeated = false;
      for (std::size_t j = 0; j < i; ++j) repeated |= (stack_[j] == stack_[i]);
      if (repeated) continue;
      IoStats& s = phases_[stack_[i]];
      if (is_write) {
        ++s.writes;
      } else {
        ++s.reads;
      }
    }
  }

  IoStats stats_;
  std::vector<std::string> stack_;
  std::map<std::string, IoStats> phases_;
  bool wear_enabled_ = false;
  std::map<std::pair<std::uint32_t, std::uint64_t>, std::uint64_t> wear_;
};

struct Measurement {
  std::uint64_t ops = 0;
  double seconds = 0.0;
  double mops() const { return ops / seconds / 1e6; }
};

/// Runs `body(ops)` enough times to fill ~`target_s` seconds of wall clock
/// and reports the best-of-3 rate (min wall time for the same op count).
template <class F>
Measurement measure(F&& body, std::uint64_t ops_per_batch,
                    double target_s = 0.15) {
  using clock = std::chrono::steady_clock;
  // Calibrate batch count.
  auto t0 = clock::now();
  body(ops_per_batch);
  double once = std::chrono::duration<double>(clock::now() - t0).count();
  const std::uint64_t batches =
      once >= target_s ? 1 : static_cast<std::uint64_t>(target_s / once) + 1;
  Measurement best;
  best.ops = batches * ops_per_batch;
  best.seconds = 1e30;
  for (int rep = 0; rep < 3; ++rep) {
    t0 = clock::now();
    for (std::uint64_t b = 0; b < batches; ++b) body(ops_per_batch);
    const double s = std::chrono::duration<double>(clock::now() - t0).count();
    if (s < best.seconds) best.seconds = s;
  }
  return best;
}

/// 3 reads + 1 write per iteration over a rolling block index — the access
/// mix of a merge pass, the library's dominant I/O pattern.
template <class M>
void io_mix(M& mach, std::uint32_t array, std::uint64_t ops) {
  std::uint64_t block = 0;
  for (std::uint64_t i = 0; i < ops / 4; ++i) {
    mach.on_read(array, block);
    mach.on_read(array, block + 1);
    mach.on_read(array, block + 2);
    mach.on_write(array, block);
    block = (block + 3) & 1023;
  }
}

}  // namespace

int main(int argc, char** argv) try {
  util::Cli cli(argc, argv);
  const BenchIo io = bench_io(cli, 0);
  const std::string& csv = io.csv;
  const std::string& metrics = io.metrics;
  const bool full = io.full;
  const double min_speedup = cli.f64("min-speedup", 3.0);
  const double min_kernel_speedup = cli.f64("min-kernel-speedup", 2.0);
  const double min_sweep_speedup = cli.f64("min-sweep-speedup", 0.0);
  const std::uint64_t batch = full ? (1u << 22) : (1u << 20);

  banner("M0 (meta)",
         "simulator overhead: simulated I/Os per second by instrumentation "
         "feature, vs the seed implementation");

  util::Table t({"configuration", "ops", "seconds", "Mops/s", "vs_bare"});
  double bare_mops = 0.0;

  // The phase nesting used everywhere below: depth 3 with one duplicate
  // name, mirroring sort.merge -> recursion re-entering the same phase.
  const char* kOuter = "sort";
  const char* kMid = "sort.merge";
  const char* kDup = "sort.merge";  // duplicate: attributed once

  auto add_row = [&](const char* name, const Measurement& m) {
    if (bare_mops == 0.0) bare_mops = m.mops();
    t.add_row({name, util::fmt(m.ops), util::fmt(m.seconds, 3),
               util::fmt(m.mops(), 1),
               util::fmt_ratio(m.mops(), bare_mops, 2)});
    return m.mops();
  };

  Config cfg;
  cfg.memory_elems = 1024;
  cfg.block_elems = 16;
  cfg.write_cost = 8;

  {
    Machine mach(cfg);
    const std::uint32_t a = mach.register_array("hot");
    add_row("bare counters", measure([&](std::uint64_t ops) {
              io_mix(mach, a, ops);
              keep(mach.stats().reads);
            }, batch));
  }

  {
    // An installed-but-idle FaultPolicy (all rates zero) must cost one null
    // check plus the budget comparison — nowhere near a feature's price.
    Machine mach(cfg);
    FaultConfig fc;
    mach.install_faults(fc);
    const std::uint32_t a = mach.register_array("hot");
    add_row("faults: zero-rate policy", measure([&](std::uint64_t ops) {
              io_mix(mach, a, ops);
              keep(mach.stats().reads);
            }, batch));
  }

  {
    // A pure budget watchdog (huge ceiling, never trips).
    Machine mach(cfg);
    FaultConfig fc;
    fc.max_cost = ~0ull >> 1;
    fc.max_ios = ~0ull >> 1;
    mach.install_faults(fc);
    const std::uint32_t a = mach.register_array("hot");
    add_row("faults: ceiling armed", measure([&](std::uint64_t ops) {
              io_mix(mach, a, ops);
              keep(mach.stats().reads);
            }, batch));
  }

  {
    // The sharded facade's hot-path price: the same mix through a D=4
    // ShardedMachine is one virtual dispatch plus one routed device charge
    // per I/O.
    ShardConfig sc;
    sc.frontend = cfg;
    sc.devices.assign(4, cfg);
    ShardedMachine mach(sc);
    const std::uint32_t a = mach.register_array("hot");
    add_row("sharded facade (D=4, round-robin)",
            measure([&](std::uint64_t ops) {
              io_mix(mach, a, ops);
              keep(mach.stats().reads);
            }, batch / 2));
  }

  double phased_mops = 0.0;
  {
    Machine mach(cfg);
    const std::uint32_t a = mach.register_array("hot");
    auto p1 = mach.phase(kOuter);
    auto p2 = mach.phase(kMid);
    auto p3 = mach.phase(kDup);
    phased_mops = add_row("phases (depth 3, 1 dup)",
                          measure([&](std::uint64_t ops) {
                            io_mix(mach, a, ops);
                            keep(mach.stats().reads);
                          }, batch));
    emit_metrics(mach, "M0 phases", metrics);
  }

  {
    // Scope churn: enter/exit a nested phase per 64-op chunk, so the
    // PhaseScope construction cost (interning + dedup) is in the loop.
    Machine mach(cfg);
    const std::uint32_t a = mach.register_array("hot");
    auto p1 = mach.phase(kOuter);
    add_row("phases + scope churn", measure([&](std::uint64_t ops) {
              for (std::uint64_t done = 0; done < ops; done += 64) {
                auto p = mach.phase(kMid);
                io_mix(mach, a, 64);
              }
              keep(mach.stats().reads);
            }, batch));
  }

  {
    Machine mach(cfg);
    mach.enable_wear_tracking();
    const std::uint32_t a = mach.register_array("hot");
    add_row("wear histogram", measure([&](std::uint64_t ops) {
              io_mix(mach, a, ops);
              keep(mach.stats().writes);
            }, batch));
    emit_metrics(mach, "M0 wear", metrics);
  }

  {
    Machine mach(cfg);
    mach.enable_trace();
    const std::uint32_t a = mach.register_array("hot");
    add_row("trace recording", measure([&](std::uint64_t ops) {
              io_mix(mach, a, ops);
              mach.trace()->clear();  // keep memory bounded
              keep(mach.stats().reads);
            }, batch / 4));
  }

  double legacy_mops = 0.0;
  {
    LegacyMachine mach;
    mach.push_phase(kOuter);
    mach.push_phase(kMid);
    mach.push_phase(kDup);
    Measurement m = measure([&](std::uint64_t ops) {
      io_mix(mach, 0, ops);
      keep(mach.stats().reads);
    }, batch / 4);
    legacy_mops = add_row("SEED replica: string phases (depth 3, 1 dup)", m);
  }

  {
    LegacyMachine mach;
    mach.enable_wear();
    add_row("SEED replica: map wear", measure([&](std::uint64_t ops) {
              io_mix(mach, 0, ops);
              keep(mach.stats().writes);
            }, batch / 4));
  }

  emit(t, "Simulated-I/O throughput by instrumentation configuration:", csv);

  // Hard guard, not a timing: with a zero-rate policy installed the
  // counters after an identical op sequence must be byte-identical to a
  // machine with no policy at all.  Fault injection that is "off" must be
  // OFF — any drift here silently poisons every experiment's Q.
  {
    Machine plain(cfg);
    const std::uint32_t pa = plain.register_array("hot");
    io_mix(plain, pa, 1 << 16);
    Machine faulted(cfg);
    faulted.install_faults(FaultConfig{});
    const std::uint32_t fa = faulted.register_array("hot");
    io_mix(faulted, fa, 1 << 16);
    if (!(plain.stats() == faulted.stats()) ||
        plain.cost() != faulted.cost()) {
      std::cerr << "FAIL: zero-rate fault policy perturbed the counters "
                   "(reads " << plain.stats().reads << " vs "
                << faulted.stats().reads << ", cost " << plain.cost()
                << " vs " << faulted.cost() << ")\n";
      return 1;
    }
    std::cout << "zero-overhead guard: counters byte-identical with and "
                 "without a zero-rate policy\n\n";
  }

  // The same hard guard for the block cache's bypass mode: a config that
  // requests capacity 0 installs no pool at all, so ExtArray traffic — the
  // path the cache dispatch lives on — must be byte-identical to a machine
  // that never heard of caches.
  {
    auto drive = [](Machine& mach) {
      ExtArray<std::uint64_t> arr(mach, 1024, "hot");
      Buffer<std::uint64_t> buf(mach, mach.B());
      const std::uint64_t blocks = arr.blocks();
      for (std::uint64_t i = 0; i < 4 * blocks; ++i) {
        const std::uint64_t bi = (i * 7) % blocks;
        arr.read_block(bi, buf.span());
        buf[0] = i;
        arr.write_block(bi, std::span<const std::uint64_t>(
                                buf.data(), arr.block_elems(bi)));
      }
    };
    Machine plain(cfg);
    drive(plain);
    Config off = cfg;
    off.cache.capacity_blocks = 0;  // explicit bypass
    off.cache.policy = CachePolicy::kCleanFirst;
    Machine bypass(off);
    drive(bypass);
    if (bypass.cache() != nullptr || !(plain.stats() == bypass.stats()) ||
        plain.cost() != bypass.cost()) {
      std::cerr << "FAIL: capacity-0 cache config perturbed the counters "
                   "(reads " << plain.stats().reads << " vs "
                << bypass.stats().reads << ", cost " << plain.cost() << " vs "
                << bypass.cost() << ")\n";
      return 1;
    }
    std::cout << "cache bypass guard: counters byte-identical with and "
                 "without a capacity-0 cache config\n\n";
  }

  // Sharding degeneration guard: a ShardedMachine with ONE device whose
  // Config equals the frontend's must be byte-identical to a plain Machine
  // running the same program — counters, cost, trace op sequence, and the
  // full metrics JSON once the snapshot's sharding section (the one part
  // that legitimately differs) is cleared on both sides.  The single device
  // must additionally mirror the facade's counters exactly (amplification 1,
  // identity routing) — MODEL.md section 13's D=1 contract.
  {
    auto drive = [](Machine& mach) {
      auto phase = mach.phase("shard-guard");
      ExtArray<std::uint64_t> arr(mach, 1024, "hot");
      Buffer<std::uint64_t> buf(mach, mach.B());
      const std::uint64_t blocks = arr.blocks();
      for (std::uint64_t i = 0; i < 4 * blocks; ++i) {
        const std::uint64_t bi = (i * 7) % blocks;
        arr.read_block(bi, buf.span());
        buf[0] = i;
        arr.write_block(bi, std::span<const std::uint64_t>(
                                buf.data(), arr.block_elems(bi)));
      }
    };
    Machine plain(cfg);
    plain.enable_trace();
    drive(plain);

    ShardConfig sc;
    sc.frontend = cfg;
    sc.devices = {cfg};
    ShardedMachine sharded(sc);
    sharded.enable_trace();
    drive(sharded);

    bool ok = plain.stats() == sharded.stats() &&
              plain.cost() == sharded.cost() &&
              sharded.device(0).stats() == plain.stats() &&
              sharded.device(0).cost() == plain.cost();
    const auto& pa = plain.trace()->ops();
    const auto& sa = sharded.trace()->ops();
    ok = ok && pa.size() == sa.size();
    for (std::size_t i = 0; ok && i < pa.size(); ++i)
      ok = pa[i].kind == sa[i].kind && pa[i].array == sa[i].array &&
           pa[i].block == sa[i].block;
    MetricsSnapshot mp = snapshot_metrics(plain, "shard-guard");
    MetricsSnapshot ms = snapshot_metrics(sharded, "shard-guard");
    mp.sharding = ShardingMetrics{};
    ms.sharding = ShardingMetrics{};
    ok = ok && to_json(mp) == to_json(ms);
    if (!ok) {
      std::cerr << "FAIL: D=1 ShardedMachine diverged from the plain machine "
                   "(reads " << plain.stats().reads << " vs "
                << sharded.stats().reads << ", cost " << plain.cost()
                << " vs " << sharded.cost() << ", trace ops " << pa.size()
                << " vs " << sa.size() << ")\n";
      return 1;
    }
    std::cout << "sharding degeneration guard: D=1 ShardedMachine "
                 "byte-identical to the plain machine (counters, trace, "
                 "metrics)\n\n";
  }

  // Reliability zero-cost guard: an armed-but-never-hit crash point (plus a
  // configured retry backoff that no fault ever triggers) and an outage
  // window that never opens must leave every charged counter byte-identical
  // to a machine that never heard of either.  The insurance must be free
  // until the disaster happens.
  {
    Machine plain(cfg);
    const std::uint32_t pa = plain.register_array("hot");
    io_mix(plain, pa, 1 << 16);

    Machine armed(cfg);
    FaultConfig fc;
    fc.crash_after_writes = ~0ull >> 1;  // beyond any horizon here
    fc.retry_backoff_base = 4;           // priced only on actual retries
    armed.install_faults(fc);
    const std::uint32_t aa = armed.register_array("hot");
    io_mix(armed, aa, 1 << 16);
    if (!(plain.stats() == armed.stats()) || plain.cost() != armed.cost() ||
        armed.faults()->crashes_fired() != 0) {
      std::cerr << "FAIL: unarmed crash/backoff schedule perturbed the "
                   "counters (reads " << plain.stats().reads << " vs "
                << armed.stats().reads << ", cost " << plain.cost() << " vs "
                << armed.cost() << ")\n";
      return 1;
    }

    auto drive = [](Machine& mach) {
      ExtArray<std::uint64_t> arr(mach, 1024, "hot");
      Buffer<std::uint64_t> buf(mach, mach.B());
      const std::uint64_t blocks = arr.blocks();
      for (std::uint64_t i = 0; i < 4 * blocks; ++i) {
        const std::uint64_t bi = (i * 7) % blocks;
        arr.read_block(bi, buf.span());
        buf[0] = i;
        arr.write_block(bi, std::span<const std::uint64_t>(
                                buf.data(), arr.block_elems(bi)));
      }
    };
    ShardConfig calm_sc;
    calm_sc.frontend = cfg;
    calm_sc.devices.assign(2, cfg);
    ShardedMachine calm(calm_sc);
    drive(calm);

    ShardConfig far_sc = calm_sc;
    far_sc.outages = {OutageSpec{1, ~0ull >> 1, 0}};  // never reached
    ShardedMachine far(far_sc);
    drive(far);

    MetricsSnapshot mc = snapshot_metrics(calm, "reliability-guard");
    MetricsSnapshot mf = snapshot_metrics(far, "reliability-guard");
    // The configured (never-opened) window legitimately shows up as an
    // outage row; everything else must match to the byte.
    mc.reliability = ReliabilityMetrics{};
    mf.reliability = ReliabilityMetrics{};
    if (!(calm.stats() == far.stats()) || calm.cost() != far.cost() ||
        !(calm.devices_stats() == far.devices_stats()) ||
        to_json(mc) != to_json(mf)) {
      std::cerr << "FAIL: an unreached outage window perturbed the counters "
                   "(reads " << calm.stats().reads << " vs "
                << far.stats().reads << ", cost " << calm.cost() << " vs "
                << far.cost() << ")\n";
      return 1;
    }
    std::cout << "reliability zero-cost guard: armed-but-unhit crash point, "
                 "backoff schedule, and outage window leave counters and "
                 "metrics byte-identical\n\n";
  }

  // Traffic zero-cost guard: constructing a TrafficEngine and running a
  // zero-request stream must leave every charged counter — and the full
  // metrics JSON — byte-identical to a machine no engine ever touched.
  // Instrumenting a store for serving must be free until requests arrive.
  {
    auto build = [&](Machine& mach, std::vector<store::Slot>& slots_host) {
      ExtArray<store::Slot> slots(mach, slots_host.size(), "input.slots");
      slots.unsafe_host_fill(std::span<const store::Slot>(slots_host));
      ExtArray<std::uint64_t> payload(mach, 0, "input.payload");
      auto kv = std::make_unique<store::KvStore>(
          mach, store::StoreConfig{store::IndexKind::kFence, 8});
      kv->build(slots, payload);
      return kv;
    };
    std::vector<store::Slot> slots_host;
    util::Rng rng(io.seed + 31);
    for (std::size_t i = 0; i < 512; ++i)
      slots_host.push_back(store::Slot{2 * i, 1, rng.next()});

    Machine bare(cfg);
    auto bare_kv = build(bare, slots_host);

    Machine engined(cfg);
    auto engined_kv = build(engined, slots_host);
    traffic::EngineConfig ec;
    ec.traffic.requests = 0;
    ec.traffic.key_space = 512;
    ec.traffic.key_stride = 2;
    traffic::TrafficEngine idle(*engined_kv, engined, ec, io.seed + 32);
    idle.run();

    MetricsSnapshot mb = snapshot_metrics(bare, "traffic-guard");
    MetricsSnapshot me = snapshot_metrics(engined, "traffic-guard");
    if (!(bare.stats() == engined.stats()) || bare.cost() != engined.cost() ||
        to_json(mb) != to_json(me) || idle.stats().cost != 0 ||
        idle.histogram().total() != 0) {
      std::cerr << "FAIL: an idle TrafficEngine perturbed the machine "
                   "(reads " << bare.stats().reads << " vs "
                << engined.stats().reads << ", cost " << bare.cost() << " vs "
                << engined.cost() << ", engine Q " << idle.stats().cost
                << ")\n";
      return 1;
    }
    std::cout << "traffic zero-cost guard: an idle TrafficEngine (0 "
                 "requests) leaves counters and metrics JSON "
                 "byte-identical\n\n";
  }

  // --- Fence-lookup speedup: Eytzinger rank kernel vs std::upper_bound ---
  // Report-only: both kernels are host-side (zero charged I/O — the store
  // tests pin that), so only the wall clock differs.  On sorted arrays past
  // L1 the branchless layout wins on comparisons resolved per cache line.
  {
    util::Table et({"fences", "probes", "upper_bound_Mops/s",
                    "eytzinger_Mops/s", "speedup"});
    util::Rng rng(io.seed + 91);
    for (const std::size_t n : {1u << 12, 1u << 16, 1u << 20}) {
      std::vector<std::uint64_t> fences;
      fences.reserve(n);
      for (std::size_t i = 0; i < n; ++i) fences.push_back(rng.next() >> 8);
      std::sort(fences.begin(), fences.end());
      const util::EytzingerSearch idx(fences);
      std::vector<std::uint64_t> probes(full ? 1u << 16 : 1u << 14);
      for (auto& p : probes) p = rng.next() >> 8;

      std::uint64_t sink = 0;
      const Measurement ub = measure(
          [&](std::uint64_t) {
            for (const std::uint64_t p : probes)
              sink += util::sorted_rank_upper(fences, p);
            keep(sink);
          },
          probes.size());
      const Measurement ey = measure(
          [&](std::uint64_t) {
            for (const std::uint64_t p : probes) sink += idx.rank_upper(p);
            keep(sink);
          },
          probes.size());
      et.add_row({util::fmt(std::uint64_t(n)),
                  util::fmt(std::uint64_t(probes.size())),
                  util::fmt(ub.mops(), 1), util::fmt(ey.mops(), 1),
                  util::fmt_ratio(ey.mops(), ub.mops(), 2)});
    }
    emit(et, "Fence lookup: branchless Eytzinger rank vs std::upper_bound "
             "(host-side, charges nothing; report-only):", csv);
  }

  // --- Merge-kernel speedup: loser tree vs the reference O(k) scan -------
  // The same merge (same runs, same machine, byte-identical I/O charge
  // sequence — tests/test_loser_tree.cpp proves Q equality) timed with both
  // selection kernels.  The loser tree does ceil(log2 k) comparisons per
  // output element where the scan does k, so the gap must widen with k.
  bool kernel_ok = true;
  {
    util::Table kt({"k", "N", "scan_Melem/s", "loser_Melem/s", "speedup"});
    for (const std::size_t k : {4, 16, 64, 256}) {
      const std::size_t B = 16;
      const std::size_t run_len = full ? 4096 : 1024;
      const std::size_t N = k * run_len;
      // Enough memory for k scanner blocks + the writer block + the 2k-word
      // head state em_merge_group reserves, with headroom.
      Config mcfg = make_config((k + 2) * B + 4 * k, B, 8);
      Machine mach(mcfg);
      util::Rng rng(io.seed + k);
      std::vector<std::uint64_t> host;
      std::vector<RunBounds> runs;
      host.reserve(N);
      for (std::size_t r = 0; r < k; ++r) {
        auto keys = util::random_keys(run_len, rng);
        std::sort(keys.begin(), keys.end());
        runs.push_back(RunBounds{host.size(), host.size() + run_len});
        host.insert(host.end(), keys.begin(), keys.end());
      }
      ExtArray<std::uint64_t> in(mach, N, "runs");
      in.unsafe_host_fill(host);
      ExtArray<std::uint64_t> out(mach, N, "out");
      auto time_kernel = [&](MergeKernel kernel) {
        return measure(
            [&](std::uint64_t) {
              sort_detail::em_merge_group(
                  in, std::span<const RunBounds>(runs), out, 0,
                  std::less<std::uint64_t>{}, kernel);
              keep(mach.stats().reads);
            },
            N);
      };
      const Measurement scan = time_kernel(MergeKernel::kScanSelect);
      const Measurement loser = time_kernel(MergeKernel::kLoserTree);
      const double ratio = loser.mops() / scan.mops();
      kt.add_row({util::fmt(std::uint64_t(k)), util::fmt(std::uint64_t(N)),
                  util::fmt(scan.mops(), 1), util::fmt(loser.mops(), 1),
                  util::fmt(ratio, 2)});
      if (k >= 64 && ratio < min_kernel_speedup) {
        std::cerr << "FAIL: loser-tree kernel speedup " << util::fmt(ratio, 2)
                  << "x below the " << util::fmt(min_kernel_speedup, 1)
                  << "x floor at k=" << k << "\n";
        kernel_ok = false;
      }
    }
    emit(kt, "Merge selection kernel: loser tree vs O(k) scan "
             "(same I/O charge sequence):", csv);
  }

  // --- Parallel-sweep wall clock: --jobs=1 vs --jobs=N --------------------
  // A fixed 8-point grid of independent mergesort machines through
  // harness::run_sweep.  The results are byte-identical for any jobs value
  // (that is the harness contract); this section measures only the wall
  // clock.  The speedup ceiling is min(jobs, hardware threads).
  {
    const std::size_t points = 8;
    const std::size_t sweep_n = full ? (1u << 15) : (1u << 13);
    auto sweep_once = [&](std::size_t jobs) {
      harness::SweepConfig sc;
      sc.jobs = jobs;
      sc.base_seed = io.seed;
      const auto t0 = std::chrono::steady_clock::now();
      auto results = harness::run_sweep(
          points, sc, [&](harness::PointContext& ctx) {
            Machine mach(make_config(256, 16, 8));
            auto in = staged_keys(mach, sweep_n, ctx.rng());
            ExtArray<std::uint64_t> out(mach, sweep_n, "out");
            aem_merge_sort(in, out);
            ctx.row({util::fmt(mach.cost())});
          });
      const double s = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - t0)
                           .count();
      return std::pair<double, std::size_t>(s, results.size());
    };
    const std::size_t jobs = harness::resolve_jobs(io.sweep.jobs);
    const auto [serial_s, n1] = sweep_once(1);
    const auto [parallel_s, n2] = sweep_once(jobs);
    const double sweep_speedup = serial_s / parallel_s;
    util::Table st({"points", "N/point", "jobs", "serial_s", "parallel_s",
                    "speedup"});
    st.add_row({util::fmt(std::uint64_t(points)),
                util::fmt(std::uint64_t(sweep_n)),
                util::fmt(std::uint64_t(jobs)), util::fmt(serial_s, 3),
                util::fmt(parallel_s, 3), util::fmt(sweep_speedup, 2)});
    emit(st, "Parallel sweep wall clock (" + util::fmt(std::uint64_t(n1)) +
                 "+" + util::fmt(std::uint64_t(n2)) +
                 " points; ceiling = min(jobs, hardware threads)):",
         csv);
    if (min_sweep_speedup > 0.0 && sweep_speedup < min_sweep_speedup) {
      std::cerr << "FAIL: sweep speedup " << util::fmt(sweep_speedup, 2)
                << "x below the " << util::fmt(min_sweep_speedup, 1)
                << "x floor at --jobs=" << jobs << "\n";
      return 1;
    }
  }

  if (!kernel_ok) return 1;

  const double speedup = phased_mops / legacy_mops;
  std::cout << "phase-attributed I/O speedup vs seed: " << util::fmt(speedup, 2)
            << "x  (floor " << util::fmt(min_speedup, 1) << "x)\n\n";
  std::cout << "PASS criterion: speedup >= " << util::fmt(min_speedup, 1)
            << "x; phases/wear rows within a small factor of bare counters.\n";
  if (speedup < min_speedup) {
    std::cerr << "FAIL: hot-path speedup " << util::fmt(speedup, 2)
              << "x below the " << util::fmt(min_speedup, 1) << "x floor\n";
    return 1;
  }
  return 0;
}
catch (const std::exception& e) {
  // CLI/env parse errors (and any other unhandled failure) exit with a
  // one-line diagnostic instead of an uncaught-exception abort.
  std::cerr << "error: " << e.what() << "\n";
  return 2;
}
