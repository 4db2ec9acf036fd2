// M0 (meta) — instrumentation overhead of the Machine hot path itself.
//
// Every experiment E1-E10 funnels each simulated block transfer through
// Machine::on_read/on_write, so simulated-I/Os-per-second bounds the
// (N, omega) grids we can afford.  This bench reports that throughput
// under each instrumentation feature (phases, wear, trace, faults,
// sharding) relative to bare counters.
//
// Report-only: M0 is the one bench whose tables contain wall-clock
// timings (so it is excluded from the --jobs byte-determinism check), and
// no exit code depends on a timing.  The byte-identity properties of the
// idle features (zero-rate faults, capacity-0 cache, D=1 sharding, unhit
// crash points and outage windows, an idle traffic engine) are gtests.
// Two more wall-clock sections ride along:
//  * fence lookup — the branchless Eytzinger rank kernel vs
//    std::upper_bound on the same fence array (both host-side; they
//    charge nothing, so only the wall clock differs);
//  * parallel sweep — a fixed grid of mergesort machines through
//    harness::run_sweep at --jobs=1 vs --jobs=N.  The ratio is
//    hardware-bound: on a single-core container it is ~1x no matter how
//    correct the harness is.
#include <algorithm>
#include <chrono>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "core/sharding.hpp"
#include "sort/mergesort.hpp"
#include "util/search.hpp"

namespace {

using namespace aem;
using namespace aem::bench;

/// Keeps the compiler from proving the measured loop dead.
inline void keep(std::uint64_t v) { asm volatile("" : : "r"(v) : "memory"); }

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
  const std::uint64_t batch = full ? (1u << 22) : (1u << 20);

  banner("M0 (meta)",
         "simulator overhead: simulated I/Os per second by instrumentation "
         "feature");

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

  {
    Machine mach(cfg);
    const std::uint32_t a = mach.register_array("hot");
    auto p1 = mach.phase(kOuter);
    auto p2 = mach.phase(kMid);
    auto p3 = mach.phase(kDup);
    add_row("phases (depth 3, 1 dup)", measure([&](std::uint64_t ops) {
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

  emit(t, "Simulated-I/O throughput by instrumentation configuration:", csv);

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
  }
  return 0;
}
catch (const std::exception& e) {
  // CLI/env parse errors (and any other unhandled failure) exit with a
  // one-line diagnostic instead of an uncaught-exception abort.
  std::cerr << "error: " << e.what() << "\n";
  return 2;
}
