// R1 (robustness) — what does surviving a faulty NVM actually cost in Q?
//
// The AEM model prices writes at omega because NVM cells wear and fail; a
// real device therefore runs its algorithms on top of a recovery layer
// (verify-after-write, checked reads, bounded retry, wear-level
// remap).  This experiment makes that price visible: mergesort runs under a
// deterministic fault schedule while every retry and verification read is
// charged through the normal accounting, and the table reports the
// Q-overhead over the fault-free run as the fault rate and omega sweep.
//
// Sweep 1: fault rate {0, 1e-4, 1e-3, 1e-2} x omega {1, 4, 16}.  The
//   rate-0 row doubles as the zero-overhead-when-off guard: its Q must be
//   byte-identical to a machine with no policy installed (exit 1 if not).
//   Each (omega, rate) cell measures on its own machine, so the sweep runs
//   through the harness into slots; the clean-vs-faulty comparisons (which
//   reach ACROSS points) happen serially afterwards.  All runs at one
//   omega share the same input (fixed input seed), by design — the
//   overhead column compares like with like.
// Sweep 2: endurance x spares — how far a write-hammering workload gets
//   before the spare pool runs dry, and what the migrations cost.
//
// Every output is verified against the host-side expectation; an
// unverified output is a hard failure (exit 1), because a recovery layer
// that silently loses data is worse than none.  So is a sweep whose fault
// schedules never fired: it would measure nothing.
#include <algorithm>
#include <iostream>
#include <optional>
#include <vector>

#include "bench_common.hpp"
#include "core/faults.hpp"
#include "core/remap.hpp"
#include "sort/mergesort.hpp"

namespace {

using namespace aem;
using namespace aem::bench;

struct FaultRunResult {
  std::uint64_t q = 0;
  IoStats io;
  FaultStats fs;
  bool verified = false;
};

FaultRunResult run_sort(std::size_t N, std::size_t M, std::size_t B,
                        std::uint64_t omega, const FaultConfig* fc,
                        std::uint64_t input_seed, harness::PointContext& ctx,
                        const std::string& label) {
  Machine mach(make_config(M, B, omega));
  if (fc != nullptr) mach.install_faults(*fc);
  util::Rng rng(input_seed);
  const auto host = util::random_keys(N, rng);
  ExtArray<std::uint64_t> in(mach, N, "in");
  in.unsafe_host_fill(host);
  ExtArray<std::uint64_t> out(mach, N, "out");
  mach.reset_stats();
  aem_merge_sort(in, out);

  auto expect = host;
  std::sort(expect.begin(), expect.end());
  FaultRunResult r;
  r.q = mach.cost();
  r.io = mach.stats();
  if (const FaultPolicy* fp = mach.faults()) r.fs = fp->stats();
  r.verified = out.unsafe_host_view() == expect;
  ctx.metrics(mach, label);
  return r;
}

}  // namespace

int main(int argc, char** argv) try {
  util::Cli cli(argc, argv);
  const BenchIo io = bench_io(cli, 2017);
  const std::uint64_t fault_seed = io.seed;

  banner("R1 (robustness)",
         "the omega-weighted price of recovery: Q overhead of running "
         "mergesort on a faulty device");

  const std::size_t N = io.full ? (1 << 16) : (1 << 13);
  const std::size_t M = 256, B = 16;
  bool ok = true;

  // --- Sweep 1: fault rate x omega ---------------------------------------
  // Point grid: for each omega, one clean run (rate = nullopt) followed by
  // the four faulty rates.  The grid order is also the table/metrics order.
  struct Point {
    std::uint64_t omega;
    std::optional<double> rate;  // nullopt: no policy installed (clean)
  };
  const std::vector<std::uint64_t> omegas = {1, 4, 16};
  const std::vector<double> rates = {0.0, 1e-4, 1e-3, 1e-2};
  std::vector<Point> grid;
  for (const std::uint64_t omega : omegas) {
    grid.push_back({omega, std::nullopt});
    for (const double rate : rates) grid.push_back({omega, rate});
  }

  std::vector<FaultRunResult> slots(grid.size());
  replay(harness::run_sweep(grid.size(), io.sweep,
                            [&](harness::PointContext& ctx) {
                              const Point& pt = grid[ctx.index()];
                              if (!pt.rate) {
                                slots[ctx.index()] = run_sort(
                                    N, M, B, pt.omega, nullptr, 42, ctx,
                                    "R1 clean w=" + std::to_string(pt.omega));
                                return;
                              }
                              FaultConfig fc;
                              fc.seed = fault_seed;
                              fc.read_fault_rate = *pt.rate;
                              fc.silent_write_rate = *pt.rate / 2;
                              fc.torn_write_rate = *pt.rate / 2;
                              fc.max_retries = 64;
                              slots[ctx.index()] = run_sort(
                                  N, M, B, pt.omega, &fc, 42, ctx,
                                  "R1 rate=" + util::fmt(*pt.rate, 6) +
                                      " w=" + std::to_string(pt.omega));
                            }),
         nullptr, io.metrics);

  util::Table t({"rate", "omega", "Q_clean", "Q_faulty", "overhead",
                 "rd_flt", "wr_flt", "retries", "verified"});
  const FaultRunResult* clean = nullptr;
  bool fired = false;  // some schedule injected a read fault or forced a retry
  for (std::size_t i = 0; i < grid.size(); ++i) {
    const Point& pt = grid[i];
    const FaultRunResult& r = slots[i];
    if (!pt.rate) {
      clean = &r;
      if (!r.verified) ok = false;
      continue;
    }
    if (!r.verified) {
      std::cerr << "FAIL: unverified output at rate=" << *pt.rate
                << " omega=" << pt.omega << "\n";
      ok = false;
    }
    fired |= r.fs.read_faults > 0 || r.fs.write_retries > 0;
    if (*pt.rate == 0.0 && (r.q != clean->q || !(r.io == clean->io))) {
      std::cerr << "FAIL: zero-rate policy changed the cost: Q " << clean->q
                << " -> " << r.q << " (zero-overhead-when-off is broken)\n";
      ok = false;
    }
    t.add_row({util::fmt(*pt.rate, 6), util::fmt(pt.omega),
               util::fmt(clean->q), util::fmt(r.q),
               util::fmt_ratio(double(r.q), double(clean->q), 3),
               util::fmt(r.fs.read_faults),
               util::fmt(r.fs.silent_write_faults + r.fs.torn_write_faults),
               util::fmt(r.fs.read_retries + r.fs.write_retries),
               r.verified ? "yes" : "NO"});
  }
  if (!fired) {
    std::cerr << "FAIL: no fault schedule fired (no read fault, no write "
                 "retry at any rate)\n";
    ok = false;
  }
  emit(t,
       "Mergesort under injected faults, N=" + util::fmt(std::uint64_t(N)) +
           ", M=256, B=16 (overhead = Q_faulty/Q_clean):",
       io.csv);

  // --- Sweep 2: endurance and the spare pool ------------------------------
  // A write-hammering loop on one array: how many rewrites of the same
  // region does each (endurance, spares) budget survive, and what do the
  // migrations cost?  SparesExhausted is the expected graceful endpoint.
  util::Table t2({"endurance", "spares", "rewrites_survived", "remaps",
                  "retired", "Q"});
  struct HammerPoint {
    std::uint64_t endurance;
    std::size_t spares;
  };
  std::vector<HammerPoint> hammer;
  for (const std::uint64_t endurance : {4ull, 16ull})
    for (const std::size_t spares : {std::size_t(2), std::size_t(8)})
      hammer.push_back({endurance, spares});
  sweep_table(io, hammer.size(), t2, [&](harness::PointContext& ctx) {
    const auto [endurance, spares] = hammer[ctx.index()];
    Machine mach(make_config(M, B, 8));
    FaultConfig fc;
    fc.seed = fault_seed;
    fc.endurance = endurance;
    fc.spare_blocks = spares;
    mach.install_faults(fc);
    ExtArray<std::uint64_t> a(mach, 4 * B, "hammer");
    a.unsafe_host_fill(std::vector<std::uint64_t>(4 * B, 0));
    std::vector<std::uint64_t> payload(B);
    std::uint64_t survived = 0;
    try {
      for (std::uint64_t round = 0;; ++round) {
        for (std::size_t i = 0; i < B; ++i) payload[i] = round * B + i;
        a.write_block(round % 4, std::span<const std::uint64_t>(payload));
        ++survived;
      }
    } catch (const SparesExhausted&) {
      // the device wore out — exactly the endpoint being measured
    }
    const FaultStats& fs = mach.faults()->stats();
    ctx.row({util::fmt(endurance), util::fmt(std::uint64_t(spares)),
             util::fmt(survived), util::fmt(fs.remaps),
             util::fmt(fs.retired_blocks), util::fmt(mach.cost())});
    ctx.metrics(mach, "R1 hammer e=" + std::to_string(endurance) +
                          " s=" + std::to_string(spares));
  });
  emit(t2,
       "Write-hammering until the spare pool is exhausted (4-block array, "
       "round-robin rewrites, omega=8):",
       io.csv);

  if (!ok) {
    std::cerr << "bench_r1_faults: FAILED (unverified output, broken "
                 "zero-overhead guarantee, or no fault fired)\n";
    return 1;
  }
  std::cout << "all outputs verified; zero-rate Q identical to no-policy Q\n";
  return 0;
}
catch (const std::exception& e) {
  // CLI/env parse errors (and any other unhandled failure) exit with a
  // one-line diagnostic instead of an uncaught-exception abort.
  std::cerr << "error: " << e.what() << "\n";
  return 2;
}
