// C1 — device-side block cache: how much Q a buffer pool absorbs, and when
// asymmetry-aware eviction (kCleanFirst) beats LRU.
//
// Sweeps eviction policy x omega x pool capacity over three workloads:
//
//  * sort             — the Section 3 AEM mergesort (streaming; the pool
//                       mostly coalesces the ping-pong traffic);
//  * scatter-random   — scatter_permute with a uniform random permutation:
//                       per-element read-modify-write of destination
//                       blocks, interleaved with a once-read input stream
//                       that pollutes the pool;
//  * scatter-cyclic   — scatter_permute with the matrix-transpose
//                       permutation: destination blocks are reused
//                       cyclically, so LRU falls off a cliff when the
//                       reuse distance (cyclic set + stream pollution)
//                       just exceeds capacity while clean-first reclaims
//                       the polluting stream blocks and keeps hitting.
//
// Every (workload, policy, omega, capacity) cell measures on its own
// machine, so the cells run through the harness into slots; the guards
// below compare ACROSS cells (cached vs uncached output, clean-first vs
// LRU) and run serially on the slots afterwards.  All cells share one
// staged input — the comparisons need like against like — so the input is
// generated once, before the sweep, from the base seed.
//
// PASS criteria (hard guards, exit 1 on violation):
//  * every cached run's output is identical to the uncached run's — the
//    pool may only change Q, never results;
//  * some cached run absorbs both read hits and write hits;
//  * at omega = 1 clean-first degenerates to exact LRU (equal Q);
//  * at omega >= 16 clean-first is never above LRU on the scatter
//    workloads, and strictly below it on both.
#include <iostream>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "bench_common.hpp"
#include "permute/permutation.hpp"
#include "permute/scatter.hpp"
#include "sort/mergesort.hpp"

namespace {

using namespace aem;
using namespace aem::bench;

enum class Workload { kSort, kScatterRandom, kScatterCyclic };

const char* name_of(Workload w) {
  switch (w) {
    case Workload::kSort: return "sort";
    case Workload::kScatterRandom: return "scatter-random";
    case Workload::kScatterCyclic: return "scatter-cyclic";
  }
  return "?";
}

struct CaseResult {
  std::uint64_t q = 0;
  IoStats io;
  CacheStats cache;
  std::vector<std::uint64_t> output;  // for the invariance guard
};

struct Grid {
  std::size_t N, M, B;
  std::vector<std::uint64_t> keys;
  perm::Perm dest_random;
  perm::Perm dest_cyclic;
};

/// One measurement cell.  capacity 0 = the uncached baseline.
struct Cell {
  Workload w;
  CachePolicy policy;
  std::size_t cap;
  std::uint64_t omega;
};

/// Runs one cell.  The measured protocol is the documented one: stage,
/// reset_stats, run, flush_cache, read Q.
CaseResult run_case(const Grid& g, const Cell& c,
                    harness::PointContext& ctx) {
  Config cfg = make_config(g.M, g.B, c.omega);
  cfg.cache.capacity_blocks = c.cap;
  cfg.cache.policy = c.policy;
  Machine mach(cfg);

  ExtArray<std::uint64_t> in(mach, g.N, "in");
  in.unsafe_host_fill(g.keys);
  ExtArray<std::uint64_t> out(mach, g.N, "out");

  mach.reset_stats();
  switch (c.w) {
    case Workload::kSort:
      aem_merge_sort(in, out);
      break;
    case Workload::kScatterRandom:
      scatter_permute(in, std::span<const std::uint64_t>(g.dest_random), out);
      break;
    case Workload::kScatterCyclic:
      scatter_permute(in, std::span<const std::uint64_t>(g.dest_cyclic), out);
      break;
  }
  mach.flush_cache();

  CaseResult r;
  r.q = mach.cost();
  r.io = mach.stats();
  if (const BlockCache* bc = mach.cache()) r.cache = bc->stats();
  r.output = out.unsafe_host_view();
  ctx.metrics(mach, std::string("C1 ") + name_of(c.w) + " policy=" +
                        (c.cap == 0 ? "off" : to_string(c.policy)) +
                        " omega=" + std::to_string(c.omega) +
                        " cap=" + std::to_string(c.cap));
  return r;
}

}  // namespace

int main(int argc, char** argv) try {
  util::Cli cli(argc, argv);
  const BenchIo io = bench_io(cli, 11);
  util::Rng rng(io.seed);

  banner("C1",
         "write-back block cache: Q absorbed by policy x omega x capacity; "
         "clean-first (asymmetry-aware) vs LRU/CLOCK");

  Grid g;
  g.N = io.full ? (1u << 16) : (1u << 14);
  g.M = 1024;
  g.B = 16;
  g.keys = util::random_keys(g.N, rng);
  g.dest_random = perm::random(g.N, rng);
  // rows x cols with cols destination blocks reused once per row sweep:
  // the reuse distance is cols out-blocks + cols/B polluting in-blocks.
  const std::size_t rows = 128, cols = g.N / rows;
  g.dest_cyclic = perm::transpose(rows, cols);

  const std::uint64_t omegas[] = {1, 16, 64};
  // For each workload, capacities bracketing its interesting region.  The
  // cyclic workload's middle value is the LRU thrash cliff: one row sweep
  // touches cols destination blocks plus cols/B polluting stream blocks,
  // so LRU needs cols + cols/B frames to start hitting while clean-first
  // (which reclaims the stream blocks) needs only ~cols.
  const std::map<Workload, std::vector<std::size_t>> caps = {
      {Workload::kSort, {64, 256}},
      {Workload::kScatterRandom, {128, 256, 512}},
      {Workload::kScatterCyclic, {64, cols + 4, cols + 64}},
  };
  const CachePolicy policies[] = {CachePolicy::kLru, CachePolicy::kClock,
                                  CachePolicy::kCleanFirst};

  // The flat cell grid, in the (workload, omega, baseline-then-caps x
  // policies) order the tables and metrics log print in.
  std::vector<Cell> cells;
  for (Workload w :
       {Workload::kSort, Workload::kScatterRandom, Workload::kScatterCyclic}) {
    for (std::uint64_t omega : omegas) {
      cells.push_back({w, CachePolicy::kLru, 0, omega});
      for (std::size_t cap : caps.at(w))
        for (CachePolicy p : policies) cells.push_back({w, p, cap, omega});
    }
  }
  std::vector<CaseResult> slots(cells.size());
  replay(harness::run_sweep(cells.size(), io.sweep,
                            [&](harness::PointContext& ctx) {
                              slots[ctx.index()] =
                                  run_case(g, cells[ctx.index()], ctx);
                            }),
         nullptr, io.metrics);

  // results[(workload, omega, cap)][policy] = Q.
  std::map<std::tuple<int, std::uint64_t, std::size_t>,
           std::map<CachePolicy, std::uint64_t>> q_of;
  bool ok = true;

  bool absorbed = false;  // some pool took both read hits and write hits
  std::size_t idx = 0;
  for (Workload w :
       {Workload::kSort, Workload::kScatterRandom, Workload::kScatterCyclic}) {
    util::Table t({"workload", "policy", "omega", "capacity", "Q", "Q/off",
                   "reads", "writes", "read_hits", "write_hits",
                   "write_backs"});
    for (std::uint64_t omega : omegas) {
      const CaseResult& base = slots[idx++];
      t.add_row({name_of(w), "off", util::fmt(omega), "0", util::fmt(base.q),
                 "1.00", util::fmt(base.io.reads), util::fmt(base.io.writes),
                 "-", "-", "-"});
      for (std::size_t cap : caps.at(w)) {
        for (CachePolicy p : policies) {
          const CaseResult& r = slots[idx++];
          q_of[{static_cast<int>(w), omega, cap}][p] = r.q;
          absorbed |= r.cache.read_hits > 0 && r.cache.write_hits > 0;
          if (r.output != base.output) {
            std::cerr << "FAIL: " << name_of(w) << " policy=" << to_string(p)
                      << " omega=" << omega << " cap=" << cap
                      << ": cached output differs from uncached output\n";
            ok = false;
          }
          t.add_row({name_of(w), to_string(p), util::fmt(omega),
                     util::fmt(std::uint64_t(cap)), util::fmt(r.q),
                     util::fmt_ratio(double(r.q), double(base.q), 2),
                     util::fmt(r.io.reads), util::fmt(r.io.writes),
                     util::fmt(r.cache.read_hits),
                     util::fmt(r.cache.write_hits),
                     util::fmt(r.cache.write_backs)});
        }
      }
    }
    emit(t, std::string("C1 ") + name_of(w) + ": Q by policy/omega/capacity:",
         io.csv);
  }

  if (!absorbed) {
    std::cerr << "FAIL: no cached run absorbed both read hits and write "
                 "hits\n";
    ok = false;
  }
  if (ok)
    std::cout << "output-invariance guard: every cached run produced the "
                 "uncached run's output\n";

  // Guard: at omega = 1 the auto clean-first window is 0, so the policy IS
  // exact LRU — Q must be equal, not merely close.
  for (const auto& [key, qs] : q_of) {
    const auto& [w, omega, cap] = key;
    if (omega != 1) continue;
    if (qs.at(CachePolicy::kCleanFirst) != qs.at(CachePolicy::kLru)) {
      std::cerr << "FAIL: " << name_of(static_cast<Workload>(w)) << " cap="
                << cap << ": clean-first Q " << qs.at(CachePolicy::kCleanFirst)
                << " != LRU Q " << qs.at(CachePolicy::kLru)
                << " at omega=1 (must degenerate to exact LRU)\n";
      ok = false;
    }
  }

  // Guard: at omega >= 16, clean-first never loses to LRU on the scatter
  // workloads (their streamed input blocks are pure pollution a clean-first
  // victim scan reclaims for free) and is strictly below it on BOTH.
  for (Workload w : {Workload::kScatterRandom, Workload::kScatterCyclic}) {
    for (std::uint64_t omega : omegas) {
      if (omega < 16) continue;
      bool strict = false;
      for (std::size_t cap : caps.at(w)) {
        const auto& qs = q_of.at({static_cast<int>(w), omega, cap});
        const std::uint64_t cf = qs.at(CachePolicy::kCleanFirst);
        const std::uint64_t lru = qs.at(CachePolicy::kLru);
        if (cf > lru) {
          std::cerr << "FAIL: " << name_of(w) << " omega=" << omega
                    << " cap=" << cap << ": clean-first Q " << cf
                    << " above LRU Q " << lru << "\n";
          ok = false;
        }
        strict |= (cf < lru);
      }
      if (!strict) {
        std::cerr << "FAIL: " << name_of(w) << " omega=" << omega
                  << ": clean-first never strictly below LRU at any "
                     "capacity\n";
        ok = false;
      }
    }
  }

  if (ok)
    std::cout << "asymmetry guard: clean-first == LRU at omega=1, <= LRU "
                 "(strictly < at both scatter workloads) at omega >= 16\n";
  std::cout << "\nPASS criteria: output invariance; omega=1 LRU "
               "degeneration; omega>=16 clean-first wins on scatters.\n";
  return ok ? 0 : 1;
}
catch (const std::exception& e) {
  // CLI/env parse errors (and any other unhandled failure) exit with a
  // one-line diagnostic instead of an uncaught-exception abort.
  std::cerr << "error: " << e.what() << "\n";
  return 2;
}
