// E1 — Theorem 3.2: merging d = omega*m sorted runs of N total elements
// costs O(omega(n+m)) reads and O(n+m) writes, with no omega/B assumption.
//
// For each machine in the grid we build d sorted runs, merge them, and
// report measured reads/writes against the bound's closed form; the
// read/bound and write/bound columns must stay bounded (flat in N) for the
// theorem to hold, and must stay flat as omega crosses B (the paper's
// improvement over the omega < B mergesort of Blelloch et al.).  Writes
// are checked exactly: every row must charge 2*ceil(N/B) + ceil(d/B) of
// them (Section 3.1's output, pointer-update and pointer-init writes), or
// the bench prints a FAIL: line and exits 1.
#include <algorithm>
#include <iostream>
#include <vector>

#include "bench_common.hpp"
#include "bounds/sort_bounds.hpp"
#include "sort/budget.hpp"
#include "sort/merge.hpp"

namespace {

using namespace aem;
using namespace aem::bench;

struct Row {
  std::size_t N, M, B;
  std::uint64_t omega;
};

/// Merges one row's runs and adds its table row; `fail` gets a verdict when
/// the writes break Section 3.1's identity: every output block is written
/// once, every consumed block's b[i] is read-modified-written once, and the
/// d pointers are initialized once, so writes = 2*ceil(N/B) + ceil(d/B).
void run_case(const Row& r, harness::PointContext& ctx, std::string& fail) {
  Machine mach(make_config(r.M, r.B, r.omega));
  const SortBudget budget = SortBudget::from(mach);

  // d = fanout sorted runs covering N elements (block-aligned lengths).
  const std::size_t run_len =
      std::max<std::size_t>(r.B, (r.N / budget.fanout / r.B) * r.B);
  std::vector<std::uint64_t> host;
  std::vector<RunBounds> runs;
  while (host.size() + run_len <= r.N) {
    auto keys = util::random_keys(run_len, ctx.rng());
    std::sort(keys.begin(), keys.end());
    runs.push_back(RunBounds{host.size(), host.size() + run_len});
    host.insert(host.end(), keys.begin(), keys.end());
  }
  ExtArray<std::uint64_t> in(mach, host.size(), "runs");
  in.unsafe_host_fill(host);
  ExtArray<std::uint64_t> out(mach, host.size(), "out");

  mach.reset_stats();
  merge_runs(in, std::span<const RunBounds>(runs), out, 0,
             std::less<std::uint64_t>{});

  ctx.metrics(mach, "E1 N=" + std::to_string(host.size()) +
                        " M=" + std::to_string(r.M) +
                        " B=" + std::to_string(r.B) +
                        " omega=" + std::to_string(r.omega));

  bounds::AemParams p{.N = host.size(), .M = r.M, .B = r.B, .omega = r.omega};
  const double read_bound = bounds::aem_merge_read_bound(p);
  const double write_bound = bounds::aem_merge_write_bound(p);
  ctx.row({util::fmt(std::uint64_t(host.size())), util::fmt(std::uint64_t(r.M)),
           util::fmt(std::uint64_t(r.B)), util::fmt(r.omega),
           util::fmt(std::uint64_t(runs.size())),
           util::fmt(mach.stats().reads), util::fmt(mach.stats().writes),
           util::fmt_ratio(double(mach.stats().reads), read_bound),
           util::fmt_ratio(double(mach.stats().writes), write_bound)});
  const std::uint64_t want = 2 * util::ceil_div(host.size(), r.B) +
                             util::ceil_div(runs.size(), r.B);
  if (mach.stats().writes != want)
    fail = "E1 N=" + std::to_string(host.size()) + " M=" +
           std::to_string(r.M) + " B=" + std::to_string(r.B) + " omega=" +
           std::to_string(r.omega) + ": writes " +
           std::to_string(mach.stats().writes) + " != 2*ceil(N/B) + " +
           "ceil(runs/B) = " + std::to_string(want);
}

}  // namespace

int main(int argc, char** argv) try {
  util::Cli cli(argc, argv);
  const BenchIo io = bench_io(cli, 1);

  banner("E1",
         "Theorem 3.2: d-way merge costs O(omega(n+m)) reads, O(n+m) writes");
  std::vector<std::string> fails;  // one per row, in table order
  // One merge table; its rows' verdicts take the next grid.size() slots.
  const auto merge_table = [&](const std::vector<Row>& grid,
                               const std::string& title) {
    util::Table t({"N", "M", "B", "omega", "runs", "reads", "writes",
                   "reads/bound", "writes/bound"});
    const std::size_t first = fails.size();
    fails.resize(first + grid.size());
    sweep_table(io, grid.size(), t, [&](harness::PointContext& ctx) {
      run_case(grid[ctx.index()], ctx, fails[first + ctx.index()]);
    });
    emit(t, title, io.csv);
  };

  {
    std::vector<Row> grid;
    const std::size_t n_max = io.full ? (1u << 19) : (1u << 17);
    for (std::size_t N = 1 << 14; N <= n_max; N <<= 1)
      for (std::uint64_t w : {1, 4, 16, 64}) grid.push_back({N, 256, 16, w});
    merge_table(grid, "Scaling in N and omega (M=256, B=16):");
  }

  {
    std::vector<Row> grid;
    for (std::uint64_t w : {1, 2, 8, 16, 32, 64, 128, 256})
      grid.push_back({1 << 16, 128, 16, w});
    merge_table(grid,
                "Crossing omega = B = 16 (the regime the paper's merge newly "
                "covers):");
  }

  {
    std::vector<Row> grid;
    for (std::size_t M : {128, 256, 512, 1024})
      for (std::size_t B : {8, 16}) grid.push_back({1 << 16, M, B, 16});
    merge_table(grid, "Machine-shape sweep (N=2^16, omega=16):");
  }

  {
    // Lemma 3.1, empirically: across machines, the maximum number of
    // simultaneously active runs observed in any round vs the bound m_eff.
    util::Table t({"M", "B", "omega", "runs", "rounds", "max_active",
                   "m_eff_bound"});
    struct Point {
      std::size_t M;
      std::uint64_t w;
    };
    std::vector<Point> grid;
    for (std::size_t M : {128, 256, 1024})
      for (std::uint64_t w : {1, 8, 64}) grid.push_back({M, w});
    const std::size_t first = fails.size();
    fails.resize(first + grid.size());
    sweep_table(io, grid.size(), t, [&](harness::PointContext& ctx) {
      const auto [M, w] = grid[ctx.index()];
      const std::size_t B = 16, N = 1 << 16;
      Machine mach(make_config(M, B, w));
      const SortBudget budget = SortBudget::from(mach);
      // Few LONG runs: the merge loop must extend runs well past the
      // initialization blocks, so the active set is genuinely exercised
      // (with many short runs nothing survives initialization).
      const std::size_t run_count =
          std::min<std::size_t>(budget.fanout, 2 * budget.m_eff);
      const std::size_t run_len = (N / run_count / B) * B;
      std::vector<std::uint64_t> host;
      std::vector<RunBounds> runs;
      while (host.size() + run_len <= N) {
        auto keys = util::random_keys(run_len, ctx.rng());
        std::sort(keys.begin(), keys.end());
        runs.push_back(RunBounds{host.size(), host.size() + run_len});
        host.insert(host.end(), keys.begin(), keys.end());
      }
      ExtArray<std::uint64_t> in(mach, host.size(), "runs");
      in.unsafe_host_fill(host);
      ExtArray<std::uint64_t> out(mach, host.size(), "out");
      MergeStats stats;
      merge_runs(in, std::span<const RunBounds>(runs), out, 0,
                 std::less<std::uint64_t>{}, std::nullptr_t{}, &stats);
      ctx.row({util::fmt(std::uint64_t(M)), util::fmt(std::uint64_t(B)),
               util::fmt(w), util::fmt(std::uint64_t(runs.size())),
               util::fmt(std::uint64_t(stats.rounds)),
               util::fmt(std::uint64_t(stats.max_active_runs)),
               util::fmt(std::uint64_t(budget.m_eff))});
      if (stats.max_active_runs > budget.m_eff)
        fails[first + ctx.index()] =
            "E1 Lemma 3.1 M=" + std::to_string(M) + " omega=" +
            std::to_string(w) + ": max_active " +
            std::to_string(stats.max_active_runs) + " > m_eff_bound " +
            std::to_string(budget.m_eff);
    });
    emit(t, "Lemma 3.1 witnessed: active runs per round never exceed "
            "m_eff = Mout/B:", io.csv);
  }

  std::cout << "PASS criterion: ratio columns bounded by a small constant,\n"
               "flat in N, and flat across omega = B; max_active <= m_eff\n"
               "in every Lemma 3.1 row.\n";
  return report_fails("bench_e1_merge", fails);
}
catch (const std::exception& e) {
  // CLI/env parse errors (and any other unhandled failure) exit with a
  // one-line diagnostic instead of an uncaught-exception abort.
  std::cerr << "error: " << e.what() << "\n";
  return 2;
}
