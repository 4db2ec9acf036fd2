// E4 — Theorem 4.5: permuting N elements costs
// Omega(min{N, omega n log_{omega m} n}), and the two upper-bound programs
// (naive gather; tag-sort-strip) match it to within constants.
//
// For each parameter point we run BOTH programs plus the dispatcher and
// report measured cost against the lower bound: the tightness column
// best/LB is the empirical gap between the paper's upper and lower bounds.
#include <algorithm>
#include <iostream>
#include <vector>

#include "bench_common.hpp"
#include "bounds/permute_bounds.hpp"
#include "permute/dispatch.hpp"
#include "permute/permutation.hpp"

namespace {

using namespace aem;
using namespace aem::bench;

struct Point {
  std::size_t N, M, B;
  std::uint64_t w;
};

void run_case(const Point& pt, harness::PointContext& ctx, std::string& fail) {
  const auto [N, M, B, w] = pt;
  const std::string tag = " N=" + std::to_string(N) + " M=" + std::to_string(M) +
                          " B=" + std::to_string(B) + " omega=" + std::to_string(w);
  auto keys = util::random_keys(N, ctx.rng());
  auto dest = perm::random(N, ctx.rng());

  std::uint64_t naive_cost, sort_cost;
  {
    Machine mach(make_config(M, B, w));
    ExtArray<std::uint64_t> in(mach, N, "in");
    in.unsafe_host_fill(keys);
    ExtArray<std::uint64_t> out(mach, N, "out");
    mach.reset_stats();
    naive_permute(in, std::span<const std::uint64_t>(dest), out);
    naive_cost = mach.cost();
    ctx.metrics(mach, "E4 naive" + tag);
  }
  {
    Machine mach(make_config(M, B, w));
    ExtArray<std::uint64_t> in(mach, N, "in");
    in.unsafe_host_fill(keys);
    ExtArray<std::uint64_t> out(mach, N, "out");
    mach.reset_stats();
    sort_permute(in, std::span<const std::uint64_t>(dest), out);
    sort_cost = mach.cost();
    ctx.metrics(mach, "E4 sort" + tag);
  }
  Machine chooser(make_config(M, B, w));
  const PermuteStrategy picked = choose_permute_strategy(chooser, N);

  bounds::AemParams p{.N = N, .M = M, .B = B, .omega = w};
  // Theorem 4.5's bound plus the trivial "write the output" bound omega*n
  // (which dominates once omega > B and the min picks the N branch).
  const double lb = bounds::permute_lower_bound_total(p);
  const std::uint64_t best = std::min(naive_cost, sort_cost);
  ctx.row({util::fmt(std::uint64_t(N)), util::fmt(std::uint64_t(M)),
           util::fmt(std::uint64_t(B)), util::fmt(w),
           util::fmt(naive_cost), util::fmt(sort_cost), util::fmt(lb, 0),
           util::fmt_ratio(double(best), lb, 2), to_string(picked),
           bounds::permute_bound_applicable(p) ? "yes" : "no"});
  if (!(double(best) >= lb))
    fail = "E4" + tag + ": min(naive, sort) = " + util::fmt(best) +
           " < lower_bound " + util::fmt(lb, 0);
}

}  // namespace

int main(int argc, char** argv) try {
  util::Cli cli(argc, argv);
  const BenchIo io = bench_io(cli, 4);

  banner("E4",
         "Theorem 4.5: permutation cost >= min{N, omega n log_{omega m} n}; "
         "upper bounds match within constants");

  std::vector<std::string> fails;  // one per row, in table order
  {
    util::Table t({"N", "M", "B", "omega", "naive", "sort", "lower_bound",
                   "best/LB", "dispatcher", "thm_applies"});
    std::vector<Point> grid;
    const std::size_t n_max = io.full ? (1u << 18) : (1u << 16);
    for (std::size_t N = 1 << 12; N <= n_max; N <<= 1)
      grid.push_back({N, 256, 16, 8});
    fails.resize(grid.size());
    sweep_table(io, grid.size(), t, [&](harness::PointContext& ctx) {
      run_case(grid[ctx.index()], ctx, fails[ctx.index()]);
    });
    emit(t, "Scaling in N (M=256, B=16, omega=8):", io.csv);
  }

  {
    util::Table t({"N", "M", "B", "omega", "naive", "sort", "lower_bound",
                   "best/LB", "dispatcher", "thm_applies"});
    std::vector<Point> grid;
    for (std::uint64_t w : {1, 4, 16, 64, 256, 1024})
      grid.push_back({1 << 14, 128, 8, w});
    const std::size_t first = fails.size();
    fails.resize(first + grid.size());
    sweep_table(io, grid.size(), t, [&](harness::PointContext& ctx) {
      run_case(grid[ctx.index()], ctx, fails[first + ctx.index()]);
    });
    emit(t, "Scaling in omega (N=2^14, M=128, B=8):", io.csv);
  }

  std::cout << "PASS criterion: best/LB bounded (tightness); every row has\n"
               "measured cost >= the lower bound (soundness).\n";
  return report_fails("bench_e4_permute_bound", fails);
}
catch (const std::exception& e) {
  // CLI/env parse errors (and any other unhandled failure) exit with a
  // one-line diagnostic instead of an uncaught-exception abort.
  std::cerr << "error: " << e.what() << "\n";
  return 2;
}
