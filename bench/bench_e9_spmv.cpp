// E9 — Section 5: SpMxV in column-major layout.
//
// Upper bounds: direct program O(H + omega n) vs sorting-based program
// O(omega h log_{omega m}(N/max{delta,B}) + omega n); Theorem 5.1's lower
// bound min{H, omega h log_{omega m}(N/max{delta,B})}.  We sweep delta and
// omega on delta-regular hard instances (all-ones vector, counting
// semiring — exactly the Theorem 5.1 setting), report both programs'
// measured costs against the bound, and locate the crossover.
#include <algorithm>
#include <iostream>
#include <vector>

#include "bench_common.hpp"
#include "bounds/spmv_bounds.hpp"
#include "spmv/dispatch.hpp"
#include "spmv/matrix.hpp"
#include "spmv/naive.hpp"
#include "spmv/sort_spmv.hpp"

namespace {

using namespace aem;
using namespace aem::bench;
using namespace aem::spmv;

struct Point {
  std::uint64_t N, delta;
  std::size_t M, B;
  std::uint64_t w;
};

struct Costs {
  std::uint64_t naive, sorted;
};

Costs run_both(const Point& pt, harness::PointContext& ctx) {
  const auto [N, delta, M, B, w] = pt;
  const std::string tag = " N=" + std::to_string(N) +
                          " delta=" + std::to_string(delta) +
                          " omega=" + std::to_string(w);
  auto conf = Conformation::delta_regular(N, delta, ctx.rng());
  Costs c{};
  // The Theorem 5.1 setting exactly: the all-ones vector is implicit
  // (row sums) — no x reads for either program.
  {
    Machine mach(make_config(M, B, w));
    SparseMatrix<std::uint64_t> A(mach, conf, [](Coord) { return 1ull; });
    ExtArray<std::uint64_t> y(mach, N, "y");
    mach.reset_stats();
    naive_row_sums(A, y, Counting{});
    c.naive = mach.cost();
    ctx.metrics(mach, "E9 naive" + tag);
  }
  {
    Machine mach(make_config(M, B, w));
    SparseMatrix<std::uint64_t> A(mach, conf, [](Coord) { return 1ull; });
    ExtArray<std::uint64_t> y(mach, N, "y");
    mach.reset_stats();
    sort_row_sums(A, y, Counting{});
    c.sorted = mach.cost();
    ctx.metrics(mach, "E9 sort" + tag);
  }
  return c;
}

void run_case(const Point& pt, harness::PointContext& ctx, std::string& fail) {
  Costs c = run_both(pt, ctx);
  bounds::SpmvParams p{.N = pt.N, .delta = pt.delta, .M = pt.M, .B = pt.B,
                       .omega = pt.w};
  // Theorem 5.1 plus the trivial "write the output vector" bound omega*n.
  const double lb = bounds::spmv_lower_bound_total(p);
  const std::uint64_t best = std::min(c.naive, c.sorted);
  ctx.row({util::fmt(pt.N), util::fmt(pt.delta), util::fmt(pt.w),
           util::fmt(c.naive), util::fmt(c.sorted),
           c.sorted < c.naive ? "sort" : "naive", util::fmt(lb, 0),
           util::fmt_ratio(double(best), lb, 2),
           bounds::spmv_bound_applicable(p) ? "yes" : "no"});
  if (!(double(best) >= lb))
    fail = "E9 N=" + std::to_string(pt.N) + " delta=" +
           std::to_string(pt.delta) + " omega=" + std::to_string(pt.w) +
           ": min(naive, sort) = " + util::fmt(best) + " < Thm5.1_LB " +
           util::fmt(lb, 0);
}

/// Sweeps `grid` into `t`, appending one verdict per row to `fails`.
void sweep_points(const BenchIo& io, const std::vector<Point>& grid,
                  util::Table& t, std::vector<std::string>& fails) {
  const std::size_t first = fails.size();
  fails.resize(first + grid.size());
  sweep_table(io, grid.size(), t, [&](harness::PointContext& ctx) {
    run_case(grid[ctx.index()], ctx, fails[first + ctx.index()]);
  });
}

}  // namespace

int main(int argc, char** argv) try {
  util::Cli cli(argc, argv);
  const BenchIo io = bench_io(cli, 9);

  banner("E9", "Section 5: SpMxV naive O(H + omega n) vs sorting-based "
               "O(omega h log_{omega m}(N/max{delta,B}) + omega n) vs "
               "Theorem 5.1");

  std::vector<std::string> fails;  // one per row, in table order
  {
    util::Table t({"N", "delta", "omega", "naive", "sort", "winner",
                   "Thm5.1_LB", "best/LB", "thm_applies"});
    const std::uint64_t N = io.full ? (1 << 15) : (1 << 13);
    std::vector<Point> grid;
    for (std::uint64_t delta : {1, 2, 4, 8, 16, 32})
      grid.push_back({N, delta, 256, 16, 4});
    sweep_points(io, grid, t, fails);
    emit(t, "Sweep delta (M=256, B=16, omega=4):", io.csv);
  }

  {
    // Large blocks make element-granular gathering expensive (each of the
    // H scattered entries costs a whole-block read), so the sorting-based
    // program wins at small omega; the min{} flips as omega grows.
    util::Table t({"N", "delta", "omega", "naive", "sort", "winner",
                   "Thm5.1_LB", "best/LB", "thm_applies"});
    std::vector<Point> grid;
    for (std::uint64_t w : {1, 2, 4, 8, 16, 64, 256})
      grid.push_back({1 << 13, 4, 1024, 64, w});
    sweep_points(io, grid, t, fails);
    emit(t, "Sweep omega (N=2^13, delta=4, B=64): naive takes over as "
            "writes dominate:", io.csv);
  }

  {
    util::Table t({"N", "delta", "omega", "naive", "sort", "winner",
                   "Thm5.1_LB", "best/LB", "thm_applies"});
    std::vector<Point> grid;
    const std::uint64_t n_max = io.full ? (1 << 16) : (1 << 14);
    for (std::uint64_t N = 1 << 11; N <= n_max; N <<= 1)
      grid.push_back({N, 4, 256, 16, 4});
    sweep_points(io, grid, t, fails);
    emit(t, "Scaling in N (delta=4, omega=4):", io.csv);
  }

  std::cout << "PASS criterion: best/LB bounded; winner flips from sort to\n"
               "naive as omega grows; every measured cost >= the bound.\n";
  return report_fails("bench_e9_spmv", fails);
}
catch (const std::exception& e) {
  // CLI/env parse errors (and any other unhandled failure) exit with a
  // one-line diagnostic instead of an uncaught-exception abort.
  std::cerr << "error: " << e.what() << "\n";
  return 2;
}
