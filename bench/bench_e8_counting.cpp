// E8 — Section 4.2's counting argument, evaluated exactly.
//
// Inequality (1) bounds the permutations a round-based program reaches per
// round; P(R) >= N!/B!^{N/B} forces a minimal round count R and hence cost
// >= (R-1) * omega * (m-1).  We compute R and the implied cost bound in
// log2 space across the parameter grid and compare with the paper's closed
// form min{N, omega n log_{omega m} n}: the two must agree to within a
// moderate, N-independent factor — which is exactly how the paper derives
// Theorem 4.5 from the counting bound.
//
// PASS criterion (hard guard, exit 1 on violation): sound = yes in every
// mechanized row.  The closed/exact band is reported, not checked.
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "bounds/counting.hpp"
#include "bounds/enumerate.hpp"
#include "bounds/permute_bounds.hpp"

namespace {

using namespace aem;
using namespace aem::bench;

struct Point {
  std::uint64_t N, M, B, w;
};

void run_case(const Point& pt, harness::PointContext& ctx) {
  const auto [N, M, B, w] = pt;
  // E8 is pure bound arithmetic — no I/O happens.  Emit the model machine
  // anyway so every bench's metrics log names its parameter grid.
  Machine model(make_config(M, B, w));
  ctx.metrics(model, "E8 N=" + std::to_string(N));
  bounds::AemParams p{.N = N, .M = M, .B = B, .omega = w};
  const double per_round = bounds::log2_perms_per_round(p);
  const double target = bounds::log2_target_permutations(p);
  const std::uint64_t R = bounds::min_rounds_counting(p);
  const double exact = bounds::counting_cost_bound_round_based(p);
  const double closed = bounds::permute_lower_bound(p);
  ctx.row({util::fmt(N), util::fmt(M), util::fmt(B), util::fmt(w),
           util::fmt(target, 0), util::fmt(per_round, 0), util::fmt(R),
           util::fmt(exact, 0), util::fmt(closed, 0),
           util::fmt_ratio(closed, exact, 2)});
}

void sweep_points(const BenchIo& io, const std::vector<Point>& grid,
                  util::Table& t) {
  sweep_table(io, grid.size(), t, [&](harness::PointContext& ctx) {
    run_case(grid[ctx.index()], ctx);
  });
}

}  // namespace

int main(int argc, char** argv) try {
  util::Cli cli(argc, argv);
  const BenchIo io = bench_io(cli, 8);

  banner("E8", "Section 4.2 counting bound: minimal rounds R from "
               "inequality (1) vs the closed form");
  std::vector<std::string> fails;  // one per mechanized row

  {
    util::Table t({"N", "M", "B", "omega", "lg(target)", "lg(per_round)",
                   "R_min", "exact_LB", "closed_LB", "closed/exact"});
    std::vector<Point> grid;
    for (std::uint64_t N = 1 << 14; N <= (1ull << 26); N <<= 2)
      grid.push_back({N, 1 << 9, 16, 4});
    sweep_points(io, grid, t);
    emit(t, "Scaling in N (M=512, B=16, omega=4):", io.csv);
  }

  {
    util::Table t({"N", "M", "B", "omega", "lg(target)", "lg(per_round)",
                   "R_min", "exact_LB", "closed_LB", "closed/exact"});
    std::vector<Point> grid;
    for (std::uint64_t w : {1, 4, 16, 64, 256})
      grid.push_back({1 << 20, 1 << 9, 16, w});
    sweep_points(io, grid, t);
    emit(t, "Scaling in omega (N=2^20):", io.csv);
  }

  {
    util::Table t({"N", "M", "B", "omega", "lg(target)", "lg(per_round)",
                   "R_min", "exact_LB", "closed_LB", "closed/exact"});
    std::vector<Point> grid;
    for (std::uint64_t M : {1 << 7, 1 << 9, 1 << 11, 1 << 13})
      grid.push_back({1 << 20, M, 16, 8});
    for (std::uint64_t B : {8, 16, 32, 64, 128})
      grid.push_back({1 << 20, 1 << 10, B, 8});
    // B = 1: the (M, omega)-ARAM special case of Blelloch et al.
    for (std::uint64_t w : {1, 8, 64}) grid.push_back({1 << 20, 1 << 10, 1, w});
    sweep_points(io, grid, t);
    emit(t, "Machine-shape sweep (N=2^20; the B=1 rows are the ARAM):",
         io.csv);
  }

  {
    // Ground truth at toy scale: exhaustively enumerate everything a
    // round-based program can do (bounds/enumerate.hpp) and compare the
    // TRUE minimal round count R* with the counting bound's R_min.  The
    // counting argument is sound iff R_min <= R* in every row.
    util::Table t({"N", "M", "B", "omega", "target_perms", "states",
                   "true_R*", "counting_R_min", "sound"});
    struct Toy {
      std::uint32_t N, M, B, omega, max_rounds;
    };
    const std::vector<Toy> toys = {Toy{4, 8, 2, 1, 8}, Toy{4, 8, 2, 2, 8},
                                   Toy{4, 2, 1, 1, 12}, Toy{4, 2, 1, 2, 12},
                                   Toy{5, 8, 2, 1, 8}, Toy{6, 8, 2, 1, 6}};
    fails.resize(toys.size());
    sweep_table(io, toys.size(), t, [&](harness::PointContext& ctx) {
      const Toy toy = toys[ctx.index()];
      bounds::EnumParams ep{.N = toy.N, .M = toy.M, .B = toy.B,
                            .omega = toy.omega, .locations = 0,
                            .max_rounds = toy.max_rounds};
      auto r = bounds::enumerate_reachable_permutations(ep);
      bounds::AemParams ap{.N = toy.N, .M = toy.M, .B = toy.B,
                           .omega = toy.omega};
      const std::uint64_t rmin = bounds::min_rounds_counting(ap);
      const bool complete = r.rounds_to_complete.has_value();
      const bool sound = !complete || rmin <= *r.rounds_to_complete;
      ctx.row({util::fmt(std::uint64_t(toy.N)), util::fmt(std::uint64_t(toy.M)),
               util::fmt(std::uint64_t(toy.B)),
               util::fmt(std::uint64_t(toy.omega)), util::fmt(r.target),
               util::fmt(r.states_explored),
               complete ? util::fmt(std::uint64_t(*r.rounds_to_complete))
                        : std::string(">max"),
               util::fmt(rmin), sound ? "yes" : "NO"});
      if (!sound)
        fails[ctx.index()] =
            "toy N=" + std::to_string(toy.N) + " M=" + std::to_string(toy.M) +
            " B=" + std::to_string(toy.B) +
            " omega=" + std::to_string(toy.omega) + ": counting R_min " +
            std::to_string(rmin) + " > true R* " +
            std::to_string(*r.rounds_to_complete);
    });
    emit(t, "Mechanized ground truth (exhaustive round-based program "
            "search at toy scale):", io.csv);
  }

  std::cout << "PASS criterion: closed/exact stays within a moderate band\n"
               "(N-independent), confirming the Section 4.2 derivation; and\n"
               "sound = yes in every mechanized row (the counting bound\n"
               "never exceeds the true optimum).\n";
  return report_fails("bench_e8_counting", fails);
}
catch (const std::exception& e) {
  // CLI/env parse errors (and any other unhandled failure) exit with a
  // one-line diagnostic instead of an uncaught-exception abort.
  std::cerr << "error: " << e.what() << "\n";
  return 2;
}
