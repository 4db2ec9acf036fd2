// Sparse matrix-vector products over three semirings on an asymmetric
// memory (Section 5 of the paper).
//
//   ./spmv_semiring [--n=4096] [--delta=4] [--omega=8]
//
// The same delta-regular conformation is multiplied
//   * over (+, *)    — numerical SpMxV,
//   * over (min, +)  — one relaxation round of shortest paths,
//   * over (or, and) — one frontier step of reachability,
// each with both Section 5 programs (direct gather vs sort-by-row), and the
// dispatcher's choice is compared with the measured winner and the
// Theorem 5.1 lower bound.
#include <iostream>

#include "bounds/spmv_bounds.hpp"
#include "core/ext_array.hpp"
#include "core/machine.hpp"
#include "spmv/dispatch.hpp"
#include "spmv/matrix.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace {

using namespace aem;
using namespace aem::spmv;

Config make_cfg(std::uint64_t omega) {
  Config cfg;
  cfg.memory_elems = 256;
  cfg.block_elems = 16;
  cfg.write_cost = omega;
  return cfg;
}

template <Semiring S>
void study(const char* name, const Conformation& conf, S s,
           std::uint64_t omega, util::Table& t, util::Rng& rng) {
  using V = typename S::Value;
  const std::uint64_t N = conf.n();

  auto make_x = [&](Machine& mach) {
    std::vector<V> xs(N);
    for (auto& v : xs) v = static_cast<V>(1 + rng.below(3));
    ExtArray<V> x(mach, N, "x");
    x.unsafe_host_fill(xs);
    return x;
  };

  std::uint64_t naive_cost, sort_cost;
  {
    Machine mach(make_cfg(omega));
    SparseMatrix<V> A(mach, conf, [&](Coord) { return s.one(); });
    auto x = make_x(mach);
    ExtArray<V> y(mach, N, "y");
    mach.reset_stats();
    naive_spmv(A, x, y, s);
    naive_cost = mach.cost();
  }
  {
    Machine mach(make_cfg(omega));
    SparseMatrix<V> A(mach, conf, [&](Coord) { return s.one(); });
    auto x = make_x(mach);
    ExtArray<V> y(mach, N, "y");
    mach.reset_stats();
    sort_spmv(A, x, y, s);
    sort_cost = mach.cost();
  }
  Machine chooser(make_cfg(omega));
  const SpmvStrategy picked =
      choose_spmv_strategy(chooser, N, conf.delta());
  bounds::SpmvParams p{.N = N, .delta = conf.delta(), .M = 256, .B = 16,
                       .omega = omega};
  t.add_row({name, util::fmt(omega), util::fmt(naive_cost),
             util::fmt(sort_cost),
             sort_cost < naive_cost ? "sort" : "naive", to_string(picked),
             util::fmt(bounds::spmv_lower_bound_total(p), 0)});
}

}  // namespace

int main(int argc, char** argv) try {
  util::Cli cli(argc, argv);
  const std::uint64_t N = cli.u64("n", 4096);
  const std::uint64_t delta = cli.u64("delta", 4);
  cli.reject_unknown_flags();

  std::cout << "SpMxV on a delta-regular " << N << "x" << N << " matrix ("
            << delta << " non-zeros per column, column-major layout)\n\n";

  util::Rng rng(19);
  auto conf = Conformation::delta_regular(N, delta, rng);

  util::Table t({"semiring", "omega", "naive_Q", "sort_Q", "winner",
                 "dispatcher", "Thm5.1_LB"});
  for (std::uint64_t omega : {1, 8, 64, 512}) {
    study("(+, *)", conf, PlusTimes{}, omega, t, rng);
    study("(min, +)", conf, MinPlus{}, omega, t, rng);
    study("(or, and)", conf, BoolOr{}, omega, t, rng);
  }
  t.print(std::cout);

  std::cout
      << "\nReading: the winner depends only on the machine (omega), not on\n"
         "the semiring — Theorem 5.1 is a statement about data movement.\n"
         "The sorting-based program wins while omega is moderate; the\n"
         "direct gather takes over once writes dominate everything.\n";
  return 0;
}
catch (const std::exception& e) {
  // CLI/env parse errors (and any other unhandled failure) exit with a
  // one-line diagnostic instead of an uncaught-exception abort.
  std::cerr << "error: " << e.what() << "\n";
  return 2;
}
