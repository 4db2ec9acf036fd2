// E7 — Lemma 4.3 / Corollary 4.4: a round-based AEM permutation program of
// cost Q yields a flash-model program of I/O volume <= 2N + 2QB/omega.
//
// We record both permutation programs with full atom tracking, replay them
// through the unit-cost flash model, and report measured volume against the
// lemma's bound, plus the classical flash permuting lower bound
// (Corollary 4.4's other ingredient).
//
// PASS criteria (hard guards, exit 1 on violation): in every row
// vol/bound <= 1, destroyed = 0 and flash_volume >= flash_LB.
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "bounds/permute_bounds.hpp"
#include "flash/simulate.hpp"
#include "permute/naive.hpp"
#include "permute/permutation.hpp"
#include "permute/sort_permute.hpp"

namespace {

using namespace aem;
using namespace aem::bench;

struct Point {
  bool use_sort;
  std::size_t N, M, B;
  std::uint64_t w;
};

/// Runs one point; sets `fail` to a diagnostic if its row breaks a PASS
/// criterion.
void run_case(const Point& pt, harness::PointContext& ctx, std::string& fail) {
  const auto [use_sort, N, M, B, w] = pt;
  Machine mach(make_config(M, B, w));
  auto atoms = util::distinct_keys(N, ctx.rng());
  auto dest = perm::random(N, ctx.rng());
  ExtArray<std::uint64_t> in(mach, N, "in");
  in.unsafe_host_fill(atoms);
  in.set_atom_extractor([](const std::uint64_t& v) { return v; });
  ExtArray<std::uint64_t> out(mach, N, "out");
  out.set_atom_extractor([](const std::uint64_t& v) { return v; });
  mach.enable_trace();
  if (use_sort) {
    sort_permute(in, std::span<const std::uint64_t>(dest), out);
  } else {
    naive_permute(in, std::span<const std::uint64_t>(dest), out);
  }
  auto trace = mach.take_trace();
  const std::string label = std::string("E7 ") +
                            (use_sort ? "sort" : "naive") +
                            " N=" + std::to_string(N) +
                            " B=" + std::to_string(B) +
                            " omega=" + std::to_string(w);
  ctx.metrics(mach, label);
  auto r = flash::simulate_permutation_trace(
      *trace, std::span<const std::uint64_t>(atoms), in.id(), B, w);

  const double bound = r.volume_bound(B, w);
  // Classical AV permuting bound in the flash model (volume units):
  // small-block I/Os times elements per small block.
  const double flash_lb =
      bounds::av_permute_bound_ios(N, M, B / w) * double(B / w);
  ctx.row({use_sort ? "sort" : "naive", util::fmt(std::uint64_t(N)),
           util::fmt(std::uint64_t(B)), util::fmt(w), util::fmt(r.aem_cost),
           util::fmt(r.total_volume()), util::fmt(bound, 0),
           util::fmt_ratio(double(r.total_volume()), bound, 3),
           util::fmt(flash_lb, 0), util::fmt(r.destroyed_atoms)});
  const double volume = double(r.total_volume());
  if (volume > bound || r.destroyed_atoms != 0 || volume < flash_lb)
    fail = label + ": flash_volume " + util::fmt(r.total_volume()) +
           ", lemma_bound " + util::fmt(bound, 0) + ", flash_LB " +
           util::fmt(flash_lb, 0) + ", destroyed " +
           util::fmt(r.destroyed_atoms);
}

}  // namespace

int main(int argc, char** argv) try {
  util::Cli cli(argc, argv);
  const BenchIo io = bench_io(cli, 7);

  banner("E7", "Lemma 4.3: AEM permutation program -> flash program of "
               "volume <= 2N + 2QB/omega");

  util::Table t({"program", "N", "B", "omega", "Q_aem", "flash_volume",
                 "lemma_bound", "vol/bound", "flash_LB", "destroyed"});
  std::vector<Point> grid;
  const std::size_t n_max = io.full ? (1u << 15) : (1u << 13);
  for (std::size_t N = 1 << 11; N <= n_max; N <<= 1) {
    for (std::uint64_t w : {2, 4, 8}) {
      grid.push_back({false, N, 128, 16, w});
      grid.push_back({true, N, 128, 16, w});
    }
  }
  // Larger blocks: B = 32 with omega up to 16 (B must be a multiple of
  // omega — the Lemma 4.3 precondition).
  for (std::uint64_t w : {4, 16})
    for (bool s : {false, true}) grid.push_back({s, 1 << 13, 256, 32, w});
  std::vector<std::string> fails(grid.size());
  sweep_table(io, grid.size(), t, [&](harness::PointContext& ctx) {
    run_case(grid[ctx.index()], ctx, fails[ctx.index()]);
  });
  emit(t, "Flash-model replay of permutation programs:", io.csv);

  std::cout << "PASS criterion: vol/bound <= 1 in every row (the lemma),\n"
               "destroyed = 0 (atom conservation), and flash_volume >=\n"
               "flash_LB (the classical bound the reduction transfers).\n";
  return report_fails("bench_e7_flash_sim", fails);
}
catch (const std::exception& e) {
  // CLI/env parse errors (and any other unhandled failure) exit with a
  // one-line diagnostic instead of an uncaught-exception abort.
  std::cerr << "error: " << e.what() << "\n";
  return 2;
}
