// E5 — the min{N, omega n log_{omega m} n} crossover of Theorem 4.5.
//
// The bound's two branches trade places as omega (or B) moves: the naive
// gather wins once omega n log_{omega m} n > N, i.e. roughly once
// omega log_{omega m} n > B.  We sweep omega at fixed (N, M, B) and B at
// fixed (N, M, omega), locate the measured crossover, and compare with the
// point where the predicted curves cross.
//
// Crossover detection compares ADJACENT sweep points, so the per-point
// measurements run through the harness into slots and the scan for the
// flip happens serially afterwards — the located crossover is identical
// for every --jobs value.
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "bounds/permute_bounds.hpp"
#include "permute/dispatch.hpp"
#include "permute/permutation.hpp"

namespace {

using namespace aem;
using namespace aem::bench;

struct Outcome {
  std::uint64_t naive_cost, sort_cost;
};

Outcome measure(std::size_t N, std::size_t M, std::size_t B, std::uint64_t w,
                harness::PointContext& ctx) {
  const std::string tag = " N=" + std::to_string(N) + " M=" + std::to_string(M) +
                          " B=" + std::to_string(B) + " omega=" + std::to_string(w);
  auto keys = util::random_keys(N, ctx.rng());
  auto dest = perm::random(N, ctx.rng());
  Outcome o{};
  {
    Machine mach(make_config(M, B, w));
    ExtArray<std::uint64_t> in(mach, N, "in");
    in.unsafe_host_fill(keys);
    ExtArray<std::uint64_t> out(mach, N, "out");
    mach.reset_stats();
    naive_permute(in, std::span<const std::uint64_t>(dest), out);
    o.naive_cost = mach.cost();
    ctx.metrics(mach, "E5 naive" + tag);
  }
  {
    Machine mach(make_config(M, B, w));
    ExtArray<std::uint64_t> in(mach, N, "in");
    in.unsafe_host_fill(keys);
    ExtArray<std::uint64_t> out(mach, N, "out");
    mach.reset_stats();
    sort_permute(in, std::span<const std::uint64_t>(dest), out);
    o.sort_cost = mach.cost();
    ctx.metrics(mach, "E5 sort" + tag);
  }
  return o;
}

/// Per grid point, 1 when sorting wins (char, not bool: the B sweep's
/// points fill their own entries concurrently).
using Winners = std::vector<char>;

/// The grid indices i > 0 where the winner differs from the one at i - 1.
std::vector<std::size_t> flips(const Winners& sort_wins) {
  std::vector<std::size_t> at;
  for (std::size_t i = 1; i < sort_wins.size(); ++i)
    if (sort_wins[i] != sort_wins[i - 1]) at.push_back(i);
  return at;
}

/// The grid value where sorting first stops winning, as the table prints.
std::string sort_to_naive(const std::vector<std::uint64_t>& grid,
                          const Winners& sort_wins) {
  for (std::size_t i = 1; i < sort_wins.size(); ++i)
    if (sort_wins[i - 1] && !sort_wins[i]) return util::fmt(grid[i]);
  return "none";
}

/// One sweep's PASS verdict (empty: passed): the measured winner flips
/// exactly once, within one grid step of the predicted curves' one flip.
std::string check_sweep(const std::string& sweep,
                        const std::vector<std::uint64_t>& grid,
                        const Winners& measured, const Winners& predicted) {
  const std::vector<std::size_t> got = flips(measured);
  const std::vector<std::size_t> want = flips(predicted);
  const std::string head = "E5 " + sweep + " sweep: ";
  if (want.size() != 1)
    return head + "the predicted winner flips " + std::to_string(want.size()) +
           " times, not once";
  if (got.size() != 1)
    return head + "the measured winner flips " + std::to_string(got.size()) +
           " times, not once";
  const std::size_t step = got[0] > want[0] ? got[0] - want[0] : want[0] - got[0];
  if (step > 1)
    return head + "measured flip at " + util::fmt(grid[got[0]]) +
           " is more than one grid step from the predicted flip at " +
           util::fmt(grid[want[0]]);
  return "";
}

}  // namespace

int main(int argc, char** argv) try {
  util::Cli cli(argc, argv);
  const BenchIo io = bench_io(cli, 5);

  banner("E5", "Theorem 4.5's min{.,.}: naive/sort-based crossover in omega "
               "and B");

  std::vector<std::string> fails;  // one per sweep
  {
    util::Table t({"omega", "naive", "sort", "measured_winner",
                   "naive_pred", "sort_pred", "predicted_winner"});
    // B = 64 makes element-granular gathering wasteful enough that sorting
    // wins at small omega; the min{} flips as omega grows.
    const std::size_t N = 1 << 14, M = 1024, B = 64;
    const std::vector<std::uint64_t> omegas = {1, 2, 4, 8, 16, 32, 64, 128,
                                               256};
    std::vector<Outcome> slots(omegas.size());
    std::vector<harness::PointResult> results = harness::run_sweep(
        omegas.size(), io.sweep, [&](harness::PointContext& ctx) {
          slots[ctx.index()] = measure(N, M, B, omegas[ctx.index()], ctx);
        });
    replay(std::move(results), nullptr, io.metrics);

    Winners measured(omegas.size()), predicted(omegas.size());
    for (std::size_t i = 0; i < omegas.size(); ++i) {
      const std::uint64_t w = omegas[i];
      const Outcome& o = slots[i];
      Machine model(make_config(M, B, w));
      const double nb = predicted_naive_cost(model, N);
      const double sb = predicted_sort_cost(model, N);
      const bool sort_wins = o.sort_cost < o.naive_cost;
      const bool pred_sort = sb < nb;
      measured[i] = sort_wins;
      predicted[i] = pred_sort;
      t.add_row({util::fmt(w), util::fmt(o.naive_cost), util::fmt(o.sort_cost),
                 sort_wins ? "sort" : "naive", util::fmt(nb, 0),
                 util::fmt(sb, 0), pred_sort ? "sort" : "naive"});
    }
    emit(t, "Sweep omega (N=2^14, M=1024, B=64):", io.csv);
    std::cout << "measured crossover omega  : "
              << sort_to_naive(omegas, measured)
              << "\npredicted crossover omega : "
              << sort_to_naive(omegas, predicted) << "\n\n";
    fails.push_back(check_sweep("omega", omegas, measured, predicted));
  }

  {
    util::Table t({"B", "naive", "sort", "measured_winner", "naive_pred",
                   "sort_pred", "predicted_winner"});
    const std::size_t N = 1 << 14;
    const std::uint64_t w = 16;
    const std::vector<std::uint64_t> blocks = {8, 16, 32, 64, 128};
    Winners measured(blocks.size()), predicted(blocks.size());
    sweep_table(io, blocks.size(), t, [&](harness::PointContext& ctx) {
      const std::size_t B = blocks[ctx.index()];
      const std::size_t M = 16 * B;  // keep m fixed at 16
      Outcome o = measure(N, M, B, w, ctx);
      Machine model(make_config(M, B, w));
      const double nb = predicted_naive_cost(model, N);
      const double sb = predicted_sort_cost(model, N);
      measured[ctx.index()] = o.sort_cost < o.naive_cost;
      predicted[ctx.index()] = sb < nb;
      ctx.row({util::fmt(std::uint64_t(B)), util::fmt(o.naive_cost),
               util::fmt(o.sort_cost),
               o.sort_cost < o.naive_cost ? "sort" : "naive",
               util::fmt(nb, 0), util::fmt(sb, 0),
               sb < nb ? "sort" : "naive"});
    });
    emit(t, "Sweep B at m=16, omega=16 (bigger blocks favour sorting):",
         io.csv);
    fails.push_back(check_sweep("B", blocks, measured, predicted));
  }

  std::cout << "PASS criterion: measured winners flip exactly once per\n"
               "sweep, within one grid step of the predicted flip.\n";
  return report_fails("bench_e5_crossover", fails);
}
catch (const std::exception& e) {
  // CLI/env parse errors (and any other unhandled failure) exit with a
  // one-line diagnostic instead of an uncaught-exception abort.
  std::cerr << "error: " << e.what() << "\n";
  return 2;
}
