// E6 — Lemma 4.1 / Corollary 4.2: any AEM program can be rewritten as a
// round-based program on a 2M machine at a constant-factor cost increase.
//
// We record real traces (mergesort, sample sort, both permutation
// programs), apply the rewrite, and report the measured cost factor — the
// lemma's constant — plus the round structure of the result.  The grid is
// program x omega; each point is one trace + rewrite on its own machine.
//
// PASS criteria (hard guards, exit 1 on violation): valid = yes and
// factor <= 3 in every row.
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "permute/naive.hpp"
#include "permute/permutation.hpp"
#include "permute/sort_permute.hpp"
#include "rounds/rounds.hpp"
#include "sort/em_mergesort.hpp"
#include "sort/mergesort.hpp"
#include "sort/samplesort.hpp"

namespace {

using namespace aem;
using namespace aem::bench;

enum class Prog { kAware, kOblivious, kSample, kNaivePerm, kSortPerm };

const char* name_of(Prog p) {
  switch (p) {
    case Prog::kAware: return "aem_mergesort";
    case Prog::kOblivious: return "em_mergesort";
    case Prog::kSample: return "samplesort";
    case Prog::kNaivePerm: return "naive_permute";
    case Prog::kSortPerm: return "sort_permute";
  }
  return "?";
}

struct Point {
  Prog prog;
  std::uint64_t w;
};

/// Runs one point; sets `fail` to a diagnostic if its row breaks a PASS
/// criterion.
void run_case(const Point& pt, std::size_t N, std::size_t M, std::size_t B,
              harness::PointContext& ctx, std::string& fail) {
  Machine mach(make_config(M, B, pt.w));
  auto keys = util::random_keys(N, ctx.rng());
  ExtArray<std::uint64_t> in(mach, N, "in");
  in.unsafe_host_fill(keys);
  ExtArray<std::uint64_t> out(mach, N, "out");
  mach.enable_trace();
  switch (pt.prog) {
    case Prog::kAware:
      aem_merge_sort(in, out);
      break;
    case Prog::kOblivious:
      em_merge_sort(in, out);
      break;
    case Prog::kSample:
      aem_sample_sort(in, out);
      break;
    case Prog::kNaivePerm: {
      auto dest = perm::random(in.size(), ctx.rng());
      naive_permute(in, std::span<const std::uint64_t>(dest), out);
      break;
    }
    case Prog::kSortPerm: {
      auto dest = perm::random(in.size(), ctx.rng());
      sort_permute(in, std::span<const std::uint64_t>(dest), out);
      break;
    }
  }
  auto trace = mach.take_trace();
  const std::string label = "E6 " + std::string(name_of(pt.prog)) +
                            " N=" + std::to_string(N) +
                            " omega=" + std::to_string(pt.w);
  ctx.metrics(mach, label);

  auto rb = rounds::make_round_based(*trace, mach.m(), pt.w);
  const bool valid = rounds::validate_rounds(rb.trace, rb.rounds, 2 * mach.m(),
                                             pt.w, /*check_lower=*/false);
  ctx.row({name_of(pt.prog), util::fmt(std::uint64_t(N)), util::fmt(pt.w),
           util::fmt(rb.original_cost), util::fmt(rb.transformed_cost),
           util::fmt(rb.cost_factor(), 3),
           util::fmt(std::uint64_t(rb.rounds.size())),
           valid ? "yes" : "NO"});
  if (!valid || rb.cost_factor() > 3.0)
    fail = label + ": factor " + util::fmt(rb.cost_factor(), 3) +
           " (bound 3), valid = " + (valid ? "yes" : "NO");
}

}  // namespace

int main(int argc, char** argv) try {
  util::Cli cli(argc, argv);
  const BenchIo io = bench_io(cli, 6);

  banner("E6", "Lemma 4.1: program -> round-based program on 2M at constant "
               "factor");

  util::Table t({"program", "N", "omega", "cost_P", "cost_P'", "factor",
                 "rounds", "valid"});
  const std::size_t N = 1 << 13, M = 128, B = 8;
  std::vector<Point> grid;
  for (std::uint64_t w : {1, 4, 16, 64})
    for (Prog p : {Prog::kAware, Prog::kOblivious, Prog::kSample,
                   Prog::kNaivePerm, Prog::kSortPerm})
      grid.push_back({p, w});
  std::vector<std::string> fails(grid.size());
  sweep_table(io, grid.size(), t, [&](harness::PointContext& ctx) {
    run_case(grid[ctx.index()], N, M, B, ctx, fails[ctx.index()]);
  });
  emit(t, "Round-based rewrite across programs and omega (M=128, B=8):",
       io.csv);

  std::cout << "PASS criterion: factor <= ~3 everywhere (the Lemma 4.1\n"
               "constant), valid = yes in every row.\n";
  return report_fails("bench_e6_rounds", fails);
}
catch (const std::exception& e) {
  // CLI/env parse errors (and any other unhandled failure) exit with a
  // one-line diagnostic instead of an uncaught-exception abort.
  std::cerr << "error: " << e.what() << "\n";
  return 2;
}
