// E10 — simulator soundness and asymmetry ablation.
//
// Part 1 (table): at omega = 1 the AEM degenerates to the symmetric EM
// model of Aggarwal-Vitter; every cost identity must collapse accordingly
// (Q = reads + writes; the omega-aware and oblivious sorts converge to the
// same asymptotics; the permutation bound equals the classical one).
//
// Part 2 (google-benchmark): wall-clock throughput of the simulator
// primitives, so downstream users know what experiment scales are feasible.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <iostream>

#include "bench_common.hpp"
#include "bounds/permute_bounds.hpp"
#include "bounds/sort_bounds.hpp"
#include "io/scanner.hpp"
#include "io/writer.hpp"
#include "sort/em_mergesort.hpp"
#include "sort/mergesort.hpp"

namespace {

using namespace aem;
using namespace aem::bench;

void omega_one_table() {
  banner("E10", "omega = 1 degenerates to the symmetric EM model; simulator "
                "throughput");

  util::Table t({"N", "M", "B", "aware_Q", "oblivious_Q", "ratio",
                 "AV_perm_LB", "AEM_perm_LB", "LBs_equal"});
  util::Rng rng(10);
  for (std::size_t N : {1u << 13, 1u << 15}) {
    for (std::size_t M : {128u, 512u}) {
      const std::size_t B = 16;
      auto keys = util::random_keys(N, rng);
      std::uint64_t aware, oblivious;
      {
        Machine mach(make_config(M, B, 1));
        ExtArray<std::uint64_t> in(mach, N, "in");
        in.unsafe_host_fill(keys);
        ExtArray<std::uint64_t> out(mach, N, "out");
        mach.reset_stats();
        aem_merge_sort(in, out);
        aware = mach.cost();
        // At omega = 1, Q must equal plain I/O count.
        if (mach.cost() != mach.stats().total_ios())
          std::cout << "FAIL: omega=1 cost identity broken\n";
      }
      {
        Machine mach(make_config(M, B, 1));
        ExtArray<std::uint64_t> in(mach, N, "in");
        in.unsafe_host_fill(keys);
        ExtArray<std::uint64_t> out(mach, N, "out");
        mach.reset_stats();
        em_merge_sort(in, out);
        oblivious = mach.cost();
      }
      bounds::AemParams p{.N = N, .M = M, .B = B, .omega = 1};
      const double av = bounds::av_permute_bound_ios(N, M, B);
      const double aem = bounds::permute_lower_bound(p);
      t.add_row({util::fmt(std::uint64_t(N)), util::fmt(std::uint64_t(M)),
                 util::fmt(std::uint64_t(B)), util::fmt(aware),
                 util::fmt(oblivious),
                 util::fmt_ratio(double(aware), double(oblivious), 2),
                 util::fmt(av, 0), util::fmt(aem, 0),
                 std::abs(av - aem) < 1e-6 ? "yes" : "NO"});
    }
  }
  emit(t, "omega = 1 sanity (AEM == EM):", "");
  std::cout << "PASS criterion: LBs_equal = yes everywhere; aware and\n"
               "oblivious sorts within a small constant of each other.\n\n";
}

void bm_scan(benchmark::State& state) {
  const std::size_t N = static_cast<std::size_t>(state.range(0));
  Machine mach(make_config(1 << 12, 64, 4));
  util::Rng rng(11);
  auto arr = staged_keys(mach, N, rng);
  for (auto _ : state) {
    Scanner<std::uint64_t> sc(arr);
    std::uint64_t sum = 0;
    while (!sc.done()) sum += sc.next();
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(int64_t(state.iterations()) * int64_t(N));
}

void bm_sort(benchmark::State& state) {
  const std::size_t N = static_cast<std::size_t>(state.range(0));
  Machine mach(make_config(1 << 10, 16, 8));
  util::Rng rng(12);
  auto in = staged_keys(mach, N, rng);
  ExtArray<std::uint64_t> out(mach, N, "out");
  for (auto _ : state) {
    aem_merge_sort(in, out);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(int64_t(state.iterations()) * int64_t(N));
}

void bm_write(benchmark::State& state) {
  const std::size_t N = static_cast<std::size_t>(state.range(0));
  Machine mach(make_config(1 << 12, 64, 4));
  ExtArray<std::uint64_t> arr(mach, N, "out");
  for (auto _ : state) {
    Writer<std::uint64_t> w(arr);
    for (std::size_t i = 0; i < N; ++i) w.push(i);
    w.finish();
  }
  state.SetItemsProcessed(int64_t(state.iterations()) * int64_t(N));
}

BENCHMARK(bm_scan)->Arg(1 << 14)->Arg(1 << 17);
BENCHMARK(bm_write)->Arg(1 << 14)->Arg(1 << 17);
BENCHMARK(bm_sort)->Arg(1 << 12)->Arg(1 << 14);

}  // namespace

int main(int argc, char** argv) try {
  omega_one_table();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
catch (const std::exception& e) {
  // CLI/env parse errors (and any other unhandled failure) exit with a
  // one-line diagnostic instead of an uncaught-exception abort.
  std::cerr << "error: " << e.what() << "\n";
  return 2;
}
