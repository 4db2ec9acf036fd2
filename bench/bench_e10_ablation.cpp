// E10 — simulator soundness: at omega = 1 the AEM degenerates to the
// symmetric EM model of Aggarwal-Vitter, so every cost identity must
// collapse accordingly (Q = reads + writes; the permutation bound equals
// the classical one).  The aware/oblivious sort ratio is reported, not
// checked: EXPERIMENTS.md E10 derives it from the two merge fanouts.
//
// PASS criteria (hard guards, exit 1 on violation): Q equals the plain I/O
// count on every sort machine, and the two permutation bounds agree in
// every row.  The simulator's host-time throughput is perfbench's to
// measure (io.scan_ns_per_block, io.writer_ns_per_block, sort_aem).
#include <cmath>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "bounds/permute_bounds.hpp"
#include "sort/em_mergesort.hpp"
#include "sort/mergesort.hpp"

namespace {

using namespace aem;
using namespace aem::bench;

/// Runs `sort` on `keys` on a fresh omega = 1 machine, appends its metrics
/// snapshot and returns Q.  Clears `ok` if Q is not the plain I/O count.
template <class Sort>
std::uint64_t omega_one_sort(Sort&& sort,
                             const std::vector<std::uint64_t>& keys,
                             std::size_t M, std::size_t B,
                             const std::string& label, const BenchIo& io,
                             bool& ok) {
  Machine mach(make_config(M, B, 1));
  ExtArray<std::uint64_t> in(mach, keys.size(), "in");
  in.unsafe_host_fill(keys);
  ExtArray<std::uint64_t> out(mach, keys.size(), "out");
  mach.reset_stats();
  sort(in, out);
  if (mach.cost() != mach.stats().total_ios()) {
    std::cerr << "FAIL: " << label << ": omega=1 cost " << mach.cost()
              << " != I/O count " << mach.stats().total_ios() << "\n";
    ok = false;
  }
  emit_metrics(mach, label, io.metrics);
  return mach.cost();
}

}  // namespace

int main(int argc, char** argv) try {
  util::Cli cli(argc, argv);
  const BenchIo io = bench_io(cli, 10);

  banner("E10", "omega = 1 degenerates to the symmetric EM model");

  util::Table t({"N", "M", "B", "aware_Q", "oblivious_Q", "ratio",
                 "AV_perm_LB", "AEM_perm_LB", "LBs_equal"});
  util::Rng rng(io.seed);
  bool ok = true;
  for (std::size_t N : {1u << 13, 1u << 15}) {
    for (std::size_t M : {128u, 512u}) {
      const std::size_t B = 16;
      const std::string tag = " N=" + std::to_string(N) +
                              " M=" + std::to_string(M) +
                              " B=" + std::to_string(B);
      const auto keys = util::random_keys(N, rng);
      const std::uint64_t aware = omega_one_sort(
          [](const auto& in, auto& out) { aem_merge_sort(in, out); }, keys, M,
          B, "E10 aware" + tag, io, ok);
      const std::uint64_t oblivious = omega_one_sort(
          [](const auto& in, auto& out) { em_merge_sort(in, out); }, keys, M,
          B, "E10 oblivious" + tag, io, ok);
      bounds::AemParams p{.N = N, .M = M, .B = B, .omega = 1};
      const double av = bounds::av_permute_bound_ios(N, M, B);
      const double aem = bounds::permute_lower_bound(p);
      const bool equal = std::abs(av - aem) < 1e-6;
      if (!equal) {
        std::cerr << "FAIL:" << tag << ": AEM permutation bound " << aem
                  << " != Aggarwal-Vitter bound " << av << "\n";
        ok = false;
      }
      t.add_row({util::fmt(std::uint64_t(N)), util::fmt(std::uint64_t(M)),
                 util::fmt(std::uint64_t(B)), util::fmt(aware),
                 util::fmt(oblivious),
                 util::fmt_ratio(double(aware), double(oblivious), 2),
                 util::fmt(av, 0), util::fmt(aem, 0), equal ? "yes" : "NO"});
    }
  }
  emit(t, "omega = 1 sanity (AEM == EM):", io.csv);
  std::cout << "PASS criterion: LBs_equal = yes everywhere; Q = reads +\n"
               "writes on every sort machine.\n\n";
  if (!ok) {
    std::cerr << "bench_e10_ablation: FAILED (omega=1 cost identity or "
                 "permutation-bound equality broken)\n";
    return 1;
  }
  return 0;
}
catch (const std::exception& e) {
  // CLI parse errors (and any other unhandled failure) exit with a
  // one-line diagnostic instead of an uncaught-exception abort.
  std::cerr << "error: " << e.what() << "\n";
  return 2;
}
