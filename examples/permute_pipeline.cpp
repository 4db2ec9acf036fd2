// End-to-end tour of the paper's lower-bound machinery on one permutation.
//
//   ./permute_pipeline [--n=4096] [--omega=4] [--perm=random|transpose|bitrev]
//
// 1. Permute N atoms with the dispatcher (the min{} of Theorem 4.5).
// 2. Record the full I/O trace with atom tracking.
// 3. Rewrite it as a round-based program (Lemma 4.1) and report the factor.
// 4. Replay it in the unit-cost flash model (Lemma 4.3) and check the
//    2N + 2QB/omega volume bound.
// 5. Compare everything against the Theorem 4.5 lower bound.
#include <fstream>
#include <iostream>

#include "bounds/permute_bounds.hpp"
#include "core/ext_array.hpp"
#include "core/machine.hpp"
#include "core/trace_io.hpp"
#include "flash/simulate.hpp"
#include "permute/dispatch.hpp"
#include "permute/permutation.hpp"
#include "rounds/rounds.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"

int main(int argc, char** argv) try {
  using namespace aem;
  util::Cli cli(argc, argv);
  const std::size_t N = cli.u64("n", 4096);
  const std::uint64_t omega = cli.u64("omega", 4);
  const std::string kind = cli.str("perm", "random");
  const std::string save = cli.str("save-trace", "");
  cli.reject_unknown_flags();
  const std::size_t M = 128, B = 16;  // B multiple of omega for Lemma 4.3

  Config cfg;
  cfg.memory_elems = M;
  cfg.block_elems = B;
  cfg.write_cost = omega;
  Machine mach(cfg);

  util::Rng rng(23);
  perm::Perm dest;
  if (kind == "transpose") {
    std::size_t side = 1;
    while (side * side < N) side <<= 1;
    dest = perm::transpose(side, N / side);
  } else if (kind == "bitrev") {
    dest = perm::bit_reversal(N);
  } else {
    dest = perm::random(N, rng);
  }
  if (dest.size() != N) {
    std::cerr << "permutation family needs N compatible with " << kind << "\n";
    return 1;
  }

  // Stage atoms (distinct ids) and enable full tracking.
  auto atoms = util::distinct_keys(N, rng);
  ExtArray<std::uint64_t> in(mach, N, "in");
  in.unsafe_host_fill(atoms);
  in.set_atom_extractor([](const std::uint64_t& v) { return v; });
  ExtArray<std::uint64_t> out(mach, N, "out");
  out.set_atom_extractor([](const std::uint64_t& v) { return v; });
  mach.enable_trace();

  // --- 1. run the dispatcher ---------------------------------------------
  const PermuteStrategy strat =
      permute(in, std::span<const std::uint64_t>(dest), out);
  const std::uint64_t q = mach.cost();
  std::cout << "permuted " << N << " atoms (" << kind << ") with the "
            << to_string(strat) << " program: Q = " << q << "\n";

  bounds::AemParams p{.N = N, .M = M, .B = B, .omega = omega};
  std::cout << "Theorem 4.5 lower bound (+output term): "
            << bounds::permute_lower_bound_total(p)
            << "  -> tightness " << double(q) / bounds::permute_lower_bound_total(p)
            << "x\n";

  auto trace = mach.take_trace();
  std::cout << "recorded trace: " << trace->size() << " I/O ops\n";

  // Optional: persist the program for offline analysis with tools/aem_trace.
  if (!save.empty()) {
    std::ofstream os(save);
    write_trace(os, *trace);
    std::cout << "trace saved to " << save << " (inspect with: aem_trace"
              << " --file=" << save << " --omega=" << omega
              << " --m=" << mach.m() << " --rounds --rewrite)\n";
  }

  // --- 2. Lemma 4.1: round-based rewrite ----------------------------------
  auto rb = rounds::make_round_based(*trace, mach.m(), omega);
  std::cout << "\nLemma 4.1 rewrite: cost " << rb.original_cost << " -> "
            << rb.transformed_cost << "  (factor " << rb.cost_factor()
            << ", " << rb.rounds.size() << " rounds on the 2M machine)\n";

  // --- 3. Lemma 4.3: flash-model replay -----------------------------------
  if (B % omega == 0 && B / omega > 0) {
    auto sim = flash::simulate_permutation_trace(
        *trace, std::span<const std::uint64_t>(atoms), in.id(), B, omega);
    std::cout << "\nLemma 4.3 flash replay (read blocks of " << B / omega
              << ", write blocks of " << B << "):\n"
              << "  volume: " << sim.total_volume() << " elements ("
              << sim.read_ops << " small reads, " << sim.write_ops
              << " big writes, 2N scan)\n"
              << "  bound 2N + 2QB/omega = " << sim.volume_bound(B, omega)
              << "  -> volume/bound = "
              << double(sim.total_volume()) / sim.volume_bound(B, omega)
              << "\n  destroyed atoms: " << sim.destroyed_atoms << "\n";
  } else {
    std::cout << "\n(flash replay skipped: Lemma 4.3 needs B to be a "
                 "multiple of omega)\n";
  }

  // --- 4. verify the permutation ------------------------------------------
  const auto& got = out.unsafe_host_view();
  for (std::size_t i = 0; i < N; ++i) {
    if (got[dest[i]] != atoms[i]) {
      std::cerr << "FAIL: output mismatch at " << i << "\n";
      return 1;
    }
  }
  std::cout << "\npermutation verified.\n";
  return 0;
}
catch (const std::exception& e) {
  // CLI/env parse errors (and any other unhandled failure) exit with a
  // one-line diagnostic instead of an uncaught-exception abort.
  std::cerr << "error: " << e.what() << "\n";
  return 2;
}
