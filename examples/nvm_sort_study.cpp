// The paper's motivating scenario (Section 1): emerging non-volatile
// memories read cheaply but write expensively — by orders of magnitude for
// some technologies.  How should that change the sorting algorithm you
// deploy?
//
//   ./nvm_sort_study [--n=32768] [--memory=128] [--block=8]
//
// We model three NVM generations (omega = 4, 32, 256) plus DRAM (omega = 1)
// and run the three sorters the paper discusses on each: the classic
// symmetric mergesort (write-oblivious), AEM sample sort [7], and the
// paper's Section 3 mergesort.  Watch the oblivious sort fall behind as
// omega grows, exactly as the (1+omega)/omega * log(omega m)/log m penalty
// predicts.
#include <iostream>
#include <vector>

#include "bounds/sort_bounds.hpp"
#include "core/ext_array.hpp"
#include "core/machine.hpp"
#include "sort/em_mergesort.hpp"
#include "sort/mergesort.hpp"
#include "sort/samplesort.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace {

using namespace aem;

std::uint64_t run_one(const char* which, const std::vector<std::uint64_t>& keys,
                      std::size_t M, std::size_t B, std::uint64_t omega) {
  Config cfg;
  cfg.memory_elems = M;
  cfg.block_elems = B;
  cfg.write_cost = omega;
  Machine mach(cfg);
  ExtArray<std::uint64_t> in(mach, keys.size(), "in");
  in.unsafe_host_fill(keys);
  ExtArray<std::uint64_t> out(mach, keys.size(), "out");
  mach.reset_stats();
  const std::string name = which;
  if (name == "oblivious") {
    em_merge_sort(in, out);
  } else if (name == "samplesort") {
    aem_sample_sort(in, out);
  } else {
    aem_merge_sort(in, out);
  }
  return mach.cost();
}

}  // namespace

int main(int argc, char** argv) try {
  util::Cli cli(argc, argv);
  const std::size_t N = cli.u64("n", 1 << 15);
  const std::size_t M = cli.u64("memory", 64);
  const std::size_t B = cli.u64("block", 8);
  cli.reject_unknown_flags();

  std::cout << "Sorting " << N << " records on four memory technologies\n"
            << "(M=" << M << ", B=" << B << ").  omega = write/read cost "
            << "ratio.\n\n";

  util::Rng rng(7);
  auto keys = util::random_keys(N, rng);

  struct Tech {
    const char* name;
    std::uint64_t omega;
  };
  const Tech techs[] = {{"DRAM", 1},
                        {"NVM (STT-RAM-like)", 16},
                        {"NVM (ReRAM-like)", 128},
                        {"NVM (PCM-like)", 1024}};

  util::Table t({"technology", "omega", "oblivious_Q", "samplesort_Q",
                 "aem_mergesort_Q", "winner", "obl_penalty", "predicted"});
  for (const Tech& tech : techs) {
    const auto oblivious = run_one("oblivious", keys, M, B, tech.omega);
    const auto sample = run_one("samplesort", keys, M, B, tech.omega);
    const auto aware = run_one("aem_mergesort", keys, M, B, tech.omega);
    bounds::AemParams p{.N = N, .M = M, .B = B, .omega = tech.omega};
    const char* winner =
        (aware <= oblivious && aware <= sample)
            ? "aem_mergesort"
            : (oblivious <= sample ? "oblivious" : "samplesort");
    t.add_row({tech.name, util::fmt(tech.omega), util::fmt(oblivious),
               util::fmt(sample), util::fmt(aware), winner,
               util::fmt_ratio(double(oblivious), double(aware), 2),
               util::fmt(bounds::predicted_oblivious_penalty(p), 2)});
  }
  t.print(std::cout);

  std::cout
      << "\nReading: on DRAM (omega = 1) the classic symmetric mergesort is\n"
         "the right tool — the asymmetry-aware machinery only adds constant\n"
         "overhead.  As omega grows, the oblivious sort pays for its\n"
         "omega-blind write volume while the omega-aware algorithms trade\n"
         "extra (cheap) reads for fewer (expensive) writes and take over —\n"
         "the core design rule for NVM algorithms, and the paper's Section 1\n"
         "motivation.\n";
  return 0;
}
catch (const std::exception& e) {
  // CLI/env parse errors (and any other unhandled failure) exit with a
  // one-line diagnostic instead of an uncaught-exception abort.
  std::cerr << "error: " << e.what() << "\n";
  return 2;
}
