// Tests for flash/: the unit-cost flash machine, and the Lemma 4.3
// simulation of AEM permutation programs — consistency of the replay and
// the 2N + 2QB/omega volume bound on real traces.
#include <gtest/gtest.h>

#include <vector>

#include "core/ext_array.hpp"
#include "core/machine.hpp"
#include "flash/flash_machine.hpp"
#include "flash/simulate.hpp"
#include "permute/naive.hpp"
#include "permute/permutation.hpp"
#include "permute/sort_permute.hpp"
#include "util/rng.hpp"

namespace {

using namespace aem;
using namespace aem::flash;

TEST(FlashConfigTest, ForAemValidation) {
  auto cfg = FlashConfig::for_aem(64, 8);
  EXPECT_EQ(cfg.read_block, 8u);
  EXPECT_EQ(cfg.write_block, 64u);
  EXPECT_EQ(cfg.ratio(), 8u);
  EXPECT_THROW(FlashConfig::for_aem(64, 5), std::invalid_argument);   // 64%5
  EXPECT_THROW(FlashConfig::for_aem(8, 16), std::invalid_argument);   // B<omega
  EXPECT_THROW(FlashConfig::for_aem(64, 0), std::invalid_argument);
}

TEST(FlashMachineTest, VolumeAccounting) {
  FlashMachine m(FlashConfig{4, 16});
  m.read_small();
  m.read_small(3);
  m.write_big();
  m.scan(100);
  EXPECT_EQ(m.counts().read_ops, 4u);
  EXPECT_EQ(m.counts().write_ops, 1u);
  EXPECT_EQ(m.counts().read_volume, 16u);
  EXPECT_EQ(m.counts().write_volume, 16u);
  EXPECT_EQ(m.counts().scan_volume, 100u);
  EXPECT_EQ(m.counts().total_volume(), 132u);
}

struct SimSetup {
  std::size_t N, M, B;
  std::uint64_t omega;
};

FlashSimResult run_sim(const SimSetup& s, bool use_sort, unsigned seed) {
  Config cfg;
  cfg.memory_elems = s.M;
  cfg.block_elems = s.B;
  cfg.write_cost = s.omega;
  Machine mach(cfg);
  util::Rng rng(seed);
  auto atoms = util::distinct_keys(s.N, rng);  // atom id == value
  auto dest = perm::random(s.N, rng);

  ExtArray<std::uint64_t> in(mach, s.N, "in");
  in.unsafe_host_fill(atoms);
  in.set_atom_extractor([](const std::uint64_t& v) { return v; });
  ExtArray<std::uint64_t> out(mach, s.N, "out");
  out.set_atom_extractor([](const std::uint64_t& v) { return v; });
  mach.enable_trace();
  if (use_sort) {
    sort_permute(in, std::span<const std::uint64_t>(dest), out);
  } else {
    naive_permute(in, std::span<const std::uint64_t>(dest), out);
  }
  auto trace = mach.take_trace();
  return simulate_permutation_trace(
      *trace, std::span<const std::uint64_t>(atoms), in.id(), s.B, s.omega);
}

TEST(FlashSimTest, NaivePermuteConsistent) {
  auto r = run_sim({1 << 10, 128, 8, 4}, /*use_sort=*/false, 7);
  EXPECT_EQ(r.destroyed_atoms, 0u);
  EXPECT_GT(r.write_ops, 0u);
  EXPECT_GT(r.read_ops, 0u);
  EXPECT_EQ(r.scan_volume, 2u << 10);
}

TEST(FlashSimTest, SortPermuteConsistent) {
  auto r = run_sim({1 << 10, 128, 8, 4}, /*use_sort=*/true, 9);
  EXPECT_EQ(r.destroyed_atoms, 0u);
  EXPECT_GT(r.write_ops, 0u);
}

TEST(FlashSimTest, VolumeWithinLemma43Bound) {
  for (const SimSetup s : {SimSetup{1 << 10, 128, 8, 4},
                           SimSetup{1 << 11, 128, 8, 2},
                           SimSetup{1 << 11, 256, 16, 8},
                           SimSetup{1 << 12, 256, 32, 4}}) {
    for (bool use_sort : {false, true}) {
      auto r = run_sim(s, use_sort, 11 + unsigned(s.N));
      EXPECT_LE(double(r.total_volume()), r.volume_bound(s.B, s.omega))
          << "N=" << s.N << " B=" << s.B << " w=" << s.omega
          << " sort=" << use_sort << " volume=" << r.total_volume()
          << " bound=" << r.volume_bound(s.B, s.omega);
      EXPECT_EQ(r.destroyed_atoms, 0u);
    }
  }
}

TEST(FlashSimTest, ReadVolumeReflectsUsefulFraction) {
  // In the naive program each read typically consumes few atoms, so the
  // small-block covers should be far below whole-block reads: the read
  // volume must be below (AEM reads) * B and usually near (AEM reads) * B/w.
  const SimSetup s{1 << 11, 128, 8, 4};
  auto r = run_sim(s, false, 13);
  // Naive permute: ~N reads each consuming ~1 atom -> ~N small blocks of
  // B/w = 2 elements each.
  EXPECT_LT(r.read_volume, std::uint64_t(s.N) * s.B);
  EXPECT_GE(r.read_volume, std::uint64_t(s.N) * (s.B / s.omega) / 2);
}

TEST(FlashSimTest, RejectsInconsistentTrace) {
  // A read claiming to use an atom that was never written to its block
  // must be detected.
  Trace t;
  IoTicket w = t.add(OpKind::kWrite, 0, 0);
  t.set_atoms(w, {1, 2, 3});
  IoTicket r = t.add(OpKind::kRead, 0, 0);
  t.mark_used(r, 99);  // bogus atom
  std::vector<std::uint64_t> input;
  EXPECT_THROW(simulate_permutation_trace(
                   t, std::span<const std::uint64_t>(input), 42, 8, 2),
               std::logic_error);
}

TEST(FlashSimTest, CountsDestroyedAtoms) {
  // Overwriting a block whose atoms were never consumed destroys them.
  Trace t;
  IoTicket w1 = t.add(OpKind::kWrite, 0, 0);
  t.set_atoms(w1, {1, 2, 3});
  IoTicket w2 = t.add(OpKind::kWrite, 0, 0);
  t.set_atoms(w2, {4, 5, 6});
  std::vector<std::uint64_t> input;
  auto r = simulate_permutation_trace(
      t, std::span<const std::uint64_t>(input), 42, 8, 2);
  EXPECT_EQ(r.destroyed_atoms, 3u);
}

TEST(FlashSimTest, ContiguityViolationDetected) {
  // Two reads interleaving their consumption of one block so that neither
  // forms a contiguous normalized interval is impossible (normalization
  // sorts by removal time), but a single read consuming twice from
  // DIFFERENT instances must still resolve correctly: rewrite the block
  // between reads and consume the stale atom -> inconsistency.
  Trace t;
  IoTicket w1 = t.add(OpKind::kWrite, 0, 0);
  t.set_atoms(w1, {1, 2});
  IoTicket w2 = t.add(OpKind::kWrite, 0, 0);
  t.set_atoms(w2, {3, 4});
  IoTicket r = t.add(OpKind::kRead, 0, 0);
  t.mark_used(r, 1);  // atom 1 lives in the OLD instance only
  std::vector<std::uint64_t> input;
  EXPECT_THROW(simulate_permutation_trace(
                   t, std::span<const std::uint64_t>(input), 42, 8, 2),
               std::logic_error);
}

TEST(FlashSimTest, LemmaPreconditionEnforced) {
  Trace t;
  std::vector<std::uint64_t> input;
  EXPECT_THROW(simulate_permutation_trace(
                   t, std::span<const std::uint64_t>(input), 0, 8, 3),
               std::invalid_argument);  // B not a multiple of omega
}

}  // namespace
