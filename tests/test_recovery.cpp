// End-to-end tests of the recovery layer: every algorithm family (merge
// sort, sample sort, heap sort, permutation, SpMxV, the flash simulation)
// runs unmodified under a seeded nonzero fault schedule and still produces
// verified output, with the recovery work honestly charged in Q.  Plus the
// endurance/remap machinery: retired blocks migrate to spares preserving
// data, a worn-out pool surfaces as SparesExhausted, and unrecoverable
// corruption surfaces as FaultError.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <span>
#include <vector>

#include "core/ext_array.hpp"
#include "core/faults.hpp"
#include "core/machine.hpp"
#include "core/remap.hpp"
#include "flash/simulate.hpp"
#include "permute/dispatch.hpp"
#include "permute/permutation.hpp"
#include "permute/sort_permute.hpp"
#include "pq/ext_pq.hpp"
#include "sort/mergesort.hpp"
#include "sort/samplesort.hpp"
#include "spmv/dispatch.hpp"
#include "spmv/matrix.hpp"
#include "spmv/semiring.hpp"
#include "util/rng.hpp"

namespace {

using namespace aem;

Config cfg(std::size_t M, std::size_t B, std::uint64_t w) {
  Config c;
  c.memory_elems = M;
  c.block_elems = B;
  c.write_cost = w;
  return c;
}

/// A moderate all-kinds fault schedule that a bounded retry budget always
/// survives (rates are low; max_retries is generous).
FaultConfig moderate_faults(std::uint64_t seed) {
  FaultConfig c;
  c.seed = seed;
  c.read_fault_rate = 0.02;
  c.silent_write_rate = 0.01;
  c.torn_write_rate = 0.01;
  c.max_retries = 64;
  return c;
}

/// The seed table of a faulty suite run: its own seed plus one shared by
/// every run, so no test rests on a single schedule.
std::vector<std::uint64_t> fault_seeds(std::uint64_t own) { return {own, 7}; }

/// Runs `algo` on a clean machine and then once per fault seed on identical
/// inputs; every faulty run must still match `expect`, fire its schedule,
/// and cost strictly more than the clean run.
template <class Algo>
void run_clean_vs_faulty(Config mc, const std::vector<std::uint64_t>& host,
                         const std::vector<std::uint64_t>& expect,
                         std::uint64_t seed, Algo&& algo) {
  std::uint64_t q_clean = 0;
  {
    Machine mach(mc);
    ExtArray<std::uint64_t> in(mach, host.size(), "in");
    in.unsafe_host_fill(host);
    ExtArray<std::uint64_t> out(mach, host.size(), "out");
    algo(in, out);
    EXPECT_EQ(out.unsafe_host_view(), expect);
    q_clean = mach.cost();
  }
  for (const std::uint64_t s : fault_seeds(seed)) {
    SCOPED_TRACE(s);
    Machine mach(mc);
    mach.install_faults(moderate_faults(s));
    ExtArray<std::uint64_t> in(mach, host.size(), "in");
    in.unsafe_host_fill(host);
    ExtArray<std::uint64_t> out(mach, host.size(), "out");
    algo(in, out);
    // No endurance -> no remap, so the native region is the ground truth.
    EXPECT_EQ(out.unsafe_host_view(), expect);
    const FaultStats& fs = mach.faults()->stats();
    EXPECT_GT(fs.read_faults + fs.silent_write_faults + fs.torn_write_faults,
              0u)
        << "fault schedule never fired; the run proves nothing";
    EXPECT_GT(fs.read_retries + fs.write_retries + fs.checksum_failures +
                  fs.verify_failures,
              0u);
    // Verify-after-write alone makes the faulty run strictly dearer.
    EXPECT_GT(mach.cost(), q_clean);
  }
}

TEST(RecoverySuiteTest, MergeSortSurvivesFaults) {
  util::Rng rng(61);
  const auto host = util::random_keys(1 << 11, rng);
  auto expect = host;
  std::sort(expect.begin(), expect.end());
  run_clean_vs_faulty(cfg(256, 16, 8), host, expect, 101,
                      [](auto& in, auto& out) { aem_merge_sort(in, out); });
}

TEST(RecoverySuiteTest, SampleSortSurvivesFaults) {
  util::Rng rng(63);
  const auto host = util::random_keys(1 << 11, rng);
  auto expect = host;
  std::sort(expect.begin(), expect.end());
  run_clean_vs_faulty(cfg(256, 16, 8), host, expect, 103,
                      [](auto& in, auto& out) { aem_sample_sort(in, out); });
}

TEST(RecoverySuiteTest, HeapSortSurvivesFaults) {
  util::Rng rng(65);
  const auto host = util::random_keys(1 << 10, rng);
  auto expect = host;
  std::sort(expect.begin(), expect.end());
  run_clean_vs_faulty(cfg(256, 16, 4), host, expect, 105,
                      [](auto& in, auto& out) { aem_heap_sort(in, out); });
}

TEST(RecoverySuiteTest, PermuteSurvivesFaults) {
  util::Rng rng(67);
  const std::size_t N = 1 << 10;
  const auto host = util::random_keys(N, rng);
  const auto dest = perm::random(N, rng);
  std::vector<std::uint64_t> expect(N);
  for (std::size_t i = 0; i < N; ++i) expect[dest[i]] = host[i];
  run_clean_vs_faulty(cfg(128, 8, 4), host, expect, 107,
                      [&](auto& in, auto& out) {
                        permute(in, std::span<const std::uint64_t>(dest),
                                out);
                      });
}

TEST(RecoverySuiteTest, SpmvSurvivesFaults) {
  // double entries have no unique object representation, so this exercises
  // the dirty-flag (perfect device ECC) fallback of the recovery layer.
  using namespace aem::spmv;
  util::Rng rng(69);
  const std::uint64_t N = 256, delta = 4;
  auto conf = Conformation::delta_regular(N, delta, rng);
  std::vector<double> vals(conf.nnz());
  for (auto& v : vals) v = static_cast<double>(1 + rng.below(7));
  std::vector<double> xs(N);
  for (auto& v : xs) v = static_cast<double>(1 + rng.below(5));
  std::vector<double> expect(N, 0.0);
  for (std::size_t e = 0; e < conf.coords().size(); ++e)
    expect[conf.coords()[e].row] += vals[e] * xs[conf.coords()[e].col];

  auto run = [&](std::optional<std::uint64_t> fault_seed) {
    Machine mach(cfg(256, 16, 4));
    if (fault_seed) mach.install_faults(moderate_faults(*fault_seed));
    std::size_t vi = 0;
    SparseMatrix<double> A(mach, conf, [&](Coord) { return vals[vi++]; });
    ExtArray<double> x(mach, N, "x");
    x.unsafe_host_fill(xs);
    ExtArray<double> y(mach, N, "y");
    multiply(A, x, y, PlusTimes{});
    EXPECT_EQ(y.unsafe_host_view(), expect);
    return mach.cost();
  };
  const std::uint64_t q_clean = run(std::nullopt);
  for (const std::uint64_t s : fault_seeds(109)) {
    SCOPED_TRACE(s);
    EXPECT_GT(run(s), q_clean);
  }
}

TEST(RecoverySuiteTest, FlashSimulationSurvivesReadFaults) {
  // Read-fault-only schedule: a faulted read is retried, and a write whose
  // verify read-back faults is rewritten with the same atoms.  The
  // simulation must absorb both without destroying a single atom.
  Config mc = cfg(128, 8, 4);
  Machine mach(mc);
  FaultConfig fc;
  fc.seed = 111;
  fc.read_fault_rate = 0.05;
  fc.max_retries = 64;
  mach.install_faults(fc);

  util::Rng rng(71);
  const std::size_t N = 1 << 10;
  auto atoms = util::distinct_keys(N, rng);
  auto dest = perm::random(N, rng);
  ExtArray<std::uint64_t> in(mach, N, "in");
  in.unsafe_host_fill(atoms);
  in.set_atom_extractor([](const std::uint64_t& v) { return v; });
  ExtArray<std::uint64_t> out(mach, N, "out");
  out.set_atom_extractor([](const std::uint64_t& v) { return v; });
  mach.enable_trace();
  sort_permute(in, std::span<const std::uint64_t>(dest), out);
  ASSERT_GT(mach.faults()->stats().read_faults, 0u);
  ASSERT_GT(mach.faults()->stats().write_retries, 0u);

  auto trace = mach.take_trace();
  auto r = flash::simulate_permutation_trace(
      *trace, std::span<const std::uint64_t>(atoms), in.id(), 8, 4);
  EXPECT_EQ(r.destroyed_atoms, 0u);
  EXPECT_LE(static_cast<double>(r.total_volume()), r.volume_bound(8, 4));
}

TEST(RecoveryRemapTest, RetiredBlocksMigrateToSparesPreservingData) {
  Machine mach(cfg(64, 8, 2));
  FaultConfig c;
  c.seed = 3;
  c.endurance = 2;
  c.spare_blocks = 4;
  mach.install_faults(c);

  const std::size_t N = 24;  // 3 blocks of 8
  ExtArray<std::uint64_t> a(mach, N, "a");
  std::vector<std::uint64_t> host(N);
  for (std::size_t i = 0; i < N; ++i) host[i] = 1000 + i;
  a.unsafe_host_fill(host);

  // Hammer block 0 well past its endurance budget.
  std::vector<std::uint64_t> payload(8);
  for (std::uint64_t round = 0; round < 7; ++round) {
    for (std::size_t i = 0; i < 8; ++i) payload[i] = round * 100 + i;
    a.write_block(0, std::span<const std::uint64_t>(payload));
  }
  // endurance=2: native block 0 retires on the 3rd write, each spare
  // retires after two more -> two further migrations.
  EXPECT_EQ(a.remapped_blocks(), 1u);
  EXPECT_EQ(a.spares_used(), 3u);
  const FaultStats& fs = mach.faults()->stats();
  EXPECT_EQ(fs.remaps, 3u);
  EXPECT_EQ(fs.retired_blocks, 3u);
  EXPECT_GE(fs.retired_writes, 3u);

  // The charged read path transparently follows the remap: the last
  // payload survives even though the native region is stale.
  std::vector<std::uint64_t> got(8);
  a.read_block(0, std::span<std::uint64_t>(got));
  EXPECT_EQ(got, payload);
  // Untouched blocks are unaffected.
  a.read_block(1, std::span<std::uint64_t>(got));
  for (std::size_t i = 0; i < 8; ++i) EXPECT_EQ(got[i], host[8 + i]);

  // Keep hammering: the finite pool eventually runs dry, with the worn-out
  // device surfacing as SparesExhausted rather than silent data loss.
  try {
    for (int round = 0; round < 16; ++round)
      a.write_block(0, std::span<const std::uint64_t>(payload));
    FAIL() << "expected SparesExhausted";
  } catch (const SparesExhausted& e) {
    EXPECT_EQ(e.logical_block(), 0u);
    EXPECT_EQ(e.spare_capacity(), 4u);
    EXPECT_EQ(a.spares_used(), 4u);
  }
}

TEST(RecoveryRemapTest, HostFillAfterARemapReachesTheSpare) {
  // Restaging an array whose block 0 is already remapped to a spare: its
  // reads are charged to the spare, and deliver the restaged bytes.
  Machine mach(cfg(64, 8, 4));
  FaultConfig c;
  c.endurance = 1;
  c.spare_blocks = 4;
  mach.install_faults(c);
  ExtArray<std::uint64_t> a(mach, 16, "a");
  const std::vector<std::uint64_t> payload(8, 3);
  a.write_block(0, payload);
  a.write_block(0, payload);  // the native block retires: block 0 remaps
  ASSERT_EQ(a.remapped_blocks(), 1u);
  a.unsafe_host_fill(std::vector<std::uint64_t>(16, 5));
  std::vector<std::uint64_t> got(8);
  for (std::uint64_t bi : {0u, 1u}) {
    a.read_block(bi, std::span<std::uint64_t>(got));
    EXPECT_EQ(got, std::vector<std::uint64_t>(8, 5)) << "block " << bi;
  }
  EXPECT_EQ(mach.faults()->stats().checksum_failures, 0u);
}

TEST(RecoveryRemapTest, TornWritesAreRepairedByVerify) {
  Machine mach(cfg(64, 8, 2));
  FaultConfig c;
  c.seed = 13;
  c.torn_write_rate = 0.5;
  c.max_retries = 64;
  mach.install_faults(c);

  const std::size_t N = 64;  // 8 blocks
  ExtArray<std::uint64_t> a(mach, N, "a");
  a.unsafe_host_fill(std::vector<std::uint64_t>(N, 7));  // old contents

  std::vector<std::uint64_t> payload(8);
  for (std::uint64_t bi = 0; bi < 8; ++bi) {
    for (std::size_t i = 0; i < 8; ++i) payload[i] = bi * 10 + i;
    a.write_block(bi, std::span<const std::uint64_t>(payload));
  }
  const FaultStats& fs = mach.faults()->stats();
  EXPECT_GT(fs.torn_write_faults, 0u);
  EXPECT_GT(fs.write_retries + fs.verify_failures, 0u);
  // Every block ends up holding the intended payload, not a torn mix.
  std::vector<std::uint64_t> got(8);
  for (std::uint64_t bi = 0; bi < 8; ++bi) {
    a.read_block(bi, std::span<std::uint64_t>(got));
    for (std::size_t i = 0; i < 8; ++i)
      EXPECT_EQ(got[i], bi * 10 + i) << "block " << bi << " elem " << i;
  }
}

TEST(RecoveryErrorTest, UnrecoverableReadThrowsFaultError) {
  Machine mach(cfg(64, 8, 1));
  FaultConfig c;
  c.read_fault_rate = 1.0;  // every delivery corrupt: retries cannot help
  c.max_retries = 2;
  mach.install_faults(c);
  ExtArray<std::uint64_t> a(mach, 8, "a");
  a.unsafe_host_fill(std::vector<std::uint64_t>(8, 1));
  std::vector<std::uint64_t> dst(8);
  try {
    a.read_block(0, std::span<std::uint64_t>(dst));
    FAIL() << "expected FaultError";
  } catch (const FaultError& e) {
    EXPECT_FALSE(e.is_write());
    EXPECT_EQ(e.array(), a.id());
    EXPECT_EQ(e.block(), 0u);
    EXPECT_EQ(e.attempts(), 3u);  // initial try + max_retries
  }
  // The failed attempts were still charged.
  EXPECT_EQ(mach.stats().reads, 3u);
}

TEST(RecoveryErrorTest, UnrecoverableWriteThrowsFaultError) {
  Machine mach(cfg(64, 8, 4));
  FaultConfig c;
  c.silent_write_rate = 1.0;  // every attempt silently corrupts
  c.max_retries = 1;
  mach.install_faults(c);
  ExtArray<std::uint64_t> a(mach, 8, "a");
  const std::vector<std::uint64_t> src(8, 9);
  try {
    a.write_block(0, std::span<const std::uint64_t>(src));
    FAIL() << "expected FaultError";
  } catch (const FaultError& e) {
    EXPECT_TRUE(e.is_write());
    EXPECT_EQ(e.attempts(), 2u);
  }
  // Each attempt = one write plus its verify read, all charged.
  EXPECT_EQ(mach.stats().writes, 2u);
  EXPECT_EQ(mach.stats().reads, 2u);
}

TEST(RecoveryErrorTest, WriteOutOfRetriesLeavesABlockNoReadReturns) {
  // A write that exhausts max_retries throws and leaves the block known
  // corrupt.  A later read never returns: its check fails on every
  // (charged) attempt until the retry budget runs out.
  Machine mach(cfg(64, 8, 1));
  FaultConfig c;
  c.seed = 17;
  c.silent_write_rate = 1.0;
  c.max_retries = 2;
  mach.install_faults(c);
  ExtArray<std::uint64_t> a(mach, 8, "a");
  const std::vector<std::uint64_t> src(8, 9);
  EXPECT_THROW(a.write_block(0, std::span<const std::uint64_t>(src)),
               FaultError);
  const IoStats after_write = mach.stats();
  std::vector<std::uint64_t> dst(8);
  try {
    a.read_block(0, std::span<std::uint64_t>(dst));
    FAIL() << "expected FaultError";
  } catch (const FaultError& e) {
    EXPECT_FALSE(e.is_write());
    EXPECT_EQ(e.attempts(), 3u);  // initial try + max_retries
  }
  EXPECT_EQ(mach.stats().reads - after_write.reads, 3u);
  EXPECT_EQ(mach.faults()->stats().checksum_failures, 3u);
  EXPECT_EQ(mach.faults()->stats().read_faults, 0u);  // the block, not a read
}

TEST(RecoveryErrorTest, ExhaustedTornWriteNeverDeliversItsPayload) {
  // P2 differs from the staged P1 only in element 0, so a torn attempt
  // that persists element 0 leaves exactly P2's bytes behind.  The write
  // still failed (it throws), so a read must throw rather than deliver P2;
  // restaging the array makes it readable again.
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    SCOPED_TRACE(seed);
    Machine mach(cfg(64, 8, 4));
    FaultConfig c;
    c.seed = seed;
    c.torn_write_rate = 1.0;
    c.max_retries = 0;
    mach.install_faults(c);
    ExtArray<std::uint64_t> a(mach, 8, "a");
    std::vector<std::uint64_t> p(8, 1);
    a.unsafe_host_fill(p);
    p[0] = 2;
    EXPECT_THROW(a.write_block(0, std::span<const std::uint64_t>(p)),
                 FaultError);
    std::vector<std::uint64_t> dst(8);
    EXPECT_THROW(a.read_block(0, std::span<std::uint64_t>(dst)), FaultError);
    a.unsafe_host_fill(p);
    a.read_block(0, std::span<std::uint64_t>(dst));
    EXPECT_EQ(dst, p);
  }
}

}  // namespace
