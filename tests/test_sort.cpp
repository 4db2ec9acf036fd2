// Tests for sort/: small_sort (Lemma 4.2 base case), merge_runs
// (Theorem 3.2), and aem_merge_sort (Section 3) — correctness, stability,
// combining, memory discipline (strict ledger), and I/O cost bounds.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <span>
#include <tuple>
#include <vector>

#include "bounds/sort_bounds.hpp"
#include "core/ext_array.hpp"
#include "core/machine.hpp"
#include "sort/budget.hpp"
#include "sort/lowwrite_samplesort.hpp"
#include "sort/merge.hpp"
#include "sort/mergesort.hpp"
#include "sort/samplesort.hpp"
#include "sort/sink.hpp"
#include "sort/small_sort.hpp"
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

ExtArray<std::uint64_t> stage(Machine& mach,
                              const std::vector<std::uint64_t>& host,
                              const char* name = "in") {
  ExtArray<std::uint64_t> arr(mach, host.size(), name);
  arr.unsafe_host_fill(host);
  return arr;
}

/// A keyed element: CombineSink folds adjacent equal keys by adding vals.
struct KeyedVal {
  std::uint64_t key = 0, val = 0;
  friend bool operator==(const KeyedVal&, const KeyedVal&) = default;
};

/// Writes `in` through a CombineSink into a fresh array, by push or by
/// append of random-length spans; returns the output, its count and Q.
template <class Combine>
std::tuple<std::vector<KeyedVal>, std::size_t, std::uint64_t> sink_through(
    const std::vector<KeyedVal>& in, Combine combine, bool by_span,
    util::Rng& rng) {
  Machine mach(cfg(64, 8, 4));
  ExtArray<KeyedVal> out(mach, in.size() + 3, "out");
  auto eq = [](const KeyedVal& a, const KeyedVal& b) { return a.key == b.key; };
  sort_detail::CombineSink<KeyedVal, decltype(eq), Combine> sink(
      out, 3, out.size(), eq, combine);
  for (std::size_t i = 0; i < in.size();) {
    const std::size_t len =
        by_span ? std::min<std::size_t>(rng.next() % 20, in.size() - i) : 1;
    if (by_span) {
      sink.append(std::span<const KeyedVal>(in.data() + i, len));
    } else {
      sink.push(in[i]);
    }
    i += len;
  }
  const std::size_t written = sink.finish();
  return {out.unsafe_host_view(), written, mach.cost()};
}

TEST(CombineSinkTest, AppendMatchesPush) {
  util::Rng rng(3103);
  auto add = [](KeyedVal& acc, const KeyedVal& next) { acc.val += next.val; };
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<KeyedVal> in(1 + rng.next() % 120);
    for (KeyedVal& v : in) v = KeyedVal{rng.next() % 8, rng.next() % 100};
    std::sort(in.begin(), in.end(), [](const KeyedVal& a, const KeyedVal& b) {
      return a.key < b.key;
    });
    EXPECT_EQ(sink_through(in, add, false, rng),
              sink_through(in, add, true, rng));
    EXPECT_EQ(sink_through(in, nullptr, false, rng),
              sink_through(in, nullptr, true, rng));
  }
}

TEST(BudgetTest, SplitsMemory) {
  Machine mach(cfg(1024, 16, 8));
  SortBudget b = SortBudget::from(mach);
  EXPECT_EQ(b.out_batch, 256u);   // M/4, block-aligned
  EXPECT_EQ(b.m_eff, 16u);        // Mout / B
  EXPECT_EQ(b.fanout, 128u);      // omega * m_eff
  EXPECT_EQ(b.small_batch, 512u); // M/2
  EXPECT_EQ(b.base, 4096u);       // omega * small_batch
}

TEST(BudgetTest, MinimalMemoryEnforced) {
  // M < 8B cannot host the merge's working set under the strict ledger.
  Machine tiny(cfg(32, 16, 1));
  EXPECT_THROW(SortBudget::from(tiny), std::invalid_argument);
  Machine ok(cfg(128, 16, 1));  // exactly 8B
  SortBudget b = SortBudget::from(ok);
  EXPECT_EQ(b.out_batch, 32u);
  EXPECT_EQ(b.m_eff, 2u);
  EXPECT_EQ(b.fanout, 2u);
}

TEST(SmallSortTest, SortsWithinBudget) {
  Machine mach(cfg(64, 8, 4));
  util::Rng rng(1);
  auto keys = util::random_keys(60, rng);
  auto in = stage(mach, keys);
  ExtArray<std::uint64_t> out(mach, 60, "out");
  std::size_t written =
      small_sort(in, 0, 60, out, 0, std::less<std::uint64_t>{});
  EXPECT_EQ(written, 60u);
  auto expect = keys;
  std::sort(expect.begin(), expect.end());
  EXPECT_EQ(out.unsafe_host_view(), expect);
}

TEST(SmallSortTest, SortsSubrange) {
  Machine mach(cfg(64, 8, 2));
  std::vector<std::uint64_t> host(40);
  for (std::size_t i = 0; i < 40; ++i) host[i] = 40 - i;
  auto in = stage(mach, host);
  ExtArray<std::uint64_t> out(mach, 40, "out");
  // Sort elements [8, 24) into out at offset 8; rest untouched.
  small_sort(in, 8, 24, out, 8, std::less<std::uint64_t>{});
  auto expect = std::vector<std::uint64_t>(host.begin() + 8, host.begin() + 24);
  std::sort(expect.begin(), expect.end());
  for (std::size_t i = 0; i < 16; ++i)
    EXPECT_EQ(out.unsafe_host_view()[8 + i], expect[i]);
}

TEST(SmallSortTest, HandlesDuplicatesStably) {
  // Keys are (value, original index) packed; sorting by the value part must
  // preserve index order among equal values.
  Machine mach(cfg(64, 8, 2));
  std::vector<std::uint64_t> host;
  for (std::size_t i = 0; i < 48; ++i)
    host.push_back(((i * 7 % 4) << 32) | i);  // 4 distinct values, many dups
  auto in = stage(mach, host);
  ExtArray<std::uint64_t> out(mach, 48, "out");
  auto by_value = [](std::uint64_t a, std::uint64_t b) {
    return (a >> 32) < (b >> 32);
  };
  small_sort(in, 0, 48, out, 0, by_value);
  const auto& got = out.unsafe_host_view();
  for (std::size_t i = 1; i < got.size(); ++i) {
    ASSERT_LE(got[i - 1] >> 32, got[i] >> 32);
    if ((got[i - 1] >> 32) == (got[i] >> 32)) {
      EXPECT_LT(got[i - 1] & 0xffffffff, got[i] & 0xffffffff)
          << "stability violated at " << i;
    }
  }
}

TEST(SmallSortTest, CombineFoldsEqualKeys) {
  // Elements encode (key << 32 | count); combining sums the counts.
  Machine mach(cfg(64, 8, 2));
  std::vector<std::uint64_t> host;
  for (std::size_t i = 0; i < 40; ++i) host.push_back(((i % 5) << 32) | 1);
  auto in = stage(mach, host);
  ExtArray<std::uint64_t> out(mach, 40, "out");
  auto by_key = [](std::uint64_t a, std::uint64_t b) {
    return (a >> 32) < (b >> 32);
  };
  auto add = [](std::uint64_t& acc, const std::uint64_t& x) {
    acc += x & 0xffffffff;
  };
  std::size_t written = small_sort(in, 0, 40, out, 0, by_key, add);
  EXPECT_EQ(written, 5u);
  for (std::size_t k = 0; k < 5; ++k) {
    EXPECT_EQ(out.unsafe_host_view()[k] >> 32, k);
    EXPECT_EQ(out.unsafe_host_view()[k] & 0xffffffff, 8u);  // 40/5 copies
  }
}

TEST(SmallSortTest, CostWithinLemma42Budget) {
  // N' = omega*M elements must sort in <= c*omega*n' reads, c*n' writes.
  const std::size_t M = 256, B = 16;
  const std::uint64_t w = 4;
  Machine mach(cfg(M, B, w));
  const std::size_t N = static_cast<std::size_t>(w) * M;
  util::Rng rng(2);
  auto in = stage(mach, util::random_keys(N, rng));
  ExtArray<std::uint64_t> out(mach, N, "out");
  mach.reset_stats();
  small_sort(in, 0, N, out, 0, std::less<std::uint64_t>{});
  const double np = double(N) / B;
  EXPECT_LE(mach.stats().reads, 6.0 * w * np);
  EXPECT_LE(mach.stats().writes, 3.0 * np);
  EXPECT_LE(mach.ledger().high_water(), M);
}

TEST(SmallSortTest, RejectsBadRange) {
  Machine mach(cfg(64, 8, 1));
  ExtArray<std::uint64_t> in(mach, 16, "in");
  ExtArray<std::uint64_t> out(mach, 16, "out");
  EXPECT_THROW(small_sort(in, 0, 17, out, 0, std::less<std::uint64_t>{}),
               std::invalid_argument);
  EXPECT_THROW(small_sort(in, 8, 4, out, 0, std::less<std::uint64_t>{}),
               std::invalid_argument);
}

std::vector<RunBounds> sorted_runs_fixture(std::vector<std::uint64_t>& host,
                                           std::size_t runs, std::size_t len,
                                           util::Rng& rng) {
  std::vector<RunBounds> bounds;
  host.clear();
  for (std::size_t r = 0; r < runs; ++r) {
    std::vector<std::uint64_t> run = util::random_keys(len, rng);
    std::sort(run.begin(), run.end());
    bounds.push_back(RunBounds{host.size(), host.size() + len});
    host.insert(host.end(), run.begin(), run.end());
  }
  return bounds;
}

TEST(MergeTest, MergesSortedRuns) {
  Machine mach(cfg(128, 8, 4));
  util::Rng rng(3);
  std::vector<std::uint64_t> host;
  auto bounds = sorted_runs_fixture(host, 10, 32, rng);  // aligned: 32 % 8 == 0
  auto in = stage(mach, host);
  ExtArray<std::uint64_t> out(mach, host.size(), "out");
  std::size_t written = merge_runs(in, std::span<const RunBounds>(bounds), out,
                                   0, std::less<std::uint64_t>{});
  EXPECT_EQ(written, host.size());
  auto expect = host;
  std::sort(expect.begin(), expect.end());
  EXPECT_EQ(out.unsafe_host_view(), expect);
}

TEST(MergeTest, SingleRunCopies) {
  Machine mach(cfg(128, 8, 2));
  std::vector<std::uint64_t> host(64);
  for (std::size_t i = 0; i < 64; ++i) host[i] = i;
  auto in = stage(mach, host);
  ExtArray<std::uint64_t> out(mach, 64, "out");
  std::vector<RunBounds> bounds{{0, 64}};
  merge_runs(in, std::span<const RunBounds>(bounds), out, 0,
             std::less<std::uint64_t>{});
  EXPECT_EQ(out.unsafe_host_view(), host);
}

TEST(MergeTest, UnevenAndEmptyRuns) {
  Machine mach(cfg(128, 8, 2));
  // Runs with lengths 24, 0, 8, 5 (last one partial-block).
  std::vector<std::uint64_t> host(40, 0);
  for (std::size_t i = 0; i < 24; ++i) host[i] = i * 3;
  for (std::size_t i = 0; i < 8; ++i) host[24 + i] = i * 5;
  for (std::size_t i = 0; i < 5; ++i) host[32 + i] = i * 7 + 1;
  auto in = stage(mach, host);
  ExtArray<std::uint64_t> out(mach, 40, "out");
  std::vector<RunBounds> bounds{{0, 24}, {24, 24}, {24, 32}, {32, 37}};
  std::size_t written = merge_runs(in, std::span<const RunBounds>(bounds), out,
                                   0, std::less<std::uint64_t>{});
  EXPECT_EQ(written, 37u);
  std::vector<std::uint64_t> expect(host.begin(), host.begin() + 37);
  std::sort(expect.begin(), expect.end());
  for (std::size_t i = 0; i < 37; ++i)
    EXPECT_EQ(out.unsafe_host_view()[i], expect[i]);
}

TEST(MergeTest, RejectsUnalignedRun) {
  Machine mach(cfg(128, 8, 2));
  ExtArray<std::uint64_t> in(mach, 32, "in");
  ExtArray<std::uint64_t> out(mach, 32, "out");
  std::vector<RunBounds> bounds{{4, 16}};  // begin not a multiple of B=8
  EXPECT_THROW(merge_runs(in, std::span<const RunBounds>(bounds), out, 0,
                          std::less<std::uint64_t>{}),
               std::invalid_argument);
}

TEST(MergeTest, CombineAcrossRuns) {
  Machine mach(cfg(128, 8, 2));
  // Two runs with overlapping keys; combine sums the low halves.
  std::vector<std::uint64_t> host;
  for (std::size_t i = 0; i < 16; ++i) host.push_back((i << 32) | 1);
  for (std::size_t i = 0; i < 16; ++i) host.push_back((i << 32) | 2);
  auto in = stage(mach, host);
  ExtArray<std::uint64_t> out(mach, 32, "out");
  std::vector<RunBounds> bounds{{0, 16}, {16, 32}};
  auto by_key = [](std::uint64_t a, std::uint64_t b) {
    return (a >> 32) < (b >> 32);
  };
  auto add = [](std::uint64_t& acc, const std::uint64_t& x) {
    acc += x & 0xffffffff;
  };
  std::size_t written = merge_runs(in, std::span<const RunBounds>(bounds), out,
                                   0, by_key, add);
  EXPECT_EQ(written, 16u);
  for (std::size_t k = 0; k < 16; ++k) {
    EXPECT_EQ(out.unsafe_host_view()[k] >> 32, k);
    EXPECT_EQ(out.unsafe_host_view()[k] & 0xffffffff, 3u);
  }
}

TEST(MergeTest, CostWithinTheorem32) {
  // Merging d = omega*m_eff runs totalling N elements must cost
  // O(omega(n+m)) reads and O(n+m) writes; check generous constants.
  const std::size_t M = 256, B = 16;
  const std::uint64_t w = 4;
  Machine mach(cfg(M, B, w));
  const SortBudget budget = SortBudget::from(mach);
  util::Rng rng(5);
  std::vector<std::uint64_t> host;
  const std::size_t run_len = 64;  // block-aligned
  auto bounds = sorted_runs_fixture(host, budget.fanout, run_len, rng);
  auto in = stage(mach, host);
  ExtArray<std::uint64_t> out(mach, host.size(), "out");
  mach.reset_stats();
  merge_runs(in, std::span<const RunBounds>(bounds), out, 0,
             std::less<std::uint64_t>{});
  const double n = double(host.size()) / B;
  const double m = double(M) / B;
  EXPECT_LE(mach.stats().reads, 16.0 * w * (n + m))
      << "reads=" << mach.stats().reads << " n=" << n << " m=" << m;
  EXPECT_LE(mach.stats().writes, 8.0 * (n + m))
      << "writes=" << mach.stats().writes;
  EXPECT_LE(mach.ledger().high_water(), M);
}

TEST(MergeTest, StatsWitnessLemma31) {
  // Few long runs: the merge loop must actually extend runs beyond the
  // initialization blocks, so the active set is non-trivially exercised.
  Machine mach(cfg(256, 16, 1));
  util::Rng rng(91);
  std::vector<std::uint64_t> host;
  auto bounds = sorted_runs_fixture(host, 3, 512, rng);
  auto in = stage(mach, host);
  ExtArray<std::uint64_t> out(mach, host.size(), "out");
  MergeStats stats;
  merge_runs(in, std::span<const RunBounds>(bounds), out, 0,
             std::less<std::uint64_t>{}, std::nullptr_t{}, &stats);
  const SortBudget budget = SortBudget::from(mach);
  EXPECT_GT(stats.rounds, 0u);
  EXPECT_LE(stats.max_active_runs, budget.m_eff);  // Lemma 3.1
  EXPECT_GT(stats.max_active_runs, 0u);  // and the bound is not vacuous
}

TEST(MergeSortTest, SortsLargeArray) {
  Machine mach(cfg(256, 16, 4));
  util::Rng rng(7);
  auto keys = util::random_keys(1 << 14, rng);
  auto in = stage(mach, keys);
  ExtArray<std::uint64_t> out(mach, keys.size(), "out");
  aem_merge_sort(in, out);
  auto expect = keys;
  std::sort(expect.begin(), expect.end());
  EXPECT_EQ(out.unsafe_host_view(), expect);
}

TEST(MergeSortTest, EmptyAndSingleton) {
  Machine mach(cfg(64, 8, 2));
  ExtArray<std::uint64_t> e_in(mach, 0, "in");
  ExtArray<std::uint64_t> e_out(mach, 0, "out");
  EXPECT_NO_THROW(aem_merge_sort(e_in, e_out));
  auto one = stage(mach, {42});
  ExtArray<std::uint64_t> one_out(mach, 1, "out1");
  aem_merge_sort(one, one_out);
  EXPECT_EQ(one_out.unsafe_host_view()[0], 42u);
}

TEST(MergeSortTest, AlreadySortedAndReversed) {
  Machine mach(cfg(128, 8, 4));
  std::vector<std::uint64_t> asc(4096), desc(4096);
  for (std::size_t i = 0; i < 4096; ++i) {
    asc[i] = i;
    desc[i] = 4096 - i;
  }
  for (const auto& host : {asc, desc}) {
    auto in = stage(mach, host);
    ExtArray<std::uint64_t> out(mach, host.size(), "out");
    aem_merge_sort(in, out);
    auto expect = host;
    std::sort(expect.begin(), expect.end());
    EXPECT_EQ(out.unsafe_host_view(), expect);
  }
}

TEST(MergeSortTest, SizeMismatchRejected) {
  Machine mach(cfg(64, 8, 2));
  ExtArray<std::uint64_t> in(mach, 16, "in");
  ExtArray<std::uint64_t> out(mach, 8, "out");
  EXPECT_THROW(aem_merge_sort(in, out), std::invalid_argument);
}

// A sort kernel never reads an array it writes: every sort, and the two
// kernels below them, rejects an output that is its input before any I/O,
// whatever the size (M = 256, B = 16, omega = 4: n = 300 and 2,000 take
// the sample sorts' base case and the mergesort's merge, 20,000 their
// recursion and a three-level merge).
TEST(SortAliasingTest, EveryKernelRejectsAnAliasedOutput) {
  using Key = std::uint64_t;
  const std::less<Key> less;
  for (const std::size_t n : {300u, 2000u, 20000u}) {
    Machine mach(cfg(256, 16, 4));
    util::Rng rng(n);
    std::vector<Key> host(n);
    for (Key& x : host) x = rng.next();
    ExtArray<Key> a = stage(mach, host);
    const std::vector<RunBounds> runs = make_chunks(n, 512);
    auto rejects = [&](const char* what, auto call) {
      mach.reset_stats();
      EXPECT_THROW(call(), std::invalid_argument) << what << " n=" << n;
      EXPECT_EQ(mach.cost(), 0u) << what << " n=" << n;
      EXPECT_TRUE(a.unsafe_host_view() == host) << what << " n=" << n;
    };
    rejects("aem_merge_sort", [&] { aem_merge_sort(a, a, less); });
    rejects("aem_sample_sort", [&] { aem_sample_sort(a, a, less); });
    rejects("aem_lowwrite_sample_sort",
            [&] { aem_lowwrite_sample_sort(a, a, less); });
    rejects("small_sort", [&] { small_sort(a, 0, n, a, 0, less); });
    rejects("merge_runs", [&] {
      merge_runs(a, std::span<const RunBounds>(runs), a, 0, less);
    });
  }
}

// Degenerate driver shapes: inputs at and around the small-sort base
// (N <= base takes the one-pass path; base + 1 forces run formation and a
// real merge) and the minimum merge fanout d = 2.
TEST(MergeSortTest, DegenerateBaseBoundary) {
  const std::size_t M = 128, B = 16;  // omega=1: base = M/2 = 64, fanout = 2
  for (std::size_t n : {std::size_t{63}, std::size_t{64}}) {
    util::Rng rng(601 + n);
    auto keys = util::random_keys(n, rng);

    Machine ms(cfg(M, B, 1));
    auto in = stage(ms, keys);
    ExtArray<std::uint64_t> out(ms, n, "out");
    aem_merge_sort(in, out);

    // N <= base must be EXACTLY one small_sort: same charges, same output.
    Machine ss(cfg(M, B, 1));
    auto in2 = stage(ss, keys);
    ExtArray<std::uint64_t> out2(ss, n, "out");
    small_sort(in2, 0, n, out2, 0, std::less<std::uint64_t>{});
    EXPECT_EQ(ms.stats(), ss.stats()) << "n=" << n;
    EXPECT_EQ(ms.cost(), ss.cost()) << "n=" << n;
    EXPECT_EQ(out.unsafe_host_view(), out2.unsafe_host_view());
  }
  {
    // One past the base: two runs, one d=2 merge round; strictly more I/O
    // than the one-pass path but still correct.
    const std::size_t n = 65;
    util::Rng rng(701);
    auto keys = util::random_keys(n, rng);
    Machine mach(cfg(M, B, 1));
    auto in = stage(mach, keys);
    ExtArray<std::uint64_t> out(mach, n, "out");
    aem_merge_sort(in, out);
    auto expect = keys;
    std::sort(expect.begin(), expect.end());
    EXPECT_EQ(out.unsafe_host_view(), expect);
    EXPECT_GT(mach.stats().writes, (n + B - 1) / B)
        << "base + 1 must pay more than the single output pass";
  }
}

TEST(MergeSortTest, MinimumFanoutLadder) {
  // M = 8B is the smallest legal memory: m_eff = 2, so every merge round
  // runs at the minimum fanout d = 2 and 512 elements need a full ladder
  // of rounds (8 base runs -> 4 -> 2 -> 1).
  const std::size_t M = 128, B = 16, n = 512;
  Machine mach(cfg(M, B, 1));
  ASSERT_EQ(SortBudget::from(mach).fanout, 2u);
  util::Rng rng(703);
  auto keys = util::random_keys(n, rng);
  auto in = stage(mach, keys);
  ExtArray<std::uint64_t> out(mach, n, "out");
  aem_merge_sort(in, out);
  auto expect = keys;
  std::sort(expect.begin(), expect.end());
  EXPECT_EQ(out.unsafe_host_view(), expect);
  EXPECT_LE(mach.ledger().high_water(), M);
}

TEST(MergeSortTest, CustomComparatorDescending) {
  Machine mach(cfg(128, 8, 2));
  util::Rng rng(11);
  auto keys = util::random_keys(2048, rng);
  auto in = stage(mach, keys);
  ExtArray<std::uint64_t> out(mach, keys.size(), "out");
  aem_merge_sort(in, out, std::greater<std::uint64_t>{});
  auto expect = keys;
  std::sort(expect.begin(), expect.end(), std::greater<std::uint64_t>{});
  EXPECT_EQ(out.unsafe_host_view(), expect);
}

TEST(MergeSortTest, StableOverall) {
  Machine mach(cfg(128, 8, 4));
  std::vector<std::uint64_t> host;
  util::Rng rng(13);
  for (std::size_t i = 0; i < 4096; ++i)
    host.push_back((rng.below(8) << 32) | i);  // 8 keys, index in low bits
  auto in = stage(mach, host);
  ExtArray<std::uint64_t> out(mach, host.size(), "out");
  auto by_key = [](std::uint64_t a, std::uint64_t b) {
    return (a >> 32) < (b >> 32);
  };
  aem_merge_sort(in, out, by_key);
  const auto& got = out.unsafe_host_view();
  for (std::size_t i = 1; i < got.size(); ++i) {
    ASSERT_LE(got[i - 1] >> 32, got[i] >> 32);
    if ((got[i - 1] >> 32) == (got[i] >> 32)) {
      ASSERT_LT(got[i - 1] & 0xffffffff, got[i] & 0xffffffff);
    }
  }
}

TEST(MergeLevelTest, GroupsRunsByFanout) {
  Machine mach(cfg(256, 16, 1));  // fanout = m_eff = 4
  util::Rng rng(93);
  std::vector<std::uint64_t> host;
  auto bounds = sorted_runs_fixture(host, 10, 32, rng);
  auto in = stage(mach, host);
  ExtArray<std::uint64_t> out(mach, host.size(), "out");
  auto next = merge_level(in, std::span<const RunBounds>(bounds), out, 4,
                          std::less<std::uint64_t>{});
  ASSERT_EQ(next.size(), 3u);  // ceil(10/4)
  // Each merged group is sorted and covers its input span.
  EXPECT_EQ(next[0].begin, 0u);
  EXPECT_EQ(next[0].length(), 4u * 32);
  EXPECT_EQ(next[2].length(), 2u * 32);
  const auto& view = out.unsafe_host_view();
  for (const RunBounds& r : next)
    for (std::size_t i = r.begin + 1; i < r.end; ++i)
      ASSERT_LE(view[i - 1], view[i]);
  EXPECT_THROW(merge_level(in, std::span<const RunBounds>(bounds), out, 1,
                           std::less<std::uint64_t>{}),
               std::invalid_argument);
}

TEST(MergeAllRunsTest, PingPongsToSingleRun) {
  Machine mach(cfg(256, 16, 2));
  util::Rng rng(95);
  std::vector<std::uint64_t> host;
  auto bounds = sorted_runs_fixture(host, 20, 32, rng);
  auto start = stage(mach, host, "start");
  ExtArray<std::uint64_t> a(mach, host.size(), "a");
  ExtArray<std::uint64_t> b(mach, host.size(), "b");
  auto [final_arr, final_bounds] =
      merge_all_runs(&start, bounds, &a, &b, std::less<std::uint64_t>{});
  ASSERT_TRUE(final_arr == &a || final_arr == &b);
  EXPECT_EQ(final_bounds.begin, 0u);
  EXPECT_EQ(final_bounds.length(), host.size());
  auto expect = host;
  std::sort(expect.begin(), expect.end());
  for (std::size_t i = 0; i < host.size(); ++i)
    ASSERT_EQ(final_arr->unsafe_host_view()[i], expect[i]);
}

TEST(MergeAllRunsTest, EmptyAndSingleRun) {
  Machine mach(cfg(256, 16, 2));
  ExtArray<std::uint64_t> start(mach, 32, "start");
  ExtArray<std::uint64_t> a(mach, 32, "a");
  ExtArray<std::uint64_t> b(mach, 32, "b");
  auto [arr0, b0] = merge_all_runs(&std::as_const(start), {}, &a, &b,
                                   std::less<std::uint64_t>{});
  EXPECT_EQ(arr0, &start);
  EXPECT_EQ(b0.length(), 0u);
  std::vector<RunBounds> one{{0, 32}};
  auto [arr1, b1] = merge_all_runs(&std::as_const(start), one, &a, &b,
                                   std::less<std::uint64_t>{});
  EXPECT_EQ(arr1, &start);  // single run: nothing to merge
  EXPECT_EQ(b1.length(), 32u);
}

// ---------------------------------------------------------------------------
// Property sweep: sorting correctness + Section 3 cost bound + strict memory
// across a machine-parameter grid (TEST_P).
// ---------------------------------------------------------------------------

struct SortParam {
  std::size_t N, M, B;
  std::uint64_t omega;
};

class SortGridTest : public ::testing::TestWithParam<SortParam> {};

TEST_P(SortGridTest, SortsCorrectlyWithinBounds) {
  const SortParam p = GetParam();
  Machine mach(cfg(p.M, p.B, p.omega));
  util::Rng rng(17 + p.N + p.omega);
  auto keys = util::random_keys(p.N, rng);
  auto in = stage(mach, keys);
  ExtArray<std::uint64_t> out(mach, p.N, "out");
  mach.reset_stats();
  aem_merge_sort(in, out);

  auto expect = keys;
  std::sort(expect.begin(), expect.end());
  ASSERT_EQ(out.unsafe_host_view(), expect);

  // Strict memory: never exceed M.
  EXPECT_LE(mach.ledger().high_water(), p.M);

  // Cost: within a constant factor of omega * n * log_{omega m} n.
  bounds::AemParams bp{.N = p.N, .M = p.M, .B = p.B, .omega = p.omega};
  const double bound = bounds::aem_sort_upper_bound(bp);
  const double measured = double(mach.cost());
  EXPECT_LE(measured, 60.0 * bound)
      << "N=" << p.N << " M=" << p.M << " B=" << p.B << " w=" << p.omega
      << " measured=" << measured << " bound=" << bound;

  // Write budget: O(n log_{omega m} n), a factor omega below the reads.
  const double write_bound = bounds::aem_sort_write_bound(bp);
  EXPECT_LE(double(mach.stats().writes), 30.0 * write_bound);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, SortGridTest,
    ::testing::Values(
        SortParam{1 << 12, 128, 8, 1}, SortParam{1 << 12, 128, 8, 8},
        SortParam{1 << 14, 256, 16, 1}, SortParam{1 << 14, 256, 16, 4},
        SortParam{1 << 14, 256, 16, 32},
        // omega > B: the regime the paper's mergesort newly covers.
        SortParam{1 << 14, 256, 16, 64}, SortParam{1 << 13, 128, 8, 128},
        SortParam{1 << 15, 512, 32, 16}, SortParam{1 << 15, 1024, 8, 4},
        // Non-power-of-two N exercising partial terminal blocks.
        SortParam{10000, 256, 16, 4}, SortParam{12345, 128, 8, 16}),
    [](const ::testing::TestParamInfo<SortParam>& info) {
      const auto& p = info.param;
      std::string name = "N";
      name += std::to_string(p.N);
      name += "_M";
      name += std::to_string(p.M);
      name += "_B";
      name += std::to_string(p.B);
      name += "_w";
      name += std::to_string(p.omega);
      return name;
    });

}  // namespace
