// Tests for the comparator sorting algorithms: the omega-oblivious EM
// mergesort (Aggarwal-Vitter) and AEM sample sort [7] — correctness across
// machine grids, write-efficiency of sample sort, write-heaviness of the
// oblivious sort (the property E3 measures).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <vector>

#include "bounds/sort_bounds.hpp"
#include "core/ext_array.hpp"
#include "core/machine.hpp"
#include "sort/em_mergesort.hpp"
#include "sort/mergesort.hpp"
#include "sort/samplesort.hpp"
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

TEST(EmMergeSortTest, SortsCorrectly) {
  Machine mach(cfg(256, 16, 4));
  util::Rng rng(21);
  auto keys = util::random_keys(1 << 13, rng);
  auto in = stage(mach, keys);
  ExtArray<std::uint64_t> out(mach, keys.size(), "out");
  em_merge_sort(in, out);
  auto expect = keys;
  std::sort(expect.begin(), expect.end());
  EXPECT_EQ(out.unsafe_host_view(), expect);
  EXPECT_LE(mach.ledger().high_water(), 256u);
}

TEST(EmMergeSortTest, EdgeSizes) {
  Machine mach(cfg(128, 8, 2));
  for (std::size_t n : {0u, 1u, 7u, 8u, 9u, 65u}) {
    util::Rng rng(n + 1);
    auto keys = util::random_keys(n, rng);
    auto in = stage(mach, keys);
    ExtArray<std::uint64_t> out(mach, n, "out");
    em_merge_sort(in, out);
    auto expect = keys;
    std::sort(expect.begin(), expect.end());
    EXPECT_EQ(out.unsafe_host_view(), expect) << "n=" << n;
  }
}

// em's domain reaches below the Section 3 sorts' M >= 8B: at M = 4B its
// runs are one block pair and its merge is 2-way, and it charges what it
// charged when run formation was its own loop (pins recorded then).  Below
// 4B it throws (never hangs): the merge does not fit at 3B, run formation
// at 2B, and at M = B the run length (M/2/B)*B is empty.
TEST(EmMergeSortTest, SmallMemoryDomain) {
  const std::size_t B = 16, n = 1000;
  util::Rng rng(37);
  std::vector<std::uint64_t> keys(n);
  for (std::uint64_t& k : keys) k = rng.next() % 100;
  {
    Machine mach(cfg(4 * B, B, 4));
    auto in = stage(mach, keys);
    ExtArray<std::uint64_t> out(mach, n, "out");
    mach.reset_stats();
    mach.ledger().reset_high_water();
    em_merge_sort(in, out);
    auto expect = keys;
    std::sort(expect.begin(), expect.end());
    EXPECT_EQ(out.unsafe_host_view(), expect);
    EXPECT_EQ(mach.stats().reads, 378u);
    EXPECT_EQ(mach.stats().writes, 378u);
    EXPECT_EQ(mach.ledger().high_water(), 64u);
  }
  for (const std::size_t M : {B, 2 * B, 3 * B}) {
    Machine mach(cfg(M, B, 4));
    auto in = stage(mach, keys);
    ExtArray<std::uint64_t> out(mach, n, "out");
    EXPECT_ANY_THROW(em_merge_sort(in, out)) << "M=" << M;
  }
  Machine mach(cfg(B, B, 4));
  auto in = stage(mach, keys);
  ExtArray<std::uint64_t> out(mach, n, "out");
  EXPECT_ANY_THROW(small_sort(in, 0, n, out, 0, std::less<std::uint64_t>{}));
}

TEST(EmMergeSortTest, WritesScaleWithReads) {
  // The oblivious sort writes as much as it reads (the flaw omega exposes).
  Machine mach(cfg(256, 16, 16));
  util::Rng rng(23);
  auto keys = util::random_keys(1 << 13, rng);
  auto in = stage(mach, keys);
  ExtArray<std::uint64_t> out(mach, keys.size(), "out");
  mach.reset_stats();
  em_merge_sort(in, out);
  const double ratio =
      double(mach.stats().writes) / double(mach.stats().reads);
  EXPECT_GT(ratio, 0.5);
  EXPECT_LT(ratio, 2.0);
}

TEST(EmMergeSortTest, ObliviousCostlierThanAwareAtHighOmega) {
  // E3's headline property at test scale: the omega-aware sort wins when
  // omega is large relative to m, i.e. log_{omega m} n << log_m n.  Here
  // m = 8, omega = 1024: the aware sort finishes in its base case
  // (N <= omega*M/2) while the oblivious one runs ~5 full read+write passes.
  const std::size_t N = 1 << 14;
  const std::uint64_t w = 1024;
  util::Rng rng(25);
  auto keys = util::random_keys(N, rng);

  Machine m1(cfg(64, 8, w));
  auto in1 = stage(m1, keys);
  ExtArray<std::uint64_t> out1(m1, N, "out");
  m1.reset_stats();
  aem_merge_sort(in1, out1);
  const auto aware = m1.cost();

  Machine m2(cfg(64, 8, w));
  auto in2 = stage(m2, keys);
  ExtArray<std::uint64_t> out2(m2, N, "out");
  m2.reset_stats();
  em_merge_sort(in2, out2);
  const auto oblivious = m2.cost();

  EXPECT_LT(aware * 2, oblivious)
      << "aware=" << aware << " oblivious=" << oblivious;
}

TEST(SampleSortTest, SortsCorrectly) {
  Machine mach(cfg(256, 16, 4));
  util::Rng rng(27);
  auto keys = util::random_keys(1 << 13, rng);
  auto in = stage(mach, keys);
  ExtArray<std::uint64_t> out(mach, keys.size(), "out");
  aem_sample_sort(in, out);
  auto expect = keys;
  std::sort(expect.begin(), expect.end());
  EXPECT_EQ(out.unsafe_host_view(), expect);
  EXPECT_LE(mach.ledger().high_water(), 256u);
}

TEST(SampleSortTest, AllEqualKeysTerminate) {
  // Degenerate splitters must not loop forever.
  Machine mach(cfg(128, 8, 2));
  std::vector<std::uint64_t> host(1 << 12, 42);
  auto in = stage(mach, host);
  ExtArray<std::uint64_t> out(mach, host.size(), "out");
  aem_sample_sort(in, out);
  EXPECT_EQ(out.unsafe_host_view(), host);
}

TEST(SampleSortTest, FewDistinctKeys) {
  Machine mach(cfg(128, 8, 4));
  util::Rng rng(29);
  std::vector<std::uint64_t> host(1 << 12);
  for (auto& v : host) v = rng.below(3);
  auto in = stage(mach, host);
  ExtArray<std::uint64_t> out(mach, host.size(), "out");
  aem_sample_sort(in, out);
  auto expect = host;
  std::sort(expect.begin(), expect.end());
  EXPECT_EQ(out.unsafe_host_view(), expect);
}

TEST(SampleSortTest, EdgeSizes) {
  Machine mach(cfg(128, 8, 2));
  for (std::size_t n : {0u, 1u, 9u, 513u}) {
    util::Rng rng(n + 3);
    auto keys = util::random_keys(n, rng);
    auto in = stage(mach, keys);
    ExtArray<std::uint64_t> out(mach, n, "out");
    aem_sample_sort(in, out);
    auto expect = keys;
    std::sort(expect.begin(), expect.end());
    EXPECT_EQ(out.unsafe_host_view(), expect) << "n=" << n;
  }
}

TEST(SampleSortTest, WriteEfficient) {
  // Writes per level ~ n: total writes should be well below reads when
  // omega is large (that is the point of the algorithm).
  Machine mach(cfg(256, 16, 16));
  util::Rng rng(31);
  auto keys = util::random_keys(1 << 14, rng);
  auto in = stage(mach, keys);
  ExtArray<std::uint64_t> out(mach, keys.size(), "out");
  mach.reset_stats();
  aem_sample_sort(in, out);
  EXPECT_LT(mach.stats().writes * 2, mach.stats().reads)
      << "writes=" << mach.stats().writes << " reads=" << mach.stats().reads;
}

TEST(SampleSortTest, CostWithinBoundModestOmega) {
  // For omega <= B the [7] bound O(omega n log_{omega m} n) applies.
  const std::size_t N = 1 << 14, M = 256, B = 16;
  const std::uint64_t w = 8;
  Machine mach(cfg(M, B, w));
  util::Rng rng(33);
  auto in = stage(mach, util::random_keys(N, rng));
  ExtArray<std::uint64_t> out(mach, N, "out");
  mach.reset_stats();
  aem_sample_sort(in, out);
  bounds::AemParams bp{.N = N, .M = M, .B = B, .omega = w};
  EXPECT_LE(double(mach.cost()), 60.0 * bounds::aem_sort_upper_bound(bp));
}

struct TriParam {
  std::size_t N, M, B;
  std::uint64_t omega;
};

class TriSortGridTest : public ::testing::TestWithParam<TriParam> {};

TEST_P(TriSortGridTest, AllThreeSortersAgree) {
  const auto p = GetParam();
  util::Rng rng(101 + p.N * 3 + p.omega);
  auto keys = util::random_keys(p.N, rng);
  auto expect = keys;
  std::sort(expect.begin(), expect.end());

  {
    Machine mach(cfg(p.M, p.B, p.omega));
    auto in = stage(mach, keys);
    ExtArray<std::uint64_t> out(mach, p.N, "out");
    aem_merge_sort(in, out);
    ASSERT_EQ(out.unsafe_host_view(), expect) << "aem_merge_sort";
  }
  {
    Machine mach(cfg(p.M, p.B, p.omega));
    auto in = stage(mach, keys);
    ExtArray<std::uint64_t> out(mach, p.N, "out");
    em_merge_sort(in, out);
    ASSERT_EQ(out.unsafe_host_view(), expect) << "em_merge_sort";
  }
  {
    Machine mach(cfg(p.M, p.B, p.omega));
    auto in = stage(mach, keys);
    ExtArray<std::uint64_t> out(mach, p.N, "out");
    aem_sample_sort(in, out);
    ASSERT_EQ(out.unsafe_host_view(), expect) << "aem_sample_sort";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, TriSortGridTest,
    ::testing::Values(TriParam{1 << 12, 128, 8, 1},
                      TriParam{1 << 12, 128, 8, 16},
                      TriParam{1 << 13, 256, 16, 4},
                      TriParam{1 << 13, 256, 16, 64},
                      TriParam{5000, 128, 16, 8},
                      TriParam{1 << 14, 512, 32, 2}),
    [](const ::testing::TestParamInfo<TriParam>& info) {
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
