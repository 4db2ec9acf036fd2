// Unit tests for sort/loser_tree.hpp and the I/O-invariance property of the
// merges that select with it: the tree moves host comparisons only, never a
// charged read or write.  em_merge_group is compared with the O(k) scan it
// replaced (merge_scan_oracle.hpp); merge_runs' charges and output are
// pinned at the values its scan and loser-tree selections both produced.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <string>
#include <vector>

#include "core/ext_array.hpp"
#include "core/machine.hpp"
#include "sort/budget.hpp"
#include "sort/em_mergesort.hpp"
#include "sort/loser_tree.hpp"
#include "sort/merge.hpp"
#include "util/rng.hpp"
#include "merge_scan_oracle.hpp"
#include "trace_fnv.hpp"

namespace aem {
namespace {

using Tree = LoserTree<std::uint64_t, std::less<std::uint64_t>>;

Config cfg_of(std::size_t M, std::size_t B, std::uint64_t omega) {
  Config cfg;
  cfg.memory_elems = M;
  cfg.block_elems = B;
  cfg.write_cost = omega;
  return cfg;
}

/// Drains the tree as a k-way merge over in-memory runs and returns the
/// output sequence; the reference for every selection test.
std::vector<std::uint64_t> drain(std::vector<std::vector<std::uint64_t>> runs) {
  Tree tree(runs.size());
  std::vector<std::size_t> pos(runs.size(), 0);
  for (std::size_t i = 0; i < runs.size(); ++i) {
    if (runs[i].empty()) {
      tree.set_exhausted(i);
    } else {
      tree.set_key(i, runs[i][0]);
    }
  }
  tree.rebuild();
  std::vector<std::uint64_t> out;
  for (std::size_t i = tree.winner(); i != Tree::npos; i = tree.winner()) {
    out.push_back(runs[i][pos[i]]);
    ++pos[i];
    if (pos[i] == runs[i].size()) {
      tree.set_exhausted(i);
    } else {
      tree.set_key(i, runs[i][pos[i]]);
    }
    tree.update(i);
  }
  return out;
}

TEST(LoserTree, SingleContestant) {
  auto out = drain({{3, 1, 4, 1, 5}});  // k = 1: passthrough, any order
  EXPECT_EQ(out, (std::vector<std::uint64_t>{3, 1, 4, 1, 5}));
}

TEST(LoserTree, EmptyAndZeroContestants) {
  EXPECT_TRUE(drain({}).empty());
  EXPECT_TRUE(drain({{}}).empty());
  EXPECT_TRUE(drain({{}, {}, {}}).empty());
}

TEST(LoserTree, TwoContestants) {
  auto out = drain({{1, 3, 5}, {2, 4, 6}});
  EXPECT_EQ(out, (std::vector<std::uint64_t>{1, 2, 3, 4, 5, 6}));
}

TEST(LoserTree, NonPowerOfTwoContestants) {
  // k = 5 pads to 8; the 3 padding leaves must never win.
  auto out = drain({{10, 20}, {5, 25}, {1, 30}, {15}, {2, 3}});
  std::vector<std::uint64_t> expect = {1, 2, 3, 5, 10, 15, 20, 25, 30};
  EXPECT_EQ(out, expect);
}

TEST(LoserTree, DuplicatesAcrossRunsAreStableByRunIndex) {
  // Equal keys must drain in run-index order — exactly what a stable
  // "first strictly-smallest head" scan produces.
  Tree tree(3);
  std::vector<std::vector<std::uint64_t>> runs = {{7, 7}, {7}, {7, 7}};
  std::vector<std::size_t> pos(3, 0);
  for (std::size_t i = 0; i < 3; ++i) tree.set_key(i, runs[i][0]);
  tree.rebuild();
  std::vector<std::size_t> order;
  for (std::size_t i = tree.winner(); i != Tree::npos; i = tree.winner()) {
    order.push_back(i);
    ++pos[i];
    if (pos[i] == runs[i].size()) {
      tree.set_exhausted(i);
    } else {
      tree.set_key(i, runs[i][pos[i]]);
    }
    tree.update(i);
  }
  // Run 0's two 7s first, then run 1's, then run 2's.
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 0, 1, 2, 2}));
}

TEST(LoserTree, ExhaustedRunRevivesOnRestage) {
  // A refilled contestant (set_key after set_exhausted + update) rejoins.
  Tree tree(2);
  tree.set_key(0, 5);
  tree.set_key(1, 9);
  tree.rebuild();
  EXPECT_EQ(tree.winner(), 0u);
  tree.set_exhausted(0);
  tree.update(0);
  EXPECT_EQ(tree.winner(), 1u);
  tree.set_key(0, 1);  // the "exhausted run refill" of a staged merge
  tree.update(0);
  EXPECT_EQ(tree.winner(), 0u);
}

TEST(LoserTree, MatchesSortAcrossShapes) {
  util::Rng rng(99);
  for (std::size_t k : {1u, 2u, 3u, 5u, 7u, 8u, 13u, 64u}) {
    std::vector<std::vector<std::uint64_t>> runs(k);
    std::vector<std::uint64_t> expect;
    for (auto& r : runs) {
      const std::size_t len = rng.next() % 17;  // includes empty runs
      for (std::size_t j = 0; j < len; ++j) r.push_back(rng.next() % 50);
      std::sort(r.begin(), r.end());
      expect.insert(expect.end(), r.begin(), r.end());
    }
    std::sort(expect.begin(), expect.end());
    EXPECT_EQ(drain(runs), expect) << "k=" << k;
  }
}

// --- I/O invariance: loser-tree selection never moves a charged I/O ------

struct KernelRun {
  std::uint64_t reads, writes, cost, output_fnv;
};

/// Merges k sorted runs of random keys on an (M, B, omega) machine with
/// `merge(in, runs, out)`; run r is `run_blocks(rng)` blocks long.
template <class RunBlocks, class Merge>
KernelRun run_merge(std::size_t k, std::size_t M, std::size_t B,
                    std::uint64_t omega, std::uint64_t seed,
                    RunBlocks run_blocks, Merge merge) {
  Machine mach(cfg_of(M, B, omega));
  util::Rng rng(seed);
  std::vector<std::uint64_t> host;
  std::vector<RunBounds> runs;
  for (std::size_t r = 0; r < k; ++r) {
    const std::size_t run_len = run_blocks(rng) * B;
    auto keys = util::random_keys(run_len, rng);
    std::sort(keys.begin(), keys.end());
    runs.push_back(RunBounds{host.size(), host.size() + run_len});
    host.insert(host.end(), keys.begin(), keys.end());
  }
  ExtArray<std::uint64_t> in(mach, host.size(), "runs");
  in.unsafe_host_fill(host);
  ExtArray<std::uint64_t> out(mach, host.size(), "out");
  mach.reset_stats();
  merge(in, std::span<const RunBounds>(runs), out);
  test::Fnv h;
  for (std::uint64_t v : out.unsafe_host_view()) h.add(v);
  return {mach.stats().reads, mach.stats().writes, mach.cost(), h.value()};
}

struct MergePin {
  std::size_t k, B;
  std::uint64_t omega;
  KernelRun want;
};

// Recorded when merge_runs still offered the O(k) scan selection; scan and
// loser tree charged exactly these values and wrote the same output.
const MergePin kMergePins[] = {
    {1, 8, 1, {11, 9, 20, 0x33284804a97ab806ull}},
    {1, 8, 8, {11, 9, 83, 0xa462d5490a0f3239ull}},
    {1, 8, 64, {11, 9, 587, 0x14c45ad4f2fc3bdaull}},
    {1, 16, 1, {11, 9, 20, 0x989de95b9ac9c251ull}},
    {1, 16, 8, {11, 9, 83, 0xb224f7b6ffa037fdull}},
    {1, 16, 64, {11, 9, 587, 0x4be20aa7e9dbfc91ull}},
    {2, 8, 1, {26, 17, 43, 0xfab4e3a514b5b329ull}},
    {2, 8, 8, {26, 17, 162, 0x2707ea68bc96df39ull}},
    {2, 8, 64, {26, 17, 1114, 0x0f413cfd04e4a422ull}},
    {2, 16, 1, {25, 17, 42, 0x181e23ecaac66edbull}},
    {2, 16, 8, {25, 17, 161, 0x23fd8aa0ebb6e0acull}},
    {2, 16, 64, {26, 17, 1114, 0xa0e6a3882d05588bull}},
    {3, 8, 1, {46, 25, 71, 0x2bfa9b14beeddab3ull}},
    {3, 8, 8, {44, 25, 244, 0x5a5d9d09830ba072ull}},
    {3, 8, 64, {45, 25, 1645, 0xb008101ac3d63694ull}},
    {3, 16, 1, {45, 25, 70, 0xf43a85328813dc1cull}},
    {3, 16, 8, {45, 25, 245, 0x2016dd3bb5a53803ull}},
    {3, 16, 64, {45, 25, 1645, 0x359af2d7e5b2a354ull}},
    {5, 8, 1, {85, 41, 126, 0x46e5581f4c81dc08ull}},
    {5, 8, 8, {85, 41, 413, 0x91ed77b755d3edefull}},
    {5, 8, 64, {86, 41, 2710, 0xf0419b918c7da77eull}},
    {5, 16, 1, {86, 41, 127, 0x74624f91e1c25e2cull}},
    {5, 16, 8, {87, 41, 415, 0xa1658cc7e521212dull}},
    {5, 16, 64, {86, 41, 2710, 0x1a7bae4c9dedcba9ull}},
    {8, 8, 1, {132, 65, 197, 0x20737ff65bea4d9full}},
    {8, 8, 8, {133, 65, 653, 0x58c15035ea249862ull}},
    {8, 8, 64, {134, 65, 4294, 0xee879e14a70a5954ull}},
    {8, 16, 1, {134, 65, 199, 0x006f5c22c4a9bcdfull}},
    {8, 16, 8, {136, 65, 656, 0x326344e5fc26a0fdull}},
    {8, 16, 64, {134, 65, 4294, 0x24e969462a0544f0ull}},
    {16, 8, 1, {270, 130, 400, 0x64ae1c27677526d4ull}},
    {16, 8, 8, {265, 130, 1305, 0x586070b5d3a38e06ull}},
    {16, 8, 64, {264, 130, 8584, 0xc841fd2dc971f58cull}},
    {16, 16, 1, {259, 129, 388, 0x39c5200bbcdc7377ull}},
    {16, 16, 8, {259, 129, 1291, 0x4fe7888db866070eull}},
    {16, 16, 64, {260, 129, 8516, 0xbfc9afcd4f433eaeull}},
};

TEST(MergeKernelInvariance, MergeRunsQExactlyUnchangedAcrossGrid) {
  // For every (k, B, omega) point the merge charges EXACTLY the pinned
  // reads, writes and Q, and writes the pinned output.  Not "close": equal.
  for (const MergePin& p : kMergePins) {
    SCOPED_TRACE("k=" + std::to_string(p.k) + " B=" + std::to_string(p.B) +
                 " omega=" + std::to_string(p.omega));
    const KernelRun got = run_merge(
        p.k, std::max<std::size_t>(16 * p.B, 4 * p.k * p.B), p.B, p.omega,
        1000 * p.k + 10 * p.B + p.omega, [](util::Rng&) { return 4; },
        [](auto& in, auto runs, auto& out) {
          merge_runs(in, runs, out, 0, std::less<std::uint64_t>{});
        });
    EXPECT_EQ(got.reads, p.want.reads);
    EXPECT_EQ(got.writes, p.want.writes);
    EXPECT_EQ(got.cost, p.want.cost);
    EXPECT_EQ(got.output_fnv, p.want.output_fnv);
  }
}

TEST(MergeKernelInvariance, EmMergeGroupQExactlyUnchangedAcrossGrid) {
  const auto random_blocks = [](util::Rng& rng) { return 1 + rng.next() % 4; };
  for (std::size_t k : {1u, 2u, 3u, 6u, 9u, 16u}) {
    for (std::size_t B : {8u, 16u}) {
      for (std::uint64_t omega : {1u, 16u}) {
        SCOPED_TRACE("k=" + std::to_string(k) + " B=" + std::to_string(B) +
                     " omega=" + std::to_string(omega));
        const std::size_t M = (k + 2) * B + 4 * k;
        const std::uint64_t seed = 2000 * k + 10 * B + omega;
        const KernelRun scan = run_merge(
            k, M, B, omega, seed, random_blocks,
            [](auto& in, auto runs, auto& out) {
              test::scan_merge_group(in, runs, out, 0,
                                     std::less<std::uint64_t>{});
            });
        const KernelRun loser = run_merge(
            k, M, B, omega, seed, random_blocks,
            [](auto& in, auto runs, auto& out) {
              sort_detail::em_merge_group(in, runs, out, 0,
                                          std::less<std::uint64_t>{});
            });
        EXPECT_EQ(scan.reads, loser.reads);
        EXPECT_EQ(scan.writes, loser.writes);
        EXPECT_EQ(scan.cost, loser.cost);
        EXPECT_EQ(scan.output_fnv, loser.output_fnv);
      }
    }
  }
}

TEST(MergeKernelInvariance, FullSortsAgreeAcrossKernels) {
  // End-to-end: both sorts produce sorted output — the loser-tree merges
  // are exercised through their real call sites, not just the unit
  // harness above.
  Machine mach(cfg_of(256, 16, 8));
  util::Rng rng(7);
  const std::size_t N = 1 << 12;
  auto keys = util::random_keys(N, rng);
  ExtArray<std::uint64_t> in(mach, N, "in");
  in.unsafe_host_fill(keys);
  ExtArray<std::uint64_t> out(mach, N, "out");
  aem_merge_sort(in, out);
  auto expect = keys;
  std::sort(expect.begin(), expect.end());
  EXPECT_EQ(out.unsafe_host_view(), expect);

  Machine mach2(cfg_of(256, 16, 8));
  ExtArray<std::uint64_t> in2(mach2, N, "in");
  in2.unsafe_host_fill(keys);
  ExtArray<std::uint64_t> out2(mach2, N, "out");
  em_merge_sort(in2, out2);
  EXPECT_EQ(out2.unsafe_host_view(), expect);
}

}  // namespace
}  // namespace aem
