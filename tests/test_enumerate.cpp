// Mechanized toy-scale validation of the Section 4.2 counting argument:
// exhaustive search over round-based programs on tiny machines, checked
// against inequality (1) and against the derived lower bound.
#include <gtest/gtest.h>

#include <cmath>

#include "bounds/counting.hpp"
#include "bounds/enumerate.hpp"
#include "bounds/permute_bounds.hpp"

namespace {

using namespace aem::bounds;

TEST(EnumerateTest, ValidatesParameters) {
  EXPECT_THROW(enumerate_reachable_permutations({.N = 9}),
               std::invalid_argument);
  EXPECT_THROW(enumerate_reachable_permutations({.N = 4, .M = 1, .B = 2}),
               std::invalid_argument);
  EXPECT_THROW(enumerate_reachable_permutations(
                   {.N = 4, .M = 4, .B = 2, .omega = 1, .locations = 1}),
               std::invalid_argument);
}

TEST(EnumerateTest, TargetCounts) {
  // N=4, B=2: 4!/(2! 2!) = 6 set-wise permutations; B=1: 4! = 24.
  auto r1 = enumerate_reachable_permutations(
      {.N = 4, .M = 4, .B = 2, .omega = 1, .max_rounds = 0});
  EXPECT_EQ(r1.target, 6u);
  auto r2 = enumerate_reachable_permutations(
      {.N = 4, .M = 2, .B = 1, .omega = 1, .max_rounds = 0});
  EXPECT_EQ(r2.target, 24u);
  auto r3 = enumerate_reachable_permutations(
      {.N = 5, .M = 4, .B = 2, .omega = 1, .max_rounds = 0});
  EXPECT_EQ(r3.target, 30u);  // 5!/(2! 2! 1!)
}

TEST(EnumerateTest, RoundZeroReachesOnlyIdentity) {
  // Without any I/O only the identity arrangement is realized.
  auto r = enumerate_reachable_permutations(
      {.N = 4, .M = 4, .B = 2, .omega = 1, .max_rounds = 0});
  EXPECT_EQ(r.reachable.front(), 1u);
}

TEST(EnumerateTest, StarvedBudgetCannotMixBlocks) {
  // omega*m = 2 admits one read + one write per round: atoms from
  // different blocks can never be in memory together, so only whole-block
  // rearrangements (2 of the 6 set-wise permutations) are ever reachable —
  // a machine the counting bound is vacuously true for.
  auto r = enumerate_reachable_permutations(
      {.N = 4, .M = 4, .B = 2, .omega = 1, .max_rounds = 8});
  EXPECT_FALSE(r.rounds_to_complete.has_value());
  EXPECT_EQ(r.reachable.back(), 2u);
}

struct ToyParam {
  EnumParams p;
  const char* name;
};

class EnumerateToyTest : public ::testing::TestWithParam<ToyParam> {};

TEST_P(EnumerateToyTest, CompletesAndRespectsCountingBounds) {
  const EnumParams p = GetParam().p;
  auto r = enumerate_reachable_permutations(p);

  // (0) the search completed: every set-wise permutation is reachable.
  ASSERT_TRUE(r.rounds_to_complete.has_value())
      << "not complete after " << p.max_rounds
      << " rounds; reached " << r.reachable.back() << "/" << r.target;

  // (1) reachable(R) never exceeds inequality (1)'s per-round product.
  AemParams ap{.N = p.N, .M = p.M, .B = p.B, .omega = p.omega};
  const double lg_per_round = log2_perms_per_round(ap);
  for (std::size_t round = 0; round < r.reachable.size(); ++round) {
    // Ground truth must stay below the formula's bound (with the initial
    // block orderings folded in as the paper's B!^{N/B} normalization
    // allows; at round 0 the bound is the n! input-block orderings).
    const double lg_bound =
        static_cast<double>(round) * lg_per_round + 3.0;  // n! <= 8 slack
    EXPECT_LE(std::log2(static_cast<double>(r.reachable[round])), lg_bound)
        << GetParam().name << " round " << round;
  }

  // (2) the derived lower bound never exceeds the true optimum.
  const std::uint64_t derived = min_rounds_counting(ap);
  EXPECT_LE(derived, *r.rounds_to_complete)
      << GetParam().name << ": counting bound " << derived
      << " exceeds true optimum " << *r.rounds_to_complete;

  // (3) reachability grows monotonically.
  for (std::size_t i = 1; i < r.reachable.size(); ++i)
    EXPECT_GE(r.reachable[i], r.reachable[i - 1]);
}

INSTANTIATE_TEST_SUITE_P(
    Toys, EnumerateToyTest,
    ::testing::Values(
        ToyParam{{.N = 4, .M = 8, .B = 2, .omega = 1, .max_rounds = 8},
                 "N4_M8_B2_w1"},
        ToyParam{{.N = 4, .M = 8, .B = 2, .omega = 2, .max_rounds = 8},
                 "N4_M8_B2_w2"},
        ToyParam{{.N = 4, .M = 2, .B = 1, .omega = 1, .max_rounds = 12},
                 "N4_M2_B1_w1"},
        ToyParam{{.N = 4, .M = 2, .B = 1, .omega = 2, .max_rounds = 12},
                 "N4_M2_B1_w2"},
        ToyParam{{.N = 5, .M = 8, .B = 2, .omega = 1, .max_rounds = 8},
                 "N5_M8_B2_w1"},
        ToyParam{{.N = 6, .M = 8, .B = 2, .omega = 1, .max_rounds = 6},
                 "N6_M8_B2_w1"}),
    [](const ::testing::TestParamInfo<ToyParam>& info) {
      return std::string(info.param.name);
    });

TEST(EnumerateTest, MoreLocationsCannotHurt) {
  // Extra empty locations only add write targets: completion cannot get
  // slower, and reachability per round is monotone in L.
  auto tight = enumerate_reachable_permutations(
      {.N = 4, .M = 8, .B = 2, .omega = 1, .locations = 3, .max_rounds = 8});
  auto roomy = enumerate_reachable_permutations(
      {.N = 4, .M = 8, .B = 2, .omega = 1, .locations = 7, .max_rounds = 8});
  ASSERT_TRUE(roomy.rounds_to_complete.has_value());
  if (tight.rounds_to_complete.has_value()) {
    EXPECT_LE(*roomy.rounds_to_complete, *tight.rounds_to_complete);
  }
  for (std::size_t r = 0;
       r < std::min(tight.reachable.size(), roomy.reachable.size()); ++r)
    EXPECT_GE(roomy.reachable[r], tight.reachable[r]);
}

TEST(EnumerateTest, OmegaScalesBudgetConsistently) {
  // The round budget omega*m scales with omega (a round is a COST window),
  // so completion-round counts stay comparable across omega; both machines
  // must complete and agree on the target.
  auto r1 = enumerate_reachable_permutations(
      {.N = 4, .M = 8, .B = 2, .omega = 1, .max_rounds = 8});
  auto r2 = enumerate_reachable_permutations(
      {.N = 4, .M = 8, .B = 2, .omega = 4, .max_rounds = 8});
  ASSERT_TRUE(r1.rounds_to_complete && r2.rounds_to_complete);
  EXPECT_EQ(r1.target, r2.target);
}

}  // namespace
