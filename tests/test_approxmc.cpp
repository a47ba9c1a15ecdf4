// Tests for ApproxMC: parameter computations and the (ε, δ) guarantee
// checked empirically against known counts.

#include <gtest/gtest.h>

#include <cmath>

#include "counting/approxmc.hpp"
#include "helpers.hpp"

namespace unigen {
namespace {

TEST(ApproxMcParams, PivotFormula) {
  // pivot(0.8) = 2*ceil(3*sqrt(e)*(2.25)^2) = 2*ceil(25.04...) = 52.
  EXPECT_EQ(approxmc_pivot(0.8), 52u);
  // Monotone decreasing in epsilon.
  EXPECT_GT(approxmc_pivot(0.3), approxmc_pivot(0.8));
  EXPECT_GT(approxmc_pivot(0.8), approxmc_pivot(3.0));
  EXPECT_THROW(approxmc_pivot(0.0), std::invalid_argument);
  EXPECT_THROW(approxmc_pivot(-1.0), std::invalid_argument);
}

TEST(ApproxMcParams, IterationCountOddAndMonotone) {
  const int t_loose = approxmc_iteration_count(0.2);
  const int t_tight = approxmc_iteration_count(0.01);
  EXPECT_EQ(t_loose % 2, 1);
  EXPECT_EQ(t_tight % 2, 1);
  EXPECT_GE(t_tight, t_loose);
  EXPECT_LE(t_loose, 9);  // far below the CP'13 constant (137 for δ=0.2)
  EXPECT_THROW(approxmc_iteration_count(0.0), std::invalid_argument);
  EXPECT_THROW(approxmc_iteration_count(1.0), std::invalid_argument);
}

TEST(ApproxMc, ExactOnSmallFormulas) {
  // Fewer than pivot solutions: the result is exact.
  Cnf cnf(5);
  cnf.add_clause({Lit(0, false)});
  cnf.add_clause({Lit(1, true)});
  // count = 2^3 = 8 <= pivot(0.8) = 52
  Rng rng(1);
  const auto r = approx_count(cnf, {}, rng);
  ASSERT_TRUE(r.valid);
  EXPECT_TRUE(r.exact);
  EXPECT_EQ(r.cell_count, 8u);
  EXPECT_EQ(r.hash_count, 0u);
}

TEST(ApproxMc, UnsatIsExactZero) {
  Cnf cnf(3);
  cnf.add_clause({Lit(0, false)});
  cnf.add_clause({Lit(0, true)});
  Rng rng(2);
  const auto r = approx_count(cnf, {}, rng);
  ASSERT_TRUE(r.valid);
  EXPECT_TRUE(r.exact);
  EXPECT_EQ(r.cell_count, 0u);
}

TEST(ApproxMc, WithinToleranceOnFreeVariables) {
  // 2^14 models over 14 free variables.
  Cnf cnf(14);
  cnf.add_clause({Lit(0, false), Lit(0, true)});  // tautology, keeps vars
  Rng rng(3);
  ApproxMcOptions opts;  // eps=0.8, delta=0.2
  const auto r = approx_count(cnf, opts, rng);
  ASSERT_TRUE(r.valid);
  const double truth = 14.0;
  EXPECT_NEAR(r.log2_value(), truth, std::log2(1.8) + 0.2)
      << "estimate " << r.value();
}

TEST(ApproxMc, WithinToleranceOnXorSystem) {
  // Parity system with known count 2^(12-4) = 256.
  Cnf cnf(12);
  cnf.add_xor({0, 1, 2, 3}, true);
  cnf.add_xor({3, 4, 5}, false);
  cnf.add_xor({6, 7, 8, 9}, true);
  cnf.add_xor({9, 10, 11}, true);
  Rng rng(4);
  const auto r = approx_count(cnf, {}, rng);
  ASSERT_TRUE(r.valid);
  EXPECT_NEAR(r.log2_value(), 8.0, std::log2(1.8) + 0.2);
}

TEST(ApproxMc, ProjectedCountingUsesSamplingSet) {
  // y free copies of x: total count 2^8 but projected on x only 2^4...
  // Construct: 4 "real" vars, 4 mirrored vars, sampling set = real vars.
  Cnf cnf(8);
  for (Var v = 0; v < 4; ++v) cnf.add_xor({v, v + 4}, false);  // mirror
  cnf.set_sampling_set({0, 1, 2, 3});
  Rng rng(5);
  const auto r = approx_count(cnf, {}, rng);
  ASSERT_TRUE(r.valid);
  EXPECT_TRUE(r.exact);  // 16 projections <= pivot
  EXPECT_EQ(r.cell_count, 16u);
}

TEST(ApproxMc, DeadlineTimeoutReported) {
  Rng rng(6);
  Cnf cnf(30);  // 2^30 free-variable models force the hashed path
  ApproxMcOptions opts;
  opts.budget.deadline = Deadline::in_seconds(0.0);
  const ApproxMcAnytime r = approx_count_anytime(cnf, opts, rng);
  EXPECT_FALSE(r.result.valid);
  EXPECT_EQ(r.status, RequestStatus::kTimedOut);
}

class ApproxMcGuarantee : public ::testing::TestWithParam<int> {};

TEST_P(ApproxMcGuarantee, EstimateWithinToleranceMostOfTheTime) {
  // Random CNF with brute-forced truth; with δ=0.2 the estimate must land
  // within (1+ε) of the truth in the vast majority of seeds.  We assert
  // per-seed with a widened band (tolerance + slack) so the suite is
  // deterministic-stable, and rely on many seeds for coverage.
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 503 + 17);
  Cnf cnf = test::random_cnf(12, 18, 3, rng);
  const std::uint64_t truth = test::brute_force_count(cnf);
  if (truth == 0) GTEST_SKIP() << "unsat draw";
  Rng counter_rng(static_cast<std::uint64_t>(GetParam()) + 1000);
  ApproxMcOptions opts;
  opts.epsilon = 0.8;
  opts.delta = 0.05;
  const auto r = approx_count(cnf, opts, counter_rng);
  ASSERT_TRUE(r.valid);
  if (r.exact) {
    EXPECT_EQ(r.cell_count, truth);
  } else {
    const double err = std::abs(r.log2_value() -
                                std::log2(static_cast<double>(truth)));
    EXPECT_LE(err, std::log2(1.8) + 0.6) << "truth=" << truth;
  }
}

INSTANTIATE_TEST_SUITE_P(RandomSeeds, ApproxMcGuarantee,
                         ::testing::Range(0, 15));

}  // namespace
}  // namespace unigen
