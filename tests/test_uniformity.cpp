// Seed-fixed chi-square uniformity regression for the *hashed* sampling
// path.  The acceptance band [loThresh, hiThresh] of Algorithm 2 (with its
// √2 factors) is what Theorem 1's almost-uniformity rests on; a regression
// in compute_kappa_pivot or in the accept-cell loop shifts the per-witness
// distribution, which this test catches as an inflated chi-square statistic
// against the brute-forced witness space.

#include <gtest/gtest.h>

#include <map>

#include "core/unigen.hpp"
#include "helpers.hpp"
#include "service/sampler_pool.hpp"

namespace unigen {
namespace {

/// 112 models over 7 vars: small enough that N draws resolve per-witness
/// frequencies, large enough (> hiThresh(ε=6) = 89) to stay in hashed mode.
Cnf chi_square_formula() {
  Cnf cnf(7);
  cnf.add_clause({Lit(0, false), Lit(1, false), Lit(2, false)});
  return cnf;
}

double chi_square_per_df(const std::map<Model, int>& histogram,
                         const std::vector<Model>& truth, int draws) {
  const double expected =
      static_cast<double>(draws) / static_cast<double>(truth.size());
  double chi2 = 0.0;
  for (const Model& m : truth) {
    const auto it = histogram.find(m);
    const double observed =
        it == histogram.end() ? 0.0 : static_cast<double>(it->second);
    const double d = observed - expected;
    chi2 += d * d / expected;
  }
  return chi2 / static_cast<double>(truth.size() - 1);
}

TEST(Uniformity, HashedPathChiSquareRegression) {
  const Cnf cnf = chi_square_formula();
  const auto truth = test::brute_force_models(cnf);
  ASSERT_EQ(truth.size(), 112u);
  Rng rng(20140601);  // seed-fixed: this test is fully deterministic
  UniGen sampler(cnf, {}, rng);
  ASSERT_TRUE(sampler.prepare());
  ASSERT_FALSE(sampler.stats().trivial) << "fixture must stay hashed";

  std::map<Model, int> histogram;
  int ok = 0;
  constexpr int kRequests = 6000;
  for (int i = 0; i < kRequests; ++i) {
    const auto r = sampler.sample();
    if (!r.ok()) continue;
    ++ok;
    ++histogram[r.witness];
  }
  ASSERT_GT(ok, kRequests / 2);
  // Under perfect uniformity chi2/df concentrates around 1 (stddev
  // sqrt(2/df) ≈ 0.13 here).  The band-regression failure modes push it
  // well above: re-measure before loosening this bound.
  EXPECT_LT(chi_square_per_df(histogram, truth, ok), 1.5);
  // Every witness should appear — the lower almost-uniformity bound keeps
  // each probability >= 1/((1+ε)(|R_F|-1)).
  EXPECT_EQ(histogram.size(), truth.size());
}

TEST(Uniformity, ParallelPrepareChiSquareRegression) {
  // Seed-fixed regression with the *whole* pipeline parallel: prepare()'s
  // ApproxMC call fans across the pool's workers and sampling fans across
  // the same workers.  A q shifted by a counting
  // regression shows up here as an inflated chi-square statistic.
  const Cnf cnf = chi_square_formula();
  const auto truth = test::brute_force_models(cnf);
  SamplerPoolOptions opts;
  opts.num_threads = 4;
  opts.seed = 20140603;
  SamplerPool pool(cnf, opts);
  ASSERT_TRUE(pool.prepare());
  ASSERT_EQ(pool.prepared().mode, UniGenPrepared::Mode::kHashed);
  EXPECT_GE(pool.stats().prepare.counter_solver_rebuilds, 1u);
  std::map<Model, int> histogram;
  int ok = 0;
  for (const auto& r : pool.sample_many(6000)) {
    if (!r.ok()) continue;
    ++ok;
    ++histogram[r.witness];
  }
  ASSERT_GT(ok, 3000);
  EXPECT_LT(chi_square_per_df(histogram, truth, ok), 1.5);
  EXPECT_EQ(histogram.size(), truth.size());
}

TEST(Uniformity, ParallelServiceChiSquareMatchesSingleEngine) {
  // The pool's per-thread engines and keyed RNG streams must not skew the
  // distribution: same chi-square criterion, sampled through the service.
  const Cnf cnf = chi_square_formula();
  const auto truth = test::brute_force_models(cnf);
  SamplerPoolOptions opts;
  opts.num_threads = 4;
  opts.seed = 20140602;
  SamplerPool pool(cnf, opts);
  ASSERT_TRUE(pool.prepare());

  std::map<Model, int> histogram;
  int ok = 0;
  const auto results = pool.sample_many(6000);
  for (const auto& r : results) {
    if (!r.ok()) continue;
    ++ok;
    ++histogram[r.witness];
  }
  ASSERT_GT(ok, 3000);
  EXPECT_LT(chi_square_per_df(histogram, truth, ok), 1.5);
  EXPECT_EQ(histogram.size(), truth.size());
}

}  // namespace
}  // namespace unigen
