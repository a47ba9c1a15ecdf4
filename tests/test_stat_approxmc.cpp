// Statistical conformance of ApproxMC's (ε, δ) guarantee (ctest label
// `stat`, outside tier1): Pr[|R_F|/(1+ε) <= estimate <= (1+ε)·|R_F|] >= 1 − δ.
//
// Each family counts a fresh formula with a known count per seed, at the
// parameters of UniGen's line 9 (ε = 0.8, δ = 0.2).  A single run may fall
// out of band with probability
// up to δ, so the check is on the fraction: the number of out-of-band runs
// must not exceed the (1 − α) quantile of Binomial(runs, δ), the one-sided
// margin a correct counter exceeds with probability at most α.  Seeds are
// fixed, so a pass is repeatable; α bounds the chance that a correct
// counter fails on a different seed set.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <functional>
#include <string>

#include "counting/approxmc.hpp"
#include "workloads/circuits.hpp"
#include "workloads/sketch.hpp"

namespace unigen {
namespace {

constexpr double kEpsilon = 0.8;
constexpr double kDelta = 0.2;
constexpr double kAlpha = 1e-3;
constexpr int kSeeds = 40;

struct KnownCount {
  Cnf cnf;
  double log2_count = 0.0;
};

/// Smallest f with P[Binomial(n, p) > f] <= alpha.
int binomial_upper_quantile(int n, double p, double alpha) {
  double cdf = 0.0;
  for (int f = 0; f <= n; ++f) {
    double log_pmf = std::lgamma(n + 1.0) - std::lgamma(f + 1.0) -
                     std::lgamma(n - f + 1.0) + f * std::log(p) +
                     (n - f) * std::log1p(-p);
    cdf += std::exp(log_pmf);
    if (1.0 - cdf <= alpha) return f;
  }
  return n;
}

/// Counts kSeeds formulas of one family and checks the out-of-band
/// fraction.  `make(seed)` builds the seed's formula.
void check_family(const std::string& family,
                  const std::function<KnownCount(std::uint64_t)>& make) {
  int out_of_band = 0;
  int runs = 0;
  double worst = 0.0;
  const double band = std::log2(1.0 + kEpsilon);
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    const KnownCount k = make(seed);
    ApproxMcOptions opts;
    opts.epsilon = kEpsilon;
    opts.delta = kDelta;
    opts.num_threads = 3;  // the t = 3 iterations; counts are width-free
    Rng rng(0x57A7 + seed);
    const ApproxMcResult r = approx_count(k.cnf, opts, rng);
    ++runs;
    const double err =
        r.valid ? std::abs(r.log2_value() - k.log2_count) : INFINITY;
    worst = std::max(worst, err);
    if (err > band) ++out_of_band;
  }
  const int allowed = binomial_upper_quantile(runs, kDelta, kAlpha);
  std::printf("%s: %d/%d out of band (allowed %d), worst |log2 error| %.3f\n",
              family.c_str(), out_of_band, runs, allowed, worst);
  EXPECT_LE(out_of_band, allowed) << family;
}

TEST(ApproxMcStat, QuantileIsTheOneSidedMargin) {
  // 40 runs at δ = 0.2 expect 8 failures; the 0.999 quantile is 16.
  EXPECT_EQ(binomial_upper_quantile(kSeeds, kDelta, kAlpha), 16);
}

TEST(ApproxMcStat, SketchRowsStayInBand) {
  // TreeMax- and LoginService2-shaped rows at small scale: |S| = 19 and
  // 36, counts threshold · 2^(selector − spec).
  check_family("sketch TreeMax_like", [](std::uint64_t seed) {
    workloads::SketchOptions o;
    o.spec_input_bits = 4;
    o.selector_bits = 11;
    o.mode_bits = 8;
    o.threshold = 150;
    o.seed = seed;
    workloads::SketchBench b = workloads::make_sketch_bench(o, "TreeMax_like");
    return KnownCount{std::move(b.cnf), b.witness_count.log2()};
  });
  check_family("sketch LoginService2_like", [](std::uint64_t seed) {
    workloads::SketchOptions o;
    o.spec_input_bits = 4;
    o.selector_bits = 20;
    o.mode_bits = 16;
    o.threshold = 50000;
    o.seed = seed;
    workloads::SketchBench b =
        workloads::make_sketch_bench(o, "LoginService2_like");
    return KnownCount{std::move(b.cnf), b.witness_count.log2()};
  });
}

TEST(ApproxMcStat, AffineParityStaysInBand) {
  // GF(2)-affine solution sets: a hash row halves a cell exactly unless it
  // depends on the rows before it over the solution space, so every
  // iteration's estimate is exact or off by a power of two.
  check_family("affine parity", [](std::uint64_t seed) {
    workloads::AffineParityOptions o;
    o.input_bits = 18;
    o.rounds = 2;
    o.parity_constraints = 6;
    o.seed = seed;
    workloads::AffineParityBench b =
        workloads::make_affine_parity_bench(o, "affine");
    return KnownCount{std::move(b.cnf), b.witness_count.log2()};
  });
}

}  // namespace
}  // namespace unigen
