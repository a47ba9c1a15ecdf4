// Tests for ApproxMC: parameter computations, the (ε, δ) guarantee
// checked empirically against known counts, and the hash-count search
// contract of one median iteration (counting/approxmc_core.hpp).

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <stdexcept>
#include <string>

#include "counting/approxmc.hpp"
#include "helpers.hpp"
#include "sat/incremental_bsat.hpp"
#include "workloads/sketch.hpp"

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
  // δ outside (0, 1) is refused on entry, before the probe could count.
  ApproxMcOptions bad;
  bad.delta = 1.0;
  EXPECT_THROW(approx_count(cnf, bad, rng), std::invalid_argument);
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

// ---- the hash-count search contract --------------------------------------
//
// Where an iteration's search starts, and which probes it makes, must not
// change what it finds: the smallest level m* with a small cell and that
// cell's size.  Only the probe count may move.

struct SearchCase {
  std::string name;
  Cnf cnf;
  std::vector<Var> s;
  std::uint64_t pivot;
};

/// Fuzz formulas (|S| <= 12) at the production pivot and at small pivots
/// that push their m* through the whole level range, plus one sketch row
/// at small scale, whose m* sits well above 4.  The sketch row costs tens
/// of milliseconds per probe, so it runs at the production pivot only.
std::vector<SearchCase> search_cases() {
  std::vector<SearchCase> out;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    const test::FuzzCase fc = test::make_fuzz_case(seed);
    for (const std::uint64_t pivot : {52, 8, 1})
      out.push_back({"fuzz " + std::to_string(seed) + " pivot " +
                         std::to_string(pivot),
                     fc.cnf, fc.sampling_set, pivot});
  }
  workloads::SketchOptions o;
  o.spec_input_bits = 6;
  o.selector_bits = 15;
  o.mode_bits = 10;
  o.threshold = 700;
  o.seed = 3;
  workloads::SketchBench b = workloads::make_sketch_bench(o, "LLReverse_like");
  std::vector<Var> s = b.cnf.sampling_set_or_all();
  out.push_back({"sketch", std::move(b.cnf), std::move(s), 52});
  return out;
}

/// One iteration from `start_m` on `engine`, drawing its hash from stream
/// `stream`.
ApproxMcCoreOutcome iteration(IncrementalBsat& engine, const SearchCase& c,
                              std::uint32_t start_m, std::uint64_t stream) {
  Rng rng = Rng(0x5EA2C4).fork_stream(stream);
  return approxmc_core_iteration(engine, static_cast<std::uint32_t>(c.s.size()),
                                 c.pivot, ApproxMcOptions{}, start_m, rng);
}

ApproxMcCoreOutcome fresh_iteration(const SearchCase& c, std::uint32_t start_m,
                                    std::uint64_t stream) {
  IncrementalBsat engine(c.cnf, c.s);
  return iteration(engine, c, start_m, stream);
}

TEST(ApproxMcSearch, EveryStartFindsTheColdOutcome) {
  for (const SearchCase& c : search_cases()) {
    const ApproxMcCoreOutcome cold = fresh_iteration(c, 0, 0);
    for (std::uint32_t start = 1; start <= c.s.size() + 1; ++start) {
      const ApproxMcCoreOutcome o = fresh_iteration(c, start, 0);
      SCOPED_TRACE(c.name + " start " + std::to_string(start));
      EXPECT_TRUE(o.leapfrogged);
      EXPECT_EQ(o.ok, cold.ok);
      EXPECT_EQ(o.cell_count, cold.cell_count);
      EXPECT_EQ(o.hash_count, cold.hash_count);
    }
  }
}

TEST(ApproxMcSearch, StartAtOwnMStarCostsAtMostThreeProbes) {
  // Bisecting down from 0 costs 1 + ⌈log2 m*⌉ probes; the size-guided
  // search probes m*, its guess below, and at most m* − 1.
  std::uint32_t deepest = 0;
  for (const SearchCase& c : search_cases()) {
    for (std::uint64_t stream = 0; stream < 3; ++stream) {
      const ApproxMcCoreOutcome cold = fresh_iteration(c, 0, stream);
      if (!cold.ok) continue;
      const ApproxMcCoreOutcome own =
          fresh_iteration(c, cold.hash_count, stream);
      SCOPED_TRACE(c.name + " m* " + std::to_string(cold.hash_count));
      EXPECT_TRUE(own.ok);
      EXPECT_EQ(own.hash_count, cold.hash_count);
      EXPECT_EQ(own.cell_count, cold.cell_count);
      EXPECT_LE(own.bsat_calls, 3u);
      deepest = std::max(deepest, cold.hash_count);
    }
  }
  EXPECT_GE(deepest, 8u) << "no case reaches the levels the bound is about";
}

TEST(ApproxMcSearch, ColdStartCostIsAPureFunctionOfTheStream) {
  // Deterministic budgets charge an iteration its probe count, so a cold
  // start must make the same probes on any engine: fresh, or one that has
  // served another iteration first.
  for (const SearchCase& c : search_cases()) {
    for (std::uint64_t stream = 0; stream < 3; ++stream) {
      const ApproxMcCoreOutcome a = fresh_iteration(c, 0, stream);
      const ApproxMcCoreOutcome b = fresh_iteration(c, 0, stream);
      IncrementalBsat used(c.cnf, c.s);
      iteration(used, c, static_cast<std::uint32_t>(c.s.size() / 2),
                stream + 100);
      const ApproxMcCoreOutcome u = iteration(used, c, 0, stream);
      SCOPED_TRACE(c.name + " stream " + std::to_string(stream));
      EXPECT_FALSE(a.leapfrogged);
      EXPECT_EQ(a.bsat_calls, b.bsat_calls);
      EXPECT_EQ(a.bsat_calls, u.bsat_calls);
      EXPECT_EQ(a.ok, u.ok);
      EXPECT_EQ(a.cell_count, u.cell_count);
      EXPECT_EQ(a.hash_count, u.hash_count);
    }
  }
}

TEST(ApproxMcSearch, ColdStartSolverCallsAreBounded) {
  // A cold start finds E, the shallowest level with an empty cell, with
  // one-model probes, then runs the size-guided search down from E − 1.
  // Its solver calls, part by part:
  //   * the ladder gallops 1, 2, 4, ... to the first empty level (or n)
  //     and bisects the last gap: at most 2⌈log2(n + 1)⌉ probes of at most
  //     one call each (none when the epoch's model store already holds a
  //     member of the cell);
  //   * a full-cap probe makes one call per model it adds to the store,
  //     plus one that proves a small cell exhausted.  Descending from
  //     E − 1, each shallower probe reads the deeper probes' models from
  //     the store, so the probes down to the first big cell add at most
  //     pivot + 1 models between them, and the probes after it, which lie
  //     inside that cell, at most pivot + 1 more;
  //   * the + 2, with whatever the ladder left unused, pays the exhaustion
  //     calls of the small probes.
  // The last two parts hold for the shapes these searches make (at most
  // one big full-cap probe, at most five small ones), not for every hash:
  // a long run of one-solution cells costs one exhaustion call per level.
  // The cold gallop this replaced enumerated pivot + 1 models at each big
  // level m = 1, 2, 4, ... below m*, over 200 calls on the sketch case.
  for (const SearchCase& c : search_cases()) {
    const std::uint64_t n = c.s.size();
    const std::uint64_t bound =
        2 * (c.pivot + 1) + 2 * std::bit_width(n) + 2;  // ⌈log2(n+1)⌉
    for (std::uint64_t stream = 0; stream < 3; ++stream) {
      ApproxMcCoreOutcome o;
      const std::uint64_t calls =
          test::solver_calls([&] { o = fresh_iteration(c, 0, stream); });
      SCOPED_TRACE(c.name + " stream " + std::to_string(stream));
      EXPECT_LE(calls, bound) << "probes " << o.bsat_calls;
    }
  }
}

}  // namespace
}  // namespace unigen
