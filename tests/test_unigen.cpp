// Tests for UniGen (Algorithm 1): witness validity, both code paths
// (trivial and hashed), the Theorem-1 success probability, and statistical
// uniformity on formulas small enough to brute-force.

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <set>

#include "core/unigen.hpp"
#include "helpers.hpp"
#include "service/worker_pool.hpp"

namespace unigen {
namespace {

using test::brute_force_models;
using test::random_cnf;

std::vector<int> witness_key(const Model& m, const std::vector<Var>& vars) {
  std::vector<int> key;
  key.reserve(vars.size());
  for (const Var v : vars)
    key.push_back(static_cast<int>(m[static_cast<std::size_t>(v)]));
  return key;
}

TEST(UniGen, RejectsTooSmallEpsilon) {
  Cnf cnf(3);
  Rng rng(1);
  UniGenOptions opts;
  opts.epsilon = 1.5;
  UniGen sampler(cnf, opts, rng);
  EXPECT_THROW(sampler.prepare(), std::invalid_argument);
}

TEST(UniGen, UnsatFormulaReportsUnsat) {
  Cnf cnf(2);
  cnf.add_clause({Lit(0, false)});
  cnf.add_clause({Lit(0, true)});
  Rng rng(2);
  UniGen sampler(cnf, {}, rng);
  ASSERT_TRUE(sampler.prepare());
  EXPECT_EQ(sampler.sample().status, SampleResult::Status::kUnsat);
}

TEST(UniGen, TrivialModeWhenFewWitnesses) {
  // 3 witnesses of (a|b) over 2 vars: well below hiThresh.
  Cnf cnf(2);
  cnf.add_clause({Lit(0, false), Lit(1, false)});
  Rng rng(3);
  UniGen sampler(cnf, {}, rng);
  ASSERT_TRUE(sampler.prepare());
  EXPECT_TRUE(sampler.stats().trivial);
  for (int i = 0; i < 50; ++i) {
    const auto r = sampler.sample();
    ASSERT_TRUE(r.ok());
    EXPECT_TRUE(cnf.satisfied_by(r.witness));
  }
  EXPECT_DOUBLE_EQ(sampler.stats().success_rate(), 1.0);
}

TEST(UniGen, TrivialModeIsExactlyUniform) {
  Cnf cnf(3);
  cnf.add_clause({Lit(0, false), Lit(1, false), Lit(2, false)});  // 7 models
  Rng rng(5);
  UniGen sampler(cnf, {}, rng);
  ASSERT_TRUE(sampler.prepare());
  std::map<std::vector<int>, int> histogram;
  const int kSamples = 7000;
  const std::vector<Var> all{0, 1, 2};
  for (int i = 0; i < kSamples; ++i) {
    const auto r = sampler.sample();
    ASSERT_TRUE(r.ok());
    ++histogram[witness_key(r.witness, all)];
  }
  ASSERT_EQ(histogram.size(), 7u);
  for (const auto& [key, count] : histogram) {
    EXPECT_NEAR(static_cast<double>(count), kSamples / 7.0,
                4.0 * std::sqrt(kSamples / 7.0));
  }
}

TEST(UniGen, HashedModeProducesValidWitnesses) {
  const Cnf cnf = test::hashed_mode_formula();
  const auto truth = brute_force_models(cnf);
  ASSERT_GT(truth.size(), 89u) << "fixture must exceed hiThresh";
  Rng rng(7);
  UniGen sampler(cnf, {}, rng);
  ASSERT_TRUE(sampler.prepare());
  EXPECT_FALSE(sampler.stats().trivial);
  EXPECT_GT(sampler.stats().q, 0);
  int ok = 0;
  for (int i = 0; i < 200; ++i) {
    const auto r = sampler.sample();
    if (r.ok()) {
      ++ok;
      EXPECT_TRUE(cnf.satisfied_by(r.witness));
    } else {
      EXPECT_EQ(r.status, SampleResult::Status::kFail);
    }
  }
  EXPECT_GT(ok, 0);
}

TEST(UniGen, SuccessProbabilityBeatsTheorem1Bound) {
  // Theorem 1 guarantees >= 0.62; the paper observes ~1.  Assert the
  // theorem's bound with margin over a deterministic seed.
  const Cnf cnf = test::hashed_mode_formula();
  Rng rng(11);
  UniGen sampler(cnf, {}, rng);
  ASSERT_TRUE(sampler.prepare());
  const int kSamples = 300;
  for (int i = 0; i < kSamples; ++i) sampler.sample();
  EXPECT_GE(sampler.stats().success_rate(), 0.62);
  EXPECT_EQ(sampler.stats().samples_requested,
            static_cast<std::uint64_t>(kSamples));
}

TEST(UniGen, CoverageOfWitnessSpace) {
  // Almost-uniformity implies every witness has probability >=
  // 1/((1+ε)(|R_F|-1)); with enough draws nearly all witnesses appear.
  const Cnf cnf = test::hashed_mode_formula();
  const auto truth = brute_force_models(cnf);
  Rng rng(13);
  UniGen sampler(cnf, {}, rng);
  ASSERT_TRUE(sampler.prepare());
  std::set<std::vector<int>> seen;
  std::vector<Var> all(10);
  for (Var v = 0; v < 10; ++v) all[static_cast<std::size_t>(v)] = v;
  const int kSamples = 4000;
  for (int i = 0; i < kSamples; ++i) {
    const auto r = sampler.sample();
    if (r.ok()) seen.insert(witness_key(r.witness, all));
  }
  EXPECT_GE(static_cast<double>(seen.size()),
            0.9 * static_cast<double>(truth.size()));
}

TEST(UniGen, FrequenciesRespectLooseAlmostUniformBand) {
  // Per-witness frequency stays within a widened (1+ε) band of uniform.
  const Cnf cnf = test::hashed_mode_formula();
  const auto truth = brute_force_models(cnf);
  const double r_f = static_cast<double>(truth.size());
  Rng rng(17);
  UniGenOptions opts;
  opts.epsilon = 6.0;
  UniGen sampler(cnf, opts, rng);
  ASSERT_TRUE(sampler.prepare());
  std::map<std::vector<int>, int> histogram;
  std::vector<Var> all(10);
  for (Var v = 0; v < 10; ++v) all[static_cast<std::size_t>(v)] = v;
  int ok = 0;
  const int kSamples = 6000;
  for (int i = 0; i < kSamples; ++i) {
    const auto r = sampler.sample();
    if (!r.ok()) continue;
    ++ok;
    ++histogram[witness_key(r.witness, all)];
  }
  ASSERT_GT(ok, kSamples / 2);
  const double uniform = static_cast<double>(ok) / r_f;
  for (const auto& [key, count] : histogram) {
    // Theorem-1 band is (1+ε) each way; allow 2x statistical slack.
    EXPECT_LE(static_cast<double>(count), 2.0 * 7.0 * uniform);
  }
  // In practice the distribution is far tighter than the guarantee: the
  // most frequent witness should be within ~2x of uniform.
  int max_count = 0;
  for (const auto& [key, count] : histogram) max_count = std::max(max_count, count);
  EXPECT_LE(static_cast<double>(max_count), 2.0 * uniform + 5 * std::sqrt(uniform));
}

TEST(UniGen, PrepareIsAmortizedAcrossSamples) {
  const Cnf cnf = test::hashed_mode_formula();
  Rng rng(19);
  UniGen sampler(cnf, {}, rng);
  ASSERT_TRUE(sampler.prepare());
  const auto prepare_calls = sampler.stats().prepare_bsat_calls;
  EXPECT_GT(prepare_calls, 0u);
  ASSERT_TRUE(sampler.prepare());  // idempotent
  EXPECT_EQ(sampler.stats().prepare_bsat_calls, prepare_calls);
  sampler.sample();
  sampler.sample();
  EXPECT_EQ(sampler.stats().prepare_bsat_calls, prepare_calls);
  EXPECT_GT(sampler.stats().sample_bsat_calls, 0u);
}

TEST(UniGen, XorRowsDrawnOverSamplingSetOnly) {
  // With |S| = 8 on a 16-var formula the average row length must be ≈ 4,
  // not ≈ 8 — the paper's central optimization, observable in the stats.
  Cnf mirrored(16);
  mirrored.add_clause({Lit(0, false), Lit(1, false), Lit(2, false)});
  mirrored.add_clause({Lit(3, false), Lit(4, false), Lit(5, true)});
  mirrored.add_clause({Lit(6, false), Lit(7, true)});
  // Mirror vars 0..7 onto 8..15 so {0..7} is an independent support;
  // |R_F| = 7/8 * 7/8 * 3/4 * 256 = 147 > hiThresh, forcing hashed mode.
  for (Var v = 0; v < 8; ++v) mirrored.add_xor({v, v + 8}, false);
  mirrored.set_sampling_set({0, 1, 2, 3, 4, 5, 6, 7});
  Rng rng(23);
  UniGen sampler(mirrored, {}, rng);
  ASSERT_TRUE(sampler.prepare());
  EXPECT_FALSE(sampler.stats().trivial);
  int ok = 0;
  for (int i = 0; i < 100; ++i) ok += sampler.sample().ok();
  EXPECT_GT(ok, 0);
  ASSERT_GT(sampler.stats().total_xor_rows, 0u);
  EXPECT_LT(sampler.stats().average_xor_length(), 5.5);
  EXPECT_GT(sampler.stats().average_xor_length(), 2.5);
  // Witnesses are still full assignments satisfying the whole formula.
  Rng rng2(24);
  UniGen sampler2(mirrored, {}, rng2);
  const auto r = sampler2.sample();
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(mirrored.satisfied_by(r.witness));
}

TEST(UniGen, SampleWithoutExplicitPrepareWorks) {
  Cnf cnf(2);
  cnf.add_clause({Lit(0, false), Lit(1, false)});
  Rng rng(29);
  UniGen sampler(cnf, {}, rng);
  const auto r = sampler.sample();  // implicit prepare
  EXPECT_TRUE(r.ok());
}

TEST(UniGen, WarmEngineDrawsTheSameSProjections) {
  // S = {2..9} is not an independent support: var 0 is forced true by
  // ¬2, forced false by 3 and free otherwise (var 1 likewise by 4 and 5),
  // so the non-S bits of a cell's witnesses are whatever the serving
  // engine's saved phases steer them to — and, sitting below S in variable
  // order, they would decide a whole-witness lexicographic sort.  The same
  // request stream must still pick the same S-assignment on a fresh engine
  // and on a pre-warmed one that serves the requests in reverse order.
  Cnf cnf(10);
  cnf.add_clause({Lit(0, false), Lit(2, false)});
  cnf.add_clause({Lit(0, true), Lit(3, true)});
  cnf.add_clause({Lit(1, false), Lit(4, false)});
  cnf.add_clause({Lit(1, true), Lit(5, true)});
  cnf.set_sampling_set({2, 3, 4, 5, 6, 7, 8, 9});
  const std::vector<Var> s = cnf.sampling_set_or_all();
  UniGenOptions opts;
  opts.simplify.enabled = false;  // keep the free non-S variables free
  UniGenPrepared prep;
  UniGenStats stats;
  Rng prepare_rng(41);
  WorkerPool pool(1);
  unigen_prepare(cnf, s, opts, pool, prepare_rng, prep, stats);
  ASSERT_EQ(prep.mode, UniGenPrepared::Mode::kHashed);

  IncrementalBsat fresh(prep.formula(cnf), s);
  IncrementalBsat warm(prep.formula(cnf), s);
  const Rng streams(43);
  for (std::uint64_t k = 100; k < 140; ++k) {
    Rng rng = streams.fork_stream(k);
    unigen_accept_cell(warm, s, prep, opts, cnf.num_vars(), rng, stats, k);
  }
  constexpr std::uint64_t kRequests = 30;
  std::vector<AcceptCellResult> cold(kRequests + 1), hot(kRequests + 1);
  for (std::uint64_t k = 1; k <= kRequests; ++k) {
    Rng rng = streams.fork_stream(k);
    cold[k] = unigen_accept_cell(fresh, s, prep, opts, cnf.num_vars(), rng,
                                 stats, k);
  }
  for (std::uint64_t k = kRequests; k >= 1; --k) {
    Rng rng = streams.fork_stream(k);
    hot[k] = unigen_accept_cell(warm, s, prep, opts, cnf.num_vars(), rng,
                                stats, k);
  }
  int accepted = 0;
  for (std::uint64_t k = 1; k <= kRequests; ++k) {
    const AcceptCellResult& ra = cold[k];
    const AcceptCellResult& rb = hot[k];
    ASSERT_EQ(ra.status, rb.status) << "request " << k;
    ASSERT_EQ(ra.cell.size(), rb.cell.size()) << "request " << k;
    for (std::size_t i = 0; i < ra.cell.size(); ++i) {
      EXPECT_TRUE(cnf.satisfied_by(rb.cell[i]));
      EXPECT_EQ(witness_key(ra.cell[i], s), witness_key(rb.cell[i], s))
          << "request " << k << " slot " << i;
    }
    accepted += ra.ok();
  }
  EXPECT_GT(accepted, 0);
}

TEST(UniGen, StatsRecordThresholds) {
  const Cnf cnf = test::hashed_mode_formula();
  Rng rng(31);
  UniGenOptions opts;
  opts.epsilon = 6.0;
  UniGen sampler(cnf, opts, rng);
  ASSERT_TRUE(sampler.prepare());
  EXPECT_EQ(sampler.stats().pivot, 40u);
  EXPECT_EQ(sampler.stats().hi_thresh, 89u);
  EXPECT_GT(sampler.stats().approx_log2_count, 6.0);  // |R_F| > 64
}

}  // namespace
}  // namespace unigen
