// Tests for the count-safe CNF simplification pipeline: per-pass unit
// tests, the projected-count invariance property on randomized formulas
// (the contract every counter/sampler run now depends on), model
// reconstruction, and byte-identity of end-to-end counts/samples between
// the simplify-on and simplify-off paths.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "cnf/cnf.hpp"
#include "core/unigen.hpp"
#include "counting/approxmc.hpp"
#include "counting/exact_counter.hpp"
#include "helpers.hpp"
#include "service/sampler_pool.hpp"
#include "simplify/simplify.hpp"

namespace unigen {
namespace {

bool has_unit(const Cnf& cnf, Lit l) {
  for (const auto& c : cnf.clauses())
    if (c.size() == 1 && c[0] == l) return true;
  return false;
}

TEST(Simplify, UnitPropagationKeepsUnitsAndShrinksClauses) {
  // (a) ∧ (¬a ∨ b) ∧ (¬b ∨ c ∨ d): propagation fixes a and b; the last
  // clause loses ¬b.  The fixed variables stay pinned by re-emitted units,
  // so the model set over all variables is unchanged.
  Cnf cnf(4);
  cnf.add_unit(Lit(0, false));
  cnf.add_binary(Lit(0, true), Lit(1, false));
  cnf.add_ternary(Lit(1, true), Lit(2, false), Lit(3, false));
  Simplifier simp(cnf);
  EXPECT_EQ(simp.stats().units_fixed, 2u);
  EXPECT_TRUE(has_unit(simp.result(), Lit(0, false)));
  EXPECT_TRUE(has_unit(simp.result(), Lit(1, false)));
  EXPECT_EQ(test::brute_force_count(simp.result()),
            test::brute_force_count(cnf));
}

TEST(Simplify, TautologyAndDuplicateRemoval) {
  Cnf cnf(3);
  cnf.add_ternary(Lit(0, false), Lit(1, false), Lit(0, true));  // tautology
  cnf.add_clause({Lit(1, false), Lit(1, false), Lit(2, false)});
  Simplifier simp(cnf);
  EXPECT_EQ(simp.stats().tautologies_removed, 1u);
  ASSERT_EQ(simp.result().num_clauses(), 1u);
  EXPECT_EQ(simp.result().clauses()[0].size(), 2u);  // duplicate b dropped
  EXPECT_EQ(test::brute_force_count(simp.result()),
            test::brute_force_count(cnf));
}

TEST(Simplify, SubsumptionRemovesSupersets) {
  Cnf cnf(3);
  cnf.add_binary(Lit(0, false), Lit(1, false));
  cnf.add_ternary(Lit(0, false), Lit(1, false), Lit(2, false));  // subsumed
  Simplifier simp(cnf);
  EXPECT_EQ(simp.stats().subsumed_clauses, 1u);
  EXPECT_EQ(simp.result().num_clauses(), 1u);
}

TEST(Simplify, SelfSubsumingResolutionStrengthens) {
  // (a ∨ b) strengthens (¬a ∨ b ∨ c) to (b ∨ c), which then subsumes
  // nothing else; model set is preserved.
  Cnf cnf(3);
  cnf.set_sampling_set({0, 1, 2});  // freeze everything: no BVE/pure
  cnf.add_binary(Lit(0, false), Lit(1, false));
  cnf.add_ternary(Lit(0, true), Lit(1, false), Lit(2, false));
  Simplifier simp(cnf);
  EXPECT_GE(simp.stats().strengthened_literals, 1u);
  EXPECT_EQ(test::brute_force_count(simp.result()),
            test::brute_force_count(cnf));
}

TEST(Simplify, PureLiteralRestrictedToNonSamplingVars) {
  // b occurs only positively in both formulas; it may be pinned only when
  // it is outside S (pinning an S variable would delete projections).
  Cnf outside(2);
  outside.set_sampling_set({0});
  outside.add_binary(Lit(0, false), Lit(1, false));
  Simplifier simp_outside(outside);
  EXPECT_EQ(simp_outside.stats().pure_literals_fixed, 1u);
  EXPECT_TRUE(has_unit(simp_outside.result(), Lit(1, false)));

  Cnf inside(2);
  inside.set_sampling_set({0, 1});
  inside.add_binary(Lit(0, false), Lit(1, false));
  Simplifier simp_inside(inside);
  EXPECT_EQ(simp_inside.stats().pure_literals_fixed, 0u);
  EXPECT_EQ(test::brute_force_count(simp_inside.result()), 3u);
}

TEST(Simplify, BveEliminatesDefinedAuxAndReconstructs) {
  // y ↔ (x0 ∧ x1) with S = {x0, x1}: all resolvents of y's three clauses
  // are tautological, so BVE deletes the definition outright.  Models of
  // the simplified formula leave y unconstrained; extend_model must
  // restore the unique y = x0 ∧ x1.
  Cnf cnf(3);
  cnf.set_sampling_set({0, 1});
  const Lit x0(0, false), x1(1, false), y(2, false);
  cnf.add_binary(~y, x0);
  cnf.add_binary(~y, x1);
  cnf.add_ternary(y, ~x0, ~x1);
  Simplifier simp(cnf);
  EXPECT_EQ(simp.stats().eliminated_vars, 1u);
  EXPECT_TRUE(simp.needs_extension());
  EXPECT_EQ(simp.result().num_clauses(), 0u);
  for (int bits = 0; bits < 8; ++bits) {
    Model m(3);
    for (Var v = 0; v < 3; ++v)
      m[static_cast<std::size_t>(v)] =
          ((bits >> v) & 1) ? lbool::True : lbool::False;
    simp.extend_model(m);
    EXPECT_TRUE(cnf.satisfied_by(m)) << "bits=" << bits;
    // x0/x1 untouched, y forced to x0 ∧ x1.
    EXPECT_EQ(m[2], to_lbool(((bits & 1) != 0) && ((bits & 2) != 0)));
  }
}

TEST(Simplify, XorVariablesAreFrozen) {
  // v2 is outside S and occurs only positively in the OR-clauses, but it
  // is constrained by an XOR: neither pure-literal pinning nor BVE may
  // touch it.
  Cnf cnf(3);
  cnf.set_sampling_set({0});
  cnf.add_binary(Lit(0, false), Lit(2, false));
  cnf.add_xor({1, 2}, true);
  Simplifier simp(cnf);
  EXPECT_EQ(simp.stats().pure_literals_fixed, 0u);
  EXPECT_EQ(simp.stats().eliminated_vars, 0u);
  ASSERT_EQ(simp.result().num_xors(), 1u);
  EXPECT_EQ(test::brute_force_count(simp.result()),
            test::brute_force_count(cnf));
}

TEST(Simplify, DetectsUnsat) {
  Cnf cnf(2);
  cnf.add_unit(Lit(0, false));
  cnf.add_binary(Lit(0, true), Lit(1, false));
  cnf.add_unit(Lit(1, true));
  Simplifier simp(cnf);
  EXPECT_TRUE(simp.stats().unsat);
  EXPECT_EQ(test::brute_force_count(simp.result()), 0u);
}

TEST(Simplify, DisabledIsAVerbatimPassThrough) {
  Rng rng(7);
  Cnf cnf = test::random_cnf(8, 20, 3, rng);
  SimplifyOptions opts;
  opts.enabled = false;  // master switch honored even on direct construction
  Simplifier simp(cnf, opts);
  EXPECT_FALSE(simp.stats().ran);
  EXPECT_FALSE(simp.needs_extension());
  EXPECT_EQ(simp.result().clauses(), cnf.clauses());
  EXPECT_EQ(simp.result().num_vars(), cnf.num_vars());
}

TEST(Simplify, EmptySamplingSetCanEliminateEverything) {
  // S = ∅: the projected count is 1 (satisfiable) or 0; BVE may dissolve
  // the whole formula as long as that bit is preserved.
  Cnf cnf(4);
  cnf.set_sampling_set({});
  Rng rng(11);
  for (int round = 0; round < 20; ++round) {
    Cnf f = test::random_cnf(4, 6, 2, rng);
    f.set_sampling_set({});
    Simplifier simp(f);
    const std::uint64_t orig = test::brute_force_count(f) > 0 ? 1 : 0;
    const std::uint64_t simplified =
        test::brute_force_count(simp.result()) > 0 ? 1 : 0;
    EXPECT_EQ(orig, simplified) << "round " << round;
  }
}

// The central property: the projected model count over S is invariant
// under the whole pipeline, on ~100 randomized small CNFs with mixed
// sampling-set sizes (including S = full support and S = ∅), and every
// model of the simplified formula extends to a model of the original with
// identical values on all surviving variables.
TEST(Simplify, ProjectedCountInvarianceProperty) {
  Rng rng(20140603);
  int bve_fired = 0;
  for (int round = 0; round < 100; ++round) {
    const Var n = 4 + static_cast<Var>(rng.below(6));  // 4..9 variables
    const std::size_t c = 3 + rng.below(3 * static_cast<std::uint64_t>(n));
    const std::size_t k = 2 + rng.below(2);
    Cnf cnf = test::random_cnf(n, c, k, rng);

    // Sampling set: rotate through ∅, full support, and a random subset.
    std::vector<Var> s;
    if (round % 5 == 1) {
      for (Var v = 0; v < n; ++v) s.push_back(v);  // S = full support
    } else if (round % 5 != 0) {                   // round % 5 == 0: S = ∅
      for (Var v = 0; v < n; ++v)
        if (rng.flip()) s.push_back(v);
    }
    cnf.set_sampling_set(s);

    Simplifier simp(cnf);
    bve_fired += simp.stats().eliminated_vars > 0 ? 1 : 0;
    EXPECT_EQ(test::brute_force_projected_count(cnf, s),
              test::brute_force_projected_count(simp.result(), s))
        << "round " << round << " |S|=" << s.size();

    // Reconstruction: every model of the simplified formula, extended,
    // satisfies the original and keeps all surviving variables' values.
    for (Model m : test::brute_force_models(simp.result())) {
      const Model before = m;
      simp.extend_model(m);
      EXPECT_TRUE(cnf.satisfied_by(m)) << "round " << round;
      for (Var v = 0; v < n; ++v) {
        const auto sv = static_cast<std::size_t>(v);
        if (m[sv] != before[sv]) {
          // Only BVE-eliminated (hence non-S) variables may be rewritten.
          EXPECT_TRUE(std::find(s.begin(), s.end(), v) == s.end());
        }
      }
    }
  }
  // The property must actually exercise elimination, not vacuously pass.
  EXPECT_GT(bve_fired, 10);
}

// ExactCounter over the sampling set: with S = the full support the
// pipeline is restricted to model-set-preserving passes, so the exact
// total count is byte-identical pre- and post-simplification.
TEST(Simplify, ExactCounterIdenticalWhenSamplingSetIsFullSupport) {
  Rng rng(20140604);
  for (int round = 0; round < 25; ++round) {
    const Var n = 6 + static_cast<Var>(rng.below(5));
    Cnf cnf = test::random_cnf(n, 2 * static_cast<std::size_t>(n), 3, rng);
    std::vector<Var> s(static_cast<std::size_t>(n));
    for (Var v = 0; v < n; ++v) s[static_cast<std::size_t>(v)] = v;
    cnf.set_sampling_set(s);
    Simplifier simp(cnf);
    ExactCounter counter;
    const auto orig = counter.count(cnf);
    const auto post = counter.count(simp.result());
    ASSERT_TRUE(orig.has_value());
    ASSERT_TRUE(post.has_value());
    EXPECT_EQ(*orig, *post) << "round " << round;
  }
}

/// A hashed-mode fixture with a genuine independent support: inputs
/// x0..x6 under one clause (112 projections > hiThresh(ε=6) = 89), plus
/// Tseitin-defined auxiliaries y0 = x0∧x1, y1 = y0∨x3, y2 = x4∧x5 that BVE
/// can dissolve.  S = {x0..x6} is an independent support: the auxiliaries
/// are functions of the inputs, so |R_F| = 112 as well.
Cnf independent_support_formula() {
  Cnf cnf(10);
  cnf.add_ternary(Lit(0, false), Lit(1, false), Lit(2, false));
  const auto define_and = [&cnf](Var g, Lit a, Lit b) {
    cnf.add_binary(Lit(g, true), a);
    cnf.add_binary(Lit(g, true), b);
    cnf.add_ternary(Lit(g, false), ~a, ~b);
  };
  const auto define_or = [&cnf](Var g, Lit a, Lit b) {
    cnf.add_binary(Lit(g, false), ~a);
    cnf.add_binary(Lit(g, false), ~b);
    cnf.add_ternary(Lit(g, true), a, b);
  };
  define_and(7, Lit(0, false), Lit(1, false));
  define_or(8, Lit(7, false), Lit(3, false));
  define_and(9, Lit(4, false), Lit(5, false));
  cnf.set_sampling_set({0, 1, 2, 3, 4, 5, 6});
  return cnf;
}

TEST(Simplify, ApproxMcExactCountsByteIdenticalOnVsOff) {
  const Cnf cnf = independent_support_formula();
  ApproxMcOptions on;
  on.epsilon = 0.4;  // pivot = 122 > 112: the unhashed path counts exactly
  ApproxMcOptions off = on;
  off.simplify.enabled = false;
  Rng rng_on(99), rng_off(99);
  const ApproxMcResult a = approx_count(cnf, on, rng_on);
  const ApproxMcResult b = approx_count(cnf, off, rng_off);
  ASSERT_TRUE(a.valid && a.exact);
  ASSERT_TRUE(b.valid && b.exact);
  EXPECT_EQ(a.cell_count, 112u);
  EXPECT_EQ(a.cell_count, b.cell_count);
  EXPECT_EQ(a.hash_count, b.hash_count);
  EXPECT_GT(a.simplify.eliminated_vars, 0u);
  EXPECT_FALSE(b.simplify.ran);
}

TEST(Simplify, UniGenSamplesByteIdenticalOnVsOff) {
  // Fixed seed, hashed mode, S an independent support: the on- and
  // off-path RNG trajectories coincide (all probe counts are count-safe
  // invariants) and each S-projection has a unique extension, so the
  // sample streams must be byte-identical.
  const Cnf cnf = independent_support_formula();
  UniGenOptions on;
  UniGenOptions off;
  off.simplify.enabled = false;
  Rng rng_on(20140605), rng_off(20140605);
  UniGen sampler_on(cnf, on, rng_on);
  UniGen sampler_off(cnf, off, rng_off);
  ASSERT_TRUE(sampler_on.prepare());
  ASSERT_TRUE(sampler_off.prepare());
  ASSERT_FALSE(sampler_on.stats().trivial);
  ASSERT_GT(sampler_on.stats().simplify.eliminated_vars, 0u);

  for (int i = 0; i < 40; ++i) {
    const SampleResult a = sampler_on.sample();
    const SampleResult b = sampler_off.sample();
    ASSERT_EQ(a.status, b.status) << "sample " << i;
    EXPECT_EQ(a.witness, b.witness) << "sample " << i;
    if (a.ok()) {
      EXPECT_TRUE(cnf.satisfied_by(a.witness));
    }
  }
  EXPECT_EQ(sampler_on.stats().samples_ok, sampler_off.stats().samples_ok);
}

TEST(Simplify, SamplerPoolByteIdenticalOnVsOff) {
  const Cnf cnf = independent_support_formula();
  SamplerPoolOptions on;
  on.num_threads = 3;
  on.seed = 20140606;
  SamplerPoolOptions off = on;
  off.unigen.simplify.enabled = false;
  SamplerPool pool_on(cnf, on);
  SamplerPool pool_off(cnf, off);
  ASSERT_TRUE(pool_on.prepare());
  ASSERT_TRUE(pool_off.prepare());
  const auto a = pool_on.sample_many(60);
  const auto b = pool_off.sample_many(60);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].status, b[i].status) << i;
    EXPECT_EQ(a[i].witness, b[i].witness) << i;
  }
}

// Seed-fixed uniformity regression with simplification on: the witness
// histogram over the original formula's model space must stay flat when
// the solver only ever sees the shrunk formula.
TEST(Simplify, UniformityRegressionWithSimplificationOn) {
  const Cnf cnf = independent_support_formula();
  const auto truth = test::brute_force_models(cnf);
  ASSERT_EQ(truth.size(), 112u);
  Rng rng(20140607);
  UniGenOptions opts;  // simplification on by default
  UniGen sampler(cnf, opts, rng);
  ASSERT_TRUE(sampler.prepare());
  ASSERT_FALSE(sampler.stats().trivial) << "fixture must stay hashed";

  std::map<Model, int> histogram;
  int ok = 0;
  constexpr int kRequests = 4000;
  for (int i = 0; i < kRequests; ++i) {
    const auto r = sampler.sample();
    if (!r.ok()) continue;
    ++ok;
    ASSERT_TRUE(cnf.satisfied_by(r.witness));
    ++histogram[r.witness];
  }
  ASSERT_GT(ok, kRequests / 2);
  // Chi-square per degree of freedom concentrates around 1 under perfect
  // uniformity (same criterion as tests/test_uniformity.cpp); a
  // reconstruction or count-safety bug skews the histogram hard.
  const double expected =
      static_cast<double>(ok) / static_cast<double>(truth.size());
  double chi2 = 0.0;
  for (const Model& m : truth) {
    const auto it = histogram.find(m);
    const double observed =
        it == histogram.end() ? 0.0 : static_cast<double>(it->second);
    chi2 += (observed - expected) * (observed - expected) / expected;
  }
  EXPECT_LT(chi2 / static_cast<double>(truth.size() - 1), 1.5);
  EXPECT_EQ(histogram.size(), truth.size());
}

}  // namespace
}  // namespace unigen
