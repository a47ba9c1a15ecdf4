// Stress and lifecycle tests for the CDCL core: clause-database reduction,
// restarts, long XOR chains, repeated incremental use.

#include <gtest/gtest.h>

#include "helpers.hpp"
#include "sat/enumerator.hpp"
#include "sat/solver.hpp"

namespace unigen {
namespace {

using test::brute_force_count;
using test::random_cnf;

TEST(SolverStress, ClauseDatabaseReductionTriggers) {
  // A hard near-threshold instance with a tiny reduce-db budget must
  // exercise reduction without losing correctness.
  Rng rng(3);
  const Cnf cnf = random_cnf(60, 252, 3, rng);  // ratio 4.2
  Solver s;
  s.options().reduce_db_first = 64;
  s.load(cnf);
  const lbool got = s.solve();
  ASSERT_NE(got, lbool::Undef);
  Solver reference;
  reference.load(cnf);
  EXPECT_EQ(got, reference.solve());
  if (got == lbool::True) {
    EXPECT_TRUE(cnf.satisfied_by(s.model()));
  }
  EXPECT_GT(s.stats().removed_clauses + (s.stats().conflicts < 64 ? 1 : 0),
            0u);
}

TEST(SolverStress, RestartsHappenOnHardInstances) {
  Rng rng(5);
  const Cnf cnf = random_cnf(70, 294, 3, rng);
  Solver s;
  s.options().restart_base = 16;
  s.load(cnf);
  ASSERT_NE(s.solve(), lbool::Undef);
  EXPECT_GT(s.stats().restarts, 1u);
}

TEST(SolverStress, VeryLongXorChain) {
  // x0 ^ x1 = 1, x1 ^ x2 = 1, ..., forces alternation over 300 vars.
  Solver s;
  std::vector<Var> v;
  for (int i = 0; i < 300; ++i) v.push_back(s.new_var());
  for (int i = 0; i + 1 < 300; ++i) ASSERT_TRUE(s.add_xor({v[i], v[i + 1]}, true));
  ASSERT_TRUE(s.add_clause({Lit(v[0], false)}));  // x0 = 1
  ASSERT_EQ(s.solve(), lbool::True);
  for (int i = 0; i < 300; ++i) {
    EXPECT_EQ(s.model()[v[i]] == lbool::True, i % 2 == 0) << "i=" << i;
  }
}

TEST(SolverStress, WideXorWithForcedTail) {
  Solver s;
  std::vector<Var> v;
  for (int i = 0; i < 200; ++i) v.push_back(s.new_var());
  ASSERT_TRUE(s.add_xor(v, true));
  for (int i = 0; i < 199; ++i) ASSERT_TRUE(s.add_clause({Lit(v[i], true)}));
  ASSERT_EQ(s.solve(), lbool::True);
  EXPECT_EQ(s.model()[v[199]], lbool::True);
}

TEST(SolverStress, ManyReSolvesWithAssumptions) {
  Rng rng(7);
  const Cnf cnf = random_cnf(20, 60, 3, rng);
  Solver s;
  s.load(cnf);
  const lbool base = s.solve();
  ASSERT_EQ(base, lbool::True);
  for (int round = 0; round < 50; ++round) {
    const Var a = static_cast<Var>(rng.below(20));
    const Var b = static_cast<Var>(rng.below(20));
    const std::vector<Lit> assumptions{Lit(a, rng.flip()), Lit(b, rng.flip())};
    const lbool got = s.solve(assumptions);
    ASSERT_NE(got, lbool::Undef);
    if (got == lbool::True) {
      EXPECT_TRUE(cnf.satisfied_by(s.model()));
      for (const Lit l : assumptions) {
        EXPECT_EQ(eval(s.model(), l), lbool::True);
      }
    }
  }
  // Solver still consistent with an unconstrained solve.
  EXPECT_EQ(s.solve(), lbool::True);
}

TEST(SolverStress, EnumerationAfterBudgetedUndef) {
  // A solve interrupted by a conflict budget must not corrupt later
  // complete enumeration.
  Rng rng(11);
  const Cnf cnf = random_cnf(12, 30, 3, rng);
  Solver s;
  s.load(cnf);
  (void)s.solve_limited({}, Deadline::never(), 1);  // likely Undef
  EnumerateOptions opts;
  opts.store_models = false;
  const auto result = enumerate_models(s, opts);
  ASSERT_TRUE(result.exhausted);
  EXPECT_EQ(result.count, brute_force_count(cnf));
}

TEST(SolverStress, RandomPolarityStillCorrect) {
  Rng rng(13);
  Rng solver_rng(17);
  for (int round = 0; round < 10; ++round) {
    const Cnf cnf = random_cnf(10, 44, 3, rng);
    Solver s;
    s.set_rng(&solver_rng);
    s.options().random_initial_phase = true;
    s.load(cnf);
    const lbool got = s.solve();
    ASSERT_NE(got, lbool::Undef);
    EXPECT_EQ(got == lbool::True, brute_force_count(cnf) > 0);
  }
}

TEST(SolverStress, MixedCnfXorEnumerationLargeish) {
  // 2^12 solution space cut by xors; exhaustive enumeration stays exact.
  Solver s;
  std::vector<Var> v;
  for (int i = 0; i < 14; ++i) v.push_back(s.new_var());
  ASSERT_TRUE(s.add_xor({v[0], v[3], v[7], v[11]}, true));
  ASSERT_TRUE(s.add_xor({v[1], v[5], v[9]}, false));
  ASSERT_TRUE(s.add_clause({Lit(v[2], false), Lit(v[6], false)}));
  EnumerateOptions opts;
  opts.store_models = false;
  const auto result = enumerate_models(s, opts);
  ASSERT_TRUE(result.exhausted);
  // 2^14 * 1/2 * 1/2 * 3/4 = 3072.
  EXPECT_EQ(result.count, 3072u);
}

TEST(SolverStress, GaussStatsPopulated) {
  Solver s;
  std::vector<Var> v;
  for (int i = 0; i < 8; ++i) v.push_back(s.new_var());
  s.add_xor({v[0], v[1]}, true);
  s.add_xor({v[1], v[2]}, true);
  s.add_xor({v[0], v[2], v[3]}, true);  // implies v3 = 1
  ASSERT_EQ(s.solve(), lbool::True);
  EXPECT_GT(s.stats().gauss_rows, 0u);
  EXPECT_EQ(s.model()[v[3]], lbool::True);
}

}  // namespace
}  // namespace unigen
