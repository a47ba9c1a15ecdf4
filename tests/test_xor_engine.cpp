// Tests for native XOR propagation and the level-0 Gaussian elimination:
// equivalence with brute force, with CNF expansion, and with GF(2) rank.

#include <gtest/gtest.h>

#include "helpers.hpp"
#include "sat/enumerator.hpp"
#include "sat/solver.hpp"
#include "util/gf2.hpp"

namespace unigen {
namespace {

using test::brute_force_count;
using test::random_cnf_xor;

Lit pos(Var v) { return Lit(v, false); }
Lit neg(Var v) { return Lit(v, true); }

TEST(XorEngine, TwoVarXorForcesInequality) {
  Solver s;
  const Var a = s.new_var();
  const Var b = s.new_var();
  ASSERT_TRUE(s.add_xor({a, b}, true));
  ASSERT_TRUE(s.add_clause({pos(a)}));
  ASSERT_EQ(s.solve(), lbool::True);
  EXPECT_EQ(s.model()[b], lbool::False);
}

TEST(XorEngine, TwoVarXnorForcesEquality) {
  Solver s;
  const Var a = s.new_var();
  const Var b = s.new_var();
  ASSERT_TRUE(s.add_xor({a, b}, false));
  ASSERT_TRUE(s.add_clause({neg(a)}));
  ASSERT_EQ(s.solve(), lbool::True);
  EXPECT_EQ(s.model()[b], lbool::False);
}

TEST(XorEngine, UnitXor) {
  Solver s;
  const Var a = s.new_var();
  ASSERT_TRUE(s.add_xor({a}, true));
  ASSERT_EQ(s.solve(), lbool::True);
  EXPECT_EQ(s.model()[a], lbool::True);
}

TEST(XorEngine, EmptyXorTrueIsUnsat) {
  Solver s;
  s.new_var();
  EXPECT_FALSE(s.add_xor({}, true));
  EXPECT_EQ(s.solve(), lbool::False);
}

TEST(XorEngine, DuplicateVarsCancel) {
  Solver s;
  const Var a = s.new_var();
  const Var b = s.new_var();
  // a ^ a ^ b = 1  simplifies to  b = 1.
  ASSERT_TRUE(s.add_xor({a, a, b}, true));
  ASSERT_EQ(s.solve(), lbool::True);
  EXPECT_EQ(s.model()[b], lbool::True);
}

TEST(XorEngine, InconsistentXorSystemIsUnsat) {
  Solver s;
  const Var a = s.new_var();
  const Var b = s.new_var();
  const Var c = s.new_var();
  ASSERT_TRUE(s.add_xor({a, b}, true));
  ASSERT_TRUE(s.add_xor({b, c}, true));
  // a^b=1, b^c=1 => a^c=0; asserting a^c=1 is inconsistent.
  s.add_xor({a, c}, true);
  EXPECT_EQ(s.solve(), lbool::False);
}

TEST(XorEngine, LongXorPropagatesLastVar) {
  Solver s;
  std::vector<Var> vars;
  for (int i = 0; i < 20; ++i) vars.push_back(s.new_var());
  ASSERT_TRUE(s.add_xor(vars, true));
  // Fix all but the last to false: the last must be true.
  for (int i = 0; i < 19; ++i) ASSERT_TRUE(s.add_clause({neg(vars[i])}));
  ASSERT_EQ(s.solve(), lbool::True);
  EXPECT_EQ(s.model()[vars[19]], lbool::True);
  EXPECT_GT(s.stats().xor_propagations + s.stats().gauss_units, 0u);
}

TEST(XorEngine, XorOnlySystemCountMatchesRank) {
  // Solution count of a pure XOR system = 2^(n - rank).
  Rng rng(3);
  for (int round = 0; round < 10; ++round) {
    const Var n = 10;
    Cnf cnf(n);
    Gf2System system(static_cast<std::size_t>(n));
    bool consistent = true;
    for (int i = 0; i < 6; ++i) {
      std::vector<Var> vars;
      for (Var v = 0; v < n; ++v)
        if (rng.flip()) vars.push_back(v);
      if (vars.empty()) vars.push_back(0);
      const bool rhs = rng.flip();
      cnf.add_xor(vars, rhs);
      std::vector<std::uint32_t> cols(vars.begin(), vars.end());
      consistent = system.add_constraint(cols, rhs) && consistent;
    }
    const std::uint64_t expected =
        consistent ? (std::uint64_t{1} << (n - system.rank())) : 0;
    EXPECT_EQ(brute_force_count(cnf), expected);

    Solver solver;
    solver.load(cnf);
    EnumerateOptions opts;
    opts.store_models = false;
    const auto result = enumerate_models(solver, opts);
    EXPECT_TRUE(result.exhausted);
    EXPECT_EQ(result.count, expected) << "round " << round;
  }
}

TEST(XorEngine, GaussFindsUnits) {
  Solver s;
  const Var a = s.new_var();
  const Var b = s.new_var();
  const Var c = s.new_var();
  // a^b=1, a^c=1, b^c=1 is inconsistent; with rhs flipped on the last it
  // implies nothing by watching alone until decisions are made, but Gauss
  // can see b^c=0 from rows 1+2.
  ASSERT_TRUE(s.add_xor({a, b}, true));
  ASSERT_TRUE(s.add_xor({a, c}, true));
  ASSERT_TRUE(s.add_xor({b, c}, false));
  EXPECT_EQ(s.solve(), lbool::True);
}

TEST(XorEngine, GaussProjectsGateParitiesOntoThePrioritySet) {
  // S = {x0..x5}; two parities of S run through XOR gates outside S:
  //   a1 = x0^x2, a2 = a1^x1, a2^x3 = 1   =>  x0^x1^x2^x3 = 1,
  //   b1 = x0^x4, b2 = b1^x1, b2^x5 = 0   =>  x0^x1^x4^x5 = 0.
  // Together they imply x2^x3^x4^x5 = 1, a relation of four S variables
  // that no row of at most three variables carries.  Eliminating the gate
  // columns first hands both parities to the priority-local reduction,
  // which pivots two S variables out of branching: the search then
  // decides the other four and never conflicts.
  Solver s;
  std::vector<Var> x;
  for (int i = 0; i < 6; ++i) x.push_back(s.new_var());
  const Var a1 = s.new_var(), a2 = s.new_var();
  const Var b1 = s.new_var(), b2 = s.new_var();
  ASSERT_TRUE(s.add_xor({a1, x[0], x[2]}, false));
  ASSERT_TRUE(s.add_xor({a2, a1, x[1]}, false));
  ASSERT_TRUE(s.add_xor({a2, x[3]}, true));
  ASSERT_TRUE(s.add_xor({b1, x[0], x[4]}, false));
  ASSERT_TRUE(s.add_xor({b2, b1, x[1]}, false));
  ASSERT_TRUE(s.add_xor({b2, x[5]}, false));
  s.set_priority_vars({x[2], x[3], x[4], x[5], x[0], x[1]});
  ASSERT_EQ(s.solve(), lbool::True);
  EXPECT_EQ(s.stats().conflicts, 0u);
  EXPECT_EQ(s.stats().decisions, 4u);  // |S| minus the rank of 2
  const Model& m = s.model();
  const auto t = [&](Var v) { return m[v] == lbool::True; };
  EXPECT_TRUE(t(x[0]) ^ t(x[1]) ^ t(x[2]) ^ t(x[3]));
  EXPECT_FALSE(t(x[0]) ^ t(x[1]) ^ t(x[4]) ^ t(x[5]));
}

TEST(XorEngine, SolutionCountUnaffectedByGaussToggle) {
  Rng rng(17);
  for (const bool gauss : {false, true}) {
    Rng local(99);
    const Cnf cnf = random_cnf_xor(9, 12, 3, 3, local);
    Solver solver;
    solver.options().xor_gauss = gauss;
    solver.load(cnf);
    EnumerateOptions opts;
    opts.store_models = false;
    const auto result = enumerate_models(solver, opts);
    EXPECT_TRUE(result.exhausted);
    EXPECT_EQ(result.count, brute_force_count(cnf)) << "gauss=" << gauss;
  }
  (void)rng;
}

// --- property test: CNF+XOR verdicts match brute force ---

class XorFuzz : public ::testing::TestWithParam<int> {};

TEST_P(XorFuzz, MatchesBruteForce) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 6151 + 5);
  for (int round = 0; round < 6; ++round) {
    const Cnf cnf = random_cnf_xor(9, 18, 3, 4, rng);
    const bool expect_sat = brute_force_count(cnf) > 0;
    Solver s;
    s.load(cnf);
    const lbool got = s.solve();
    ASSERT_NE(got, lbool::Undef);
    EXPECT_EQ(got == lbool::True, expect_sat)
        << "seed=" << GetParam() << " round=" << round;
    if (got == lbool::True) {
      EXPECT_TRUE(cnf.satisfied_by(s.model()));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomSeeds, XorFuzz, ::testing::Range(0, 20));

// --- property test: XOR-native solving agrees with CNF expansion ---

class XorExpandFuzz : public ::testing::TestWithParam<int> {};

TEST_P(XorExpandFuzz, NativeAgreesWithExpansion) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 31 + 2);
  const Cnf cnf = random_cnf_xor(10, 14, 3, 4, rng);
  const Cnf expanded = cnf.expand_xors();

  Solver native;
  native.load(cnf);
  Solver expand;
  expand.load(expanded);
  const lbool a = native.solve();
  const lbool b = expand.solve();
  ASSERT_NE(a, lbool::Undef);
  ASSERT_NE(b, lbool::Undef);
  EXPECT_EQ(a, b);

  // Counts projected on the original variables must agree as well.
  std::vector<Var> orig(10);
  for (Var v = 0; v < 10; ++v) orig[static_cast<std::size_t>(v)] = v;

  Solver s1;
  s1.load(cnf);
  EnumerateOptions o1;
  o1.store_models = false;
  const auto r1 = enumerate_models(s1, o1);

  Solver s2;
  s2.load(expanded);
  EnumerateOptions o2;
  o2.store_models = false;
  o2.projection = orig;
  const auto r2 = enumerate_models(s2, o2);

  EXPECT_TRUE(r1.exhausted);
  EXPECT_TRUE(r2.exhausted);
  EXPECT_EQ(r1.count, r2.count);
}

INSTANTIATE_TEST_SUITE_P(RandomSeeds, XorExpandFuzz, ::testing::Range(0, 15));

}  // namespace
}  // namespace unigen
