// Tests for the Tseitin encoder: model count equals the number of
// satisfying circuit inputs, inputs form an independent support, and the
// sampling set is wired up.

#include <gtest/gtest.h>

#include <map>

#include "cnf/tseitin.hpp"
#include "helpers.hpp"
#include "util/rng.hpp"

namespace unigen {
namespace {

using Sig = Circuit::Sig;

/// Number of input assignments for which every circuit output is true.
std::uint64_t count_satisfying_inputs(const Circuit& c) {
  std::uint64_t count = 0;
  const std::size_t n = c.num_inputs();
  for (std::uint64_t bits = 0; bits < (std::uint64_t{1} << n); ++bits) {
    std::vector<bool> in;
    for (std::size_t i = 0; i < n; ++i) in.push_back((bits >> i) & 1);
    const auto out = c.simulate(in);
    bool all = true;
    for (const bool o : out) all = all && o;
    count += all;
  }
  return count;
}

Circuit random_circuit(std::size_t inputs, std::size_t gates, Rng& rng) {
  Circuit c;
  std::vector<Sig> pool;
  for (std::size_t i = 0; i < inputs; ++i) pool.push_back(c.add_input());
  for (std::size_t g = 0; g < gates; ++g) {
    const Sig a = pool[rng.below(pool.size())] ^ (rng.flip() ? 1u : 0u);
    const Sig b = pool[rng.below(pool.size())] ^ (rng.flip() ? 1u : 0u);
    pool.push_back(rng.flip() ? c.land(a, b) : c.lxor(a, b));
  }
  c.add_output(pool.back());
  return c;
}

TEST(Tseitin, AndGateCnf) {
  Circuit c;
  const Sig a = c.add_input();
  const Sig b = c.add_input();
  c.add_output(c.land(a, b));
  const auto enc = tseitin_encode(c);
  EXPECT_EQ(enc.input_vars.size(), 2u);
  // Exactly one satisfying input assignment (a=b=1); aux vars are defined.
  EXPECT_EQ(test::brute_force_count(enc.cnf), 1u);
}

TEST(Tseitin, SamplingSetIsInputs) {
  Circuit c;
  const Sig a = c.add_input();
  const Sig b = c.add_input();
  c.add_output(c.lor(a, b));
  const auto enc = tseitin_encode(c);
  ASSERT_TRUE(enc.cnf.sampling_set().has_value());
  auto expected = enc.input_vars;
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(*enc.cnf.sampling_set(), expected);
}

TEST(Tseitin, OutputLitsReflectCircuitOutputs) {
  Circuit c;
  const Sig a = c.add_input();
  c.add_output(Circuit::lnot(a));
  const auto enc = tseitin_encode(c);
  const auto models = test::brute_force_models(enc.cnf);
  ASSERT_EQ(models.size(), 1u);
  EXPECT_EQ(models[0][static_cast<std::size_t>(enc.input_vars[0])],
            lbool::False);
}

class TseitinFuzz : public ::testing::TestWithParam<int> {};

TEST_P(TseitinFuzz, ModelCountEqualsSatisfyingInputs) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 389 + 11);
  const Circuit c = random_circuit(6, 12, rng);
  const auto enc = tseitin_encode(c);
  if (enc.cnf.num_vars() > 22) GTEST_SKIP() << "too large for brute force";
  EXPECT_EQ(test::brute_force_count(enc.cnf), count_satisfying_inputs(c));
}

INSTANTIATE_TEST_SUITE_P(RandomSeeds, TseitinFuzz, ::testing::Range(0, 12));

class TseitinIndependenceFuzz : public ::testing::TestWithParam<int> {};

TEST_P(TseitinIndependenceFuzz, InputsAreIndependentSupport) {
  // No two models share the same input projection: the inputs uniquely
  // determine every Tseitin variable.
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 97 + 29);
  const Circuit c = random_circuit(5, 10, rng);
  const auto enc = tseitin_encode(c);
  if (enc.cnf.num_vars() > 20) GTEST_SKIP() << "too large for brute force";
  const auto models = test::brute_force_models(enc.cnf);
  std::map<std::vector<int>, int> by_projection;
  for (const auto& m : models) {
    std::vector<int> key;
    for (const Var v : enc.input_vars)
      key.push_back(static_cast<int>(m[static_cast<std::size_t>(v)]));
    ++by_projection[key];
  }
  for (const auto& [key, count] : by_projection) EXPECT_EQ(count, 1);
}

INSTANTIATE_TEST_SUITE_P(RandomSeeds, TseitinIndependenceFuzz,
                         ::testing::Range(0, 10));

}  // namespace
}  // namespace unigen
