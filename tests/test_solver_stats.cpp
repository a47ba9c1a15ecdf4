// SolverStats::merge coverage: the pooled services (SamplerPool, parallel
// ApproxMC) aggregate per-worker engine counters exclusively through
// merge(), so a counter added to SolverStats but forgotten in merge()
// silently drops out of every service-level report.  This suite makes that
// omission a test failure instead: the struct is all uint64_t counters, so
// merging distinct-valued words twice into a zero struct must double every
// word — including any field added after this test was written.

#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cstring>
#include <type_traits>

#include "sat/solver.hpp"

namespace unigen {
namespace {

constexpr std::size_t kWords = sizeof(SolverStats) / sizeof(std::uint64_t);
static_assert(sizeof(SolverStats) == kWords * sizeof(std::uint64_t),
              "SolverStats must stay a plain array of uint64_t counters for "
              "the coverage round-trip below; adapt this test if a field of "
              "a different width is added");
static_assert(std::is_trivially_copyable_v<SolverStats>);

std::array<std::uint64_t, kWords> words_of(const SolverStats& s) {
  std::array<std::uint64_t, kWords> w;
  std::memcpy(w.data(), &s, sizeof(SolverStats));
  return w;
}

SolverStats stats_of(const std::array<std::uint64_t, kWords>& w) {
  return std::bit_cast<SolverStats>(w);
}

TEST(SolverStats, MergeCoversEveryField) {
  // Distinct unit values per word, so a dropped field is distinguishable
  // from a swapped pair.
  std::array<std::uint64_t, kWords> unit_words;
  for (std::size_t i = 0; i < kWords; ++i) unit_words[i] = i + 1;
  const SolverStats unit = stats_of(unit_words);

  SolverStats accum;  // zero-initialized counters
  accum.merge(unit);
  accum.merge(unit);

  const auto merged = words_of(accum);
  for (std::size_t i = 0; i < kWords; ++i)
    EXPECT_EQ(merged[i], 2 * (i + 1))
        << "SolverStats word " << i
        << " not accumulated by merge(): a counter was added to the struct "
           "but not to SolverStats::merge()";
}

TEST(SolverStats, MergeIntoNonZeroAccumulates) {
  std::array<std::uint64_t, kWords> a_words, b_words;
  for (std::size_t i = 0; i < kWords; ++i) {
    a_words[i] = 100 + i;
    b_words[i] = 1000 * (i + 1);
  }
  SolverStats a = stats_of(a_words);
  a.merge(stats_of(b_words));
  const auto merged = words_of(a);
  for (std::size_t i = 0; i < kWords; ++i)
    EXPECT_EQ(merged[i], 100 + i + 1000 * (i + 1)) << "word " << i;
}

TEST(SolverStats, EngineCountersSurvivePooledAggregation) {
  // The named counters the services report on, spot-checked through the
  // same merge() the pools use.
  SolverStats worker;
  worker.solver_rebuilds = 1;
  worker.reused_solves = 7;
  worker.retracted_blocks = 3;
  worker.propagations = 11;
  worker.xor_propagations = 5;
  SolverStats total;
  total.merge(worker);
  total.merge(worker);
  EXPECT_EQ(total.solver_rebuilds, 2u);
  EXPECT_EQ(total.reused_solves, 14u);
  EXPECT_EQ(total.retracted_blocks, 6u);
  EXPECT_EQ(total.propagations, 22u);
  EXPECT_EQ(total.xor_propagations, 10u);
}

}  // namespace
}  // namespace unigen
