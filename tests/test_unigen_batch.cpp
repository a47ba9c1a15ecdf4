// Tests for the UniGen2-style batched sampling extension, and for the one
// sampling front-end: a UniGen is a width-1 SamplerPool.

#include <gtest/gtest.h>

#include <set>

#include "core/unigen.hpp"
#include "fault_inject.hpp"
#include "helpers.hpp"
#include "sat/incremental_bsat.hpp"
#include "service/sampler_pool.hpp"
#include "service/worker_pool.hpp"

namespace unigen {
namespace {

std::vector<int> key_of(const Model& m) {
  std::vector<int> key;
  for (const auto v : m) key.push_back(static_cast<int>(v));
  return key;
}

TEST(UniGenBatch, EmptyRequestYieldsNothing) {
  Cnf cnf(2);
  cnf.add_clause({Lit(0, false), Lit(1, false)});
  Rng rng(1);
  UniGen sampler(cnf, {}, rng);
  EXPECT_TRUE(sampler.sample_batch(0).empty());
}

TEST(UniGenBatch, TrivialModeBatchIsDistinctAndValid) {
  Cnf cnf(3);
  cnf.add_clause({Lit(0, false), Lit(1, false), Lit(2, false)});  // 7 models
  Rng rng(2);
  UniGen sampler(cnf, {}, rng);
  ASSERT_TRUE(sampler.prepare());
  for (const std::size_t want : {1u, 3u, 7u, 20u}) {
    const auto batch = sampler.sample_batch(want);
    EXPECT_EQ(batch.size(), std::min<std::size_t>(want, 7));
    std::set<std::vector<int>> distinct;
    for (const auto& m : batch) {
      EXPECT_TRUE(cnf.satisfied_by(m));
      distinct.insert(key_of(m));
    }
    EXPECT_EQ(distinct.size(), batch.size());
  }
}

TEST(UniGenBatch, HashedModeBatchIsDistinctAndValid) {
  const Cnf cnf = test::hashed_mode_formula();
  Rng rng(3);
  UniGen sampler(cnf, {}, rng);
  ASSERT_TRUE(sampler.prepare());
  int produced = 0;
  for (int round = 0; round < 20 && produced == 0; ++round) {
    const auto batch = sampler.sample_batch(8);
    produced += static_cast<int>(batch.size());
    std::set<std::vector<int>> distinct;
    for (const auto& m : batch) {
      EXPECT_TRUE(cnf.satisfied_by(m));
      distinct.insert(key_of(m));
    }
    EXPECT_EQ(distinct.size(), batch.size());
    EXPECT_LE(batch.size(), 8u);
  }
  EXPECT_GT(produced, 0);
}

TEST(UniGenBatch, BatchRespectsCellBound) {
  // max_batch larger than any cell: batch size is bounded by hiThresh.
  const Cnf cnf = test::hashed_mode_formula();
  Rng rng(5);
  UniGen sampler(cnf, {}, rng);
  ASSERT_TRUE(sampler.prepare());
  const auto batch = sampler.sample_batch(10000);
  EXPECT_LE(batch.size(), sampler.stats().hi_thresh);
}

TEST(UniGenBatch, UnsatYieldsEmpty) {
  Cnf cnf(1);
  cnf.add_clause({Lit(0, false)});
  cnf.add_clause({Lit(0, true)});
  Rng rng(7);
  UniGen sampler(cnf, {}, rng);
  EXPECT_TRUE(sampler.sample_batch(5).empty());
}

TEST(UniGenBatch, StatsAccountedLikeSample) {
  // Every batch request is one lines-12–22 run and must be visible in the
  // stats: requested/ok/failed/timed_out, exactly as sample() accounts.
  const Cnf cnf = test::hashed_mode_formula();
  Rng rng(13);
  UniGen sampler(cnf, {}, rng);
  ASSERT_TRUE(sampler.prepare());
  EXPECT_EQ(sampler.stats().samples_requested, 0u);
  constexpr int kCalls = 25;
  std::uint64_t nonempty = 0;
  for (int i = 0; i < kCalls; ++i)
    nonempty += sampler.sample_batch(4).empty() ? 0 : 1;
  const auto& st = sampler.stats();
  EXPECT_EQ(st.samples_requested, static_cast<std::uint64_t>(kCalls));
  EXPECT_EQ(st.samples_ok, nonempty);
  EXPECT_EQ(st.samples_ok + st.samples_failed + st.samples_timed_out,
            static_cast<std::uint64_t>(kCalls));
  EXPECT_EQ(st.samples_timed_out, 0u);
  EXPECT_GT(st.sample_bsat_calls, 0u);
}

TEST(UniGenBatch, TrivialModeBatchCountsAsSuccess) {
  Cnf cnf(3);
  cnf.add_clause({Lit(0, false), Lit(1, false), Lit(2, false)});
  Rng rng(17);
  UniGen sampler(cnf, {}, rng);
  ASSERT_TRUE(sampler.prepare());
  EXPECT_FALSE(sampler.sample_batch(3).empty());
  EXPECT_EQ(sampler.stats().samples_requested, 1u);
  EXPECT_EQ(sampler.stats().samples_ok, 1u);
  // A zero-size request is a no-op, not a failed request.
  EXPECT_TRUE(sampler.sample_batch(0).empty());
  EXPECT_EQ(sampler.stats().samples_requested, 1u);
}

TEST(UniGenBatch, TimeoutDistinguishedFromEmptyCell) {
  // An expired sample budget must surface as samples_timed_out, not be
  // silently conflated with the ⊥ (empty-cell) outcome.  Every probe
  // faults and a request may make two, so the request's units run out
  // inside accept_cell; neither knob reaches prepare's count.
  const Cnf cnf = test::hashed_mode_formula();
  Rng rng(19);
  SeededRateFaults faults(1, 1.0);
  UniGenOptions opts;
  opts.budget.fault = &faults;
  opts.budget.max_bsat_calls = 2;
  UniGen sampler(cnf, opts, rng);
  ASSERT_TRUE(sampler.prepare());
  EXPECT_TRUE(sampler.sample_batch(4).empty());
  const auto& st = sampler.stats();
  EXPECT_EQ(st.samples_requested, 1u);
  EXPECT_EQ(st.samples_timed_out, 1u);
  EXPECT_EQ(st.samples_failed, 0u);
  EXPECT_EQ(st.samples_ok, 0u);
  EXPECT_EQ(st.sample_bsat_calls, 2u);
  EXPECT_EQ(st.bsat_timeout_retries, 2u);
}

TEST(UniGenBatch, ExpiredDeadlineTimesOutBeforeTheFirstProbe) {
  // The wall half of accept_cell's budget check: a request whose deadline
  // has already passed stops before its first probe, as a timeout (not
  // ⊥), with no BSAT call charged.
  const Cnf cnf = test::hashed_mode_formula();
  const std::vector<Var> s = cnf.sampling_set_or_all();
  UniGenOptions opts;
  UniGenPrepared prep;
  UniGenStats prepare_stats;
  Rng prepare_rng(19);
  WorkerPool pool(1);
  unigen_prepare(cnf, s, opts, pool, prepare_rng, prep, prepare_stats);
  ASSERT_EQ(prep.mode, UniGenPrepared::Mode::kHashed);

  IncrementalBsat engine(prep.formula(cnf), s);
  opts.budget = Budget::within_seconds(0.0);
  UniGenStats stats;
  Rng rng(23);
  const AcceptCellResult r = unigen_accept_cell(engine, s, prep, opts,
                                                cnf.num_vars(), rng, stats, 1);
  EXPECT_EQ(r.status, RequestStatus::kTimedOut);
  EXPECT_TRUE(r.cell.empty());
  EXPECT_EQ(stats.sample_bsat_calls, 0u);
}

TEST(UniGenBatch, BatchCoverageAccumulates) {
  // Batches from many cells eventually cover most of the witness space.
  const Cnf cnf = test::hashed_mode_formula();
  const auto truth = test::brute_force_models(cnf);
  Rng rng(11);
  UniGen sampler(cnf, {}, rng);
  ASSERT_TRUE(sampler.prepare());
  std::set<std::vector<int>> seen;
  for (int round = 0; round < 400; ++round) {
    for (const auto& m : sampler.sample_batch(10)) seen.insert(key_of(m));
  }
  EXPECT_GE(static_cast<double>(seen.size()),
            0.8 * static_cast<double>(truth.size()));
}

/// UniGen(cnf, {}, Rng(seed)) against a width-1 pool seeded with that
/// rng's first draw: 25 singles, then 5 batches of 8, and the outcome
/// totals must all agree.
void expect_same_bytes_as_width1_pool(const Cnf& cnf, std::uint64_t seed,
                                      bool trivial) {
  Rng rng(seed);
  UniGen sampler(cnf, {}, rng);
  SamplerPoolOptions popts;
  popts.num_threads = 1;
  popts.seed = Rng(seed)();
  SamplerPool pool(cnf, popts);

  const std::vector<SampleResult> singles = pool.sample_many(25);
  for (std::size_t k = 0; k < singles.size(); ++k) {
    const SampleResult r = sampler.sample();
    ASSERT_EQ(r.status, singles[k].status) << "single " << k;
    EXPECT_EQ(r.witness, singles[k].witness) << "single " << k;
  }
  const std::vector<BatchResult> batches = pool.sample_batches(5, 8);
  for (std::size_t k = 0; k < batches.size(); ++k)
    EXPECT_EQ(sampler.sample_batch(8), batches[k].models) << "batch " << k;

  const UniGenStats st = sampler.stats();
  const SamplerPoolStats ps = pool.stats();
  EXPECT_EQ(st.trivial, trivial);
  EXPECT_EQ(st.samples_requested, 30u);
  EXPECT_EQ(st.samples_requested, ps.requests);
  EXPECT_EQ(st.samples_ok, ps.samples_ok);
  EXPECT_EQ(st.samples_failed, ps.samples_failed);
  EXPECT_EQ(st.samples_timed_out, ps.samples_timed_out);
  EXPECT_EQ(st.samples_cancelled, ps.samples_cancelled);
  EXPECT_GT(st.samples_ok, 0u);
}

TEST(UniGenBatch, HashedUniGenEqualsWidthOnePool) {
  expect_same_bytes_as_width1_pool(test::hashed_mode_formula(), 41,
                                   /*trivial=*/false);
}

TEST(UniGenBatch, TrivialUniGenEqualsWidthOnePool) {
  Cnf cnf(3);
  cnf.add_clause({Lit(0, false), Lit(1, false), Lit(2, false)});  // 7 models
  expect_same_bytes_as_width1_pool(cnf, 43, /*trivial=*/true);
}

TEST(UniGenBatch, HashedUniGenBuildsOneEngine) {
  // The easy-case check builds the engine; the nested count and every
  // sample run on it (worker 0 of the width-1 pool).
  const Cnf cnf = test::hashed_mode_formula();
  const std::uint64_t before = IncrementalBsat::total_constructions();
  Rng rng(47);
  UniGen sampler(cnf, {}, rng);
  ASSERT_TRUE(sampler.prepare());
  ASSERT_FALSE(sampler.stats().trivial);
  for (int i = 0; i < 25; ++i) sampler.sample();
  EXPECT_EQ(IncrementalBsat::total_constructions() - before, 1u);
  const UniGenStats st = sampler.stats();
  EXPECT_EQ(st.solver_rebuilds, 1u);
  EXPECT_EQ(st.counter_solver_rebuilds, 1u);
  EXPECT_EQ(st.samples_requested, 25u);
}

}  // namespace
}  // namespace unigen
