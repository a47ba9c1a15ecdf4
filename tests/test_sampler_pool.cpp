// Tests for the parallel witness-generation service: cross-thread-count
// determinism, one solver build per worker, witness validity, and the
// trivial/UNSAT fast paths.

#include <gtest/gtest.h>

#include <set>

#include "core/unigen.hpp"
#include "helpers.hpp"
#include "service/sampler_pool.hpp"

namespace unigen {
namespace {

SamplerPoolOptions pool_options(std::size_t threads, std::uint64_t seed) {
  SamplerPoolOptions o;
  o.num_threads = threads;
  o.seed = seed;
  return o;
}

void expect_same_results(const std::vector<SampleResult>& a,
                         const std::vector<SampleResult>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].status, b[i].status) << "request " << i;
    EXPECT_EQ(a[i].witness, b[i].witness) << "request " << i;
  }
}

TEST(SamplerPool, HashedModeProducesValidWitnesses) {
  const Cnf cnf = test::hashed_mode_formula();
  SamplerPool pool(cnf, pool_options(4, 101));
  ASSERT_TRUE(pool.prepare());
  EXPECT_EQ(pool.prepared().mode, UniGenPrepared::Mode::kHashed);
  EXPECT_EQ(pool.num_threads(), 4u);
  const auto results = pool.sample_many(48);
  ASSERT_EQ(results.size(), 48u);
  int ok = 0;
  for (const auto& r : results) {
    if (r.ok()) {
      ++ok;
      EXPECT_TRUE(cnf.satisfied_by(r.witness));
    } else {
      EXPECT_EQ(r.status, SampleResult::Status::kFail);
    }
  }
  EXPECT_GT(ok, 0);
  const auto st = pool.stats();
  EXPECT_EQ(st.requests, 48u);
  EXPECT_EQ(st.samples_ok, static_cast<std::uint64_t>(ok));
}

TEST(SamplerPool, ByteIdenticalAcrossThreadCounts) {
  const Cnf cnf = test::hashed_mode_formula();
  constexpr std::uint64_t kSeed = 777;
  constexpr std::size_t kRequests = 40;
  std::vector<SampleResult> reference;
  {
    SamplerPool pool(cnf, pool_options(1, kSeed));
    reference = pool.sample_many(kRequests);
  }
  for (const std::size_t threads : {2u, 4u, 7u}) {
    SamplerPool pool(cnf, pool_options(threads, kSeed));
    const auto got = pool.sample_many(kRequests);
    expect_same_results(reference, got);
  }
}

TEST(SamplerPool, StreamsContinueAcrossCalls) {
  // Two calls of 20 on one pool equal one call of 40 on a fresh pool: the
  // request-stream counter is global, not per-call.
  const Cnf cnf = test::hashed_mode_formula();
  SamplerPool split(cnf, pool_options(3, 55));
  auto first = split.sample_many(20);
  const auto second = split.sample_many(20);
  first.insert(first.end(), second.begin(), second.end());
  SamplerPool whole(cnf, pool_options(2, 55));
  expect_same_results(first, whole.sample_many(40));
}

TEST(SamplerPool, OneSolverBuildPerWorker) {
  const Cnf cnf = test::hashed_mode_formula();
  SamplerPool pool(cnf, pool_options(4, 11));
  ASSERT_TRUE(pool.prepare());
  pool.sample_many(64);
  pool.sample_many(64);  // rebuild count must not grow with request count
  const auto st = pool.stats();
  ASSERT_EQ(st.workers.size(), 4u);
  std::uint64_t served_total = 0;
  std::size_t serving_workers = 0;
  for (std::size_t w = 0; w < st.workers.size(); ++w) {
    served_total += st.workers[w].requests_served;
    if (st.workers[w].requests_served > 0) {
      ++serving_workers;
      // The invariant under test: a worker builds its solver exactly once
      // no matter how many requests it serves.
      EXPECT_EQ(st.workers[w].solver_rebuilds, 1u) << "worker " << w;
      EXPECT_GT(st.workers[w].sample_bsat_calls, 0u) << "worker " << w;
    } else {
      // A worker with no sampling requests may still own a built engine:
      // prepare's counting fan-out runs on the same workers since the warm
      // handoff.  What cannot happen is more than one build.
      EXPECT_LE(st.workers[w].solver_rebuilds, 1u) << "worker " << w;
    }
  }
  EXPECT_EQ(served_total, 128u);
  // Work is pulled from an atomic cursor with no fairness guarantee, so on
  // an oversubscribed machine a worker may legitimately never win a
  // request — assert participation only where scheduling guarantees it.
  EXPECT_GE(serving_workers, 1u);
}

TEST(SamplerPool, BatchesAreValidDistinctAndDeterministic) {
  const Cnf cnf = test::hashed_mode_formula();
  constexpr std::uint64_t kSeed = 303;
  std::vector<BatchResult> reference;
  {
    SamplerPool pool(cnf, pool_options(1, kSeed));
    reference = pool.sample_batches(12, 8);
  }
  ASSERT_EQ(reference.size(), 12u);
  int ok = 0;
  for (const auto& b : reference) {
    if (!b.ok()) continue;
    ++ok;
    EXPECT_LE(b.models.size(), 8u);
    std::set<Model> distinct;
    for (const auto& m : b.models) {
      EXPECT_TRUE(cnf.satisfied_by(m));
      distinct.insert(m);
    }
    EXPECT_EQ(distinct.size(), b.models.size());
  }
  EXPECT_GT(ok, 0);
  SamplerPool pool4(cnf, pool_options(4, kSeed));
  const auto got = pool4.sample_batches(12, 8);
  ASSERT_EQ(got.size(), reference.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].status, reference[i].status) << "request " << i;
    EXPECT_EQ(got[i].models, reference[i].models) << "request " << i;
  }
}

TEST(SamplerPool, TrivialModeServedInline) {
  Cnf cnf(3);
  cnf.add_clause({Lit(0, false), Lit(1, false), Lit(2, false)});  // 7 models
  const std::uint64_t builds_before = IncrementalBsat::total_constructions();
  SamplerPool pool(cnf, pool_options(4, 13));
  ASSERT_TRUE(pool.prepare());
  const std::uint64_t prepare_builds =
      IncrementalBsat::total_constructions() - builds_before;
  EXPECT_EQ(pool.prepared().mode, UniGenPrepared::Mode::kTrivial);
  const auto results = pool.sample_many(50);
  for (const auto& r : results) {
    ASSERT_TRUE(r.ok());
    EXPECT_TRUE(cnf.satisfied_by(r.witness));
  }
  // Deterministic across thread counts here too.
  SamplerPool pool1(cnf, pool_options(1, 13));
  expect_same_results(results, pool1.sample_many(50));
  // Prepare did fan out: the easy-case check ran as task 0 of the count's
  // fan-out on worker 0's engine, and a worker that pulled an iteration
  // before the check settled built one engine too — never more.  Then it
  // released the pool: requests never reach the workers, and no worker
  // holds an engine.
  EXPECT_GE(prepare_builds, 1u);
  EXPECT_LE(prepare_builds, 4u);
  for (const auto& w : pool.stats().workers) {
    EXPECT_EQ(w.requests_served, 0u);
    EXPECT_EQ(w.solver_rebuilds, 0u);
  }
}

TEST(SamplerPool, UnsatModeReportsUnsat) {
  Cnf cnf(1);
  cnf.add_clause({Lit(0, false)});
  cnf.add_clause({Lit(0, true)});
  SamplerPool pool(cnf, pool_options(2, 17));
  EXPECT_TRUE(pool.prepare());
  for (const auto& r : pool.sample_many(5))
    EXPECT_EQ(r.status, SampleResult::Status::kUnsat);
  for (const auto& b : pool.sample_batches(3, 4))
    EXPECT_EQ(b.status, SampleResult::Status::kUnsat);
}

TEST(SamplerPool, CoverageMatchesWitnessSpace) {
  // The parallel path must still be an almost-uniform sampler: over many
  // requests nearly the whole witness space appears.
  const Cnf cnf = test::hashed_mode_formula();
  const auto truth = test::brute_force_models(cnf);
  SamplerPool pool(cnf, pool_options(4, 29));
  ASSERT_TRUE(pool.prepare());
  std::set<Model> seen;
  for (const auto& r : pool.sample_many(3000))
    if (r.ok()) seen.insert(r.witness);
  EXPECT_GE(static_cast<double>(seen.size()),
            0.9 * static_cast<double>(truth.size()));
}

TEST(SamplerPool, PreparedStateMatchesUniGen) {
  // The pool's one-time phase is the same lines 1–11 UniGen runs: same
  // thresholds and same q for the same seed.
  const Cnf cnf = test::hashed_mode_formula();
  SamplerPool pool(cnf, pool_options(2, 71));
  ASSERT_TRUE(pool.prepare());
  const auto st = pool.stats();
  EXPECT_EQ(st.prepare.pivot, 40u);
  EXPECT_EQ(st.prepare.hi_thresh, 89u);
  EXPECT_GT(st.prepare.q, 0);
  EXPECT_GT(st.prepare.prepare_bsat_calls, 0u);
}

TEST(SamplerPool, DegenerateBudgetStampsHonestlyBeforeAnyWork) {
  const Cnf cnf = test::hashed_mode_formula();
  SamplerPool pool(cnf, pool_options(2, 31));
  // A born-expired deadline: every slot reports kTimeout, zero BSAT calls
  // (prepare never ran), and the stream ledger still advances.
  const SampleManyResult dead =
      pool.sample_many_within(5, Budget::within_seconds(0.0));
  EXPECT_EQ(dead.status, RequestStatus::kTimedOut);
  ASSERT_EQ(dead.samples.size(), 5u);
  for (const auto& r : dead.samples)
    EXPECT_EQ(r.status, SampleResult::Status::kTimeout);
  EXPECT_EQ(pool.stats().prepare.prepare_bsat_calls, 0u);
  EXPECT_EQ(pool.stats().samples_timed_out, 5u);

  CancelToken token;
  token.cancel();
  Budget cancelled;
  cancelled.cancel = &token;
  const SampleBatchesResult dead_batches =
      pool.sample_batches_within(3, 4, cancelled);
  EXPECT_EQ(dead_batches.status, RequestStatus::kCancelled);
  ASSERT_EQ(dead_batches.batches.size(), 3u);
  for (const auto& b : dead_batches.batches)
    EXPECT_EQ(b.status, SampleResult::Status::kCancelled);

  // The pool is untouched: a live follow-up request serves completely, and
  // its streams resume after the 5 + 3 consumed by the dead requests —
  // identical to a fresh pool whose first 8 streams were served normally.
  const SampleManyResult live =
      pool.sample_many_within(4, Budget::unlimited());
  EXPECT_EQ(live.status, RequestStatus::kComplete);

  SamplerPool fresh(cnf, pool_options(2, 31));
  const auto all = fresh.sample_many_within(12, Budget::unlimited());
  ASSERT_EQ(all.samples.size(), 12u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(live.samples[i].status, all.samples[8 + i].status);
    EXPECT_EQ(live.samples[i].witness, all.samples[8 + i].witness);
  }
}

}  // namespace
}  // namespace unigen
