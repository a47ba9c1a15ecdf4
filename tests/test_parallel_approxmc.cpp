// Tests for the parallel counting service: byte-identical counts across
// thread counts (including the width-1 pool and the 0 = hardware
// boundary), one solver build per serving worker, leapfrog accounting, and
// the parallel-prepare wiring.  The threaded cases run under the tsan preset;
// the statistics-heavy chi-square regression through the parallel
// prepare() path lives in tests/test_uniformity.cpp.

#include <gtest/gtest.h>

#include <thread>

#include "core/unigen.hpp"
#include "counting/approxmc.hpp"
#include "helpers.hpp"
#include "service/sampler_pool.hpp"

namespace unigen {
namespace {

/// 2^14 models over 14 free variables: far above pivot(0.8) = 52, so the
/// count runs the full hashed median loop on every thread count.
Cnf hashed_count_formula() {
  Cnf cnf(14);
  cnf.add_clause({Lit(0, false), Lit(0, true)});  // tautology, keeps vars
  return cnf;
}

ApproxMcResult count_at(const Cnf& cnf, std::size_t threads,
                        std::uint64_t seed) {
  Rng rng(seed);
  ApproxMcOptions opts;
  opts.num_threads = threads;
  return approx_count(cnf, opts, rng);
}

void expect_same_count(const ApproxMcResult& a, const ApproxMcResult& b) {
  EXPECT_EQ(a.valid, b.valid);
  EXPECT_EQ(a.exact, b.exact);
  EXPECT_EQ(a.cell_count, b.cell_count);
  EXPECT_EQ(a.hash_count, b.hash_count);
  EXPECT_EQ(a.iterations_succeeded, b.iterations_succeeded);
}

TEST(ParallelApproxMc, ByteIdenticalAcrossThreadCounts) {
  const Cnf cnf = hashed_count_formula();
  for (const std::uint64_t seed : {3u, 17u, 99u}) {
    const ApproxMcResult serial = count_at(cnf, 1, seed);
    ASSERT_TRUE(serial.valid);
    ASSERT_FALSE(serial.exact);
    for (const std::size_t threads : {2u, 3u, 4u}) {
      const ApproxMcResult parallel = count_at(cnf, threads, seed);
      expect_same_count(serial, parallel);
    }
  }
}

TEST(ParallelApproxMc, HardwareBoundaryMatchesSerial) {
  // num_threads = 0 resolves to hardware_concurrency — whatever that is on
  // the test machine, the count must equal the serial engine's.
  const Cnf cnf = hashed_count_formula();
  const ApproxMcResult serial = count_at(cnf, 1, 41);
  const ApproxMcResult hw = count_at(cnf, 0, 41);
  expect_same_count(serial, hw);
}

TEST(ParallelApproxMc, ByteIdenticalOnRandomFormulas) {
  // The determinism contract on less regular solution spaces, random S
  // included (generator shared with the fuzz harness).
  for (int round = 0; round < 4; ++round) {
    Rng gen(1000 + static_cast<std::uint64_t>(round));
    Cnf cnf = test::random_cnf(12, 14, 3, gen);
    test::attach_random_sampling_set(cnf, 8, gen);
    const ApproxMcResult serial = count_at(cnf, 1, 7 + round);
    const ApproxMcResult parallel = count_at(cnf, 4, 7 + round);
    expect_same_count(serial, parallel);
  }
}

TEST(ParallelApproxMc, OneSolverBuildPerServingWorker) {
  const Cnf cnf = hashed_count_formula();
  const ApproxMcResult r = count_at(cnf, 4, 5);
  ASSERT_TRUE(r.valid);
  EXPECT_GT(r.threads_used, 1u);
  ASSERT_EQ(r.workers.size(), r.threads_used);
  std::uint64_t total_rebuilds = 0;
  bool worker0_built = false;
  for (std::size_t w = 0; w < r.workers.size(); ++w) {
    // A worker that served at least one iteration built its engine exactly
    // once; one that never won the cursor has none.  Worker 0 always has
    // one — it adopts the prologue's exact-count engine.  (At this scale
    // the engine's retired-row compaction cap cannot fire; a count big
    // enough to retire max_retired_rows hash rows on one worker would
    // legitimately report a second build.)
    EXPECT_LE(r.workers[w].solver_rebuilds, 1u) << "worker " << w;
    if (w == 0) worker0_built = r.workers[w].solver_rebuilds == 1;
    total_rebuilds += r.workers[w].solver_rebuilds;
  }
  EXPECT_TRUE(worker0_built);
  // The flat field is the fold across workers.
  EXPECT_EQ(r.solver_rebuilds, total_rebuilds);
}

TEST(ParallelApproxMc, LeapfrogAccounting) {
  const Cnf cnf = hashed_count_formula();
  // Serial: the first iteration is the only cold start; every later one
  // leapfrogs from its predecessor.
  const ApproxMcResult serial = count_at(cnf, 1, 23);
  ASSERT_TRUE(serial.valid);
  const auto started =
      serial.leapfrog_warm_starts + serial.leapfrog_cold_starts;
  EXPECT_EQ(started,
            static_cast<std::uint64_t>(serial.iterations_requested));
  EXPECT_EQ(serial.leapfrog_cold_starts, 1u);
  // Parallel: iterations racing before any completes may also start cold,
  // but never more of them than there are workers; the rest leapfrog.
  const ApproxMcResult parallel = count_at(cnf, 4, 23);
  EXPECT_EQ(parallel.leapfrog_warm_starts + parallel.leapfrog_cold_starts,
            static_cast<std::uint64_t>(parallel.iterations_requested));
  EXPECT_GE(parallel.leapfrog_cold_starts, 1u);
  EXPECT_LE(parallel.leapfrog_cold_starts, parallel.threads_used);
}

TEST(ParallelApproxMc, ExactShortCircuitStaysSerial) {
  // Fewer than pivot models: the exact prologue answers before any fan-out,
  // whatever num_threads says.
  Cnf cnf(5);
  cnf.add_clause({Lit(0, false)});
  const ApproxMcResult r = count_at(cnf, 4, 9);
  ASSERT_TRUE(r.valid);
  EXPECT_TRUE(r.exact);
  EXPECT_EQ(r.cell_count, 16u);
  EXPECT_EQ(r.threads_used, 1u);
  EXPECT_TRUE(r.workers.empty());
}

TEST(ParallelApproxMc, PoolPrepareCountsOnPoolWidth) {
  // SamplerPool counts on its own workers; the one-time phase's counter
  // engines each build once.
  Cnf cnf(10);
  cnf.add_clause({Lit(0, false), Lit(1, false), Lit(2, false)});
  cnf.add_clause({Lit(3, false), Lit(4, true)});
  SamplerPoolOptions opts;
  opts.num_threads = 3;
  opts.seed = 2718;
  SamplerPool pool(cnf, opts);
  ASSERT_TRUE(pool.prepare());
  ASSERT_EQ(pool.prepared().mode, UniGenPrepared::Mode::kHashed);
  const auto st = pool.stats();
  // The counter fanned out: its rebuild total counts one engine per
  // serving counter worker (>= 1; == 1 would mean it stayed serial and < 1
  // that prepare never counted).
  EXPECT_GE(st.prepare.counter_solver_rebuilds, 1u);
  EXPECT_LE(st.prepare.counter_solver_rebuilds, 3u);
}

// The seed-fixed chi-square regression through the parallel prepare()
// path lives with the other statistics-heavy uniformity checks in
// tests/test_uniformity.cpp (excluded from the tier1 quick gate, included
// in the tsan preset), keeping this suite fast.

}  // namespace
}  // namespace unigen
