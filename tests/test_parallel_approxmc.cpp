// Tests for the parallel counting service: byte-identical counts across
// thread counts (including the width-1 pool and the 0 = hardware
// boundary), one solver build per serving worker, leapfrog accounting, the
// unhashed probe as task 0 of every count's fan-out, and the
// parallel-prepare wiring: UniGen's easy-case check is the nested count's
// probe and lets a width-1 pool skip the iterations once it settles
// prepare.  The threaded cases run under the tsan preset; the
// statistics-heavy chi-square regression through the parallel prepare()
// path lives in tests/test_uniformity.cpp.

#include <gtest/gtest.h>

#include <thread>
#include <utility>

#include "core/unigen.hpp"
#include "counting/approxmc.hpp"
#include "helpers.hpp"
#include "service/sampler_pool.hpp"
#include "service/worker_pool.hpp"

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
    // one — it builds it for the unhashed probe, task 0.  (At this scale
    // the engine's retired-row compaction cap cannot fire; a count big
    // enough to retire 4096 hash rows on one worker would legitimately
    // report a second build.)
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

TEST(ParallelApproxMc, ExactCountIsWidthIndependent) {
  // Fewer than pivot models: the unhashed probe, task 0 of the fan-out,
  // counts them exactly at every width.  The iterations that ran beside it
  // are dropped uncounted; a width-1 pool skips them and builds only the
  // probe's engine.
  Cnf cnf(5);
  cnf.add_clause({Lit(0, false)});
  for (const std::size_t threads : {1u, 2u, 4u}) {
    const std::uint64_t before = IncrementalBsat::total_constructions();
    const ApproxMcResult r = count_at(cnf, threads, 9);
    const std::uint64_t engines =
        IncrementalBsat::total_constructions() - before;
    ASSERT_TRUE(r.valid) << "width " << threads;
    EXPECT_TRUE(r.exact) << "width " << threads;
    EXPECT_EQ(r.cell_count, 16u) << "width " << threads;
    EXPECT_EQ(r.bsat_calls, 1u) << "width " << threads;
    if (threads == 1) {
      EXPECT_EQ(engines, 1u);
    }
    if (threads == 4) {
      // t = 3 at the default δ: the probe fills the fourth worker.
      EXPECT_EQ(r.threads_used, 4u);
      EXPECT_EQ(r.workers.size(), 4u);
    }
  }
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

/// Runs unigen_prepare on a fresh pool of `width` and reports what it
/// cost: engines built and the pool's tasks, summed over workers.
struct PrepareRun {
  UniGenPrepared prep;
  UniGenStats stats;
  std::uint64_t engines = 0;
  std::uint64_t tasks = 0;
  std::uint64_t worker0_tasks = 0;
};

PrepareRun prepare_on(const Cnf& cnf, std::size_t width,
                      const UniGenOptions& opts = {}) {
  PrepareRun out;
  WorkerPool pool(width);
  Rng rng(31);
  const std::uint64_t before = IncrementalBsat::total_constructions();
  unigen_prepare(cnf, cnf.sampling_set_or_all(), opts, pool, rng, out.prep,
                 out.stats);
  out.engines = IncrementalBsat::total_constructions() - before;
  for (std::size_t w = 0; w < pool.num_threads(); ++w)
    out.tasks += pool.tasks_served(w);
  out.worker0_tasks = pool.tasks_served(0);
  return out;
}

TEST(ParallelApproxMc, PrepareRunsTheEasyCaseCheckBesideTheIterations) {
  // One fan-out of t + 1 tasks: the check as task 0 on worker 0 (the
  // caller), the t median iterations beside it.
  const Cnf cnf = hashed_count_formula();
  const int t =
      approxmc_iteration_count(1.0 - UniGenOptions{}.counter_confidence);
  const PrepareRun r = prepare_on(cnf, static_cast<std::size_t>(t) + 1);
  ASSERT_EQ(r.prep.mode, UniGenPrepared::Mode::kHashed);
  EXPECT_EQ(r.tasks, static_cast<std::uint64_t>(t) + 1);
  EXPECT_GE(r.worker0_tasks, 1u);
}

TEST(ParallelApproxMc, EasyPrepareOnWidthOneSkipsTheIterations) {
  // A width-1 pool runs the check first; once it settles prepare, the
  // iterations skip: one BSAT call, one engine.
  Cnf trivial(3);
  trivial.add_clause({Lit(0, false), Lit(1, false), Lit(2, false)});  // 7
  Cnf unsat(2);
  unsat.add_clause({Lit(0, false)});
  unsat.add_clause({Lit(0, true)});
  for (const auto& [cnf, mode] :
       {std::pair{trivial, UniGenPrepared::Mode::kTrivial},
        std::pair{unsat, UniGenPrepared::Mode::kUnsat}}) {
    const PrepareRun r = prepare_on(cnf, 1);
    EXPECT_EQ(r.prep.mode, mode);
    EXPECT_EQ(r.stats.prepare_bsat_calls, 1u);
    EXPECT_EQ(r.engines, 1u);
  }
}

TEST(ParallelApproxMc, EasySessionKeepsNoEngine) {
  // A width-4 session fans prepare out in every mode, but only a hashed one
  // keeps its engines: an easy or UNSAT session serves requests inline, so
  // prepare releases the pool again.  Its ledger holds the check alone:
  // iterations that ran beside it were dropped uncounted.
  Cnf trivial(3);
  trivial.add_clause({Lit(0, false), Lit(1, false), Lit(2, false)});  // 7
  Cnf unsat(2);
  unsat.add_clause({Lit(0, false)});
  unsat.add_clause({Lit(0, true)});
  for (const auto& [cnf, mode] :
       {std::pair{trivial, UniGenPrepared::Mode::kTrivial},
        std::pair{unsat, UniGenPrepared::Mode::kUnsat},
        std::pair{hashed_count_formula(), UniGenPrepared::Mode::kHashed}}) {
    SamplerPoolOptions opts;
    opts.num_threads = 4;
    SamplerPool pool(cnf, opts);
    pool.prepare();
    ASSERT_EQ(pool.prepared().mode, mode);
    std::uint64_t engines = 0;
    for (const auto& w : pool.stats().workers) engines += w.solver_rebuilds;
    if (mode == UniGenPrepared::Mode::kHashed) {
      EXPECT_GE(engines, 1u);
    } else {
      EXPECT_EQ(engines, 0u);
      EXPECT_EQ(pool.stats().prepare.prepare_bsat_calls, 1u);
    }
  }
}

TEST(ParallelApproxMc, CheckCountsExactlyUpToThePivot) {
  // counter_epsilon 0.3 puts the count's pivot (186) above hiThresh (89):
  // 128 solutions are too many for the easy case but few enough for the
  // check to count exactly, as a standalone count's probe would.
  Cnf cnf(8);
  cnf.add_clause({Lit(0, false)});  // 2^7 = 128 models
  UniGenOptions opts;
  opts.counter_epsilon = 0.3;
  ASSERT_GT(approxmc_pivot(opts.counter_epsilon),
            compute_kappa_pivot(opts.epsilon).hi_thresh);
  for (const std::size_t width : {1u, 4u}) {
    const PrepareRun r = prepare_on(cnf, width, opts);
    ASSERT_EQ(r.prep.mode, UniGenPrepared::Mode::kHashed)
        << "width " << width;
    EXPECT_EQ(r.prep.approx_log2_count, 7.0) << "width " << width;
  }
}

// The seed-fixed chi-square regression through the parallel prepare()
// path lives with the other statistics-heavy uniformity checks in
// tests/test_uniformity.cpp (excluded from the tier1 quick gate, included
// in the tsan preset), keeping this suite fast.

}  // namespace
}  // namespace unigen
