// The fan-out seam (service/dispatch.hpp): one task function per kind, one
// outcome codec, one dispatch.  Every backend must produce the same bytes —
// a count under a deterministic budget, its per-iteration ledger included,
// sample_many / sample_batches streams, and the statuses a per-call probe
// cap produces — whether the tasks run on a width-1 pool (the caller's own
// thread), a width-4 pool, a socketpair process fleet or a 4-worker fleet
// whose first attempt at count iteration 0 hangs until heartbeat silence
// kills it.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <optional>
#include <set>
#include <string>
#include <thread>

#include "counting/approxmc.hpp"
#include "fault_inject.hpp"
#include "helpers.hpp"
#include "service/dispatch.hpp"
#include "service/sampler_pool.hpp"

namespace unigen {
namespace {

enum class Backend { kWidth1, kWidth4, kFleet, kHangingFleet };

bool on_fleet(Backend b) {
  return b == Backend::kFleet || b == Backend::kHangingFleet;
}

std::string backend_name(const ::testing::TestParamInfo<Backend>& info) {
  switch (info.param) {
    case Backend::kWidth1:
      return "Width1Pool";
    case Backend::kWidth4:
      return "Width4Pool";
    case Backend::kFleet:
      return "SocketpairFleet";
    case Backend::kHangingFleet:
      return "FleetWhoseIterationZeroHangsOnce";
  }
  return "?";
}

ApproxMcOptions count_options(Backend b, std::uint64_t grant) {
  ApproxMcOptions o;
  o.delta = 0.05;  // more median iterations than the default 3
  o.budget.max_bsat_calls = grant;  // deterministic mode
  o.num_threads = b == Backend::kWidth4 ? 4 : 1;
  if (on_fleet(b)) {
    o.fleet.backend = ExecBackend::kProcessFleet;
    o.fleet.num_workers = b == Backend::kFleet ? 2 : 4;
    if (b == Backend::kHangingFleet) o.fleet.heartbeat_timeout_s = 0.5;
  }
  return o;
}

SamplerPoolOptions pool_options(Backend b) {
  SamplerPoolOptions o;
  o.seed = 4711;
  o.num_threads = b == Backend::kWidth4 ? 4 : 1;
  if (on_fleet(b)) {
    o.num_threads = b == Backend::kFleet ? 2 : 4;
    o.unigen.fleet.backend = ExecBackend::kProcessFleet;
    if (b == Backend::kHangingFleet) o.unigen.fleet.heartbeat_timeout_s = 0.5;
  }
  return o;
}

void expect_same_count(const ApproxMcAnytime& a, const ApproxMcAnytime& b) {
  EXPECT_EQ(a.status, b.status);
  EXPECT_EQ(a.result.valid, b.result.valid);
  EXPECT_EQ(a.result.cell_count, b.result.cell_count);
  EXPECT_EQ(a.result.hash_count, b.result.hash_count);
  EXPECT_EQ(a.result.bsat_calls, b.result.bsat_calls);
  EXPECT_EQ(a.result.iterations_succeeded, b.result.iterations_succeeded);
  EXPECT_EQ(a.achieved_delta, b.achieved_delta);
  EXPECT_EQ(a.state.exact, b.state.exact);
  ASSERT_EQ(a.state.outcomes.size(), b.state.outcomes.size());
  for (std::size_t i = 0; i < a.state.outcomes.size(); ++i) {
    const ApproxMcCoreOutcome& x = a.state.outcomes[i];
    const ApproxMcCoreOutcome& y = b.state.outcomes[i];
    EXPECT_EQ(x.ok, y.ok) << "iteration " << i;
    EXPECT_EQ(x.timed_out, y.timed_out) << "iteration " << i;
    EXPECT_EQ(x.cancelled, y.cancelled) << "iteration " << i;
    EXPECT_EQ(x.faulted, y.faulted) << "iteration " << i;
    EXPECT_EQ(x.leapfrogged, y.leapfrogged) << "iteration " << i;
    EXPECT_EQ(x.cell_count, y.cell_count) << "iteration " << i;
    EXPECT_EQ(x.hash_count, y.hash_count) << "iteration " << i;
    EXPECT_EQ(x.bsat_calls, y.bsat_calls) << "iteration " << i;
  }
}

class Seam : public ::testing::TestWithParam<Backend> {
 protected:
  /// The hanging fleet's workers read the fault plan and a fast heartbeat
  /// from the environment they start in.  Sample requests are streams 1..,
  /// so only count iteration 0 ever hangs.
  void SetUp() override {
    if (GetParam() != Backend::kHangingFleet) return;
    faults_.emplace("UNIGEN_WORKERD_FAULTS",
                    ProcessFaultPlan().sleep_task(0).to_env());
    heartbeat_.emplace("UNIGEN_WORKERD_HEARTBEAT_S", "0.05");
  }

 private:
  std::optional<ScopedEnv> faults_;
  std::optional<ScopedEnv> heartbeat_;
};

TEST_P(Seam, CountUnderDeterministicBudgetIsBackendIndependent) {
  const Cnf cnf = test::hashed_mode_formula();
  Rng ref_rng(2024);
  const ApproxMcAnytime full = approx_count_anytime(
      cnf, count_options(Backend::kWidth1, 1u << 20), ref_rng);
  ASSERT_EQ(full.status, RequestStatus::kComplete);
  ASSERT_GE(full.state.outcomes.size(), 3u);
  // A grant that buys the prologue and about half the iterations.
  const std::uint64_t half = full.result.bsat_calls / 2;
  Rng cut_rng(2024);
  const ApproxMcAnytime cut = approx_count_anytime(
      cnf, count_options(Backend::kWidth1, half), cut_rng);
  ASSERT_NE(cut.status, RequestStatus::kComplete);

  for (const std::uint64_t grant : {std::uint64_t{1} << 20, half}) {
    Rng rng(2024);
    const ApproxMcAnytime got =
        approx_count_anytime(cnf, count_options(GetParam(), grant), rng);
    expect_same_count(grant == half ? cut : full, got);
    // Pool workers' engines are reported only when the pool served.
    EXPECT_EQ(got.result.workers.empty(), on_fleet(GetParam()));
    // The caller's rng advanced identically (one fork, whatever executes).
    Rng a = ref_rng;
    Rng b = rng;
    EXPECT_EQ(a(), b());
  }
}

TEST_P(Seam, SampleStreamsAreBackendIndependent) {
  const Cnf cnf = test::hashed_mode_formula();
  SamplerPool reference(cnf, pool_options(Backend::kWidth1));
  SamplerPool pool(cnf, pool_options(GetParam()));
  ASSERT_TRUE(pool.prepare());
  EXPECT_EQ(pool.fleet() != nullptr, on_fleet(GetParam()))
      << "the fleet backend should come up (unigen_workerd next to the "
         "test binary)";
  // Singles, batches, singles: streams continue across calls of both kinds.
  for (int round = 0; round < 2; ++round) {
    const auto want = reference.sample_many(9);
    const auto got = pool.sample_many(9);
    ASSERT_EQ(want.size(), got.size());
    for (std::size_t k = 0; k < want.size(); ++k) {
      EXPECT_EQ(want[k].status, got[k].status) << "request " << k;
      EXPECT_EQ(want[k].witness, got[k].witness) << "request " << k;
    }
    const auto want_b = reference.sample_batches(4, 6);
    const auto got_b = pool.sample_batches(4, 6);
    ASSERT_EQ(want_b.size(), got_b.size());
    for (std::size_t k = 0; k < want_b.size(); ++k) {
      EXPECT_EQ(want_b[k].status, got_b[k].status) << "batch " << k;
      EXPECT_EQ(want_b[k].models, got_b[k].models) << "batch " << k;
    }
  }
}

TEST_P(Seam, PerCallProbeCapReachesEverySamplingProbe) {
  // The call's Budget::bsat_timeout_s caps each probe wherever the request
  // runs.  At 1 ns no probe completes, so every request spends its
  // three-probe unit cap on Section-5 retries and times out.
  const Cnf cnf = test::hashed_mode_formula();
  SamplerPool pool(cnf, pool_options(GetParam()));
  ASSERT_TRUE(pool.prepare());
  Budget b;
  b.bsat_timeout_s = 1e-9;
  b.max_bsat_calls = 3;
  const SampleManyResult r = pool.sample_many_within(4, b);
  EXPECT_EQ(r.status, RequestStatus::kComplete);
  ASSERT_EQ(r.samples.size(), 4u);
  for (const SampleResult& s : r.samples)
    EXPECT_EQ(s.status, SampleResult::Status::kTimeout);
  // Retries are counted where the requests ran: in this process only when
  // the pool served them.
  std::uint64_t retries = 0;
  for (const SamplerPoolWorkerStats& w : pool.stats().workers)
    retries += w.bsat_timeout_retries;
  EXPECT_EQ(retries, on_fleet(GetParam()) ? 0u : 4u * 3u);
}

INSTANTIATE_TEST_SUITE_P(Backends, Seam,
                         ::testing::Values(Backend::kWidth1, Backend::kWidth4,
                                           Backend::kFleet,
                                           Backend::kHangingFleet),
                         backend_name);

TEST(WorkerPool, WidthOneRunsTasksOnTheCallersThread) {
  Cnf cnf(4);
  cnf.add_clause({Lit(0, false), Lit(1, false)});
  WorkerPool pool(1);
  pool.start(cnf, cnf.sampling_set_or_all());
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::thread::id> ran_on(6);
  const std::size_t executed =
      pool.run(ran_on.size(),
               [&](IncrementalBsat&, std::size_t worker, std::size_t k) {
                 EXPECT_EQ(worker, 0u);
                 ran_on[k] = std::this_thread::get_id();
               });
  EXPECT_EQ(executed, ran_on.size());
  for (const std::thread::id id : ran_on) EXPECT_EQ(id, caller);

  // A wider pool has the caller as worker 0: task 0 runs on its thread,
  // and a width-w run uses at most w distinct threads, the caller's among
  // them.
  for (const std::size_t width : {2u, 4u}) {
    WorkerPool wide(width);
    wide.start(cnf, cnf.sampling_set_or_all());
    std::vector<std::thread::id> wide_ran_on(32);
    wide.run(wide_ran_on.size(),
             [&](IncrementalBsat&, std::size_t, std::size_t k) {
               wide_ran_on[k] = std::this_thread::get_id();
             });
    EXPECT_EQ(wide_ran_on[0], caller) << "width " << width;
    const std::set<std::thread::id> distinct(wide_ran_on.begin(),
                                             wide_ran_on.end());
    EXPECT_LE(distinct.size(), width);
    EXPECT_EQ(distinct.count(caller), 1u) << "width " << width;
  }
}

TEST(WorkerPool, TaskZeroRunsOnTheCallersThreadAsWorkerZero) {
  // run() claims task 0 for its caller before any worker can see the job,
  // so a one-time probe handed in as task 0 always runs on worker 0's
  // engine — every run, at every width.
  Cnf cnf(4);
  cnf.add_clause({Lit(0, false), Lit(1, false)});
  const std::thread::id caller = std::this_thread::get_id();
  for (const std::size_t width : {1u, 2u, 4u}) {
    WorkerPool pool(width);
    pool.start(cnf, cnf.sampling_set_or_all());
    for (int round = 0; round < 20; ++round) {
      std::thread::id task0_thread;
      std::size_t task0_worker = width;
      pool.run(width + 3, [&](IncrementalBsat&, std::size_t worker,
                              std::size_t k) {
        if (k != 0) return;
        task0_thread = std::this_thread::get_id();
        task0_worker = worker;
      });
      EXPECT_EQ(task0_thread, caller) << "width " << width;
      EXPECT_EQ(task0_worker, 0u) << "width " << width;
    }
  }
}

TEST(WorkerPool, ReleaseDropsEnginesAndLeavesTheCallerAlone) {
  // release() joins the pool's threads and destroys its engines; the task
  // counters stay, and a later run serves every task on the caller's
  // thread.
  Cnf cnf(4);
  cnf.add_clause({Lit(0, false), Lit(1, false)});
  WorkerPool pool(4);
  pool.start(cnf, cnf.sampling_set_or_all());
  pool.run(8, [](IncrementalBsat&, std::size_t, std::size_t) {});
  EXPECT_EQ(pool.engine_stats(0).solver_rebuilds, 1u);
  pool.release();
  std::uint64_t served = 0;
  for (std::size_t w = 0; w < pool.num_threads(); ++w) {
    EXPECT_EQ(pool.engine_stats(w).solver_rebuilds, 0u) << "worker " << w;
    served += pool.tasks_served(w);
  }
  EXPECT_EQ(served, 8u);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::thread::id> ran_on(6);
  EXPECT_EQ(pool.run(ran_on.size(),
                     [&](IncrementalBsat&, std::size_t worker, std::size_t k) {
                       EXPECT_EQ(worker, 0u);
                       ran_on[k] = std::this_thread::get_id();
                     }),
            ran_on.size());
  for (const std::thread::id id : ran_on) EXPECT_EQ(id, caller);
}

TEST(RunTasks, LedgerStopsStartingTasksOnceTheGrantIsSpent) {
  // With 3 units granted and 2 spent, the first task (charging 4) runs
  // and the rest never start.
  Cnf cnf(4);
  cnf.add_clause({Lit(0, false), Lit(1, false)});
  WorkerPool pool(1);
  pool.start(cnf, cnf.sampling_set_or_all());
  const UnitGrant grant{3, 2};
  const std::vector<std::uint64_t> ids = {5, 6, 7};
  std::vector<std::uint64_t> seen;
  const auto out = run_tasks<ApproxMcCoreOutcome>(
      pool, nullptr, ids, Rng(9), 0, Budget{}, &grant,
      [&](IncrementalBsat&, std::size_t, std::uint64_t id, Rng& rng) {
        seen.push_back(id);
        // Task `id` draws from streams.fork_stream(id).
        Rng want = Rng(9).fork_stream(id);
        EXPECT_EQ(rng(), want());
        ApproxMcCoreOutcome o;
        o.bsat_calls = 4;
        return o;
      });
  ASSERT_EQ(out.size(), 3u);
  EXPECT_TRUE(out[0].has_value());
  EXPECT_FALSE(out[1].has_value());
  EXPECT_FALSE(out[2].has_value());
  EXPECT_EQ(seen, std::vector<std::uint64_t>{5});
}

TEST(RunTasks, LedgerSkipsNoTaskTheGrantStillCovers) {
  // Only the tasks before a task in id order can spend the grant out from
  // under it.  Worker 1 claims id 0 and builds its engine for a big
  // formula first, while the caller, whose engine is warm, serves ids 1..4
  // at once and spends the grant; id 0 must still run.
  Rng gen(3);
  const Cnf big = test::random_cnf(20000, 60000, 3, gen);
  WorkerPool pool(2);
  pool.start(big, big.sampling_set_or_all());
  pool.run(1, [](IncrementalBsat&, std::size_t, std::size_t) {});
  const UnitGrant grant{3, 1};
  const std::function<bool(IncrementalBsat&)> lead = [](IncrementalBsat&) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    return true;
  };
  const auto out = run_tasks<ApproxMcCoreOutcome>(
      pool, nullptr, {0, 1, 2, 3, 4}, Rng(9), 0, Budget{}, &grant,
      [](IncrementalBsat&, std::size_t, std::uint64_t, Rng&) {
        ApproxMcCoreOutcome o;
        o.bsat_calls = 1;
        return o;
      },
      &lead);
  EXPECT_TRUE(out[0].has_value());
}

}  // namespace
}  // namespace unigen
