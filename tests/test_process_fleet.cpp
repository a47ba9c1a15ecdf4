// Supervisor edge cases of the crash-isolated process fleet: a worker
// SIGKILL mid-task costs one byte-identical retry, a hang is caught by
// heartbeat silence, a task that keeps killing its worker is poisoned into
// the honest partial accounting, a missing worker binary degrades to the
// in-process pool, a cancelled call leaves the fleet reusable, a deadline
// cut counts the workers it kills, neither a fleet count nor a fleet
// session keeps idle pool threads, and starting a fleet writes nothing to
// its host's environment.
//
// All crash/hang scenarios are driven by the deterministic process-level
// fault plan (UNIGEN_WORKERD_FAULTS, keyed on (task id, attempt)), so they
// fire identically on every machine — no timing races.  A test sets it, and
// any other worker setting, with a ScopedEnv declared before the pool, so
// every child the fleet spawns inherits it.  Only an externally
// delivered `kill -9` (via ProcessFleet::worker_pids) is inherently racy,
// and that test asserts recovery, not byte equality of the interleaving.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>

#include "core/unigen.hpp"
#include "counting/approxmc.hpp"
#include "fault_inject.hpp"
#include "helpers.hpp"
#include "service/process_fleet.hpp"
#include "service/sampler_pool.hpp"

namespace unigen {
namespace {

/// 7 models over 3 vars: an easy case for both the counter and the
/// sampling pool, which never reach the fleet; selecting the fleet backend
/// must not change their bytes.
Cnf easy_case_formula() {
  Cnf cnf(3);
  cnf.add_clause({Lit(0, false), Lit(1, false), Lit(2, false)});
  return cnf;
}

SamplerPoolOptions fleet_pool_options(std::size_t threads,
                                      std::uint64_t seed) {
  SamplerPoolOptions o;
  o.num_threads = threads;
  o.seed = seed;
  o.unigen.fleet.backend = ExecBackend::kProcessFleet;
  return o;
}

SamplerPoolOptions inproc_pool_options(std::size_t threads,
                                       std::uint64_t seed) {
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

TEST(ProcessFleet, CountMatchesInProcessAcrossWorkerCounts) {
  for (const Cnf& cnf : {test::hashed_mode_formula(), easy_case_formula()}) {
    ApproxMcOptions base;
    Rng ref_rng(4242);
    const ApproxMcResult reference = approx_count(cnf, base, ref_rng);
    ASSERT_TRUE(reference.valid);
    for (const std::size_t workers : {1u, 2u, 4u}) {
      ApproxMcOptions o = base;
      o.fleet.backend = ExecBackend::kProcessFleet;
      o.fleet.num_workers = workers;
      Rng rng(4242);
      const ApproxMcResult got = approx_count(cnf, o, rng);
      ASSERT_TRUE(got.valid) << workers << " workers";
      EXPECT_EQ(got.cell_count, reference.cell_count)
          << workers << " workers";
      EXPECT_EQ(got.hash_count, reference.hash_count)
          << workers << " workers";
      EXPECT_EQ(got.exact, reference.exact);
      // The caller's rng advanced identically (same fork discipline).
      Rng probe_a = ref_rng;
      Rng probe_b = rng;
      EXPECT_EQ(probe_a(), probe_b()) << workers << " workers";
    }
  }
}

TEST(ProcessFleet, CountSurvivesWorkerKillMidIteration) {
  const Cnf cnf = test::hashed_mode_formula();
  ApproxMcOptions base;
  Rng ref_rng(99);
  const ApproxMcResult reference = approx_count(cnf, base, ref_rng);
  ASSERT_TRUE(reference.valid);
  // Iterations 0 and 3 SIGKILL their worker on the first attempt; the
  // retries (attempt 1) run clean and byte-identical.
  const ScopedEnv faults("UNIGEN_WORKERD_FAULTS",
                         ProcessFaultPlan().kill_task(0).kill_task(3).to_env());
  ApproxMcOptions o = base;
  o.fleet.backend = ExecBackend::kProcessFleet;
  o.fleet.num_workers = 2;
  Rng rng(99);
  const ApproxMcResult got = approx_count(cnf, o, rng);
  ASSERT_TRUE(got.valid);
  EXPECT_EQ(got.cell_count, reference.cell_count);
  EXPECT_EQ(got.hash_count, reference.hash_count);
}

TEST(ProcessFleet, SampleStreamsMatchInProcessPool) {
  constexpr std::uint64_t kSeed = 777;
  constexpr std::size_t kRequests = 24;
  for (const bool hashed : {true, false}) {
    const Cnf cnf =
        hashed ? test::hashed_mode_formula() : easy_case_formula();
    std::vector<SampleResult> reference;
    {
      SamplerPool pool(cnf, inproc_pool_options(2, kSeed));
      reference = pool.sample_many(kRequests);
    }
    for (const std::size_t workers : {1u, 2u, 4u}) {
      SamplerPoolOptions o = fleet_pool_options(2, kSeed);
      o.unigen.fleet.num_workers = workers;
      SamplerPool pool(cnf, o);
      ASSERT_TRUE(pool.prepare());
      const auto got = pool.sample_many(kRequests);
      expect_same_results(reference, got);
      if (!hashed) {
        // An easy-case session serves from its witness list in-process.
        EXPECT_EQ(pool.fleet(), nullptr);
        continue;
      }
      ASSERT_NE(pool.fleet(), nullptr)
          << "fleet backend should come up (unigen_workerd next to the "
             "test binary)";
      // An unfaulted run: the supervisor saw no failure of any kind.
      const FleetStats& fs = pool.fleet()->stats();
      EXPECT_EQ(fs.crashes, 0u) << workers << " workers";
      EXPECT_EQ(fs.redispatches, 0u) << workers << " workers";
      EXPECT_EQ(fs.hang_kills, 0u) << workers << " workers";
      EXPECT_EQ(fs.poisoned_tasks, 0u) << workers << " workers";
      EXPECT_EQ(fs.protocol_errors, 0u) << workers << " workers";
      EXPECT_EQ(fs.send_stalls, 0u) << workers << " workers";
    }
  }
}

TEST(ProcessFleet, KilledSampleRequestRetriesByteIdentically) {
  const Cnf cnf = test::hashed_mode_formula();
  constexpr std::uint64_t kSeed = 31;
  constexpr std::size_t kRequests = 12;
  std::vector<SampleResult> reference;
  {
    SamplerPool pool(cnf, inproc_pool_options(2, kSeed));
    reference = pool.sample_many(kRequests);
  }
  // Request streams start at 1 (stream 0 = prepare); kill the workers
  // serving streams 2 and 7 on their first attempt.
  const ScopedEnv faults("UNIGEN_WORKERD_FAULTS",
                         ProcessFaultPlan().kill_task(2).kill_task(7).to_env());
  SamplerPool pool(cnf, fleet_pool_options(2, kSeed));
  ASSERT_TRUE(pool.prepare());
  ASSERT_NE(pool.fleet(), nullptr);
  const auto got = pool.sample_many(kRequests);
  expect_same_results(reference, got);
  const FleetStats& fs = pool.fleet()->stats();
  EXPECT_GE(fs.crashes, 2u);
  EXPECT_GE(fs.redispatches, 2u);
  EXPECT_GE(fs.respawns, 1u);
  EXPECT_EQ(fs.poisoned_tasks, 0u);
}

TEST(ProcessFleet, HungWorkerIsKilledByHeartbeatSilenceAndReplaced) {
  const Cnf cnf = test::hashed_mode_formula();
  constexpr std::uint64_t kSeed = 55;
  constexpr std::size_t kRequests = 8;
  std::vector<SampleResult> reference;
  {
    SamplerPool pool(cnf, inproc_pool_options(2, kSeed));
    reference = pool.sample_many(kRequests);
  }
  const ScopedEnv faults("UNIGEN_WORKERD_FAULTS",
                         ProcessFaultPlan().sleep_task(3).to_env());
  const ScopedEnv heartbeat("UNIGEN_WORKERD_HEARTBEAT_S", "0.05");
  SamplerPoolOptions o = fleet_pool_options(2, kSeed);
  o.unigen.fleet.heartbeat_timeout_s = 0.8;
  SamplerPool pool(cnf, o);
  ASSERT_TRUE(pool.prepare());
  ASSERT_NE(pool.fleet(), nullptr);
  const auto got = pool.sample_many(kRequests);
  expect_same_results(reference, got);
  const FleetStats& fs = pool.fleet()->stats();
  EXPECT_GE(fs.hang_kills, 1u);
  EXPECT_GE(fs.redispatches, 1u);
}

TEST(ProcessFleet, RepeatedKillsPoisonTheTaskIntoPartialAccounting) {
  const Cnf cnf = test::hashed_mode_formula();
  constexpr std::size_t kRequests = 6;
  // Stream 4 kills its worker on attempts 0, 1 and 2 — every attempt the
  // fleet is willing to make — so the request is poisoned; the other five
  // are served normally.
  const ScopedEnv faults(
      "UNIGEN_WORKERD_FAULTS",
      ProcessFaultPlan().kill_task(4, 0).kill_task(4, 1).kill_task(4, 2)
          .to_env());
  SamplerPool pool(cnf, fleet_pool_options(2, 13));
  ASSERT_TRUE(pool.prepare());
  ASSERT_NE(pool.fleet(), nullptr);
  const auto out = pool.sample_many_within(kRequests, Budget::unlimited());
  EXPECT_EQ(out.status, RequestStatus::kPartial);
  ASSERT_EQ(out.samples.size(), kRequests);
  // Stream k of this call is request k-1 (streams start at 1).
  for (std::size_t k = 0; k < kRequests; ++k) {
    if (k + 1 == 4) {
      EXPECT_EQ(out.samples[k].status, SampleResult::Status::kTimeout)
          << "poisoned request must fail honestly";
    } else {
      EXPECT_NE(out.samples[k].status, SampleResult::Status::kTimeout)
          << "request " << k << " should have been served";
    }
  }
  const FleetStats& fs = pool.fleet()->stats();
  EXPECT_EQ(fs.poisoned_tasks, 1u);
  EXPECT_GE(fs.crashes, 3u);
  // The pool survived the crash loop and keeps serving.
  const auto after = pool.sample_many_within(4, Budget::unlimited());
  EXPECT_EQ(after.status, RequestStatus::kComplete);
}

TEST(ProcessFleet, MissingWorkerBinaryFallsBackInProcess) {
  const Cnf cnf = test::hashed_mode_formula();
  constexpr std::uint64_t kSeed = 123;
  std::vector<SampleResult> reference;
  {
    SamplerPool pool(cnf, inproc_pool_options(2, kSeed));
    reference = pool.sample_many(10);
  }
  const ScopedEnv binary("UNIGEN_WORKERD", "/nonexistent/unigen_workerd");
  SamplerPool pool(cnf, fleet_pool_options(2, kSeed));
  ASSERT_TRUE(pool.prepare());
  EXPECT_EQ(pool.fleet(), nullptr) << "spawn must fail gracefully";
  const auto got = pool.sample_many(10);
  expect_same_results(reference, got);

  // Same degradation on the counting side.
  ApproxMcOptions co;
  co.fleet.backend = ExecBackend::kProcessFleet;
  Rng crng(7);
  const ApproxMcResult count = approx_count(cnf, co, crng);
  ApproxMcOptions ref_co;
  Rng ref_crng(7);
  const ApproxMcResult ref_count = approx_count(cnf, ref_co, ref_crng);
  ASSERT_TRUE(count.valid);
  EXPECT_EQ(count.cell_count, ref_count.cell_count);
  EXPECT_EQ(count.hash_count, ref_count.hash_count);
  // The fallback replaced the pool whose engine ran the probe; the flat
  // engine counters still hold that engine beside the fallback pool's.
  SolverStats fallback_pool;
  for (const SolverStats& w : count.workers) fallback_pool.merge(w);
  EXPECT_EQ(count.solver_rebuilds, fallback_pool.solver_rebuilds + 1);
  EXPECT_GT(count.solver_propagations,
            fallback_pool.propagations + fallback_pool.xor_propagations);
}

TEST(ProcessFleet, CancelMidCallLeavesFleetReusable) {
  const Cnf cnf = test::hashed_mode_formula();
  constexpr std::uint64_t kSeed = 400;
  constexpr std::size_t kFirst = 10;
  constexpr std::size_t kSecond = 10;
  // Reference ledger: a clean pool's streams [1+kFirst, 1+kFirst+kSecond).
  std::vector<SampleResult> reference;
  {
    SamplerPool pool(cnf, inproc_pool_options(2, kSeed));
    pool.sample_many(kFirst);
    reference = pool.sample_many(kSecond);
  }
  // Stream 1 (the first request) sleeps forever, so the call is guaranteed
  // to still be in flight when the token trips — no timing race.  The
  // generous heartbeat ceiling keeps the hang police out of this test.
  const ScopedEnv faults("UNIGEN_WORKERD_FAULTS",
                         ProcessFaultPlan().sleep_task(1).to_env());
  SamplerPoolOptions o = fleet_pool_options(2, kSeed);
  o.unigen.fleet.heartbeat_timeout_s = 30.0;
  SamplerPool pool(cnf, o);
  ASSERT_TRUE(pool.prepare());
  ASSERT_NE(pool.fleet(), nullptr);
  // Trip the token mid-call from a helper thread; however many requests
  // were served, the call must report kCancelled and stamp unserved slots
  // honestly...
  CancelToken token;
  Budget cut;
  cut.cancel = &token;
  std::thread tripper([&token] {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    token.cancel();
  });
  const auto first = pool.sample_many_within(kFirst, cut);
  tripper.join();
  EXPECT_EQ(first.status, RequestStatus::kCancelled);
  for (const SampleResult& s : first.samples) {
    if (!s.ok()) {
      EXPECT_TRUE(s.status == SampleResult::Status::kCancelled ||
                  s.status == SampleResult::Status::kFail ||
                  s.status == SampleResult::Status::kTimeout);
    }
  }
  // ...and the fleet stays usable: the stream ledger advanced by kFirst
  // whatever happened, so the follow-up call serves exactly the streams a
  // never-cancelled pool would.
  const auto second = pool.sample_many_within(kSecond, Budget::unlimited());
  EXPECT_EQ(second.status, RequestStatus::kComplete);
  expect_same_results(reference, second.samples);
}

TEST(ProcessFleet, DeadlineCutCountsTheWorkersItKills) {
  // Stream 1 hangs and the heartbeat ceiling is far off, so the call's
  // deadline is what ends it: run() kills the hung worker at the cut.
  const Cnf cnf = test::hashed_mode_formula();
  const ScopedEnv faults("UNIGEN_WORKERD_FAULTS",
                         ProcessFaultPlan().sleep_task(1).to_env());
  SamplerPoolOptions o = fleet_pool_options(2, 400);
  o.unigen.fleet.heartbeat_timeout_s = 30.0;
  SamplerPool pool(cnf, o);
  ASSERT_TRUE(pool.prepare());
  ASSERT_NE(pool.fleet(), nullptr);
  const auto cut = pool.sample_many_within(4, Budget::within_seconds(0.3));
  EXPECT_TRUE(cut.status == RequestStatus::kPartial ||
              cut.status == RequestStatus::kTimedOut);
  const FleetStats& fs = pool.fleet()->stats();
  EXPECT_GE(fs.deadline_kills, 1u);
  EXPECT_EQ(fs.crashes, 0u);
  EXPECT_EQ(fs.hang_kills, 0u);
}

/// This process's thread count, read from /proc/self/status.
int thread_count() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("Threads:", 0) == 0) return std::stoi(line.substr(8));
  return -1;
}

TEST(ProcessFleet, FleetCountStartsNoIdlePoolThreads) {
  // Beside a fleet, a count's private pool serves only the unhashed probe
  // on this thread, so it must start no thread of its own.  Iteration 0's
  // first attempt hangs until heartbeat silence kills it, which keeps the
  // count in flight while a watcher samples the thread count.
  const Cnf cnf = test::hashed_mode_formula();
  const ScopedEnv faults("UNIGEN_WORKERD_FAULTS",
                         ProcessFaultPlan().sleep_task(0).to_env());
  const ScopedEnv heartbeat("UNIGEN_WORKERD_HEARTBEAT_S", "0.05");
  ApproxMcOptions o;
  o.num_threads = 4;
  o.fleet.backend = ExecBackend::kProcessFleet;
  o.fleet.heartbeat_timeout_s = 0.5;
  std::atomic<bool> done{false};
  int peak = 0;  // the watcher's alone until it is joined
  std::thread watcher([&] {
    while (!done.load()) {
      peak = std::max(peak, thread_count());
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });
  const int before = thread_count();  // this thread and the watcher
  Rng rng(4242);
  const ApproxMcResult got = approx_count(cnf, o, rng);
  done = true;
  watcher.join();
  ASSERT_TRUE(got.valid);
  EXPECT_LE(peak, before);
}

TEST(ProcessFleet, FleetSessionKeepsNoIdlePoolThreads) {
  // A hashed session whose fleet comes up serves every request on the
  // fleet, so prepare releases the threads and engines of the one-time
  // fan-out, and the session serves byte-identically to a clean pool.
  const Cnf cnf = test::hashed_mode_formula();
  std::vector<SampleResult> reference;
  {
    SamplerPool pool(cnf, inproc_pool_options(4, 31));
    reference = pool.sample_many(6);
  }
  const int before = thread_count();
  SamplerPool pool(cnf, fleet_pool_options(4, 31));
  ASSERT_TRUE(pool.prepare());
  ASSERT_NE(pool.fleet(), nullptr);
  EXPECT_EQ(thread_count(), before);
  expect_same_results(reference, pool.sample_many(6));
  for (const SamplerPoolWorkerStats& w : pool.stats().workers)
    EXPECT_EQ(w.solver_rebuilds, 0u);
}

TEST(ProcessFleet, ExternalKillOfIdleWorkerIsAbsorbed) {
  const Cnf cnf = test::hashed_mode_formula();
  constexpr std::uint64_t kSeed = 61;
  std::vector<SampleResult> reference;
  {
    SamplerPool pool(cnf, inproc_pool_options(2, kSeed));
    pool.sample_many(6);
    reference = pool.sample_many(6);
  }
  SamplerPool pool(cnf, fleet_pool_options(2, kSeed));
  ASSERT_TRUE(pool.prepare());
  ASSERT_NE(pool.fleet(), nullptr);
  const auto warm = pool.sample_many(6);
  ASSERT_EQ(warm.size(), 6u);
  // kill -9 a worker between calls; the supervisor must notice, respawn,
  // and serve the next call byte-identically — never crash or deadlock.
  const std::vector<int> pids = pool.fleet()->worker_pids();
  ASSERT_FALSE(pids.empty());
  ::kill(pids.front(), SIGKILL);
  const auto got = pool.sample_many(6);
  expect_same_results(reference, got);
}

TEST(ProcessFleet, BatchRequestsMatchInProcessUnderCrashes) {
  const Cnf cnf = test::hashed_mode_formula();
  constexpr std::uint64_t kSeed = 88;
  std::vector<BatchResult> reference;
  {
    SamplerPool pool(cnf, inproc_pool_options(2, kSeed));
    reference = pool.sample_batches(8, 5);
  }
  const ScopedEnv faults("UNIGEN_WORKERD_FAULTS",
                         ProcessFaultPlan().kill_task(3).to_env());
  SamplerPool pool(cnf, fleet_pool_options(2, kSeed));
  ASSERT_TRUE(pool.prepare());
  ASSERT_NE(pool.fleet(), nullptr);
  const auto got = pool.sample_batches(8, 5);
  ASSERT_EQ(got.size(), reference.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].status, reference[i].status) << "request " << i;
    EXPECT_EQ(got[i].models, reference[i].models) << "request " << i;
  }
  EXPECT_GE(pool.fleet()->stats().crashes, 1u);
}

TEST(ProcessFleet, StartLeavesTheHostEnvironmentAlone) {
  // A worker reads its settings from the environment it starts in, so
  // bringing a fleet up must write none of them into its host's: with all
  // three unset, the fleet comes up, serves, and leaves them unset.
  const char* const kSettings[] = {"UNIGEN_WORKERD", "UNIGEN_WORKERD_FAULTS",
                                   "UNIGEN_WORKERD_HEARTBEAT_S"};
  const ScopedEnv binary(kSettings[0], nullptr);
  const ScopedEnv faults(kSettings[1], nullptr);
  const ScopedEnv heartbeat(kSettings[2], nullptr);
  SamplerPool pool(test::hashed_mode_formula(), fleet_pool_options(2, 5));
  ASSERT_TRUE(pool.prepare());
  ASSERT_NE(pool.fleet(), nullptr);
  for (const SampleResult& r : pool.sample_many(4)) EXPECT_TRUE(r.ok());
  for (const char* name : kSettings)
    EXPECT_EQ(std::getenv(name), nullptr) << name;
}

}  // namespace
}  // namespace unigen
