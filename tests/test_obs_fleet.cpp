// Trace propagation across the process boundary: trace ids ride the Task
// IPC frame, workers record their own spans and ship them back inside
// Result, and the supervisor re-emits them next to its own per-dispatch
// attempt spans.  The headline scenario is the faulted one — a 2-worker
// fleet request whose task 2 SIGKILLs its worker on the first attempt must
// still produce ONE trace holding: the supervisor's fleet.attempt.crashed
// span (attempt 1), the retry's fleet.attempt span (attempt 2), and the
// retry's shipped worker.task subtree — all attempt-tagged, all on the
// request's trace id.  And, as everywhere else: tracing on changes no
// byte the fleet returns.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "fault_inject.hpp"
#include "helpers.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "service/process_fleet.hpp"
#include "service/sampler_pool.hpp"

namespace unigen {
namespace {

void obs_reset(bool enable) {
  obs::set_enabled(true);
  obs::clear_all();
  obs::metrics().reset();
  obs::set_enabled(enable);
}

SamplerPoolOptions fleet_pool_options(std::uint64_t seed) {
  SamplerPoolOptions o;
  o.num_threads = 2;
  o.seed = seed;
  o.unigen.fleet.backend = ExecBackend::kProcessFleet;
  o.unigen.fleet.num_workers = 2;
  return o;
}

TEST(ObsFleet, FaultedRequestYieldsOneTraceWithBothAttempts) {
  const Cnf cnf = test::hashed_mode_formula();
  constexpr std::uint64_t kSeed = 31;
  constexpr std::size_t kRequests = 6;
  obs_reset(true);
  // Task 2 (= request stream 2) kills its worker on attempt 0; the retry
  // runs clean.
  const ScopedEnv faults("UNIGEN_WORKERD_FAULTS",
                         ProcessFaultPlan().kill_task(2).to_env());
  SamplerPool pool(cnf, fleet_pool_options(kSeed));
  ASSERT_TRUE(pool.prepare());
  ASSERT_NE(pool.fleet(), nullptr);
  // The prepare phase traced on its own stream-0 trace (all in-process —
  // the nested count runs through the warm handoff, never the fleet);
  // discard it so the one request below is the only trace in the buffer.
  obs::clear_all();

  const auto results = pool.sample_many(kRequests);
  ASSERT_EQ(results.size(), kRequests);
  EXPECT_GE(pool.fleet()->stats().crashes, 1u);

  const auto events = obs::snapshot_events();
  ASSERT_FALSE(events.empty());

  // One service call ⇒ one trace id across every span, supervisor-side
  // and worker-shipped alike.
  std::set<std::uint64_t> traces;
  for (const auto& e : events) traces.insert(e.trace_id);
  ASSERT_EQ(traces.size(), 1u);
  const std::uint64_t trace = *traces.begin();
  EXPECT_EQ(trace, obs::trace_id_for_request(kSeed, 1))
      << "the request trace is keyed by the call's first stream";

  // The crashed attempt: a supervisor span tagged attempt 1 on task 2,
  // with the dead worker's pid.  Its worker-side spans died with the
  // SIGKILL — the supervisor span is that attempt's attested record.
  const auto crashed = std::find_if(
      events.begin(), events.end(), [](const obs::TraceEvent& e) {
        return e.name == std::string("fleet.attempt.crashed");
      });
  ASSERT_NE(crashed, events.end());
  EXPECT_EQ(crashed->value, 2u);
  EXPECT_EQ(crashed->attempt, 1u);
  EXPECT_NE(crashed->worker, 0u);
  EXPECT_LE(crashed->start_ns, crashed->end_ns);

  // The retry: a served fleet.attempt span tagged attempt 2 on task 2 …
  const auto retry = std::find_if(
      events.begin(), events.end(), [](const obs::TraceEvent& e) {
        return e.name == std::string("fleet.attempt") && e.value == 2 &&
               e.attempt == 2;
      });
  ASSERT_NE(retry, events.end());
  EXPECT_NE(retry->worker, crashed->worker)
      << "the retry ran on a different (respawned or sibling) worker";

  // … and its shipped worker.task subtree, attempt-tagged the same.
  const auto worker_retry = std::find_if(
      events.begin(), events.end(), [](const obs::TraceEvent& e) {
        return e.name == std::string("worker.task") && e.value == 2;
      });
  ASSERT_NE(worker_retry, events.end());
  EXPECT_EQ(worker_retry->attempt, 2u);
  EXPECT_NE(worker_retry->worker, 0u);

  // The un-faulted tasks each served on attempt 1.
  std::map<std::uint64_t, std::uint32_t> served_attempt;
  for (const auto& e : events)
    if (e.name == std::string("fleet.attempt"))
      served_attempt[e.value] = e.attempt;
  ASSERT_EQ(served_attempt.size(), kRequests);
  for (std::uint64_t task = 1; task <= kRequests; ++task)
    EXPECT_EQ(served_attempt[task], task == 2 ? 2u : 1u) << "task " << task;

  // Worker sample.request spans came over IPC for every served task.
  std::size_t worker_tasks = 0, sample_spans = 0;
  for (const auto& e : events) {
    if (e.name == std::string("worker.task")) ++worker_tasks;
    if (e.name == std::string("sample.request")) ++sample_spans;
  }
  EXPECT_EQ(worker_tasks, kRequests);
  EXPECT_GE(sample_spans, kRequests);

  // Span-tree well-formedness on the faulted run: unique ids, resolvable
  // parents, children inside their parent's trace.
  std::map<std::uint64_t, const obs::TraceEvent*> by_id;
  for (const auto& e : events) {
    EXPECT_NE(e.span_id, 0u);
    EXPECT_TRUE(by_id.emplace(e.span_id, &e).second)
        << "duplicate span id on " << e.name;
  }
  std::size_t roots = 0;
  for (const auto& e : events) {
    if (e.parent_id == 0) {
      ++roots;
      continue;
    }
    const auto parent = by_id.find(e.parent_id);
    ASSERT_NE(parent, by_id.end())
        << e.name << " has a dangling parent span id";
    EXPECT_EQ(parent->second->trace_id, e.trace_id);
    EXPECT_NE(parent->second, &e);
  }
  EXPECT_EQ(roots, 1u) << "pool.request is the single root";

  // The JSONL export carries all of it.
  const std::string jsonl = obs::trace_jsonl();
  EXPECT_NE(jsonl.find("unigen.trace.v1"), std::string::npos);
  EXPECT_NE(jsonl.find("fleet.attempt.crashed"), std::string::npos);
  EXPECT_NE(jsonl.find("worker.task"), std::string::npos);
  obs_reset(false);
}

TEST(ObsFleet, SupervisorInternalsLandInMetrics) {
  const Cnf cnf = test::hashed_mode_formula();
  constexpr std::uint64_t kSeed = 55;
  obs_reset(true);
  const ScopedEnv faults("UNIGEN_WORKERD_FAULTS",
                         ProcessFaultPlan().kill_task(3).to_env());
  SamplerPool pool(cnf, fleet_pool_options(kSeed));
  ASSERT_TRUE(pool.prepare());
  ASSERT_NE(pool.fleet(), nullptr);
  const auto results = pool.sample_many(6);
  ASSERT_EQ(results.size(), 6u);

  const FleetStats& fs = pool.fleet()->stats();
  EXPECT_GE(fs.crashes, 1u);
  EXPECT_EQ(fs.poisoned_tasks, 0u);

  // Metrics mirror the supervisor counters.
  const obs::MetricsSnapshot snap = obs::metrics().snapshot();
  std::map<std::string, std::uint64_t> counters;
  for (const auto& row : snap.counters) counters[row.name] = row.value;
  EXPECT_EQ(counters["fleet.crashes"], fs.crashes);
  EXPECT_EQ(counters["fleet.redispatches"], fs.redispatches);
  EXPECT_EQ(counters["fleet.respawns"], fs.respawns);
  bool recovery_histogram = false;
  for (const auto& row : snap.histograms)
    if (row.name == "fleet.crash_recovery_seconds" && row.count > 0)
      recovery_histogram = true;
  EXPECT_TRUE(recovery_histogram);
  obs_reset(false);
}

TEST(ObsFleet, FleetBytesMatchInProcessWithTracingOn) {
  const Cnf cnf = test::hashed_mode_formula();
  constexpr std::uint64_t kSeed = 777;
  constexpr std::size_t kRequests = 12;
  obs_reset(false);
  std::vector<SampleResult> reference;
  {
    SamplerPoolOptions o;
    o.num_threads = 2;
    o.seed = kSeed;
    SamplerPool pool(cnf, o);
    reference = pool.sample_many(kRequests);
  }
  obs_reset(true);
  {
    const ScopedEnv faults("UNIGEN_WORKERD_FAULTS",
                           ProcessFaultPlan().kill_task(4).to_env());
    SamplerPool pool(cnf, fleet_pool_options(kSeed));
    ASSERT_TRUE(pool.prepare());
    ASSERT_NE(pool.fleet(), nullptr);
    const auto got = pool.sample_many(kRequests);
    ASSERT_EQ(got.size(), reference.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].status, reference[i].status) << "request " << i;
      EXPECT_EQ(got[i].witness, reference[i].witness) << "request " << i;
    }
  }
  EXPECT_FALSE(obs::snapshot_events().empty());
  obs_reset(false);
}

}  // namespace
}  // namespace unigen
