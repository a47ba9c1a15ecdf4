// The observability layer's own contracts: ring/seqlock snapshot semantics,
// span parentage (ambient and ContextScope-propagated), metrics arithmetic
// and merge, export formats — and the contract that matters to everyone
// else: tracing on changes no service byte.  The invariance suite reruns
// the pool, the parallel counter, and the warm/cold session server with
// tracing on and asserts the results equal the untraced reference.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "counting/approxmc.hpp"
#include "helpers.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "service/sampler_pool.hpp"
#include "service/sampling_server.hpp"

namespace unigen {
namespace {

/// Resets the global observability state a previous test may have left
/// behind (one process runs the whole suite).
void obs_reset(bool enable) {
  obs::set_enabled(true);
  obs::clear_all();
  obs::metrics().reset();
  obs::set_enabled(enable);
}

void expect_same_results(const std::vector<SampleResult>& a,
                         const std::vector<SampleResult>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].status, b[i].status) << "request " << i;
    EXPECT_EQ(a[i].witness, b[i].witness) << "request " << i;
  }
}

TEST(ObsTrace, DisabledByDefaultAndSpansAreNoops) {
  // Fresh processes start with tracing off; this suite may run after a
  // test that enabled it, so assert the *semantics*, not the boot state.
  obs_reset(false);
  EXPECT_FALSE(obs::enabled());
  {
    obs::Span span("test.noop");
    span.set_value(42);
    EXPECT_FALSE(span.context().valid());
    EXPECT_FALSE(obs::current_context().valid());
  }
  obs::metrics().counter("test.noop_counter").add();
  obs::set_enabled(true);
  EXPECT_TRUE(obs::snapshot_events().empty());
  EXPECT_EQ(obs::metrics().counter("test.noop_counter").value(), 0u);
  obs::set_enabled(false);
}

TEST(ObsTrace, SpanNestingRecordsParentage) {
  obs_reset(true);
  std::uint64_t outer_id = 0, trace = 0;
  {
    obs::Span outer("test.outer");
    outer.set_value(7);
    outer_id = outer.context().span_id;
    trace = outer.context().trace_id;
    ASSERT_NE(trace, 0u);
    {
      obs::Span inner("test.inner");
      EXPECT_EQ(inner.context().trace_id, trace);
    }
    // Inner closed: the outer span is current again.
    EXPECT_EQ(obs::current_context().span_id, outer_id);
  }
  EXPECT_FALSE(obs::current_context().valid());

  const auto events = obs::snapshot_events();
  ASSERT_EQ(events.size(), 2u);
  const auto inner_it = std::find_if(
      events.begin(), events.end(),
      [](const obs::TraceEvent& e) { return e.name == std::string("test.inner"); });
  const auto outer_it = std::find_if(
      events.begin(), events.end(),
      [](const obs::TraceEvent& e) { return e.name == std::string("test.outer"); });
  ASSERT_NE(inner_it, events.end());
  ASSERT_NE(outer_it, events.end());
  EXPECT_EQ(outer_it->span_id, outer_id);
  EXPECT_EQ(outer_it->parent_id, 0u);
  EXPECT_EQ(outer_it->value, 7u);
  EXPECT_EQ(inner_it->parent_id, outer_id);
  EXPECT_EQ(inner_it->trace_id, trace);
  // The inner span closed first and nests inside the outer interval.
  EXPECT_LE(outer_it->start_ns, inner_it->start_ns);
  EXPECT_LE(inner_it->end_ns, outer_it->end_ns);
  obs::set_enabled(false);
}

TEST(ObsTrace, FallbackTraceSeedsARootSpan) {
  obs_reset(true);
  const std::uint64_t want = obs::trace_id_for_request(123, 4);
  {
    obs::Span root("test.root", want);
    EXPECT_EQ(root.context().trace_id, want);
  }
  const auto events = obs::snapshot_events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].trace_id, want);
  EXPECT_EQ(events[0].parent_id, 0u);
  obs::set_enabled(false);
}

TEST(ObsTrace, TraceIdIsAPureFunctionOfRequestCoordinates) {
  EXPECT_EQ(obs::trace_id_for_request(0xDAC14, 1),
            obs::trace_id_for_request(0xDAC14, 1));
  EXPECT_NE(obs::trace_id_for_request(0xDAC14, 1),
            obs::trace_id_for_request(0xDAC14, 2));
  EXPECT_NE(obs::trace_id_for_request(0xDAC14, 1),
            obs::trace_id_for_request(0xDAC15, 1));
  EXPECT_NE(obs::trace_id_for_request(0, 0), 0u);
}

TEST(ObsTrace, ContextScopePropagatesAcrossThreads) {
  obs_reset(true);
  obs::TraceContext handoff;
  std::uint64_t parent_id = 0;
  {
    obs::Span parent("test.dispatch");
    handoff = parent.context();
    parent_id = handoff.span_id;
    std::thread worker([handoff] {
      obs::ContextScope scope(handoff);
      obs::Span child("test.worker_side");
      child.set_worker(99);
    });
    worker.join();
  }
  const auto events = obs::snapshot_events();
  ASSERT_EQ(events.size(), 2u);
  const auto child_it = std::find_if(events.begin(), events.end(),
                                     [](const obs::TraceEvent& e) {
                                       return e.worker == 99;
                                     });
  ASSERT_NE(child_it, events.end());
  EXPECT_EQ(child_it->trace_id, handoff.trace_id);
  EXPECT_EQ(child_it->parent_id, parent_id);
  obs::set_enabled(false);
}

TEST(ObsTrace, RingOverwritesOldestAndCountsDrops) {
  obs::set_ring_capacity(64);  // floor of the clamp
  // Rings are created per thread on first record and keep their capacity,
  // so exercise the small ring on a fresh thread.
  std::uint64_t dropped_before = obs::dropped_events();
  std::thread t([] {
    obs::set_enabled(true);
    for (int i = 0; i < 500; ++i) obs::Span span("test.flood");
  });
  t.join();
  const auto events = obs::snapshot_events();
  std::size_t flood = 0;
  for (const auto& e : events)
    if (e.name == std::string("test.flood")) ++flood;
  EXPECT_LE(flood, 64u);
  EXPECT_GT(flood, 0u);
  EXPECT_GE(obs::dropped_events() - dropped_before, 500u - 64u);
  obs::set_ring_capacity(8192);
  obs_reset(false);
}

TEST(ObsTrace, SnapshotIsAWatermarkClearAllAdvancesIt) {
  obs_reset(true);
  { obs::Span a("test.first"); }
  EXPECT_EQ(obs::snapshot_events().size(), 1u);
  // snapshot_events does not consume …
  EXPECT_EQ(obs::snapshot_events().size(), 1u);
  obs::clear_all();
  // … clear_all does.
  EXPECT_TRUE(obs::snapshot_events().empty());
  { obs::Span b("test.second"); }
  const auto events = obs::snapshot_events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].name, std::string("test.second"));
  obs::set_enabled(false);
}

TEST(ObsTrace, JsonlExportHasVersionedHeaderAndOneLinePerEvent) {
  obs_reset(true);
  { obs::Span a("test.json_a"); }
  { obs::Span b("test.json_b"); }
  const std::string jsonl = obs::trace_jsonl();
  EXPECT_NE(jsonl.find("\"schema\":\"unigen.trace.v1\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"events\":2"), std::string::npos);
  EXPECT_NE(jsonl.find("test.json_a"), std::string::npos);
  EXPECT_NE(jsonl.find("test.json_b"), std::string::npos);
  EXPECT_EQ(std::count(jsonl.begin(), jsonl.end(), '\n'), 3);
  obs_reset(false);
}

TEST(ObsMetrics, CounterAndHistogramArithmetic) {
  obs_reset(true);
  obs::Counter& c = obs::metrics().counter("test.counter");
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);

  obs::Histogram& h = obs::metrics().histogram("test.histogram");
  h.record_ns(1);    // bucket 0: [1, 2)
  h.record_ns(3);    // bucket 1: [2, 4)
  h.record_ns(900);  // bucket 9: [512, 1024)
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.sum_ns(), 904u);
  EXPECT_EQ(h.max_ns(), 900u);
  EXPECT_EQ(h.bucket(0), 1u);
  EXPECT_EQ(h.bucket(1), 1u);
  EXPECT_EQ(h.bucket(9), 1u);
  h.record_seconds(1.0);  // 1e9 ns → bucket 29: [2^29, 2^30)
  EXPECT_EQ(h.bucket(29), 1u);
  obs_reset(false);
}

TEST(ObsMetrics, JsonExportIsVersioned) {
  obs_reset(true);
  obs::metrics().counter("test.json_counter").add(3);
  obs::metrics().histogram("test.json_hist").record_ns(100);
  const std::string json = obs::metrics_json();
  EXPECT_NE(json.find("\"schema_version\":1"), std::string::npos);
  EXPECT_NE(json.find("\"test.json_counter\":3"), std::string::npos);
  EXPECT_NE(json.find("\"test.json_hist\""), std::string::npos);
  obs_reset(false);
}

// --- tracing is byte-invisible to the services -------------------------

TEST(ObsInvariance, PoolStreamsAreByteIdenticalWithTracingOn) {
  const Cnf cnf = test::hashed_mode_formula();
  constexpr std::uint64_t kSeed = 777;
  constexpr std::size_t kRequests = 16;
  obs_reset(false);
  std::vector<SampleResult> reference;
  std::vector<BatchResult> reference_batches;
  {
    SamplerPoolOptions o;
    o.num_threads = 2;
    o.seed = kSeed;
    SamplerPool pool(cnf, o);
    reference = pool.sample_many(kRequests);
    reference_batches = pool.sample_batches(4, 3);
  }
  obs_reset(true);
  {
    SamplerPoolOptions o;
    o.num_threads = 2;
    o.seed = kSeed;
    SamplerPool pool(cnf, o);
    expect_same_results(reference, pool.sample_many(kRequests));
    const auto batches = pool.sample_batches(4, 3);
    ASSERT_EQ(batches.size(), reference_batches.size());
    for (std::size_t i = 0; i < batches.size(); ++i) {
      EXPECT_EQ(batches[i].status, reference_batches[i].status);
      EXPECT_EQ(batches[i].models, reference_batches[i].models);
    }
  }
  EXPECT_FALSE(obs::snapshot_events().empty())
      << "the traced run should actually have recorded spans";
  obs_reset(false);
}

TEST(ObsInvariance, ParallelCountIsByteIdenticalWithTracingOn) {
  const Cnf cnf = test::hashed_mode_formula();
  obs_reset(false);
  ApproxMcOptions o;
  o.num_threads = 2;
  Rng ref_rng(4242);
  const ApproxMcResult reference = approx_count(cnf, o, ref_rng);
  ASSERT_TRUE(reference.valid);

  obs_reset(true);
  Rng rng(4242);
  const ApproxMcResult got = approx_count(cnf, o, rng);
  ASSERT_TRUE(got.valid);
  EXPECT_EQ(got.cell_count, reference.cell_count);
  EXPECT_EQ(got.hash_count, reference.hash_count);
  EXPECT_EQ(got.exact, reference.exact);
  Rng probe_a = ref_rng;
  Rng probe_b = rng;
  EXPECT_EQ(probe_a(), probe_b());
  obs_reset(false);
}

TEST(ObsInvariance, ServerWarmEqualsColdWithTracingOnAndOff) {
  const Cnf cnf = test::hashed_mode_formula();
  constexpr std::size_t kCount = 6;
  // Four runs of the same two-round request sequence: {off, on} × fresh
  // server.  Within a run, round 0 is cold and round 1 warm; all four must
  // produce the same bytes round-for-round.
  std::vector<std::vector<SampleResult>> rounds_off, rounds_on;
  for (const bool tracing : {false, true}) {
    obs_reset(tracing);
    SamplingServer server{};
    auto& rounds = tracing ? rounds_on : rounds_off;
    for (int round = 0; round < 2; ++round) {
      ServerSampleResponse r = server.sample(cnf, kCount);
      EXPECT_EQ(r.warm, round > 0);
      rounds.push_back(std::move(r.samples));
    }
  }
  ASSERT_EQ(rounds_off.size(), 2u);
  ASSERT_EQ(rounds_on.size(), 2u);
  for (int round = 0; round < 2; ++round)
    expect_same_results(rounds_off[static_cast<std::size_t>(round)],
                        rounds_on[static_cast<std::size_t>(round)]);
  obs_reset(false);
}

// --- span-tree shape on a real service run -----------------------------

TEST(ObsSpanTree, PoolRunProducesWellFormedPerRequestTraces) {
  const Cnf cnf = test::hashed_mode_formula();
  obs_reset(true);
  const std::uint64_t dropped_before = obs::dropped_events();
  constexpr std::uint64_t kSeed = 31;
  constexpr std::size_t kRequests = 8;
  {
    SamplerPoolOptions o;
    o.num_threads = 2;
    o.seed = kSeed;
    SamplerPool pool(cnf, o);
    ASSERT_TRUE(pool.prepare());
    // One sample_many CALL is one service request — one trace.  Eight
    // single-sample calls give eight request traces on streams 1…8.
    for (std::size_t k = 0; k < kRequests; ++k) pool.sample_many(1);
  }
  const auto events = obs::snapshot_events();
  ASSERT_FALSE(events.empty());
  EXPECT_EQ(obs::dropped_events(), dropped_before);

  std::set<std::uint64_t> span_ids;
  std::set<std::string> names;
  for (const auto& e : events) {
    EXPECT_NE(e.trace_id, 0u);
    EXPECT_NE(e.span_id, 0u);
    EXPECT_LE(e.start_ns, e.end_ns);
    EXPECT_TRUE(span_ids.insert(e.span_id).second)
        << "span ids must be unique";
    names.insert(e.name);
  }
  EXPECT_TRUE(names.count("pool.prepare"));
  EXPECT_TRUE(names.count("pool.request"));
  EXPECT_TRUE(names.count("sample.request"));
  EXPECT_TRUE(names.count("hash.probe"));
  EXPECT_TRUE(names.count("bsat.call"));

  // Parentage: every non-root's parent exists, and parent and child agree
  // on the trace id.
  std::map<std::uint64_t, const obs::TraceEvent*> by_id;
  for (const auto& e : events) by_id[e.span_id] = &e;
  for (const auto& e : events) {
    if (e.parent_id == 0) continue;
    const auto parent = by_id.find(e.parent_id);
    ASSERT_NE(parent, by_id.end())
        << e.name << " has a dangling parent span id";
    EXPECT_EQ(parent->second->trace_id, e.trace_id)
        << e.name << " crosses traces";
  }

  // One trace per request: the k-th sample request's root is pool.request
  // with trace_id_for_request(seed, k+1) (stream 0 = prepare), and its
  // whole subtree shares that trace id.
  std::map<std::uint64_t, std::size_t> request_roots;
  for (const auto& e : events)
    if (e.name == std::string("pool.request")) ++request_roots[e.trace_id];
  EXPECT_EQ(request_roots.size(), kRequests);
  for (std::size_t k = 1; k <= kRequests; ++k) {
    const std::uint64_t want = obs::trace_id_for_request(kSeed, k);
    EXPECT_EQ(request_roots.count(want), 1u) << "stream " << k;
  }
  // The prepare span rides the dedicated stream-0 trace.
  bool prepare_found = false;
  for (const auto& e : events)
    if (e.name == std::string("pool.prepare")) {
      prepare_found = true;
      EXPECT_EQ(e.trace_id, obs::trace_id_for_request(kSeed, 0));
    }
  EXPECT_TRUE(prepare_found);
  obs_reset(false);
}

}  // namespace
}  // namespace unigen
