// Tests for the multi-formula session server: canonical keying through the
// simplifier, LRU eviction order and determinism, warm-path byte-identity
// against fresh pools across thread counts, cancel-mid-request
// reusability, and the warm handoff's engine-build accounting
// (IncrementalBsat::total_constructions).

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <vector>

#include "helpers.hpp"
#include "sat/incremental_bsat.hpp"
#include "service/sampling_server.hpp"
#include "service/session_registry.hpp"

namespace unigen {
namespace {

/// 504 models over 10 vars: hashed mode at ε=6, so sessions actually start
/// their pools and the handoff has something to hand off.
Cnf hashed_formula() {
  Cnf cnf(10);
  cnf.add_clause({Lit(0, false), Lit(1, false), Lit(2, false)});
  cnf.add_clause({Lit(3, false), Lit(4, true)});
  cnf.add_clause({Lit(5, false), Lit(6, false), Lit(7, true)});
  cnf.add_clause({Lit(8, false), Lit(9, false), Lit(0, true)});
  return cnf;
}

/// A second, structurally different hashed-mode formula.
Cnf hashed_formula_b() {
  Cnf cnf(10);
  cnf.add_clause({Lit(0, false), Lit(1, false)});
  cnf.add_clause({Lit(2, false), Lit(3, false), Lit(4, false)});
  cnf.add_clause({Lit(5, true), Lit(6, false)});
  cnf.add_clause({Lit(7, false), Lit(8, false), Lit(9, true)});
  return cnf;
}

Cnf trivial_formula() {
  Cnf cnf(3);
  cnf.add_clause({Lit(0, false), Lit(1, false), Lit(2, false)});
  return cnf;
}

SessionRegistryOptions registry_options(std::size_t threads,
                                        std::uint64_t seed = 0x5E55) {
  SessionRegistryOptions o;
  o.pool.num_threads = threads;
  o.pool.seed = seed;
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

TEST(SessionOptionsFingerprint, SplitsOnMeaningIgnoresDeployment) {
  const SamplerPoolOptions base;
  SamplerPoolOptions other = base;
  other.unigen.epsilon = 8.0;
  EXPECT_FALSE(fingerprint_session_options(base) ==
               fingerprint_session_options(other));
  other = base;
  other.seed = base.seed + 1;
  EXPECT_FALSE(fingerprint_session_options(base) ==
               fingerprint_session_options(other));
  other = base;
  other.unigen.simplify.enabled = false;
  EXPECT_FALSE(fingerprint_session_options(base) ==
               fingerprint_session_options(other));
  // Thread count and wall-clock budgets are deployment shape: the service
  // output is byte-identical across them, so they must not split sessions.
  other = base;
  other.num_threads = 7;
  other.unigen.budget.bsat_timeout_s = 1.0;
  other.unigen.budget.deadline = Deadline::in_seconds(2.0);
  EXPECT_EQ(fingerprint_session_options(base),
            fingerprint_session_options(other));
}

TEST(SessionKey, PermutedInputSharesTheCanonicalKey) {
  const SamplerPoolOptions opts;
  const Cnf a = hashed_formula();
  Cnf b(10);  // same clauses, different order and literal order
  b.add_clause({Lit(9, false), Lit(0, true), Lit(8, false)});
  b.add_clause({Lit(4, true), Lit(3, false)});
  b.add_clause({Lit(2, false), Lit(0, false), Lit(1, false)});
  b.add_clause({Lit(6, false), Lit(7, true), Lit(5, false)});
  EXPECT_EQ(make_session_key(a, opts).key, make_session_key(b, opts).key);
  EXPECT_FALSE(make_session_key(a, opts).key ==
               make_session_key(hashed_formula_b(), opts).key);
}

TEST(SessionRegistry, WarmHitReturnsTheSameSession) {
  SessionRegistry registry(registry_options(2));
  const Cnf cnf = hashed_formula();
  const AcquireResult cold = registry.acquire(cnf);
  ASSERT_TRUE(cold.ok());
  EXPECT_FALSE(cold.warm);
  const AcquireResult warm = registry.acquire(cnf);
  ASSERT_TRUE(warm.ok());
  EXPECT_TRUE(warm.warm);
  EXPECT_EQ(cold.session, warm.session);
  EXPECT_EQ(cold.key, warm.key);
  EXPECT_EQ(warm.session->acquisitions(), 2u);
  const auto st = registry.stats();
  EXPECT_EQ(st.requests, 2u);
  EXPECT_EQ(st.hits, 1u);
  EXPECT_EQ(st.misses, 1u);
  EXPECT_EQ(st.sessions, 1u);
  EXPECT_GT(st.resident_bytes, 0u);
}

TEST(SessionRegistry, SyntacticVariantHitsThroughCanonicalKey) {
  // A duplicated clause changes the *raw* fingerprint but simplifies away,
  // so the canonical key matches — the two-level lookup must serve it from
  // the existing session (one extra canonicalization, zero extra prepares).
  SessionRegistry registry(registry_options(1));
  const Cnf cnf = hashed_formula();
  Cnf dup = hashed_formula();
  dup.add_clause({Lit(3, false), Lit(4, true)});
  ASSERT_FALSE(fingerprint_cnf(cnf) == fingerprint_cnf(dup));
  ASSERT_TRUE(registry.acquire(cnf).ok());
  const AcquireResult got = registry.acquire(dup);
  ASSERT_TRUE(got.ok());
  EXPECT_TRUE(got.warm);
  EXPECT_EQ(registry.stats().sessions, 1u);
}

TEST(SessionRegistry, LruEvictionOrderIsDeterministic) {
  const Cnf formulas[] = {hashed_formula(), hashed_formula_b(),
                          trivial_formula()};
  // Script: a, b, c (evicts a — LRU), a (evicts b), c (hit: c stayed warm
  // through a's re-registration).  Replayed twice; identical ledgers.
  std::vector<SessionRegistryStats> ledgers;
  for (int replay = 0; replay < 2; ++replay) {
    SessionRegistryOptions o = registry_options(1);
    o.max_sessions = 2;
    SessionRegistry registry(o);
    EXPECT_FALSE(registry.acquire(formulas[0]).warm);
    EXPECT_FALSE(registry.acquire(formulas[1]).warm);
    EXPECT_FALSE(registry.acquire(formulas[2]).warm);  // drops a
    EXPECT_FALSE(registry.acquire(formulas[0]).warm);  // miss: a was evicted
    EXPECT_TRUE(registry.acquire(formulas[2]).warm);   // c survived
    ledgers.push_back(registry.stats());
  }
  for (const auto& st : ledgers) {
    EXPECT_EQ(st.requests, 5u);
    EXPECT_EQ(st.hits, 1u);
    EXPECT_EQ(st.misses, 4u);
    EXPECT_EQ(st.evictions, 2u);
    EXPECT_EQ(st.sessions, 2u);
  }
}

TEST(SessionRegistry, WarmTouchProtectsFromEviction) {
  SessionRegistryOptions o = registry_options(1);
  o.max_sessions = 2;
  SessionRegistry registry(o);
  registry.acquire(hashed_formula());
  registry.acquire(hashed_formula_b());
  registry.acquire(hashed_formula());    // touch: a becomes most-recent
  registry.acquire(trivial_formula());   // must evict b, not a
  EXPECT_TRUE(registry.acquire(hashed_formula()).warm);
  EXPECT_FALSE(registry.acquire(hashed_formula_b()).warm);
}

TEST(SessionRegistry, ResidentByteCapEvictsButKeepsOne) {
  SessionRegistryOptions o = registry_options(1);
  o.max_resident_bytes = 1;  // every session is over budget on its own
  SessionRegistry registry(o);
  ASSERT_TRUE(registry.acquire(hashed_formula()).ok());
  EXPECT_EQ(registry.stats().sessions, 1u);  // never evict the only one
  ASSERT_TRUE(registry.acquire(hashed_formula_b()).ok());
  const auto st = registry.stats();
  EXPECT_EQ(st.sessions, 1u);
  EXPECT_EQ(st.evictions, 1u);
}

TEST(SessionRegistry, EvictAndClearSeams) {
  SessionRegistry registry(registry_options(1));
  const AcquireResult a = registry.acquire(hashed_formula());
  registry.acquire(trivial_formula());
  ASSERT_TRUE(registry.evict(a.key));
  EXPECT_FALSE(registry.evict(a.key));  // already gone
  EXPECT_EQ(registry.stats().sessions, 1u);
  EXPECT_FALSE(registry.acquire(hashed_formula()).warm);  // cold again
  registry.clear();
  EXPECT_EQ(registry.stats().sessions, 0u);
  EXPECT_EQ(registry.stats().resident_bytes, 0u);
}

TEST(SessionRegistry, FailedPrepareIsDroppedAndRetryable) {
  SessionRegistry registry(registry_options(1));
  Budget dead = Budget::within_seconds(0.0);  // already expired
  const AcquireResult failed = registry.acquire(hashed_formula(), dead);
  EXPECT_FALSE(failed.ok());
  auto st = registry.stats();
  EXPECT_EQ(st.prepare_failures, 1u);
  EXPECT_EQ(st.sessions, 0u);
  // The failure did not poison the key: a retry under a real budget works.
  const AcquireResult retry = registry.acquire(hashed_formula());
  ASSERT_TRUE(retry.ok());
  EXPECT_FALSE(retry.warm);
  EXPECT_EQ(registry.stats().sessions, 1u);
}

TEST(SessionRegistry, WarmPathByteIdenticalToFreshPoolAcrossThreads) {
  // The server contract: interleaved warm requests against a session are
  // byte-identical to one fresh pool serving the same per-formula request
  // script — at every thread count (streams continue across requests and
  // never depend on the serving schedule), for hashed and easy-case
  // sessions alike.
  for (const Cnf& cnf : {hashed_formula(), trivial_formula()}) {
    std::vector<SampleResult> reference;
    {
      SamplerPool pool(cnf, registry_options(1).pool);
      for (int call = 0; call < 3; ++call) {
        const auto r = pool.sample_many(10);
        reference.insert(reference.end(), r.begin(), r.end());
      }
    }
    for (const std::size_t threads : {1u, 2u, 4u}) {
      SessionRegistry registry(registry_options(threads));
      std::vector<SampleResult> got;
      for (int call = 0; call < 3; ++call) {
        const AcquireResult a = registry.acquire(cnf);
        ASSERT_TRUE(a.ok());
        EXPECT_EQ(a.warm, call > 0);
        const auto r = a.session->pool().sample_many(10);
        got.insert(got.end(), r.begin(), r.end());
      }
      expect_same_results(reference, got);
    }
  }
}

TEST(SessionRegistry, CancelMidRequestLeavesSessionReusable) {
  // A cancelled warm request reports honest statuses and consumes its
  // streams; the follow-up request matches a fresh pool that mirrored the
  // same cancelled call — the session survives cancellation bit-exactly.
  const Cnf cnf = hashed_formula();
  CancelToken token;
  token.cancel();
  Budget cancelled;
  cancelled.cancel = &token;

  SamplerPool reference(cnf, registry_options(1).pool);
  reference.sample_many(6);
  reference.sample_many_within(4, cancelled);
  const auto want = reference.sample_many(6);

  SessionRegistry registry(registry_options(2));
  const AcquireResult a = registry.acquire(cnf);
  ASSERT_TRUE(a.ok());
  a.session->pool().sample_many(6);
  const SampleManyResult cut =
      a.session->pool().sample_many_within(4, cancelled);
  EXPECT_EQ(cut.status, RequestStatus::kCancelled);
  for (const auto& s : cut.samples)
    EXPECT_EQ(s.status, SampleResult::Status::kCancelled);
  const AcquireResult again = registry.acquire(cnf);
  ASSERT_TRUE(again.warm);
  expect_same_results(want, again.session->pool().sample_many(6));
}

TEST(SessionRegistry, HandoffBuildsAtMostOneEnginePerWorker) {
  // The ownership refactor's observable: prepare + sampling on a width-1
  // session constructs exactly ONE IncrementalBsat — worker 0's: the
  // easy-case check builds it, the counting fan-out and every sample reuse
  // it (an easy-case session builds it for the check alone).
  // The pre-handoff design built a transient counting pool on top (2 per
  // worker).  Width-4 may build up to 4 (lazily, schedule-dependent).
  const Cnf formulas[] = {hashed_formula(), trivial_formula()};
  const UniGenPrepared::Mode modes[] = {UniGenPrepared::Mode::kHashed,
                                        UniGenPrepared::Mode::kTrivial};
  for (std::size_t f = 0; f < 2; ++f) {
    const Cnf& cnf = formulas[f];
    {
      const std::uint64_t before = IncrementalBsat::total_constructions();
      SamplerPool pool(cnf, registry_options(1).pool);
      ASSERT_TRUE(pool.prepare());
      ASSERT_EQ(pool.prepared().mode, modes[f]);
      pool.sample_many(16);
      EXPECT_EQ(IncrementalBsat::total_constructions() - before, 1u);
    }
    {
      const std::uint64_t before = IncrementalBsat::total_constructions();
      SamplerPool pool(cnf, registry_options(4).pool);
      ASSERT_TRUE(pool.prepare());
      ASSERT_EQ(pool.prepared().mode, modes[f]);
      pool.sample_many(16);
      EXPECT_LE(IncrementalBsat::total_constructions() - before, 4u);
      EXPECT_GE(IncrementalBsat::total_constructions() - before, 1u);
    }
  }
}

TEST(SamplingServer, ColdWarmFlagsAndCount) {
  SamplingServerOptions so;
  so.registry = registry_options(2);
  SamplingServer server(so);
  const Cnf cnf = hashed_formula();
  const ServerSampleResponse cold = server.sample(cnf, 5);
  EXPECT_FALSE(cold.warm);
  EXPECT_EQ(cold.samples.size(), 5u);
  const ServerSampleResponse warm = server.sample(cnf, 5);
  EXPECT_TRUE(warm.warm);
  EXPECT_EQ(warm.key, cold.key);

  const ServerCountResponse hashed_count = server.count(cnf);
  EXPECT_TRUE(hashed_count.warm);
  EXPECT_EQ(hashed_count.status, RequestStatus::kComplete);
  EXPECT_FALSE(hashed_count.exact);
  EXPECT_GT(hashed_count.approx_log2_count, 0.0);

  const ServerCountResponse trivial_count = server.count(trivial_formula());
  EXPECT_FALSE(trivial_count.warm);
  EXPECT_TRUE(trivial_count.exact);
  EXPECT_NEAR(trivial_count.approx_log2_count, std::log2(7.0), 1e-9);

  Cnf unsat(1);
  unsat.add_clause({Lit(0, false)});
  unsat.add_clause({Lit(0, true)});
  const ServerCountResponse unsat_count = server.count(unsat);
  EXPECT_TRUE(unsat_count.unsat);
  EXPECT_EQ(server.stats().sessions, 3u);
}

TEST(SamplingServer, FailedPrepareStampsHonestSlots) {
  SamplingServerOptions so;
  so.registry = registry_options(1);
  SamplingServer server(so);
  CancelToken token;
  token.cancel();
  Budget cancelled;
  cancelled.cancel = &token;
  const ServerSampleResponse r =
      server.sample(hashed_formula(), 3, cancelled);
  EXPECT_EQ(r.status, RequestStatus::kCancelled);
  ASSERT_EQ(r.samples.size(), 3u);
  for (const auto& s : r.samples)
    EXPECT_EQ(s.status, SampleResult::Status::kCancelled);
  EXPECT_EQ(server.stats().prepare_failures, 1u);
}

}  // namespace
}  // namespace unigen
