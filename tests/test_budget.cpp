// Unit tests of the anytime/robustness primitives: Budget, CancelToken,
// RequestStatus, the deterministic fault injectors, the leapfrog
// publication rule, the achieved-δ math, and WorkerPool's cooperative
// cancellation (drain + reuse).

#include <atomic>
#include <gtest/gtest.h>

#include "cnf/cnf.hpp"
#include "counting/approxmc.hpp"
#include "counting/approxmc_core.hpp"
#include "fault_inject.hpp"
#include "service/budget.hpp"
#include "service/worker_pool.hpp"
#include "util/rng.hpp"

namespace unigen {
namespace {

TEST(RequestStatusTest, ToStringCoversEveryStatus) {
  EXPECT_STREQ(to_string(RequestStatus::kComplete), "complete");
  EXPECT_STREQ(to_string(RequestStatus::kPartial), "partial");
  EXPECT_STREQ(to_string(RequestStatus::kFailed), "failed");
  EXPECT_STREQ(to_string(RequestStatus::kTimedOut), "timed_out");
  EXPECT_STREQ(to_string(RequestStatus::kCancelled), "cancelled");
}

TEST(CancelTokenTest, TripObserveReset) {
  CancelToken token;
  EXPECT_FALSE(token.cancelled());
  token.cancel();
  EXPECT_TRUE(token.cancelled());
  EXPECT_TRUE(token.flag()->load());
  token.reset();
  EXPECT_FALSE(token.cancelled());
  Budget b;
  b.cancel = &token;
  EXPECT_EQ(b.cancel_flag(), token.flag());
}

TEST(BudgetTest, DefaultIsUnlimitedAndWallFree) {
  const Budget b = Budget::unlimited();
  EXPECT_FALSE(b.cancelled());
  EXPECT_FALSE(b.wall_expired());
  EXPECT_EQ(b.cancel_flag(), nullptr);
  EXPECT_FALSE(b.fault_fires(0, 0));
}

TEST(BudgetTest, WallClocksBreakWallFree) {
  EXPECT_TRUE(Budget::within_seconds(0.0).wall_expired());
}

TEST(BudgetTest, PerCallDeadlineCapsByTimeout) {
  Budget b = Budget::within_seconds(1000.0);
  b.bsat_timeout_s = 0.001;
  // The per-call deadline is the nearer of the two clocks.
  EXPECT_LE(b.per_call_deadline().remaining_seconds(), 0.001 + 1e-6);
  Budget c = Budget::within_seconds(1000.0);
  EXPECT_GT(c.per_call_deadline().remaining_seconds(), 100.0);
}

TEST(BudgetTest, AdmissionStatusAtTheBoundaries) {
  // A live budget admits.
  EXPECT_EQ(Budget::unlimited().admission_status(), RequestStatus::kComplete);
  EXPECT_EQ(Budget::within_seconds(100.0).admission_status(),
            RequestStatus::kComplete);
  // Zero and negative wall deadlines are born expired.
  EXPECT_EQ(Budget::within_seconds(0.0).admission_status(),
            RequestStatus::kTimedOut);
  EXPECT_EQ(Budget::within_seconds(-1.0).admission_status(),
            RequestStatus::kTimedOut);
  // A pre-tripped cancel token wins over an expired deadline: the caller
  // asked for the request to stop, which is the more specific truth.
  CancelToken token;
  token.cancel();
  Budget b = Budget::within_seconds(0.0);
  b.cancel = &token;
  EXPECT_EQ(b.admission_status(), RequestStatus::kCancelled);
  // max_bsat_calls is NOT an admission question: 0 is the documented
  // "unlimited" sentinel and any positive grant admits at least one probe.
  Budget units;
  units.max_bsat_calls = 1;
  EXPECT_EQ(units.admission_status(), RequestStatus::kComplete);
}

TEST(BudgetTest, DegenerateDeadlineCountsReturnBeforeAnyProbe) {
  // in_seconds(0) and in_seconds(-1) must yield kTimedOut with ZERO BSAT
  // calls — deterministically, on any machine, not racing the first probe.
  Cnf cnf(6);
  cnf.add_clause({Lit(0, false), Lit(1, false)});
  for (const double s : {0.0, -1.0}) {
    ApproxMcOptions options;
    options.budget = Budget::within_seconds(s);
    Rng rng(11);
    const ApproxMcAnytime any = approx_count_anytime(cnf, options, rng);
    EXPECT_EQ(any.status, RequestStatus::kTimedOut) << "deadline " << s;
    EXPECT_FALSE(any.result.valid);
    EXPECT_EQ(any.result.bsat_calls, 0u) << "probe ran despite dead budget";
  }
  // Pre-tripped cancellation: same guarantee, kCancelled.
  CancelToken token;
  token.cancel();
  ApproxMcOptions options;
  options.budget.cancel = &token;
  Rng rng(11);
  const ApproxMcAnytime any = approx_count_anytime(cnf, options, rng);
  EXPECT_EQ(any.status, RequestStatus::kCancelled);
  EXPECT_EQ(any.result.bsat_calls, 0u);
}

TEST(BudgetTest, UnitBudgetBoundaryOneAndUnlimited) {
  // max_bsat_calls == 1 admits exactly the prologue probe; on a formula the
  // prologue counts exactly, that single unit completes the request.
  Cnf cnf(3);
  cnf.add_clause({Lit(0, false), Lit(1, false), Lit(2, false)});
  ApproxMcOptions options;
  options.budget.max_bsat_calls = 1;
  Rng rng(5);
  const ApproxMcAnytime one = approx_count_anytime(cnf, options, rng);
  EXPECT_EQ(one.status, RequestStatus::kComplete);
  EXPECT_TRUE(one.result.exact);
  EXPECT_EQ(one.result.bsat_calls, 1u);
  // max_bsat_calls == 0 is unlimited, not zero-work (the boundary the
  // admission guard must NOT misread).
  ApproxMcOptions unlimited;
  unlimited.budget.max_bsat_calls = 0;
  Rng rng2(5);
  const ApproxMcAnytime full = approx_count_anytime(cnf, unlimited, rng2);
  EXPECT_EQ(full.status, RequestStatus::kComplete);
  EXPECT_TRUE(full.result.valid);
}

TEST(ScheduledFaultsTest, FiresExactlyOnPlan) {
  ScheduledFaults faults{{2, 0}, {2, 1}, {5, 3}};
  EXPECT_EQ(faults.planned(), 3u);
  EXPECT_FALSE(faults.inject_timeout(0, 0));
  EXPECT_TRUE(faults.inject_timeout(2, 0));
  EXPECT_TRUE(faults.inject_timeout(2, 1));
  EXPECT_FALSE(faults.inject_timeout(2, 2));
  EXPECT_TRUE(faults.inject_timeout(5, 3));
  EXPECT_EQ(faults.fired(), 3u);
}

TEST(SeededRateFaultsTest, DeterministicInSeedKeyCall) {
  SeededRateFaults a(42, 0.5);
  SeededRateFaults b(42, 0.5);
  int fired = 0;
  for (std::uint64_t key = 0; key < 8; ++key) {
    for (std::uint64_t call = 0; call < 32; ++call) {
      EXPECT_EQ(a.would_fire(key, call), b.would_fire(key, call));
      if (a.inject_timeout(key, call)) ++fired;
    }
  }
  EXPECT_EQ(a.fired(), static_cast<std::uint64_t>(fired));
  // Rate 0.5 over 256 draws: wildly loose bounds, just not degenerate.
  EXPECT_GT(fired, 32);
  EXPECT_LT(fired, 224);
  SeededRateFaults never(42, 0.0);
  SeededRateFaults always(42, 1.0);
  EXPECT_FALSE(never.would_fire(3, 3));
  EXPECT_TRUE(always.would_fire(3, 3));
}

TEST(CancelAfterProbesTest, TripsOnceAtTheScheduledProbe) {
  CancelToken token;
  CancelAfterProbes trip(token, 3);
  EXPECT_FALSE(trip.inject_timeout(0, 0));
  EXPECT_FALSE(token.cancelled());
  EXPECT_FALSE(trip.inject_timeout(0, 1));
  EXPECT_FALSE(token.cancelled());
  EXPECT_FALSE(trip.inject_timeout(1, 0));  // third inspection trips
  EXPECT_TRUE(token.cancelled());
  EXPECT_FALSE(trip.inject_timeout(1, 1));  // never injects a timeout
  EXPECT_TRUE(token.cancelled());
}

TEST(LeapfrogPublishTest, OnlyCompletedIterationsPublish) {
  ApproxMcCoreOutcome ok;
  ok.ok = true;
  ok.hash_count = 7;
  ok.bsat_calls = 3;
  const auto m = leapfrog_publish(ok);
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(*m, 7u);

  // A cut iteration — timeout, injected fault, or cancellation — must not
  // seed later searches with the m its aborted search happened to stand at.
  ApproxMcCoreOutcome timed;
  timed.timed_out = true;
  timed.hash_count = 9;
  timed.bsat_calls = 2;
  EXPECT_FALSE(leapfrog_publish(timed).has_value());

  ApproxMcCoreOutcome faulted = timed;
  faulted.faulted = true;
  EXPECT_FALSE(leapfrog_publish(faulted).has_value());

  ApproxMcCoreOutcome cancelled;
  cancelled.cancelled = true;
  cancelled.hash_count = 4;
  EXPECT_FALSE(leapfrog_publish(cancelled).has_value());

  ApproxMcCoreOutcome barren;  // ran out of hash counts, no estimate
  barren.bsat_calls = 5;
  EXPECT_FALSE(leapfrog_publish(barren).has_value());
}

TEST(AchievedDeltaTest, MatchesTheBinomialMedianTail) {
  // t <= 0: no estimates, no confidence.
  EXPECT_EQ(approxmc_median_failure_tail(0), 1.0);
  EXPECT_EQ(approxmc_median_failure_tail(-3), 1.0);
  // t = 1: the median is the single iteration; it fails with 1-p = e^{-3/2}.
  EXPECT_NEAR(approxmc_median_failure_tail(1), std::exp(-1.5), 1e-12);
  // Monotone non-increasing over odd t.
  double prev = 1.0;
  for (int t = 1; t <= 41; t += 2) {
    const double tail = approxmc_median_failure_tail(t);
    EXPECT_LE(tail, prev);
    prev = tail;
  }
  // approxmc_iteration_count returns the first odd t beating delta.
  for (const double delta : {0.3, 0.2, 0.1, 0.05}) {
    const int t = approxmc_iteration_count(delta);
    EXPECT_EQ(t % 2, 1);
    EXPECT_LE(approxmc_median_failure_tail(t), delta);
    if (t > 2) {
      EXPECT_GT(approxmc_median_failure_tail(t - 2), delta);
    }
  }
}

TEST(WorkerPoolCancelTest, PreTrippedTokenDrainsWithoutExecuting) {
  Cnf cnf(4);
  cnf.add_clause({Lit(0, false), Lit(1, false)});
  WorkerPool pool(2);
  pool.start(cnf, cnf.sampling_set_or_all());
  CancelToken token;
  token.cancel();
  std::atomic<int> ran{0};
  const std::size_t executed =
      pool.run(16,
               [&](IncrementalBsat&, std::size_t, std::size_t) {
                 ran.fetch_add(1);
               },
               token.flag());
  // Every task is accounted for (run returned), none executed.
  EXPECT_EQ(executed, 0u);
  EXPECT_EQ(ran.load(), 0);
}

TEST(WorkerPoolCancelTest, PoolIsReusableAfterCancel) {
  Cnf cnf(4);
  cnf.add_clause({Lit(0, false), Lit(1, false)});
  WorkerPool pool(2);
  pool.start(cnf, cnf.sampling_set_or_all());

  CancelToken token;
  std::atomic<int> ran{0};
  // Trip the token from inside task 0: later tasks drain unexecuted.
  pool.run(64,
           [&](IncrementalBsat&, std::size_t, std::size_t) {
             ran.fetch_add(1);
             token.cancel();
           },
           token.flag());
  EXPECT_GE(ran.load(), 1);
  EXPECT_LT(ran.load(), 64);

  // The same pool serves the next run completely.
  std::atomic<int> second{0};
  const std::size_t executed =
      pool.run(8, [&](IncrementalBsat&, std::size_t, std::size_t) {
        second.fetch_add(1);
      });
  EXPECT_EQ(executed, 8u);
  EXPECT_EQ(second.load(), 8);
}

}  // namespace
}  // namespace unigen
