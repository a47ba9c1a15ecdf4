// The anytime contract, end to end (ISSUE acceptance criteria):
//   * a deterministic budget cut mid-run yields kPartial with the honest
//     achieved-δ, and resume() reproduces the uninterrupted same-seed run
//     byte-for-byte — serially and on pools of 2 and 4 threads;
//   * every injected fault surfaces as an honest status (iteration-skip
//     accounting, UniGen's fresh-hash retry, bounded retry loops);
//   * cancellation is observed cooperatively, cut runs resume, and a
//     cancelled SamplerPool serves the next request byte-identically to a
//     fresh pool.

#include <gtest/gtest.h>

#include <vector>

#include "cnf/cnf.hpp"
#include "core/unigen.hpp"
#include "counting/approxmc.hpp"
#include "fault_inject.hpp"
#include "helpers.hpp"
#include "sat/incremental_bsat.hpp"
#include "service/budget.hpp"
#include "service/sampler_pool.hpp"
#include "util/rng.hpp"

namespace unigen {
namespace {

/// A formula the unhashed probe cannot count exactly: 2^12 models >>
/// pivot(0.8).
Cnf hashed_instance() { return Cnf(12); }

ApproxMcOptions det_options(std::uint64_t units, std::size_t threads) {
  ApproxMcOptions opts;
  opts.num_threads = threads;
  opts.budget.max_bsat_calls = units;
  return opts;
}

/// Byte-level equality of two anytime results, including the resume state's
/// constants and per-iteration ledger (not its grant, which a cut and
/// resume reach in two steps).
void expect_identical(const ApproxMcAnytime& a, const ApproxMcAnytime& b) {
  EXPECT_EQ(a.status, b.status);
  EXPECT_EQ(a.iterations_completed, b.iterations_completed);
  EXPECT_EQ(a.achieved_delta, b.achieved_delta);
  EXPECT_EQ(a.result.valid, b.result.valid);
  EXPECT_EQ(a.result.exact, b.result.exact);
  EXPECT_EQ(a.result.cell_count, b.result.cell_count);
  EXPECT_EQ(a.result.hash_count, b.result.hash_count);
  EXPECT_EQ(a.result.bsat_calls, b.result.bsat_calls);
  EXPECT_EQ(a.result.iterations_succeeded, b.result.iterations_succeeded);
  EXPECT_EQ(a.state.prologue_done, b.state.prologue_done);
  EXPECT_EQ(a.state.exact, b.state.exact);
  EXPECT_EQ(a.state.pivot, b.state.pivot);
  EXPECT_EQ(a.state.iter_base.state(), b.state.iter_base.state());
  ASSERT_EQ(a.state.outcomes.size(), b.state.outcomes.size());
  for (std::size_t i = 0; i < a.state.outcomes.size(); ++i) {
    const ApproxMcCoreOutcome& x = a.state.outcomes[i];
    const ApproxMcCoreOutcome& y = b.state.outcomes[i];
    EXPECT_EQ(x.ok, y.ok) << "slot " << i;
    EXPECT_EQ(x.timed_out, y.timed_out) << "slot " << i;
    EXPECT_EQ(x.faulted, y.faulted) << "slot " << i;
    EXPECT_EQ(x.cell_count, y.cell_count) << "slot " << i;
    EXPECT_EQ(x.hash_count, y.hash_count) << "slot " << i;
    EXPECT_EQ(x.bsat_calls, y.bsat_calls) << "slot " << i;
  }
}

TEST(AnytimeCount, UnlimitedDeterministicRunCompletes) {
  const Cnf cnf = hashed_instance();
  Rng rng(101);
  const ApproxMcAnytime full =
      approx_count_anytime(cnf, det_options(100000, 1), rng);
  EXPECT_EQ(full.status, RequestStatus::kComplete);
  EXPECT_TRUE(full.result.valid);
  EXPECT_EQ(full.iterations_completed, full.result.iterations_requested);
  EXPECT_LE(full.achieved_delta, 0.2 + 1e-12);
  // Deterministic budgets force cold starts: the estimate is byte-identical
  // at every thread count.
  for (const std::size_t threads : {2u, 4u}) {
    Rng rng2(101);
    expect_identical(
        full, approx_count_anytime(cnf, det_options(100000, threads), rng2));
  }
}

class AnytimeCutResume : public ::testing::TestWithParam<std::size_t> {};

TEST_P(AnytimeCutResume, ResumeEqualsUninterrupted) {
  const std::size_t threads = GetParam();
  const Cnf cnf = hashed_instance();

  // Reference: the uninterrupted run, and its true unit cost.
  Rng ref_rng(2024);
  const ApproxMcAnytime full =
      approx_count_anytime(cnf, det_options(100000, threads), ref_rng);
  ASSERT_EQ(full.status, RequestStatus::kComplete);
  const std::uint64_t total = full.result.bsat_calls;
  ASSERT_GT(total, 3u);

  // Cut at several depths, including mid-iteration awkward spots, then
  // resume with the remaining units: byte identity with `full`, and the
  // cut slice itself must be honest about what it settled.
  for (const std::uint64_t first : {std::uint64_t{1}, std::uint64_t{2},
                                    total / 3, total / 2, total - 1}) {
    Rng rng(2024);
    ApproxMcAnytime cut =
        approx_count_anytime(cnf, det_options(first, threads), rng);
    ASSERT_NE(cut.status, RequestStatus::kComplete) << "cut at " << first;
    EXPECT_TRUE(cut.status == RequestStatus::kPartial ||
                cut.status == RequestStatus::kTimedOut);
    EXPECT_LT(cut.iterations_completed, full.iterations_completed);
    // (No ordering claim against full.achieved_delta: the binomial median
    // tail is not monotone across even/odd estimate counts — 2 estimates
    // "achieve" e^{-3} < tail(3) because both must be bad to spoil t=2.)
    if (cut.status == RequestStatus::kPartial) {
      EXPECT_TRUE(cut.result.valid);
      EXPECT_EQ(cut.achieved_delta,
                approxmc_median_failure_tail(cut.result.iterations_succeeded));
    } else {
      EXPECT_FALSE(cut.result.valid);
      EXPECT_EQ(cut.achieved_delta, 1.0);
    }
    // The partial estimate must come from completed iterations only: the
    // slots that carry work form a prefix, the admitted one.
    for (std::size_t i = 1; i < cut.state.outcomes.size(); ++i) {
      if (cut.state.outcomes[i].bsat_calls != 0) {
        EXPECT_NE(cut.state.outcomes[i - 1].bsat_calls, 0u) << "slot " << i;
      }
    }

    Budget more;
    more.max_bsat_calls = total - first;
    const ApproxMcAnytime resumed =
        approx_count_resume(cnf, cut.state, more);
    expect_identical(full, resumed);
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, AnytimeCutResume,
                         ::testing::Values(1u, 2u, 4u));

TEST(AnytimeCount, ResumeOfConcludedRunIsIdempotent) {
  const Cnf cnf = hashed_instance();
  Rng rng(77);
  const ApproxMcAnytime full =
      approx_count_anytime(cnf, det_options(100000, 1), rng);
  ASSERT_EQ(full.status, RequestStatus::kComplete);
  Budget more;
  more.max_bsat_calls = 50;
  const ApproxMcAnytime again = approx_count_resume(cnf, full.state, more);
  expect_identical(full, again);
}

TEST(AnytimeCount, ExactPrologueReplaysThroughResume) {
  Cnf cnf(3);  // 8 models <= pivot: resolved exactly by the unhashed probe
  Rng rng(5);
  const ApproxMcAnytime first =
      approx_count_anytime(cnf, det_options(10, 1), rng);
  EXPECT_EQ(first.status, RequestStatus::kComplete);
  EXPECT_TRUE(first.result.exact);
  EXPECT_EQ(first.result.cell_count, 8u);
  EXPECT_EQ(first.achieved_delta, 0.0);
  Budget more;
  more.max_bsat_calls = 10;
  const ApproxMcAnytime replay = approx_count_resume(cnf, first.state, more);
  EXPECT_EQ(replay.status, RequestStatus::kComplete);
  EXPECT_TRUE(replay.result.exact);
  EXPECT_EQ(replay.result.cell_count, 8u);
}

TEST(AnytimeCount, ExactRunIsWidthIndependentUnderAGrant) {
  // The unhashed probe counts 8 models exactly, as task 0 of the fan-out.
  // Iterations that ran beside it on a wider pool are dropped uncounted, so
  // the result and the resume state are the same at every width.
  Cnf cnf(3);
  Rng ref_rng(5);
  const ApproxMcAnytime ref =
      approx_count_anytime(cnf, det_options(10, 1), ref_rng);
  ASSERT_EQ(ref.status, RequestStatus::kComplete);
  EXPECT_TRUE(ref.result.exact);
  EXPECT_EQ(ref.result.cell_count, 8u);
  EXPECT_EQ(ref.result.bsat_calls, 1u);
  for (const std::size_t threads : {2u, 4u}) {
    Rng rng(5);
    const ApproxMcAnytime got =
        approx_count_anytime(cnf, det_options(10, threads), rng);
    expect_identical(ref, got);
    EXPECT_EQ(ref.state.units_granted, got.state.units_granted);
  }
}

TEST(AnytimeCount, CutProbeResumesToTheUncappedCount) {
  // A per-call timeout of 1e-12 s cuts the unhashed probe (Deadline
  // truncates it to 0 ns, so the probe's first deadline check fires): the
  // run has no count, so it wants no iteration and leaves the prologue
  // open; a resume probes again, from the same iteration base, and lands
  // on the uncapped count.
  Rng gen(2);
  const Cnf cnf = test::random_cnf(16, 60, 3, gen);
  for (const std::size_t threads : {1u, 4u}) {
    ApproxMcOptions opts;
    opts.num_threads = threads;
    opts.simplify.enabled = false;
    Rng ref_rng(9);
    const ApproxMcAnytime full = approx_count_anytime(cnf, opts, ref_rng);
    ASSERT_EQ(full.status, RequestStatus::kComplete) << "width " << threads;
    EXPECT_FALSE(full.result.exact);
    EXPECT_EQ(full.result.cell_count, 40u);
    EXPECT_EQ(full.result.hash_count, 2u);

    opts.budget.bsat_timeout_s = 1e-12;
    Rng rng(9);
    const ApproxMcAnytime cut = approx_count_anytime(cnf, opts, rng);
    EXPECT_EQ(cut.status, RequestStatus::kTimedOut) << "width " << threads;
    EXPECT_FALSE(cut.result.valid);
    EXPECT_EQ(cut.result.bsat_calls, 1u);
    EXPECT_FALSE(cut.state.prologue_done);

    const ApproxMcAnytime resumed =
        approx_count_resume(cnf, cut.state, Budget{});
    EXPECT_EQ(resumed.status, RequestStatus::kComplete);
    EXPECT_EQ(resumed.result.cell_count, full.result.cell_count);
    EXPECT_EQ(resumed.result.hash_count, full.result.hash_count);
  }
}

TEST(AnytimeCount, FaultedIterationIsSkippedAndAccounted) {
  const Cnf cnf = hashed_instance();
  for (const std::size_t threads : {1u, 2u, 4u}) {
    ScheduledFaults faults{{1, 0}, {2, 0}};  // cut iterations 1 and 2
    ApproxMcOptions opts;
    opts.num_threads = threads;
    opts.budget.fault = &faults;
    Rng rng(909);
    const ApproxMcAnytime r = approx_count_anytime(cnf, opts, rng);
    ASSERT_GE(r.result.iterations_requested, 3);
    // Wall-free faults are deterministic ends: the run completes, the two
    // faulted iterations are settled-but-skipped, and the confidence label
    // honestly reflects the thinner median.
    EXPECT_EQ(r.status, RequestStatus::kComplete);
    EXPECT_TRUE(r.result.valid);
    EXPECT_EQ(faults.fired(), 2u);
    EXPECT_EQ(r.iterations_completed, r.result.iterations_requested);
    EXPECT_EQ(r.result.iterations_succeeded,
              r.result.iterations_requested - 2);
    EXPECT_EQ(r.achieved_delta,
              approxmc_median_failure_tail(r.result.iterations_succeeded));
    EXPECT_TRUE(r.state.outcomes[1].faulted);
    EXPECT_TRUE(r.state.outcomes[1].timed_out);
    EXPECT_FALSE(r.state.outcomes[1].ok);
    EXPECT_TRUE(r.state.outcomes[2].faulted);
  }
}

TEST(AnytimeCount, FaultPlanIsScheduleIndependent) {
  const Cnf cnf = hashed_instance();
  SeededRateFaults plan1(31337, 0.15);
  ApproxMcOptions opts;
  opts.num_threads = 1;
  opts.budget.fault = &plan1;
  Rng rng1(555);
  const ApproxMcAnytime serial = approx_count_anytime(cnf, opts, rng1);
  for (const std::size_t threads : {2u, 4u}) {
    SeededRateFaults plan(31337, 0.15);
    ApproxMcOptions popts;
    popts.num_threads = threads;
    popts.budget.fault = &plan;
    Rng rng(555);
    expect_identical(serial, approx_count_anytime(cnf, popts, rng));
    EXPECT_EQ(plan.fired(), plan1.fired());
  }
}

TEST(AnytimeCount, PreTrippedTokenCancelsImmediately) {
  const Cnf cnf = hashed_instance();
  CancelToken token;
  token.cancel();
  ApproxMcOptions opts;
  opts.budget.cancel = &token;
  Rng rng(8);
  const ApproxMcAnytime r = approx_count_anytime(cnf, opts, rng);
  EXPECT_EQ(r.status, RequestStatus::kCancelled);
  EXPECT_FALSE(r.result.valid);
}

TEST(AnytimeCount, CancelMidRunResumesToTheUninterruptedResult) {
  const Cnf cnf = hashed_instance();
  // Reference: a deterministic run under an empty fault plan (det mode on,
  // nothing fires).
  ScheduledFaults empty_plan;
  ApproxMcOptions ref_opts;
  ref_opts.budget.fault = &empty_plan;
  Rng ref_rng(13);
  const ApproxMcAnytime full = approx_count_anytime(cnf, ref_opts, ref_rng);
  ASSERT_EQ(full.status, RequestStatus::kComplete);

  // Cancel deterministically mid-run: the injector seam is consulted at
  // every probe, so "trip after N inspections" is an exact cut point.
  CancelToken token;
  CancelAfterProbes trip(token, 7);
  ApproxMcOptions opts;
  opts.budget.cancel = &token;
  opts.budget.fault = &trip;
  Rng rng(13);
  const ApproxMcAnytime cut = approx_count_anytime(cnf, opts, rng);
  EXPECT_EQ(cut.status, RequestStatus::kCancelled);
  EXPECT_LT(cut.iterations_completed, full.iterations_completed);

  // Resume under the (now inert) trip plan: the cancelled slice was
  // treated as never-run, so the continuation lands exactly on `full`.
  token.reset();
  Budget more;
  more.fault = &trip;
  const ApproxMcAnytime resumed = approx_count_resume(cnf, cut.state, more);
  expect_identical(full, resumed);
}

// --- sampling side ----------------------------------------------------

/// Small but nontrivial hashed sampling instance.
Cnf sampling_instance() {
  Cnf cnf(10);
  cnf.add_clause({Lit(0, false), Lit(1, false), Lit(2, false)});
  return cnf;
}

TEST(AnytimeSampling, FaultsDriveTheFreshHashRetry) {
  const Cnf cnf = sampling_instance();
  ScheduledFaults faults{{1, 0}, {1, 1}};  // request 1, first two probes
  UniGenOptions opts;
  opts.budget.fault = &faults;
  Rng rng(21);
  UniGen sampler(cnf, opts, rng);
  ASSERT_TRUE(sampler.prepare());
  const SampleResult r = sampler.sample();
  // Both faults fired as Section-5 retries (fresh hash, same i) and the
  // sample still concluded honestly.
  EXPECT_EQ(faults.fired(), 2u);
  EXPECT_GE(sampler.stats().bsat_timeout_retries, 2u);
  EXPECT_TRUE(r.status == SampleResult::Status::kOk ||
              r.status == SampleResult::Status::kFail);
  EXPECT_EQ(sampler.stats().samples_requested, 1u);
}

TEST(AnytimeSampling, UnitCapBoundsTheRetryLoopDeterministically) {
  const Cnf cnf = sampling_instance();
  // A plan that faults every probe of request 0 would retry forever; the
  // per-request unit cap turns that into a deterministic timeout.
  SeededRateFaults always(1, 1.0);
  UniGenOptions opts;
  opts.budget.fault = &always;
  opts.budget.max_bsat_calls = 5;
  Rng rng(22);
  UniGen sampler(cnf, opts, rng);
  ASSERT_TRUE(sampler.prepare());
  const SampleResult r = sampler.sample();
  EXPECT_EQ(r.status, SampleResult::Status::kTimeout);
  EXPECT_EQ(sampler.stats().samples_timed_out, 1u);
  EXPECT_EQ(sampler.stats().sample_bsat_calls, 5u);
  EXPECT_EQ(always.fired(), 5u);
  // ⊥ stays distinct from the budget expiry in the aggregates.
  EXPECT_EQ(sampler.stats().samples_failed, 0u);
}

TEST(AnytimeSampling, PrepareCountHonoursTheProbeCap) {
  // The nested count in prepare probes under the budget's per-call cap too:
  // at 1 ns no count probe completes, so q cannot be fixed.  The easy-case
  // check is uncapped, so the instance does reach the count.
  UniGenOptions opts;
  opts.budget.bsat_timeout_s = 1e-9;
  Rng rng(23);
  UniGen sampler(sampling_instance(), opts, rng);
  EXPECT_FALSE(sampler.prepare());
  EXPECT_FALSE(sampler.stats().trivial);
  EXPECT_GT(sampler.stats().prepare_bsat_calls, 1u);
}

TEST(AnytimeSampling, CancelledSampleIsDistinctFromBottom) {
  const Cnf cnf = sampling_instance();
  CancelToken token;
  UniGenOptions opts;
  opts.budget.cancel = &token;
  Rng rng(23);
  UniGen sampler(cnf, opts, rng);
  ASSERT_TRUE(sampler.prepare());
  token.cancel();
  const SampleResult r = sampler.sample();
  EXPECT_EQ(r.status, SampleResult::Status::kCancelled);
  EXPECT_EQ(sampler.stats().samples_cancelled, 1u);
  EXPECT_EQ(sampler.stats().samples_failed, 0u);
  EXPECT_EQ(sampler.stats().samples_timed_out, 0u);
  // success_rate counts the cancelled request in its denominator.
  EXPECT_EQ(sampler.stats().success_rate(), 0.0);
  token.reset();
  const SampleResult r2 = sampler.sample();
  EXPECT_NE(r2.status, SampleResult::Status::kCancelled);
}

TEST(AnytimeSampling, PoolCancelledCallIsHonestEverywhere) {
  const Cnf cnf = sampling_instance();
  SamplerPoolOptions popts;
  popts.num_threads = 2;
  SamplerPool pool(cnf, popts);
  ASSERT_TRUE(pool.prepare());

  CancelToken token;
  token.cancel();
  Budget budget;
  budget.cancel = &token;
  const SampleManyResult r = pool.sample_many_within(5, budget);
  EXPECT_EQ(r.status, RequestStatus::kCancelled);
  ASSERT_EQ(r.samples.size(), 5u);
  for (const SampleResult& s : r.samples)
    EXPECT_EQ(s.status, SampleResult::Status::kCancelled);
  const SamplerPoolStats st = pool.stats();
  EXPECT_EQ(st.samples_cancelled, 5u);
  EXPECT_EQ(st.requests, 5u);
  EXPECT_EQ(st.success_rate(), 0.0);

  const SampleBatchesResult b = pool.sample_batches_within(3, 4, budget);
  EXPECT_EQ(b.status, RequestStatus::kCancelled);
  for (const BatchResult& br : b.batches)
    EXPECT_EQ(br.status, SampleResult::Status::kCancelled);
}

TEST(AnytimeSampling, PoolAfterCancelMatchesAFreshPool) {
  const Cnf cnf = sampling_instance();
  SamplerPoolOptions popts;
  popts.num_threads = 2;

  // Pool A: a cancelled call burns streams 1..4, then a real call runs on
  // streams 5..8.
  SamplerPool pool_a(cnf, popts);
  ASSERT_TRUE(pool_a.prepare());
  CancelToken token;
  token.cancel();
  Budget cancelled;
  cancelled.cancel = &token;
  const SampleManyResult burned = pool_a.sample_many_within(4, cancelled);
  ASSERT_EQ(burned.status, RequestStatus::kCancelled);
  const std::vector<SampleResult> after = pool_a.sample_many(4);

  // Pool B: identical construction, the first call served normally on
  // streams 1..4, the second on 5..8 — the one we compare against.
  SamplerPool pool_b(cnf, popts);
  ASSERT_TRUE(pool_b.prepare());
  pool_b.sample_many(4);
  const std::vector<SampleResult> fresh = pool_b.sample_many(4);

  ASSERT_EQ(after.size(), fresh.size());
  for (std::size_t k = 0; k < after.size(); ++k) {
    EXPECT_EQ(after[k].status, fresh[k].status) << "slot " << k;
    EXPECT_EQ(after[k].witness, fresh[k].witness) << "slot " << k;
  }
}

TEST(AnytimeSampling, ExpiredDeadlineReportsTimedOutCall) {
  const Cnf cnf = sampling_instance();
  SamplerPoolOptions popts;
  popts.num_threads = 2;
  SamplerPool pool(cnf, popts);
  ASSERT_TRUE(pool.prepare());
  const SampleManyResult r =
      pool.sample_many_within(3, Budget::within_seconds(0.0));
  EXPECT_EQ(r.status, RequestStatus::kTimedOut);
  for (const SampleResult& s : r.samples)
    EXPECT_EQ(s.status, SampleResult::Status::kTimeout);
}

TEST(AnytimeSampling, CancelMidEpochServesAPrefixHonestly) {
  const Cnf cnf = sampling_instance();
  SamplerPoolOptions popts;
  popts.num_threads = 1;  // deterministic service order for the assertion
  SamplerPool pool(cnf, popts);
  ASSERT_TRUE(pool.prepare());

  // The injector seam is consulted at every probe, so "trip after N
  // inspections" cuts the epoch at an exact, repeatable point.  With a
  // single thread requests are served in order, so whichever request the
  // trip lands in, everything before it concluded normally and everything
  // at or after it reports kCancelled — the honest-prefix property.
  CancelToken token;
  CancelAfterProbes trip(token, 3);
  Budget budget;
  budget.cancel = &token;
  budget.fault = &trip;
  const SampleManyResult r = pool.sample_many_within(6, budget);
  EXPECT_EQ(r.status, RequestStatus::kCancelled);
  ASSERT_EQ(r.samples.size(), 6u);
  bool seen_cancelled = false;
  for (const SampleResult& s : r.samples) {
    if (s.status == SampleResult::Status::kCancelled) {
      seen_cancelled = true;
    } else {
      // Once the token tripped, no later request may produce a witness.
      EXPECT_FALSE(seen_cancelled) << "served request after the cut";
    }
  }
  EXPECT_TRUE(seen_cancelled);
}

}  // namespace
}  // namespace unigen
