// fuzz_cnf — randomized differential-testing driver (the oracle half of
// tests/fuzz_cnf.py, and the fixed-seed `fuzz_smoke` ctest).
//
// One seed = one deterministic fuzz case (tests/helpers.hpp:
// make_fuzz_case): a small random CNF, sometimes with XOR rows, sometimes
// with a random sampling set S, sometimes with XOR gate chains through
// variables outside S (parities over S that the formula states only
// through the gate variables).  Per case the driver cross-checks the
// stack's independent implementations against brute force and against each
// other:
//
//   1. ExactCounter (DPLL# with components/caching) vs. brute-force model
//      enumeration over the full support;
//   2. projected enumeration over S (count_projected_by_enumeration, the
//      blocking-clause oracle) vs. the brute-forced projection count;
//   3. ApproxMC: exact-mode results equal the truth; hashed estimates land
//      within the (1+ε) band (widened by the empirical slack the unit
//      suite uses, so a pass is deterministic per seed);
//   4. simplify-on vs. simplify-off ApproxMC byte-equality (count safety);
//   5. width-1, width-2 and width-4 pool ApproxMC byte-equality (the
//      scheduling-independence contract, with the unhashed probe racing
//      the iterations beside it), and an exact width-1 count costs one
//      BSAT call at every width;
//   6. the anytime contract under a seed-derived deterministic budget and
//      injected fault plan: statuses are honest (a Partial estimate comes
//      from completed iterations only, with the achieved-δ label), and
//      cutting the run mid-grant then resuming with the remainder is
//      byte-identical to the uninterrupted run;
//   7. the session server under a seed-derived register/sample/evict
//      script over three formulas with an LRU cap tight enough to thrash:
//      every response is byte-identical on S to a fresh reference pool serving
//      the same per-session request sequence (stream continuation — the
//      response's `warm` flag says when an eviction restarted a session's
//      streams, at which point the reference pool is rebuilt too), and a
//      cancelled request reports honest statuses while leaving the session
//      byte-exactly reusable;
//   8. the incremental engine's model store: count-only and witness calls
//      in a random order within one hash epoch, at random levels and caps,
//      each return min(|cell(m)|, cap) over S, exhausted exactly when the
//      cell is below the cap (S is usually not an independent support);
//   9. one ApproxMC iteration's hash-count search at a random pivot and
//      stream: from a cold start, a random start and start n + 1 it finds
//      the brute-forced smallest level m* whose cell holds at most pivot
//      solutions, and |cell(m*)|, or no estimate when no level is small
//      or cell(m*) is empty;
//  10. UniGen's prepare (ε = 6, counter ε drawn from {0.3, 0.8} so that
//      the count's pivot falls on both sides of hiThresh) on width-1 and
//      width-4 pools: UNSAT exactly when |R_S| = 0, the easy case exactly
//      when |R_S| <= hiThresh, with the brute-forced S-projections in
//      canonical order and the same witness bytes at both widths, else
//      hashed, with the exact log2 |R_S| whenever |R_S| <= pivot; q and
//      the estimate agree across the widths.
//
// Exit code 0 when every seed passes; on the first failure it prints a
// one-line repro (`fuzz_cnf <seed>` / `fuzz_cnf.py --repro <seed>`) plus
// the DIMACS-ish summary of the offending case and exits 1.
//
// Usage: fuzz_cnf <seed> [<seed> ...]
//        fuzz_cnf --range <first> <count>

#include <algorithm>
#include <bit>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/kappa_pivot.hpp"
#include "counting/approxmc.hpp"
#include "counting/approxmc_core.hpp"
#include "counting/exact_counter.hpp"
#include "fault_inject.hpp"
#include "hashing/xor_hash.hpp"
#include "helpers.hpp"
#include "sat/incremental_bsat.hpp"
#include "service/budget.hpp"
#include "service/sampler_pool.hpp"
#include "service/sampling_server.hpp"

namespace {

using namespace unigen;

/// Widened acceptance band for hashed estimates, matching the unit suite
/// (test_approxmc.cpp): tolerance log2(1+ε) plus slack so that the
/// per-seed check stays deterministic at δ = 0.05.
constexpr double kLog2Band = 0.84799690655495  /* log2(1.8) */ + 0.6;

struct Failure {
  std::string what;
};

#define FUZZ_CHECK(cond, ...)                                   \
  do {                                                          \
    if (!(cond)) {                                              \
      char buf_[256];                                           \
      std::snprintf(buf_, sizeof buf_, __VA_ARGS__);            \
      return Failure{buf_};                                     \
    }                                                           \
  } while (0)

std::optional<Failure> run_seed(std::uint64_t seed) {
  const test::FuzzCase fc = test::make_fuzz_case(seed);
  const Cnf& cnf = fc.cnf;
  const std::vector<Var>& s = fc.sampling_set;

  // Ground truth by brute force (the generator keeps n <= 16).
  const std::uint64_t truth_total = test::brute_force_count(cnf);
  const std::uint64_t truth_projected =
      test::brute_force_projected_count(cnf, s);

  // 1. ExactCounter vs. brute force over the full support.
  ExactCounter exact;
  const auto ec = exact.count(cnf);
  FUZZ_CHECK(ec.has_value(), "ExactCounter timed out on a %d-var formula",
             cnf.num_vars());
  FUZZ_CHECK(*ec == BigUint(truth_total),
             "ExactCounter=%s but brute force=%" PRIu64,
             ec->to_string().c_str(), truth_total);

  // 2. Enumerator-over-S oracle vs. the brute-forced projection.
  const auto en = count_projected_by_enumeration(cnf, s, truth_projected + 8);
  FUZZ_CHECK(en.has_value(), "projected enumeration hit its bound");
  FUZZ_CHECK(*en == truth_projected,
             "enumerator-over-S=%" PRIu64 " but brute force=%" PRIu64, *en,
             truth_projected);

  // 3. ApproxMC within the (1+ε) band (exact-mode results must be equal).
  ApproxMcOptions amc;
  amc.epsilon = 0.8;
  amc.delta = 0.05;
  Rng amc_rng(seed ^ 0x5eedbeef);
  const ApproxMcResult approx = approx_count(cnf, amc, amc_rng);
  if (truth_projected == 0) {
    FUZZ_CHECK(approx.valid && approx.exact && approx.cell_count == 0,
               "ApproxMC did not report exact 0 on an unsat case");
  } else {
    FUZZ_CHECK(approx.valid, "ApproxMC produced no estimate");
    if (approx.exact) {
      FUZZ_CHECK(approx.cell_count == truth_projected,
                 "ApproxMC exact=%" PRIu64 " but truth=%" PRIu64,
                 approx.cell_count, truth_projected);
    } else {
      const double err =
          std::abs(approx.log2_value() -
                   std::log2(static_cast<double>(truth_projected)));
      FUZZ_CHECK(err <= kLog2Band,
                 "ApproxMC log2=%.3f truth log2=%.3f (err %.3f > band %.3f)",
                 approx.log2_value(),
                 std::log2(static_cast<double>(truth_projected)), err,
                 kLog2Band);
    }
  }

  // 4. Count safety: simplification must not change the reported count.
  {
    ApproxMcOptions off = amc;
    off.simplify.enabled = false;
    Rng rng_on(seed + 1), rng_off(seed + 1);
    const ApproxMcResult a = approx_count(cnf, amc, rng_on);
    const ApproxMcResult b = approx_count(cnf, off, rng_off);
    FUZZ_CHECK(a.valid == b.valid && a.exact == b.exact &&
                   a.cell_count == b.cell_count &&
                   a.hash_count == b.hash_count,
               "simplify on/off mismatch: on=(%d,%d,%" PRIu64 ",%u) "
               "off=(%d,%d,%" PRIu64 ",%u)",
               a.valid, a.exact, a.cell_count, a.hash_count, b.valid,
               b.exact, b.cell_count, b.hash_count);
  }

  // 5. Scheduling independence: serial and parallel counts byte-identical.
  //    Most cases are exact, so this is where the unhashed probe, task 0
  //    of the fan-out, races the iterations it then drops.
  {
    Rng rng_ser(seed + 2);
    const ApproxMcResult a = approx_count(cnf, amc, rng_ser);
    for (const std::size_t width : {2u, 4u}) {
      ApproxMcOptions par = amc;
      par.num_threads = width;
      Rng rng_par(seed + 2);
      const ApproxMcResult b = approx_count(cnf, par, rng_par);
      FUZZ_CHECK(a.valid == b.valid && a.exact == b.exact &&
                     a.cell_count == b.cell_count &&
                     a.hash_count == b.hash_count,
                 "serial/width-%zu mismatch: serial=(%d,%d,%" PRIu64 ",%u) "
                 "parallel=(%d,%d,%" PRIu64 ",%u)",
                 width, a.valid, a.exact, a.cell_count, a.hash_count, b.valid,
                 b.exact, b.cell_count, b.hash_count);
      FUZZ_CHECK(!a.exact || (a.bsat_calls == 1 && b.bsat_calls == 1),
                 "exact count took %" PRIu64 " BSAT calls at width 1 and %"
                 PRIu64 " at width %zu, not 1",
                 a.bsat_calls, b.bsat_calls, width);
    }
  }

  // 6. Anytime under deterministic budgets and injected faults.  The fault
  //    plan is pure in (seed, key, call), so a fresh same-seed injector
  //    replays identically across the reference, cut and resume runs.
  {
    const double rate = 0.08 * static_cast<double>((seed >> 3) % 3);
    ApproxMcOptions any = amc;
    SeededRateFaults ref_faults(seed, rate);
    any.budget.fault = &ref_faults;
    Rng rng_ref(seed + 3);
    const ApproxMcAnytime full = approx_count_anytime(cnf, any, rng_ref);
    // Wall-free fault-only budget: every iteration reaches a deterministic
    // end, so the run concludes — and the verdict must match the estimate.
    FUZZ_CHECK(full.status == RequestStatus::kComplete ||
                   full.status == RequestStatus::kFailed,
               "anytime full run ended %s", to_string(full.status));
    FUZZ_CHECK(full.result.valid ==
                   (full.status == RequestStatus::kComplete),
               "anytime verdict %s but valid=%d", to_string(full.status),
               full.result.valid);
    if (full.result.valid && !full.result.exact) {
      FUZZ_CHECK(full.achieved_delta == approxmc_median_failure_tail(
                                            full.result.iterations_succeeded),
                 "achieved_delta %.6f inconsistent with %d estimates",
                 full.achieved_delta, full.result.iterations_succeeded);
    }

    const std::uint64_t total = full.result.bsat_calls;
    if (total > 1) {
      const std::uint64_t first = 1 + (seed % (total - 1));  // in [1, total)
      SeededRateFaults cut_faults(seed, rate);
      ApproxMcOptions cut_opts = amc;
      cut_opts.budget.fault = &cut_faults;
      cut_opts.budget.max_bsat_calls = first;
      Rng rng_cut(seed + 3);
      const ApproxMcAnytime cut = approx_count_anytime(cnf, cut_opts, rng_cut);
      FUZZ_CHECK(cut.status != RequestStatus::kComplete &&
                     cut.status != RequestStatus::kFailed,
                 "cut at %" PRIu64 "/%" PRIu64 " units still concluded (%s)",
                 first, total, to_string(cut.status));
      if (cut.status == RequestStatus::kPartial) {
        FUZZ_CHECK(cut.result.valid, "kPartial without an estimate");
        FUZZ_CHECK(cut.achieved_delta == approxmc_median_failure_tail(
                                             cut.result.iterations_succeeded),
                   "partial achieved_delta %.6f vs %d estimates",
                   cut.achieved_delta, cut.result.iterations_succeeded);
      } else {
        FUZZ_CHECK(!cut.result.valid && cut.status == RequestStatus::kTimedOut,
                   "%s but valid=%d", to_string(cut.status),
                   cut.result.valid);
      }
      // A partial estimate is built from completed iterations only: the
      // slots that carry work form a prefix, the admitted one.
      for (std::size_t i = 1; i < cut.state.outcomes.size(); ++i) {
        FUZZ_CHECK(cut.state.outcomes[i - 1].bsat_calls != 0 ||
                       cut.state.outcomes[i].bsat_calls == 0,
                   "iteration %zu carries work past the admitted prefix", i);
      }

      SeededRateFaults resume_faults(seed, rate);
      Budget more;
      more.max_bsat_calls = total - first;
      more.fault = &resume_faults;
      const ApproxMcAnytime resumed =
          approx_count_resume(cnf, cut.state, more);
      FUZZ_CHECK(resumed.status == full.status &&
                     resumed.result.valid == full.result.valid &&
                     resumed.result.exact == full.result.exact &&
                     resumed.result.cell_count == full.result.cell_count &&
                     resumed.result.hash_count == full.result.hash_count &&
                     resumed.result.bsat_calls == full.result.bsat_calls &&
                     resumed.result.iterations_succeeded ==
                         full.result.iterations_succeeded &&
                     resumed.achieved_delta == full.achieved_delta,
                 "cut@%" PRIu64 "+resume != uninterrupted: "
                 "(%s,%d,%" PRIu64 ",%u,%" PRIu64 ") vs "
                 "(%s,%d,%" PRIu64 ",%u,%" PRIu64 ")",
                 first, to_string(resumed.status), resumed.result.valid,
                 resumed.result.cell_count, resumed.result.hash_count,
                 resumed.result.bsat_calls, to_string(full.status),
                 full.result.valid, full.result.cell_count,
                 full.result.hash_count, full.result.bsat_calls);
    }
  }

  // 7. The session server replays byte-identically against fresh pools.
  {
    const test::FuzzCase fb = test::make_fuzz_case(seed ^ 0xB10B5EEDull);
    const test::FuzzCase fg = test::make_fuzz_case(seed + 17);
    const Cnf* cnfs[3] = {&cnf, &fb.cnf, &fg.cnf};

    SamplingServerOptions so;
    so.registry.pool.num_threads = 2;
    so.registry.pool.seed = seed ^ 0xF00D;
    so.registry.max_sessions = 2;  // three formulas: the cap thrashes
    SamplingServer server(so);
    SamplerPoolOptions ref_template = so.registry.pool;
    ref_template.num_threads = 1;  // cross-width identity for free
    std::map<std::string, std::unique_ptr<SamplerPool>> refs;

    // The random S is usually not an independent support, so bits outside
    // S depend on the serving engine's history: the contract is identity
    // of the S-projections (sampler_pool.hpp).
    const auto projection = [](const Cnf& formula, const Model& m) {
      std::vector<lbool> p;
      if (m.empty()) return p;
      for (const Var v : formula.sampling_set_or_all())
        p.push_back(m[static_cast<std::size_t>(v)]);
      return p;
    };
    const auto mirror_check = [&](const Cnf& formula,
                                  const ServerSampleResponse& r,
                                  std::size_t n) -> std::optional<Failure> {
      const std::string key = r.key.hex();
      if (!r.warm)  // cold start or post-eviction: the stream restarts
        refs[key] = std::make_unique<SamplerPool>(formula, ref_template);
      FUZZ_CHECK(refs.count(key) == 1,
                 "server leg: warm response for an unseen session key");
      const auto want = refs[key]->sample_many(n);
      FUZZ_CHECK(want.size() == r.samples.size(),
                 "server leg: %zu slots, reference has %zu",
                 r.samples.size(), want.size());
      for (std::size_t i = 0; i < want.size(); ++i) {
        FUZZ_CHECK(want[i].status == r.samples[i].status &&
                       projection(formula, want[i].witness) ==
                           projection(formula, r.samples[i].witness),
                   "server leg: response diverges from the fresh pool at "
                   "slot %zu",
                   i);
      }
      return std::nullopt;
    };

    Rng script(seed + 4);
    for (int op = 0; op < 8; ++op) {
      const std::size_t f = static_cast<std::size_t>(script.below(3));
      const std::size_t n = 1 + static_cast<std::size_t>(script.below(3));
      const ServerSampleResponse r = server.sample(*cnfs[f], n);
      FUZZ_CHECK(r.status == RequestStatus::kComplete,
                 "server leg: unbudgeted request ended %s",
                 to_string(r.status));
      if (auto fail = mirror_check(*cnfs[f], r, n)) return fail;
    }

    // Cancel honesty + reusability: warm a session, hit it with a tripped
    // token (streams are consumed; the reference mirrors the same call),
    // then demand the follow-up request still match byte-for-byte.
    const std::size_t f = static_cast<std::size_t>(script.below(3));
    const ServerSampleResponse warm_up = server.sample(*cnfs[f], 2);
    if (auto fail = mirror_check(*cnfs[f], warm_up, 2)) return fail;
    CancelToken token;
    token.cancel();
    Budget cancelled;
    cancelled.cancel = &token;
    const ServerSampleResponse cut = server.sample(*cnfs[f], 3, cancelled);
    FUZZ_CHECK(cut.warm && cut.status == RequestStatus::kCancelled,
               "server leg: cancelled warm request ended %s (warm=%d)",
               to_string(cut.status), cut.warm);
    for (const auto& s : cut.samples)
      FUZZ_CHECK(s.status == SampleResult::Status::kCancelled,
                 "server leg: cancelled request leaked status %d",
                 static_cast<int>(s.status));
    refs[cut.key.hex()]->sample_many_within(3, cancelled);
    const ServerSampleResponse after = server.sample(*cnfs[f], 2);
    FUZZ_CHECK(after.warm, "server leg: session lost after cancellation");
    if (auto fail = mirror_check(*cnfs[f], after, 2)) return fail;

    const SessionRegistryStats st = server.stats();
    FUZZ_CHECK(st.prepare_failures == 0,
               "server leg: %" PRIu64 " unbudgeted prepares failed",
               st.prepare_failures);
    FUZZ_CHECK(st.hits + st.misses == st.requests && st.sessions <= 2,
               "server leg: ledger broken (%" PRIu64 "+%" PRIu64
               " != %" PRIu64 ", %zu live)",
               st.hits, st.misses, st.requests, st.sessions);
  }

  // The brute-forced cells of legs 8 and 9: the distinct S-projections of
  // F's models (bit i = s[i]), and for each the number of leading rows of
  // a hash it satisfies — it lies in cell(m) iff that depth is at least m.
  std::vector<std::uint64_t> projections;
  for (const Model& m : test::brute_force_models(cnf)) {
    std::uint64_t key = 0;
    for (std::size_t i = 0; i < s.size(); ++i)
      if (m[static_cast<std::size_t>(s[i])] == lbool::True)
        key |= std::uint64_t{1} << i;
    projections.push_back(key);
  }
  std::sort(projections.begin(), projections.end());
  projections.erase(std::unique(projections.begin(), projections.end()),
                    projections.end());
  std::vector<std::size_t> position(static_cast<std::size_t>(cnf.num_vars()));
  for (std::size_t i = 0; i < s.size(); ++i)
    position[static_cast<std::size_t>(s[i])] = i;
  const auto depth = [&](std::uint64_t p, const XorHash& h) {
    std::size_t d = 0;
    for (; d < h.m(); ++d) {
      std::uint64_t mask = 0;
      for (const Var v : h.rows[d].vars)
        mask ^= std::uint64_t{1} << position[static_cast<std::size_t>(v)];
      if ((std::popcount(p & mask) & 1) != static_cast<int>(h.rows[d].rhs))
        break;
    }
    return d;
  };

  // 8. The engine's model store against the brute-forced cells.
  {
    Rng rng(seed + 5);
    IncrementalBsat engine(cnf, s);
    for (int epoch = 0; epoch < 3; ++epoch) {
      engine.begin_hash();
      const std::size_t rows = 1 + static_cast<std::size_t>(rng.below(s.size()));
      const XorHash h = draw_xor_hash(s, rows, rng);
      // Rows arrive in two pushes, as a climbing count search draws them.
      const std::size_t split = static_cast<std::size_t>(rng.below(rows + 1));
      XorHash first, second;
      first.rows.assign(h.rows.begin(),
                        h.rows.begin() + static_cast<std::ptrdiff_t>(split));
      second.rows.assign(h.rows.begin() + static_cast<std::ptrdiff_t>(split),
                         h.rows.end());
      engine.push_rows(first);
      for (int call = 0; call < 10; ++call) {
        if (call == 5) engine.push_rows(second);
        const std::size_t m =
            static_cast<std::size_t>(rng.below(engine.hash_level() + 1));
        const std::uint64_t cap = 1 + rng.below(projections.size() + 2);
        const bool witness = rng.flip(0.3);
        const EnumerateResult r =
            engine.enumerate_cell(m, cap, Deadline::never(), witness);
        std::uint64_t truth = 0;
        for (const std::uint64_t p : projections)
          truth += depth(p, h) >= m ? 1 : 0;
        FUZZ_CHECK(r.count == std::min(truth, cap) &&
                       r.exhausted == (truth < cap),
                   "model store: epoch %d call %d (m=%zu cap=%" PRIu64
                   " witness=%d) counted %" PRIu64 " exhausted=%d, "
                   "cell has %" PRIu64,
                   epoch, call, m, cap, witness, r.count, r.exhausted, truth);
      }
    }
  }

  // 9. The hash-count search against the brute-forced cells.  An iteration
  //    draws its rows in level order, |S| + 2 draws each, so all n rows
  //    drawn up front from a copy of its stream are the rows it sees,
  //    whichever levels it probes.
  {
    Rng rng(seed + 6);
    const std::uint64_t pivots[] = {1, 2, 4, 8, 52};
    const std::uint64_t pivot = pivots[rng.below(5)];
    const Rng stream = Rng(seed + 7).fork_stream(rng.below(1000));
    const auto n = static_cast<std::uint32_t>(s.size());
    Rng draw = stream;
    const XorHash h = draw_xor_hash(s, n, draw);
    std::vector<std::uint64_t> cell(n + 1, 0);  // |cell(m)|, m = 0..n
    for (const std::uint64_t p : projections)
      for (std::size_t m = 0; m <= depth(p, h); ++m) ++cell[m];
    std::uint32_t m_star = 1;
    while (m_star <= n && cell[m_star] > pivot) ++m_star;
    const bool ok = m_star <= n && cell[m_star] > 0;
    const std::uint32_t want_m = ok ? m_star : 0;
    const std::uint64_t want_count = ok ? cell[m_star] : 0;

    IncrementalBsat engine(cnf, s);
    const std::uint32_t random_start = 1 + static_cast<std::uint32_t>(
                                               rng.below(n + 1));
    for (const std::uint32_t start : {0u, random_start, n + 1}) {
      Rng r = stream;
      const ApproxMcCoreOutcome o = approxmc_core_iteration(
          engine, n, pivot, ApproxMcOptions{}, start, r);
      FUZZ_CHECK(o.ok == ok && o.hash_count == want_m &&
                     o.cell_count == want_count,
                 "hash-count search (pivot %" PRIu64 ", start %u) found "
                 "ok=%d m=%u count=%" PRIu64 ", brute force ok=%d m=%u "
                 "count=%" PRIu64,
                 pivot, start, o.ok, o.hash_count, o.cell_count, ok, want_m,
                 want_count);
    }
  }

  // 10. Prepare against brute force, the easy-case check running as task 0
  //     of the count's fan-out beside its iterations.
  {
    Rng rng(seed + 8);
    SamplerPoolOptions po;
    po.seed = seed ^ 0x9e3779b9ull;
    po.unigen.counter_epsilon = rng.flip(0.5) ? 0.3 : 0.8;
    const std::uint64_t hi = compute_kappa_pivot(po.unigen.epsilon).hi_thresh;
    const std::uint64_t pivot = approxmc_pivot(po.unigen.counter_epsilon);
    std::vector<std::vector<lbool>> truth;  // S-projections, canonical order
    for (const std::uint64_t p : projections) {
      std::vector<lbool> proj(s.size());
      for (std::size_t i = 0; i < s.size(); ++i)
        proj[i] = ((p >> i) & 1u) != 0 ? lbool::True : lbool::False;
      truth.push_back(std::move(proj));
    }
    std::sort(truth.begin(), truth.end());
    std::vector<UniGenPrepared> prepared;
    for (const std::size_t width : {1u, 4u}) {
      po.num_threads = width;
      SamplerPool pool(cnf, po);
      FUZZ_CHECK(pool.prepare(), "prepare leg: width %zu prepare failed",
                 width);
      const UniGenPrepared& prep = pool.prepared();
      using Mode = UniGenPrepared::Mode;
      const Mode want = truth_projected == 0    ? Mode::kUnsat
                        : truth_projected <= hi ? Mode::kTrivial
                                                : Mode::kHashed;
      FUZZ_CHECK(prep.mode == want,
                 "prepare leg: width %zu mode %d, |R_S|=%" PRIu64
                 " wants %d (counter eps %.1f)",
                 width, static_cast<int>(prep.mode), truth_projected,
                 static_cast<int>(want), po.unigen.counter_epsilon);
      if (want == Mode::kTrivial) {
        std::vector<std::vector<lbool>> got;
        for (const Model& m : prep.trivial_models) {
          FUZZ_CHECK(cnf.satisfied_by(m),
                     "prepare leg: width %zu easy-case witness is no model",
                     width);
          std::vector<lbool> proj;
          for (const Var v : s) proj.push_back(m[static_cast<std::size_t>(v)]);
          got.push_back(std::move(proj));
        }
        FUZZ_CHECK(got == truth,
                   "prepare leg: width %zu easy-case witnesses are not the "
                   "%" PRIu64 " S-projections in canonical order",
                   width, truth_projected);
      }
      if (want == Mode::kHashed && truth_projected <= pivot)
        FUZZ_CHECK(prep.approx_log2_count ==
                       std::log2(static_cast<double>(truth_projected)),
                   "prepare leg: width %zu estimate 2^%.4f, exact count %"
                   PRIu64 " <= pivot %" PRIu64,
                   width, prep.approx_log2_count, truth_projected, pivot);
      prepared.push_back(prep);
    }
    FUZZ_CHECK(prepared[0].trivial_models == prepared[1].trivial_models &&
                   prepared[0].q == prepared[1].q &&
                   prepared[0].approx_log2_count ==
                       prepared[1].approx_log2_count,
               "prepare leg: widths 1 and 4 disagree (q %d vs %d, 2^%.4f "
               "vs 2^%.4f, %zu vs %zu easy-case witnesses)",
               prepared[0].q, prepared[1].q, prepared[0].approx_log2_count,
               prepared[1].approx_log2_count,
               prepared[0].trivial_models.size(),
               prepared[1].trivial_models.size());
  }

  return std::nullopt;
}

void describe_case(std::uint64_t seed) {
  const test::FuzzCase fc = test::make_fuzz_case(seed);
  std::fprintf(stderr, "  case: %d vars, %zu clauses, %zu xors, |S|=%zu\n",
               fc.cnf.num_vars(), fc.cnf.num_clauses(), fc.cnf.num_xors(),
               fc.sampling_set.size());
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::uint64_t> seeds;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--range") == 0 && i + 2 < argc) {
      const std::uint64_t first = std::strtoull(argv[i + 1], nullptr, 10);
      const std::uint64_t count = std::strtoull(argv[i + 2], nullptr, 10);
      for (std::uint64_t s = first; s < first + count; ++s)
        seeds.push_back(s);
      i += 2;
    } else {
      seeds.push_back(std::strtoull(argv[i], nullptr, 10));
    }
  }
  if (seeds.empty()) {
    std::fprintf(stderr,
                 "usage: fuzz_cnf <seed> [<seed> ...] | "
                 "fuzz_cnf --range <first> <count>\n");
    return 2;
  }

  for (const std::uint64_t seed : seeds) {
    const auto failure = run_seed(seed);
    if (failure) {
      std::fprintf(stderr,
                   "FUZZ FAILURE at seed %" PRIu64 ": %s\n"
                   "  repro: fuzz_cnf %" PRIu64 "   (or: tests/fuzz_cnf.py "
                   "--repro %" PRIu64 ")\n",
                   seed, failure->what.c_str(), seed, seed);
      describe_case(seed);
      return 1;
    }
  }
  std::printf("fuzz_cnf: %zu seed(s) passed\n", seeds.size());
  return 0;
}
