#pragma once
// ApproxMC — hashing-based (ε, δ) approximate model counter
// (Chakraborty, Meel, Vardi, CP 2013), the subroutine UniGen invokes as
// ApproxModelCounter(F, 0.8, 0.8) in line 9 of Algorithm 1.
//
// Guarantee:  Pr[ |R_F|/(1+ε) <= estimate <= (1+ε)·|R_F| ] >= 1 − δ.
//
// Counting is projected onto the formula's sampling set S; when S is an
// independent support this equals |R_F|, which is how UniGen uses it.
//
// Three engineering deviations from the CP 2013 pseudocode (see
// DESIGN.md §4), the first two preserving the guarantee outright:
//   * the number of median iterations is the smallest odd t whose binomial
//     failure tail is below δ (with per-iteration success probability
//     1 − e^{−3/2}), instead of the loose ⌈35·log2(3/δ)⌉;
//   * the search for the hash count m starts from the previous iteration's
//     m (ApproxMC2-style), or without one from the shallowest empty level,
//     found with one-model probes, and places each probe below a small
//     cell by that cell's size (approxmc_core.hpp) instead of scanning
//     from 0;
//   * within one iteration all probed hash counts m use nested prefixes of
//     a single lazily drawn hash (rows 1..m of one h), not an independent
//     (h, α) per probe.  This is ApproxMC2's scheme — its analysis proves
//     the same (ε, δ) guarantee for exactly this prefix-slicing structure —
//     and is what lets the incremental BSAT engine activate levels by
//     assumption instead of rebuilding a solver per probe.
//
// Anytime contract (approx_count_anytime / approx_count_resume): the t
// median iterations are independent, so a run cut short by its Budget
// still owns every iteration it completed.  A cut run reports
// RequestStatus::kPartial with the median over the completed iterations
// and the δ those iterations actually achieve (fewer iterations ⇒ a fatter
// binomial median tail ⇒ weaker confidence — approxmc_median_failure_tail),
// plus a resume state.  Under a *deterministic* budget (Budget::max_bsat_calls
// and/or a fault plan; no wall clocks) the contract sharpens to byte
// identity: cut + resume(remaining units) ≡ the uninterrupted run with the
// total grant, at every thread count.  The three mechanisms behind that:
//   * cold starts — deterministic-budget runs ignore the leapfrog hint, so
//     each iteration's probe count (its unit cost) is a pure function of
//     its RNG stream (approxmc_core.hpp);
//   * grant accounting — the state records units *granted*, not spent, so
//     resume(B₂) after a cut at B₁ reproduces the single-grant run B₁+B₂;
//   * canonical admission — both backends ask one rule (UnitGrant,
//     service/budget.hpp) before an iteration starts, a fleet retry
//     included: it is refused only once the iterations before it have
//     spent the grant, so no schedule, crash or hang refuses one the grant
//     covers; what the result *admits* is decided at fold time: the
//     longest prefix of iterations that ran to their deterministic end
//     within the grant.  Anything a schedule ran beyond that prefix is
//     discarded from result and state, and resume re-runs it — stream
//     purity makes the re-run byte-identical.

#include <cmath>
#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "cnf/cnf.hpp"
#include "counting/approxmc_core.hpp"
#include "sat/solver.hpp"
#include "service/budget.hpp"
#include "service/fleet_options.hpp"
#include "simplify/simplify.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace unigen {

class WorkerPool;  // service/worker_pool.hpp

struct ApproxMcOptions {
  double epsilon = 0.8;  ///< tolerance (ε > 0)
  double delta = 0.2;    ///< 1 − confidence
  /// Resource envelope of the whole count: wall-clock deadline and
  /// per-BSAT-call timeout (the paper's 2500 s budget), deterministic unit
  /// budgets, cancellation, fault plan.  See service/budget.hpp.
  Budget budget;
  /// Worker threads the count fans out across, at most one per task (the
  /// unhashed probe and the t median iterations): 1 = a width-1 pool that
  /// runs them on the calling thread, 0 = hardware_concurrency, n = n.
  /// Iterations are independent (that is the median argument),
  /// each draws from its own keyed RNG stream, and results fold in
  /// canonical iteration order — so the reported count is byte-identical
  /// across all values of this switch for a fixed seed (asserted by
  /// tests/test_parallel_approxmc.cpp); only wall-clock changes.  Caveat
  /// (as for the sampling service): the contract assumes no *wall-clock*
  /// budget fires — whether a solve beats budget.bsat_timeout_s / the
  /// deadline is machine- and schedule-dependent, and an iteration cut
  /// short in one schedule but not another shifts the median.  Keep wall
  /// budgets comfortably above per-probe solve times when replicas must
  /// agree — or use the deterministic units (budget.max_bsat_calls), whose
  /// cuts are part of the byte-identity contract rather than a breach of
  /// it.
  std::size_t num_threads = 1;
  /// Count-safe CNF simplification in front of the run (on by default;
  /// projected counts over S are invariant, see simplify/simplify.hpp).
  /// Callers that already simplified the formula turn it off.
  SimplifyOptions simplify;
  /// Execution backend for the median-iteration fan-out: the default
  /// in-process pool, or the supervised process fleet (crash isolation; a
  /// worker SIGKILL costs one task retry, not the count).  The count's
  /// bytes are identical on both backends — iterations are pure functions
  /// of their keyed streams, shipped to workers as raw RNG state.  Falls
  /// back in-process when no worker can be spawned.  Ignored by the
  /// borrowed-pool approx_count (the warm handoff is inherently
  /// in-process).
  FleetOptions fleet;
};

struct ApproxMcResult {
  bool valid = false;  ///< an estimate was produced
  /// The estimate is cell_count · 2^hash_count.
  std::uint64_t cell_count = 0;
  std::uint32_t hash_count = 0;
  /// True when the formula had few enough models to count exactly
  /// (hash_count == 0, cell_count == |R_F| projected on S).
  bool exact = false;

  double value() const {
    return static_cast<double>(cell_count) *
           std::pow(2.0, static_cast<double>(hash_count));
  }
  double log2_value() const {
    return std::log2(static_cast<double>(cell_count)) +
           static_cast<double>(hash_count);
  }

  // diagnostics
  std::uint64_t pivot = 0;
  int iterations_requested = 0;
  int iterations_succeeded = 0;
  /// The unhashed probe as 1 (0 when it never started), plus the
  /// iterations' probes (wall-cut attempts included) — never those of
  /// iterations the probe dropped.
  std::uint64_t bsat_calls = 0;
  // Incremental-BSAT engine counters for the run: all bsat_calls above are
  // served by persistent solvers (one per pool worker), so solver_rebuilds
  // stays at the number of engines built unless the inert-row cap forces a
  // rebuild.  These flat fields are the SolverStats::merge fold across
  // workers; the per-worker breakdown is in `workers`.  When a fleet
  // cannot start, the fold also holds the probe's engine, which is not in
  // `workers`.
  std::uint64_t solver_rebuilds = 0;
  std::uint64_t reused_solves = 0;
  std::uint64_t retracted_blocks = 0;
  /// Total propagations (clause + XOR) of the run's engine(s) — the work
  /// metric the simplification bench compares on.
  std::uint64_t solver_propagations = 0;
  /// Leapfrog accounting: iterations whose hash-count search started from
  /// a previously completed iteration's m versus cold, from the
  /// empty-level ladder.
  /// warm + cold == iterations actually started (budget skips excluded).
  std::uint64_t leapfrog_warm_starts = 0;
  std::uint64_t leapfrog_cold_starts = 0;
  /// Width of the pool the run fanned out across: the unhashed probe and
  /// the iterations, exact runs included (1 on the process fleet, where
  /// the pool serves the probe alone).
  std::size_t threads_used = 1;
  /// Per-worker engine counters of that pool, indexed by worker (empty on
  /// the fleet).  Worker 0's engine served the unhashed probe, unless a
  /// fleet that could not start left the iterations to a pool built after
  /// the probe.
  std::vector<SolverStats> workers;
  /// What the preprocessing pipeline did (ran == false when disabled).
  SimplifyStats simplify;
};

/// pivot(ε) = 2·⌈3·e^{1/2}·(1 + 1/ε)²⌉  (CP 2013).
std::uint64_t approxmc_pivot(double epsilon);

/// P[the median of t core iterations is bad], assuming each iteration is
/// independently good with p = 1 − e^{−3/2} (the CP 2013 analysis): the
/// binomial tail P[#bad >= ⌊t/2⌋+1].  Defined for every t >= 1 (a cut run
/// may be left with an even or single iteration count); t <= 0 → 1.0.
/// It is also the δ a count from t completed iterations actually achieves:
/// the honesty label on a Partial result, whose (ε, δ') guarantee holds
/// with δ' = approxmc_median_failure_tail(t), weaker than the requested δ
/// when the budget cut iterations away.
double approxmc_median_failure_tail(int t);

/// Smallest odd iteration count t with approxmc_median_failure_tail(t) <= δ.
int approxmc_iteration_count(double delta);

ApproxMcResult approx_count(const Cnf& cnf, const ApproxMcOptions& options,
                            Rng& rng);

/// What an unhashed probe — ApproxMC's opening BSAT(F, pivot + 1) —
/// reports to the count that runs it.
struct UnhashedProbe {
  /// |cell(0)| projected on S, enumerated with a cap of at least the
  /// `min_models` the probe was given.
  std::uint64_t count = 0;
  /// The caller still needs the count.  False — the probe was cut, or its
  /// answer settled the caller's question — ends the run without one.
  bool count_needed = false;
};
/// An unhashed probe: enumerates cell(0) on the given engine with a cap of at
/// least `min_models` (pivot + 1), so that a count below the cap is the exact
/// one.  Every count runs one as task 0 of its fan-out, on worker 0's engine
/// (the caller's thread), while the other workers start the median iterations
/// (on the process fleet it runs alone first, and the fleet starts only if it
/// asks for them).  At most pivot models is the exact count; more, and the
/// result is the iterations' median.  Once the probe settles the run,
/// iterations that have not started skip and running ones are dropped, so a
/// width-1 pool does the probe and then either nothing or every iteration.  A
/// probe that produced no count (cut, or never started because the budget ran
/// out first) ends the run kCancelled when the token fired, else kTimedOut, and
/// a resume probes again.  A standalone count's probe only counts;
/// unigen_prepare's is its easy-case check.
using UnhashedProbeFn =
    std::function<UnhashedProbe(IncrementalBsat&, std::uint64_t min_models)>;

/// approx_count on a borrowed, already-started WorkerPool over `cnf`
/// itself (so set options.simplify.enabled = false and pass the pool's own
/// formula), whose workers serve the fan-out instead of a pool built and
/// discarded inside the call.  This is the counter→sampler warm handoff
/// unigen_prepare runs on every serving pool, a UniGen's width-1 pool
/// included: every engine warmed by the count keeps serving whatever the
/// pool does next, and one-time solver builds drop from 2N to N per
/// (pool, formula).
///
/// `probe` is the caller's unhashed probe, run as UnhashedProbeFn says; a
/// probe whose caller needs no count also ends the run without an
/// estimate.  The count's bytes are unchanged (engines' learnt history
/// never reaches reported values).  options.num_threads and options.fleet
/// are ignored: the pool's width rules.
ApproxMcResult approx_count(const Cnf& cnf, const ApproxMcOptions& options,
                            WorkerPool& pool, Rng& rng,
                            const UnhashedProbeFn& probe);

// --- anytime API ------------------------------------------------------

/// Everything a cut ApproxMC run needs to continue: what the unhashed
/// probe settled (so resume never re-probes it), the pivot and iteration
/// RNG base (stream i of which fully determines iteration i), the
/// per-iteration outcomes settled so far, and the cumulative unit grant.
/// |S| comes from the formula a resume is given, t from outcomes.size().
/// Plain value type — copyable, serializable field-by-field; no live
/// pointers.
struct ApproxMcAnytimeState {
  /// The options of the original call (budget pointers scrubbed; each
  /// resume supplies a fresh Budget).  Resume must run against the same
  /// formula and the same options, or the streams mean nothing.
  ApproxMcOptions options;
  /// The unhashed probe (1 unit) counted more than pivot models and the
  /// run is in the iteration phase — or it resolved the run exactly
  /// (`exact`).  False after a probe that produced no count, so a resume
  /// probes again.
  bool prologue_done = false;
  /// The exact projected count, when the unhashed probe found at most
  /// pivot models: the run needs no iterations, and a resume is a no-op
  /// that reconstructs the result.
  std::optional<std::uint64_t> exact;
  /// pivot(ε), fixed on entry to the first slice, which validates ε before
  /// it forks the caller's rng.
  std::uint64_t pivot = 0;
  /// Base of the per-iteration keyed streams (iteration i uses
  /// fork_stream(i)): the one fork the first slice takes from the caller's
  /// rng on entry, whatever the run then does.
  Rng iter_base{0};
  /// Cumulative deterministic units granted across the original call and
  /// every resume (0 = unlimited).  The admission fold charges against
  /// this total, which is what makes cut-then-resume reproduce the
  /// single-grant run instead of re-billing the spent prefix.
  std::uint64_t units_granted = 0;
  /// Slot i = iteration i, t slots.  A slot is settled — final, never
  /// re-run — exactly when its outcome spent BSAT calls: the fold resets
  /// every other slot, and resume re-executes those from their streams.
  /// Deterministic mode settles the canonically admitted prefix; wall-clock
  /// mode every iteration that ran to a deterministic end (an estimate, or
  /// a no-estimate completion), leaving wall-timed-out ones to a resume.
  std::vector<ApproxMcCoreOutcome> outcomes;
};

/// Anytime result: the classic ApproxMcResult (its estimate drawn from the
/// settled iterations only), plus the honesty labels and the resume handle.
struct ApproxMcAnytime {
  RequestStatus status = RequestStatus::kTimedOut;
  ApproxMcResult result;
  /// approxmc_median_failure_tail(#estimates the median was taken over); 1.0
  /// when there is no estimate.  kComplete runs can sit slightly above the
  /// requested δ too when some iterations failed algorithmically.
  double achieved_delta = 1.0;
  /// Settled iterations (== iterations_requested on kComplete/kFailed).
  int iterations_completed = 0;
  ApproxMcAnytimeState state;
};

/// approx_count with the anytime contract: never returns less than what the
/// budget paid for.  options.budget is the first grant.
ApproxMcAnytime approx_count_anytime(const Cnf& cnf,
                                     const ApproxMcOptions& options, Rng& rng);

/// Continues a cut run with `more_budget` (whose max_bsat_calls are *added*
/// to the state's cumulative grant).  `cnf` must be the formula of the
/// original call.  In deterministic-budget mode the final result is
/// byte-identical to the uninterrupted run with the combined grant; resume
/// of a kComplete/kFailed state returns it unchanged.
ApproxMcAnytime approx_count_resume(const Cnf& cnf, ApproxMcAnytimeState state,
                                    const Budget& more_budget);

}  // namespace unigen
