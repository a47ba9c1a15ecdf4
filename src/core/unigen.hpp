#pragma once
// UniGen (paper Algorithm 1): hashing-based almost-uniform SAT witness
// generator.  For every witness y of F and tolerance ε > 1.71,
//
//      1/((1+ε)(|R_F|−1))  <=  Pr[UniGen(F,ε,S) = y]  <=  (1+ε)/(|R_F|−1),
//
// with success probability >= 0.62 (Theorem 1), provided S is an
// independent support of F.
//
// The implementation mirrors the paper's structure:
//   unigen_prepare     = lines 1–11: ComputeKappaPivot, the easy case
//                        (|R_F| <= hiThresh: exact enumeration, perfectly
//                        uniform draws), and otherwise one ApproxMC call
//                        fixing the candidate hash-count range {q−3, …, q}.
//                        Runs once per formula.
//   unigen_accept_cell = lines 12–17: iterate i over the 4 candidate values,
//                        draw h ∈ H_xor(|S|, i, 3) and α, enumerate the cell
//                        with BSAT, accept when loThresh <= |cell| <=
//                        hiThresh; ⊥ (kFail) when no i works.
//   unigen_request     = one sampling request: lines 12–22, or lines 5–7 in
//                        the easy case, on the request's own stream.
// A BSAT timeout repeats the same i with a fresh hash (paper Section 5).
//
// This split is the paper's amortization argument: unlike "leapfrogging" it
// loses no guarantee, because lines 12–22 are i.i.d. across samples.  The
// sampling service (service/sampler_pool.hpp) runs the requests on N
// workers; the UniGen class below is that service at width 1.

#include <cstdint>
#include <memory>
#include <vector>

#include "cnf/cnf.hpp"
#include "core/kappa_pivot.hpp"
#include "core/sampler.hpp"
#include "counting/approxmc.hpp"
#include "sat/incremental_bsat.hpp"
#include "service/budget.hpp"
#include "service/fleet_options.hpp"
#include "simplify/simplify.hpp"
#include "util/rng.hpp"

namespace unigen {

class SamplerPool;  // service/sampler_pool.hpp
class WorkerPool;   // service/worker_pool.hpp

struct UniGenOptions {
  /// Tolerance ε (> 1.71).  The paper's experiments use 6.
  double epsilon = 6.0;
  /// Count-safe CNF simplification, run once in prepare(); every engine
  /// (every pool worker's) then solves the shrunk formula.
  /// Witnesses are reconstructed onto the original formula, so samples are
  /// genuine models of the input (simplify/simplify.hpp).
  SimplifyOptions simplify;
  /// ApproxModelCounter tolerance/confidence (paper line 9: 0.8 and 0.8).
  double counter_epsilon = 0.8;
  double counter_confidence = 0.8;
  /// Anytime/robustness controls, scoped *per request* (one accept_cell
  /// run), except for `deadline` and `cancel` which are shared seams the
  /// embedding arms per service call:
  ///   * budget.bsat_timeout_s — wall-clock cap on each BSAT probe (paper
  ///     Section 5: 2500 s).  An accept_cell probe that hits it is retried
  ///     under a fresh hash; an iteration of prepare's nested count that
  ///     hits it stays unsettled.  Prepare's easy-case check, which is also
  ///     the nested count's unhashed probe, runs under the call's deadline
  ///     only.  The default is Budget's, none: probes are bounded only by
  ///     the request deadline.
  ///   * budget.max_bsat_calls — deterministic cap on BSAT probes within
  ///     one request; it bounds the otherwise-unbounded fresh-hash retry
  ///     loop machine-independently (expiry reports kTimedOut).
  ///   * budget.cancel — cooperative cancellation token, polled between
  ///     probes and inside the solver's periodic conflict check.
  ///   * budget.fault — deterministic fault injector; a request keyed k
  ///     reports each probe as (key = k, call = per-request ordinal), so
  ///     the schedule never shifts which probe a plan hits.
  ///   * budget.deadline — the call's wall-clock deadline, the only wall
  ///     clock besides bsat_timeout_s: prepare() runs under it, and so does
  ///     every request of a call (paper: part of the 20 h total).  A
  ///     request gets no wall cap of its own inside a multi-request call.
  /// The default (unlimited, no token, no plan) reproduces the original
  /// behavior byte-for-byte.
  Budget budget;
  /// An already-run Simplifier for exactly (cnf, this->simplify,
  /// sampling_set), adopted instead of running the pipeline again.  The
  /// session registry computes one while fingerprinting a cold request
  /// (the key hashes the simplified clauses and the reconstruction stack)
  /// and hands it through here so prepare does not pay the pipeline twice.
  /// The pipeline is deterministic, so adoption is outcome-neutral.
  /// Ignored when simplify.enabled is false.
  std::shared_ptr<const Simplifier> presimplified;
  /// Execution backend for the sampling fan-out of every pool, a UniGen
  /// (a width-1 pool) included: in-process threads, or the supervised
  /// process fleet (service/process_fleet.hpp) whose worker crashes cost
  /// one request retry instead of the service.  Sample bytes are identical
  /// on both backends (requests are pure functions of their keyed
  /// streams).  The nested one-time count always runs in-process — this
  /// switch moves only the per-sample fan-out.  Falls back to the
  /// in-process pool when no worker can be spawned.
  FleetOptions fleet;
};

struct UniGenStats {
  // prepare-time quantities
  double kappa = 0.0;
  std::uint64_t pivot = 0;
  std::uint64_t hi_thresh = 0;
  double lo_thresh = 0.0;
  double approx_log2_count = 0.0;  ///< log2 of the ApproxMC estimate C
  int q = 0;                       ///< ⌈log C + log 1.8 − log pivot⌉
  double prepare_seconds = 0.0;
  std::uint64_t prepare_bsat_calls = 0;
  bool trivial = false;  ///< easy case: |R_F| <= hiThresh

  // per-sample aggregates
  std::uint64_t samples_requested = 0;
  std::uint64_t samples_ok = 0;
  std::uint64_t samples_failed = 0;   ///< ⊥ outcomes
  std::uint64_t samples_timed_out = 0;
  std::uint64_t samples_cancelled = 0;
  std::uint64_t sample_bsat_calls = 0;
  /// Probes that reported Undef and triggered the paper's Section-5 retry
  /// (same i, fresh hash) — injected faults land here too, which is what
  /// the fault-injection tests assert on.
  std::uint64_t bsat_timeout_retries = 0;
  double sample_seconds = 0.0;
  /// Incremental-BSAT counters of worker 0's engine, the one that serves a
  /// UniGen's samples (its width-1 pool has no other).  A UniGen builds one
  /// engine in every mode, and the easy-case check runs on it first.  In
  /// hashed mode the nested count runs on it next and every accept_cell
  /// reuses it, so solver_rebuilds reads 1 and the counters include
  /// prepare's work.  Zero in trivial and UNSAT mode, where prepare
  /// releases the engine because none serves samples.
  std::uint64_t solver_rebuilds = 0;
  std::uint64_t reused_solves = 0;
  std::uint64_t retracted_blocks = 0;
  /// Total propagations (clause + XOR) on that engine.
  std::uint64_t solver_propagations = 0;
  /// Engines the nested count's fan-out ran on, the easy-case check's
  /// included (the serving pool's, so a UniGen's one engine counts here as
  /// well).  Set in every mode the check completes in: the count starts
  /// beside the check, before prepare knows the instance is easy.
  std::uint64_t counter_solver_rebuilds = 0;
  /// What the prepare-time simplification did (ran == false when off).
  SimplifyStats simplify;
  /// Average XOR-row length over all hash rows drawn (≈ |S|/2).
  double total_xor_row_length = 0.0;
  std::uint64_t total_xor_rows = 0;
  double average_xor_length() const {
    return total_xor_rows == 0 ? 0.0
                               : total_xor_row_length /
                                     static_cast<double>(total_xor_rows);
  }
  /// Fraction of requests that produced a witness.  Every terminal status
  /// counts in the denominator — ⊥, timeout and cancellation alike — so
  /// the ratio stays comparable to the paper's success probability no
  /// matter which degraded paths fired (cancelled requests are requests
  /// the caller asked for and did not get).
  double success_rate() const {
    return samples_requested == 0
               ? 0.0
               : static_cast<double>(samples_ok) /
                     static_cast<double>(samples_requested);
  }
};

/// Everything Algorithm 1's one-time phase (lines 1–11) produces: the
/// acceptance thresholds, the candidate hash-count anchor q, and — in the
/// easy case — the complete witness list.  Immutable after unigen_prepare
/// returns, which is what makes it shareable: N per-thread samplers
/// (service/sampler_pool.hpp) run lines 12–22 concurrently against one
/// UniGenPrepared, each with a private engine and RNG stream.
struct UniGenPrepared {
  enum class Mode { kTrivial, kHashed, kUnsat, kTimedOut };
  Mode mode = Mode::kTimedOut;
  KappaPivot kp;
  int q = 0;  ///< ⌈log C + log 1.8 − log pivot⌉ (hashed mode only)
  double approx_log2_count = 0.0;
  std::vector<Model> trivial_models;  ///< easy case: the full witness list
  /// The count-safe preprocessing run (null when simplification is off).
  /// Owns the simplified formula every engine references — workers resolve
  /// it through formula() — and the reconstruction that maps its models
  /// back onto the original's (finish_single_from_cell and
  /// finish_batch_from_cell apply it to the witnesses they return).  Shared
  /// because the pool's N workers and the prepare-warmed engine all outlive
  /// different scopes.
  std::shared_ptr<const Simplifier> simplifier;

  /// The formula engines should solve: the simplified one when available,
  /// otherwise the caller's original.
  const Cnf& formula(const Cnf& original) const {
    return simplifier ? simplifier->result() : original;
  }

  bool usable() const { return mode != Mode::kTimedOut; }
};

/// Lines 1–11 run once per formula: ComputeKappaPivot, the easy-case
/// enumeration, and (when the instance is hashed) one ApproxMC call fixing
/// q.  `sampling_set` must equal cnf.sampling_set_or_all() (asserted): the
/// simplifier's frozen set, the engines' projection and the nested
/// ApproxMC's projection all have to be the same set.  Fills `prep` and
/// the prepare-time fields of `stats`.
///
/// `pool` is the not yet started WorkerPool that will serve samples.
/// unigen_prepare starts it over prep.formula(cnf) and runs the nested
/// ApproxMC on it (the borrowed-pool approx_count), with the easy-case
/// check as task 0 of the count's fan-out: the check runs first on worker
/// 0's engine, on the caller's thread, while the other workers start the
/// median iterations.  The check enumerates up to hiThresh + 1 witnesses,
/// or the pivot + 1 the count asks its probe for when that is more, so its
/// count also settles the count's unhashed prologue.
/// When it settles prepare without the estimate (UNSAT, the easy case, an
/// exact count, a cut), iterations that have not started skip and running
/// ones are dropped; a width-1 pool thus does the check and then either
/// nothing or the iterations.  The one-time phase fans out across, and
/// warms, the very engines that will serve samples: at most one solver
/// build per worker across both phases.  The pool stays started in every
/// mode; SamplerPool::prepare releases it unless the instance is hashed.
/// Sample bytes on S do not depend on that history
/// (canonical cell ordering), and neither do q and trivial_models: the
/// check draws no randomness and runs first on a fresh engine.
/// prepare_bsat_calls is the count's bsat_calls: the check as 1 (0 when it
/// never started) plus the probes of the iterations the count kept, so an
/// easy-case or UNSAT prepare reports 1 at every width.
void unigen_prepare(const Cnf& cnf, const std::vector<Var>& sampling_set,
                    const UniGenOptions& options, WorkerPool& pool, Rng& rng,
                    UniGenPrepared& prep, UniGenStats& stats);

/// Outcome of one accept-cell run (Algorithm 1 lines 12–17), with every
/// degraded path kept distinct: kComplete = a cell in the acceptance
/// window, kFailed = the paper's ⊥ (all candidate i exhausted — an allowed,
/// bounded-probability outcome, *not* an error), kTimedOut = a wall or
/// deterministic-unit budget expired first, kCancelled = the caller's token
/// fired.  The ad-hoc `bool& timed_out` this replaces could not tell ⊥
/// from cancellation.
struct AcceptCellResult {
  RequestStatus status = RequestStatus::kFailed;
  /// Non-empty iff status == kComplete.  Models of the engine's formula:
  /// variables simplification eliminated are not yet reconstructed.
  std::vector<Model> cell;
  /// The session's simplifier, which maps a cell model onto a witness of
  /// the original formula (null when there is none).  The finish_* pair
  /// applies it to the witnesses it keeps only; it sets eliminated
  /// variables, never S, so the canonical order and the draw do not see it.
  const Simplifier* reconstruct = nullptr;

  bool ok() const { return status == RequestStatus::kComplete; }
};

/// Lines 12–17 against a caller-owned engine and RNG stream: draws hashes
/// until a cell lands in [loThresh, hiThresh]; returns its witnesses in
/// *canonical order*, lexicographic on their S-projections — enumeration
/// order depends on the solver's learnt-clause history, so sorting is what
/// makes the drawn S-assignment a pure function of (formula, prep, rng),
/// the determinism contract the parallel service relies on.  Bits outside
/// S are whatever the serving engine found; they are a function of the
/// S-bits only when S is an independent support.  `formula_vars` is
/// Cnf::num_vars() (models are projected back onto the formula's
/// variables).  `fault_key` identifies this request to
/// options.budget.fault (use the request's stream index so plans are
/// schedule-independent).  Thread-safe as long as engine/rng/stats are
/// private to the calling thread; the budget's token/plan may be shared.
AcceptCellResult unigen_accept_cell(IncrementalBsat& engine,
                                    const std::vector<Var>& sampling_set,
                                    const UniGenPrepared& prep,
                                    const UniGenOptions& options,
                                    Var formula_vars, Rng& rng,
                                    UniGenStats& stats,
                                    std::uint64_t fault_key = 0);

/// Canonical projection of a request's terminal status onto the sampler's
/// result status: kComplete → kOk, kTimedOut → kTimeout, kCancelled →
/// kCancelled, everything else ⊥ (kFail).  Shared by every embedding —
/// pool worker and fleet worker — so the mapping cannot drift.
SampleResult::Status sample_status_from_request(RequestStatus status);

/// The post-accept_cell tail of one sampling request: the request's rng
/// continues from wherever accept_cell left it — single pick via one
/// rng.below, batch via rng.shuffle + truncate — which is part of the
/// request's keyed-stream purity.  The witnesses returned are then
/// reconstructed onto the original formula (r.reconstruct).
SampleResult finish_single_from_cell(AcceptCellResult r, Rng& rng);
BatchResult finish_batch_from_cell(AcceptCellResult r, std::size_t max_batch,
                                   Rng& rng);

/// The sample task function: one request (lines 12–22, or lines 5–7 in the
/// easy case) on its own stream.  `max_batch` == 0 asks for a single
/// witness, else for up to max_batch distinct witnesses of one cell.
/// `engine` may be null unless prep.mode is kHashed.  Called as is by
/// SamplerPool's workers (a UniGen's included) and by unigen_workerd, so a
/// request's bytes cannot depend on which of them served it.
BatchResult unigen_request(IncrementalBsat* engine,
                           const std::vector<Var>& sampling_set,
                           const UniGenPrepared& prep,
                           const UniGenOptions& options, Var formula_vars,
                           std::size_t max_batch, Rng& rng,
                           UniGenStats& stats, std::uint64_t fault_key);

/// One UniGen instance: the sampling service (service/sampler_pool.hpp) at
/// width 1, so a UniGen and a pool run the same task on the same stream
/// contract.  Construction takes one draw s of the caller's rng; prepare
/// then draws Rng(s).fork_stream(0) and request k (counting from 1 across
/// sample() and sample_batch() calls) Rng(s).fork_stream(k), exactly as a
/// SamplerPool with num_threads = 1 and seed = s does — the two return the
/// same bytes, and request k reports to a fault plan as key k.
class UniGen final {
 public:
  /// `cnf` is copied.  The sampling set S is taken from the formula
  /// (Cnf::sampling_set()); when absent the full support is used — legal,
  /// but without the paper's scalability benefit.
  UniGen(Cnf cnf, UniGenOptions options, Rng& rng);
  ~UniGen();

  /// Lines 1–11, once.  Returns false when the one-time phase exceeded its
  /// budget; requests then report kTimeout.  Idempotent; sample() and
  /// sample_batch() call it on first use.
  bool prepare();
  /// One witness (lines 12–22).
  SampleResult sample();

  /// UniGen2-style batched sampling (the successor paper's key
  /// optimization, implemented here as an extension; see DESIGN.md):
  /// draws up to `max_batch` *distinct* witnesses from a single accepted
  /// hash cell, amortizing one hashed BSAT query over many witnesses.
  /// Within a batch, witnesses are exchangeable (a uniform subset of the
  /// cell) but not independent across the batch; callers wanting i.i.d.
  /// draws should use sample().  Returns an empty vector on ⊥/timeout; the
  /// outcome is accounted in stats() exactly like sample() (one request,
  /// with ⊥ and timeout kept distinct), so success_rate() is comparable
  /// across both entry points.  max_batch == 0 is a no-op, not a request.
  std::vector<Model> sample_batch(std::size_t max_batch);

  /// The pool's stats() in one UniGenStats: its prepare block, its
  /// outcome totals, and worker 0's accept-cell and engine counters.
  UniGenStats stats() const;

 private:
  std::unique_ptr<SamplerPool> pool_;
};

}  // namespace unigen
