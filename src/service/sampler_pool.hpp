#pragma once
// SamplerPool — parallel witness-generation service.
//
// The paper's headline scalability argument: once lines 1–11 of Algorithm 1
// have run (thresholds, the easy-case check, one ApproxMC call fixing q),
// every sample is an i.i.d. run of lines 12–22 — sampling is embarrassingly
// parallel.  This service exploits exactly that split:
//
//   * prepare() runs once, on the caller's thread, producing an immutable
//     UniGenPrepared that every worker shares by const reference, and
//     running the count-safe simplification pipeline whose shrunk formula
//     (owned by UniGenPrepared::simplifier) is what all engines load;
//     witnesses are reconstructed onto the original formula inside
//     unigen_accept_cell.  The ApproxMC call inside prepare() fans its
//     median iterations across this pool's own workers, with the
//     easy-case check beside them as task 0 on worker 0 (the caller's
//     thread), so the one-time phase is no longer the serial latency floor
//     of a deployment.
//   * Every request is one call of the sample task function
//     (unigen_request), fanned out by run_tasks (dispatch.hpp) on the
//     WorkerPool — N workers, each with a private IncrementalBsat over the
//     one shared (simplified) Cnf, one solver build per worker for the
//     whole pool lifetime (SamplerPoolStats::workers[i].solver_rebuilds
//     == 1) — or on the process fleet.  Results land in a preallocated
//     slot per request — no result-order nondeterminism.
//
// Determinism contract: request k draws all of its randomness from
// Rng(seed).fork_stream(k) — a keyed fork that does not depend on which
// worker serves the request or how many threads exist — and accepted cells
// are handed back sorted by their S-projections by unigen_accept_cell, so
// the S-assignment picked out of a cell cannot depend on the serving
// engine's learnt-clause history.  Hence for a fixed seed and request
// sequence the returned samples are byte-identical on S across thread
// counts, warm and cold sessions, and backends — and byte-identical on the
// whole witness when S is an independent support, the paper's setting
// (asserted by tests/test_sampler_pool.cpp and bench_parallel_scaling).
// Outside S a witness carries whatever completion its serving engine
// found, which may differ between engines with different histories.
// Stream indices keep advancing across calls, so consecutive calls
// continue one global deterministic sequence.  A UniGen (core/unigen.hpp)
// is this service at width 1, seeded by one draw of its caller's rng.  One
// caveat: the contract assumes no per-BSAT timeout fires — a timeout retry
// (paper Section 5) draws a fresh hash from the request's stream, and
// whether a solve beats its wall-clock budget is machine- and
// contention-dependent.  Leave budget.bsat_timeout_s unset (the default),
// or comfortably above the workload's per-cell solve time (orders of
// magnitude), when byte-identical replicas matter.  The same caveat covers
// the parallel count inside prepare(): a count iteration the per-call
// timeout cuts stays unsettled, which is schedule-dependent and can shift
// q (see ApproxMcOptions::num_threads); with budgets that never bind, q is
// thread-count-independent.
//
// Threading contract: one dispatcher thread drives the pool (prepare /
// sample_many / sample_batches / stats are not reentrant); the fan-out
// inside each call is the pool's own, with the dispatcher thread as its
// worker 0 (service/worker_pool.hpp).  Calls are synchronous — when they
// return, every worker has quiesced, which is also what makes stats()
// race-free.

#include <cstdint>
#include <memory>
#include <vector>

#include "cnf/cnf.hpp"
#include "core/sampler.hpp"
#include "core/unigen.hpp"
#include "service/budget.hpp"
#include "service/worker_pool.hpp"
#include "util/rng.hpp"

namespace unigen {

class ProcessFleet;

struct SamplerPoolOptions {
  /// Worker threads; 0 = std::thread::hardware_concurrency() (min 1).
  std::size_t num_threads = 0;
  /// Master seed: the whole service output is a deterministic function of
  /// (formula, options, seed, request sequence) — thread count excluded.
  std::uint64_t seed = 0xDAC14;
  /// ε and the default Budget, shared by prepare and every worker.  The
  /// Budget is the only wall clock: prepare(budget) and the *_within
  /// calls replace it for one call.
  UniGenOptions unigen;
};

/// One anytime service call: per-request outcomes plus the call-level
/// verdict.  `status` summarizes honestly what happened to the batch as a
/// whole:
///   kComplete  — every request ran to its own conclusion (individual
///                requests may still be kFail/⊥ or kTimeout on their own
///                per-request budgets; that is the algorithm's contract,
///                not a service failure);
///   kPartial   — the call-level wall deadline cut the fan-out: some
///                requests were served, the rest report kTimeout untouched;
///   kTimedOut  — the deadline cut before any request was served;
///   kCancelled — the cancellation token fired; unserved requests report
///                kCancelled.
/// Slots are always `count`-sized and in request order — unserved slots
/// hold an honest terminal status, never a default-constructed lie.
struct SampleManyResult {
  RequestStatus status = RequestStatus::kComplete;
  std::vector<SampleResult> samples;
};

struct SampleBatchesResult {
  RequestStatus status = RequestStatus::kComplete;
  std::vector<BatchResult> batches;
};

struct SamplerPoolWorkerStats {
  /// Sampling requests this worker served (the easy-case check and the
  /// counting tasks the warm handoff also ran on these workers are
  /// excluded — prepare's share is snapshotted and subtracted).
  std::uint64_t requests_served = 0;
  /// Solver constructions on this worker's engine: stays at 1 for the pool
  /// lifetime (0 for a worker that never received a task — engines are
  /// built on first use — and for every worker of a session the pool does
  /// not serve, not hashed or on the fleet, whose engines prepare
  /// released: all of this struct's engine counters then read 0).
  std::uint64_t solver_rebuilds = 0;
  std::uint64_t reused_solves = 0;
  std::uint64_t retracted_blocks = 0;
  /// Total propagations (clause + XOR) on this worker's engine, prepare's
  /// share included.
  std::uint64_t solver_propagations = 0;
  std::uint64_t sample_bsat_calls = 0;
  std::uint64_t bsat_timeout_retries = 0;
  std::uint64_t total_xor_rows = 0;
  double total_xor_row_length = 0.0;
};

struct SamplerPoolStats {
  /// The one-time phase: kappa/pivot/thresholds/q, prepare_seconds,
  /// prepare_bsat_calls, counter_solver_rebuilds, trivial.
  UniGenStats prepare;
  // Outcome totals across all service calls.
  std::uint64_t requests = 0;
  std::uint64_t samples_ok = 0;
  std::uint64_t samples_failed = 0;
  std::uint64_t samples_timed_out = 0;
  std::uint64_t samples_cancelled = 0;
  /// Wall-clock spent inside sample_many/sample_batches (dispatcher view).
  double service_seconds = 0.0;
  std::vector<SamplerPoolWorkerStats> workers;

  double success_rate() const {
    return requests == 0 ? 0.0
                         : static_cast<double>(samples_ok) /
                               static_cast<double>(requests);
  }
};

class SamplerPool {
 public:
  /// `cnf` is copied once into the pool and never mutated afterwards; all
  /// worker engines reference this single copy.
  explicit SamplerPool(Cnf cnf, SamplerPoolOptions options = {});
  ~SamplerPool();
  SamplerPool(const SamplerPool&) = delete;
  SamplerPool& operator=(const SamplerPool&) = delete;

  /// Runs Algorithm 1 lines 1–11 once, starting the N − 1 worker threads
  /// in every mode (the easy-case check and the count's iterations run as
  /// one fan-out).  Unless the pool will serve the requests — the instance
  /// turns out hashed and no process fleet came up — it is released again
  /// before prepare returns: such a session keeps no thread and no engine.
  /// Idempotent.  Returns false when the one-time phase exceeded its
  /// budget; requests then report kTimeout.
  ///
  /// Engine ownership: prepare hands this pool's own WorkerPool to
  /// unigen_prepare, so the easy-case check and the one-time ApproxMC call
  /// fan out across — and warm — the same N engines that will serve
  /// samples: at most one solver build per worker across both phases
  /// (asserted via IncrementalBsat::total_constructions in
  /// tests/test_session_registry.cpp and, at width 1,
  /// tests/test_unigen_batch.cpp).
  bool prepare();

  /// prepare() under a caller-supplied budget (deadline / cancellation /
  /// unit caps reach the easy-case check and the nested count) — the
  /// session registry's per-session Budget threading.  Only the *first*
  /// call's budget matters; prepare latches either way.
  bool prepare(const Budget& budget);

  /// Draws `count` independent witnesses — request k is one full run of
  /// lines 12–22 on stream k.  Trivial/UNSAT instances are served on the
  /// dispatcher thread (an array lookup needs no fan-out, and prepare
  /// released the pool); hashed instances fan out across the workers.
  /// Runs under options.unigen.budget.
  std::vector<SampleResult> sample_many(std::size_t count);

  /// UniGen2-style batches: each request accepts one hash cell and returns
  /// up to `max_batch` distinct witnesses from it.
  std::vector<BatchResult> sample_batches(std::size_t requests,
                                          std::size_t max_batch);

  /// Anytime variants: `budget` replaces options.unigen.budget for this
  /// one call.  Its deadline and cancellation token are call-level (a cut
  /// stops starting new requests and interrupts in-flight solves; served
  /// and unserved slots are reported per the SampleManyResult contract);
  /// max_bsat_calls and fault apply *per request*, so each served
  /// request's outcome stays a pure function of its stream — byte-identical
  /// across thread counts.  After a cancelled call the pool
  /// is immediately reusable: streams keep advancing by `count` whatever
  /// happened, so a follow-up call sees exactly the streams it would have
  /// on a pool whose earlier calls all completed.
  SampleManyResult sample_many_within(std::size_t count, const Budget& budget);
  SampleBatchesResult sample_batches_within(std::size_t requests,
                                            std::size_t max_batch,
                                            const Budget& budget);

  std::size_t num_threads() const { return pool_.num_threads(); }
  /// Valid after prepare().
  const UniGenPrepared& prepared() const { return prep_; }
  /// Non-null iff prepare() brought up the process-fleet backend
  /// (options.unigen.fleet) — the test seam for crash injection against a
  /// live service.  Requests then fan out across worker processes instead
  /// of pool_'s threads; byte-identical either way.
  ProcessFleet* fleet() const { return fleet_.get(); }
  /// Snapshot; call between service calls (see the threading contract).
  SamplerPoolStats stats() const;

 private:
  /// The one body of both anytime calls: `count` requests on the next
  /// streams, single witnesses when max_batch == 0 (as on the wire).
  SampleBatchesResult serve(std::size_t count, std::size_t max_batch,
                            const Budget& budget);
  void account(SampleResult::Status status);

  Cnf cnf_;
  std::vector<Var> sampling_set_;
  SamplerPoolOptions options_;
  UniGenPrepared prep_;
  UniGenStats prepare_stats_;
  bool prepared_ = false;
  /// Keyed streams: stream 0 = prepare, streams 1.. = requests in
  /// submission order.  Only fork_stream (const) is ever used.
  Rng streams_;
  std::uint64_t next_stream_ = 1;

  // Outcome totals (dispatcher thread only).
  std::uint64_t requests_ = 0;
  std::uint64_t ok_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t timed_out_ = 0;
  std::uint64_t cancelled_ = 0;
  double service_seconds_ = 0.0;

  /// Threads and engines; started by prepare() in every mode, and
  /// released by it again unless they serve the requests (hashed, no
  /// fleet).
  WorkerPool pool_;
  /// tasks_served snapshot taken when prepare() returns: the easy-case
  /// check and the counting iterations the warm handoff ran on these
  /// workers, subtracted so stats().workers[w].requests_served counts
  /// sampling requests only.
  std::vector<std::uint64_t> prepare_tasks_;
  /// Accept-cell aggregates, one slot per worker, each touched only by its
  /// worker thread during a run (read between runs by stats()).
  std::vector<UniGenStats> worker_ugstats_;
  /// The process-fleet backend when options_.unigen.fleet selects it and
  /// start succeeded; null means requests run on pool_ (the default, and
  /// the graceful degradation when no worker could be spawned).
  std::unique_ptr<ProcessFleet> fleet_;
};

}  // namespace unigen
