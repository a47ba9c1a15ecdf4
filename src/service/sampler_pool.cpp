#include "service/sampler_pool.hpp"

#include "obs/trace.hpp"
#include "service/dispatch.hpp"
#include "util/timer.hpp"

namespace unigen {

SamplerPool::SamplerPool(Cnf cnf, SamplerPoolOptions options)
    : cnf_(std::move(cnf)),
      sampling_set_(cnf_.sampling_set_or_all()),
      options_(options),
      streams_(options.seed),
      pool_(options.num_threads) {
  worker_ugstats_.resize(pool_.num_threads());
}

SamplerPool::~SamplerPool() = default;

bool SamplerPool::prepare() { return prepare(options_.unigen.budget); }

bool SamplerPool::prepare(const Budget& budget) {
  if (prepared_) return prep_.usable();
  // Observability only: the one-time phase (simplify + easy-case check +
  // nested count) as one span; the count.request span nests under it.
  obs::Span prepare_span("pool.prepare",
                         obs::trace_id_for_request(options_.seed, 0));
  Rng prepare_rng = streams_.fork_stream(0);
  // The warm handoff: unigen_prepare starts pool_ itself and runs the
  // easy-case check and the one-time ApproxMC call as one fan-out across
  // this pool's *own* workers — the check as task 0 on worker 0, this
  // thread — warming the very engines that will serve samples: at most one
  // solver build per worker over the pool lifetime.  The count is
  // byte-identical across widths, so q — and every sample downstream — is
  // too.
  UniGenOptions unigen_options = options_.unigen;
  unigen_options.budget = budget;
  unigen_prepare(cnf_, sampling_set_, unigen_options, pool_, prepare_rng,
                 prep_, prepare_stats_);
  prepared_ = true;
  const bool hashed = prep_.mode == UniGenPrepared::Mode::kHashed;
  if (hashed && options_.unigen.fleet.backend == ExecBackend::kProcessFleet) {
    // Crash-isolated backend: bring up the worker processes now, shipping
    // the ORIGINAL formula plus the simplify options — each worker re-runs
    // the deterministic pipeline, reproducing the shrunk formula and the
    // reconstruction stack prepare() computed here.  The nested count
    // above always ran in-process (the warm handoff); only the per-sample
    // fan-out moves out of process.  Start failure (no unigen_workerd
    // binary, fork failure) leaves fleet_ null: requests silently serve
    // from pool_ — graceful degradation, not an error.
    auto fleet = std::make_unique<ProcessFleet>(options_.unigen.fleet);
    if (fleet->start(ProcessFleet::make_sample_setup(cnf_, sampling_set_,
                                                     prep_, options_.unigen),
                     pool_.num_threads()))
      fleet_ = std::move(fleet);
  }
  // The pool serves only a hashed session without a fleet.  Every other
  // session serves its requests on this thread without an engine, or on
  // the fleet, so it keeps none of the threads and engines the one-time
  // fan-out started.
  if (!hashed || fleet_) pool_.release();
  prepare_tasks_.resize(pool_.num_threads(), 0);
  for (std::size_t w = 0; w < pool_.num_threads(); ++w)
    prepare_tasks_[w] = pool_.tasks_served(w);
  return prep_.usable();
}

void SamplerPool::account(SampleResult::Status status) {
  ++requests_;
  switch (status) {
    case SampleResult::Status::kOk:
      ++ok_;
      break;
    case SampleResult::Status::kFail:
      ++failed_;
      break;
    case SampleResult::Status::kTimeout:
      ++timed_out_;
      break;
    case SampleResult::Status::kCancelled:
      ++cancelled_;
      break;
    case SampleResult::Status::kUnsat:
      break;
  }
}

SampleBatchesResult SamplerPool::serve(std::size_t count,
                                       std::size_t max_batch,
                                       const Budget& budget) {
  SampleBatchesResult out;
  if (count == 0) return out;
  out.batches.resize(count);
  // Streams are consumed whatever the outcome: the stream ledger advances
  // per request, so later requests are unaffected by this call's fate.
  const std::uint64_t first_stream = next_stream_;
  next_stream_ += count;
  std::vector<std::optional<BatchResult>> served(count);
  // Degenerate budget: stamp every slot honestly before prepare() or any
  // BSAT call.
  out.status = budget.admission_status();
  if (out.status == RequestStatus::kComplete) {
    // Observability only: one span (and one trace id, keyed by the call's
    // first request stream) per service call.  Cold calls nest prepare
    // under it; every request span of this call becomes its child.
    obs::Span call_span("pool.request",
                        obs::trace_id_for_request(options_.seed, first_stream));
    call_span.set_value(count);
    prepare();
    const Stopwatch watch;
    UniGenOptions opts = options_.unigen;
    opts.budget = budget;
    // Request k of this call is task (first_stream + k): the id is the
    // request's stream and its fault-plan key on every backend.
    std::vector<std::uint64_t> ids(count);
    for (std::size_t k = 0; k < count; ++k) ids[k] = first_stream + k;
    if (prep_.mode == UniGenPrepared::Mode::kHashed) {
      served = run_tasks<BatchResult>(
          pool_, fleet_.get(), ids, streams_, max_batch, budget, nullptr,
          [&](IncrementalBsat& engine, std::size_t worker, std::uint64_t id,
              Rng& rng) {
            return unigen_request(&engine, sampling_set_, prep_, opts,
                                  cnf_.num_vars(), max_batch, rng,
                                  worker_ugstats_[worker], id);
          });
    } else {
      // Trivial/unsat/timed-out modes need no engine and no fan-out.
      UniGenStats unused;
      for (std::size_t k = 0; k < count; ++k) {
        if (budget.cancelled() || budget.wall_expired()) break;
        Rng rng = streams_.fork_stream(ids[k]);
        served[k] = unigen_request(nullptr, sampling_set_, prep_, opts,
                                   cnf_.num_vars(), max_batch, rng, unused,
                                   ids[k]);
      }
    }
    service_seconds_ += watch.seconds();
    // A token that fired at any point during the call makes the whole call
    // kCancelled (the token cannot un-trip mid-call), so unserved slots are
    // cancellations; with no token the only thing that leaves a slot
    // unserved is the wall deadline (or, on the fleet, a poisoned task).
    std::size_t unserved = 0;
    for (const auto& s : served) unserved += s ? 0 : 1;
    if (budget.cancelled())
      out.status = RequestStatus::kCancelled;
    else if (unserved == count)
      out.status = RequestStatus::kTimedOut;
    else if (unserved > 0)
      out.status = RequestStatus::kPartial;
  }
  const SampleResult::Status unserved_status =
      out.status == RequestStatus::kCancelled ? SampleResult::Status::kCancelled
                                              : SampleResult::Status::kTimeout;
  for (std::size_t k = 0; k < count; ++k) {
    if (served[k])
      out.batches[k] = std::move(*served[k]);
    else
      out.batches[k].status = unserved_status;
    account(out.batches[k].status);
  }
  return out;
}

std::vector<SampleResult> SamplerPool::sample_many(std::size_t count) {
  return sample_many_within(count, options_.unigen.budget).samples;
}

std::vector<BatchResult> SamplerPool::sample_batches(std::size_t requests,
                                                     std::size_t max_batch) {
  return sample_batches_within(requests, max_batch, options_.unigen.budget)
      .batches;
}

SampleManyResult SamplerPool::sample_many_within(std::size_t count,
                                                 const Budget& budget) {
  SampleBatchesResult r = serve(count, /*max_batch=*/0, budget);
  SampleManyResult out;
  out.status = r.status;
  out.samples.resize(count);
  for (std::size_t k = 0; k < count; ++k) {
    out.samples[k].status = r.batches[k].status;
    if (r.batches[k].ok())
      out.samples[k].witness = std::move(r.batches[k].models.front());
  }
  return out;
}

SampleBatchesResult SamplerPool::sample_batches_within(std::size_t requests,
                                                       std::size_t max_batch,
                                                       const Budget& budget) {
  if (max_batch == 0) return {};
  return serve(requests, max_batch, budget);
}

SamplerPoolStats SamplerPool::stats() const {
  SamplerPoolStats out;
  out.prepare = prepare_stats_;
  out.requests = requests_;
  out.samples_ok = ok_;
  out.samples_failed = failed_;
  out.samples_timed_out = timed_out_;
  out.samples_cancelled = cancelled_;
  out.service_seconds = service_seconds_;
  out.workers.reserve(pool_.num_threads());
  for (std::size_t w = 0; w < pool_.num_threads(); ++w) {
    SamplerPoolWorkerStats ws;
    ws.requests_served =
        pool_.tasks_served(w) -
        (w < prepare_tasks_.size() ? prepare_tasks_[w] : 0);
    const SolverStats es = pool_.engine_stats(w);
    ws.solver_rebuilds = es.solver_rebuilds;
    ws.reused_solves = es.reused_solves;
    ws.retracted_blocks = es.retracted_blocks;
    ws.solver_propagations = es.propagations + es.xor_propagations;
    ws.sample_bsat_calls = worker_ugstats_[w].sample_bsat_calls;
    ws.bsat_timeout_retries = worker_ugstats_[w].bsat_timeout_retries;
    ws.total_xor_rows = worker_ugstats_[w].total_xor_rows;
    ws.total_xor_row_length = worker_ugstats_[w].total_xor_row_length;
    out.workers.push_back(ws);
  }
  return out;
}

}  // namespace unigen
