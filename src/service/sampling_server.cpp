#include "service/sampling_server.hpp"

#include <cmath>

#include "obs/trace.hpp"

namespace unigen {

namespace {

/// A failed cold prepare still owes the caller `count` honest slots: the
/// cut that stopped prepare is the same cut that would have stopped the
/// fan-out, so stamp its status on every slot.
SampleResult::Status failed_prepare_status(const Budget& budget) {
  return budget.cancelled() ? SampleResult::Status::kCancelled
                            : SampleResult::Status::kTimeout;
}

RequestStatus failed_prepare_call_status(const Budget& budget) {
  return budget.cancelled() ? RequestStatus::kCancelled
                            : RequestStatus::kTimedOut;
}

}  // namespace

SamplingServer::SamplingServer(SamplingServerOptions options)
    : registry_(std::move(options.registry)) {}

ServerSampleResponse SamplingServer::sample(const Cnf& cnf, std::size_t count,
                                            const Budget& budget) {
  ServerSampleResponse out;
  // Observability only: one span — and one trace — per server call; the
  // session's pool.request (and a cold call's prepare) nest under it.
  obs::Span span("server.request");
  span.set_value(count);
  const AcquireResult acquired = registry_.acquire(cnf, budget);
  out.warm = acquired.warm;
  out.key = acquired.key;
  if (!acquired.ok()) {
    out.status = failed_prepare_call_status(budget);
    out.samples.resize(count);
    for (auto& slot : out.samples) slot.status = failed_prepare_status(budget);
    return out;
  }
  SampleManyResult r = acquired.session->pool().sample_many_within(count,
                                                                   budget);
  out.status = r.status;
  out.samples = std::move(r.samples);
  return out;
}

ServerSampleResponse SamplingServer::sample(const Cnf& cnf,
                                            std::size_t count) {
  return sample(cnf, count, registry_.options().pool.unigen.budget);
}

ServerBatchResponse SamplingServer::sample_batches(const Cnf& cnf,
                                                   std::size_t requests,
                                                   std::size_t max_batch,
                                                   const Budget& budget) {
  ServerBatchResponse out;
  obs::Span span("server.request");
  span.set_value(requests);
  const AcquireResult acquired = registry_.acquire(cnf, budget);
  out.warm = acquired.warm;
  out.key = acquired.key;
  if (!acquired.ok()) {
    out.status = failed_prepare_call_status(budget);
    out.batches.resize(requests);
    for (auto& slot : out.batches) slot.status = failed_prepare_status(budget);
    return out;
  }
  SampleBatchesResult r = acquired.session->pool().sample_batches_within(
      requests, max_batch, budget);
  out.status = r.status;
  out.batches = std::move(r.batches);
  return out;
}

ServerBatchResponse SamplingServer::sample_batches(const Cnf& cnf,
                                                   std::size_t requests,
                                                   std::size_t max_batch) {
  return sample_batches(cnf, requests, max_batch,
                        registry_.options().pool.unigen.budget);
}

ServerCountResponse SamplingServer::count(const Cnf& cnf,
                                          const Budget& budget) {
  ServerCountResponse out;
  obs::Span span("server.request");
  const AcquireResult acquired = registry_.acquire(cnf, budget);
  out.warm = acquired.warm;
  out.key = acquired.key;
  if (!acquired.ok()) {
    out.status = failed_prepare_call_status(budget);
    return out;
  }
  const SamplerPool& pool = acquired.session->pool();
  const UniGenPrepared& prep = pool.prepared();
  out.status = RequestStatus::kComplete;
  switch (prep.mode) {
    case UniGenPrepared::Mode::kUnsat:
      out.unsat = true;
      break;
    case UniGenPrepared::Mode::kTrivial:
      out.exact = true;
      out.approx_log2_count =
          std::log2(static_cast<double>(prep.trivial_models.size()));
      break;
    default:
      out.approx_log2_count = prep.approx_log2_count;
      break;
  }
  return out;
}

ServerCountResponse SamplingServer::count(const Cnf& cnf) {
  return count(cnf, registry_.options().pool.unigen.budget);
}

}  // namespace unigen
