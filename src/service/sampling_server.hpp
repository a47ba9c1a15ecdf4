#pragma once
// SamplingServer — the multi-formula serving front end.
//
// One object a deployment talks to: hand it any CNF plus a request
// (witnesses, batches, or the prepared count) and it routes through the
// SessionRegistry — warm formulas are served by their live session at pure
// lines-12–22 cost, cold formulas pay simplify + prepare exactly once and
// then stay warm until evicted.  Responses say which happened (`warm`) and
// under which session key, so callers and the bench harness can meter the
// cache.
//
// The server inherits every contract of the layers below it:
//   * determinism — for a fixed registry template and request sequence the
//     response bytes are identical at every thread count, and a session's
//     k-th request draws stream k whether or not evictions happened in
//     between (streams advance with the session, so "evict + re-register"
//     restarts the stream — which is why the fuzz harness resets its
//     reference pool when a response reports warm == false);
//   * honest statuses — budget cuts and cancellations land in the
//     response's per-slot statuses and call-level RequestStatus, never in
//     default-constructed lies; a failed cold prepare reports every slot
//     kTimeout/kCancelled and leaves the registry retryable.
//
// Threading: one dispatcher thread, like the registry; the parallelism is
// each session's worker fan-out.

#include <cstdint>
#include <string>
#include <vector>

#include "cnf/cnf.hpp"
#include "service/budget.hpp"
#include "service/sampler_pool.hpp"
#include "service/session_registry.hpp"

namespace unigen {

struct SamplingServerOptions {
  SessionRegistryOptions registry;
};

/// One witness-request response.  `samples` always has `count` slots in
/// request order (the SampleManyResult contract).
struct ServerSampleResponse {
  RequestStatus status = RequestStatus::kTimedOut;
  bool warm = false;  ///< served by an already-live session
  SessionKey key;
  std::vector<SampleResult> samples;
};

struct ServerBatchResponse {
  RequestStatus status = RequestStatus::kTimedOut;
  bool warm = false;
  SessionKey key;
  std::vector<BatchResult> batches;
};

/// The prepared model-count view of a formula (the ApproxMC estimate the
/// session's one-time phase already paid for; exact in the easy case).
struct ServerCountResponse {
  RequestStatus status = RequestStatus::kTimedOut;
  bool warm = false;
  SessionKey key;
  bool unsat = false;
  bool exact = false;             ///< easy case: enumeration, not estimate
  double approx_log2_count = 0.0; ///< log2 |R_S(F)| (0 when unsat)
};

class SamplingServer {
 public:
  explicit SamplingServer(SamplingServerOptions options = {});

  /// Draws `count` witnesses of `cnf` (session-resolved, then
  /// SamplerPool::sample_many_within).  `budget` covers the whole request:
  /// a cold call's prepare and its sampling share the deadline/token.
  ServerSampleResponse sample(const Cnf& cnf, std::size_t count,
                              const Budget& budget);
  ServerSampleResponse sample(const Cnf& cnf, std::size_t count);

  /// UniGen2-style batches: `requests` cells, up to `max_batch` distinct
  /// witnesses each.
  ServerBatchResponse sample_batches(const Cnf& cnf, std::size_t requests,
                                     std::size_t max_batch,
                                     const Budget& budget);
  ServerBatchResponse sample_batches(const Cnf& cnf, std::size_t requests,
                                     std::size_t max_batch);

  /// The session's count of |R_S(F)| — free on a warm session, one full
  /// prepare on a cold one.
  ServerCountResponse count(const Cnf& cnf, const Budget& budget);
  ServerCountResponse count(const Cnf& cnf);

  SessionRegistry& registry() { return registry_; }
  const SessionRegistry& registry() const { return registry_; }
  SessionRegistryStats stats() const { return registry_.stats(); }

 private:
  SessionRegistry registry_;
};

}  // namespace unigen
