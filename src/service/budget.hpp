#pragma once
// Budget / RequestStatus / CancelToken — the anytime-and-robustness
// contract shared by the counting and sampling services.
//
// The paper's only robustness lever is a wall-clock one (Section 5: a
// 2500 s per-BSAT-call timeout, retried under a fresh hash).  A service
// needs three more things a wall clock cannot give:
//
//   * a deterministic budget unit (the BSAT-call grant) whose expiry is a
//     pure function of the work, not of the machine — so degraded paths
//     are byte-reproducible and can be driven on purpose in tests,
//     including on a 1-core container where wall-clock races never fire;
//   * cooperative cancellation, observed between (and, via the solver's
//     conflict-counting hook, inside) BSAT probes, leaving every engine
//     and pool reusable for the next request;
//   * deterministic fault injection, so every degraded path — UniGen's
//     fresh-hash retry, ApproxMC's iteration-skip accounting, partial
//     batches, cancel-mid-epoch — is exercised deliberately instead of
//     waiting for rare timeouts in production.
//
// All three travel in one `Budget` value threaded through approxmc_core,
// the parallel counter, unigen_accept_cell and the pools.  What a
// call-level grant admits is one rule, `UnitGrant`, which both fan-out
// backends ask before a task starts.  Outcomes are
// reported as `RequestStatus`, which keeps the paper's ⊥ (algorithmic
// failure, bounded probability) distinct from budget expiry and from
// cancellation — collapsing those is exactly the footgun the old
// `bool& timed_out` out-params invited.

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>

#include "util/timer.hpp"

namespace unigen {

/// Outcome of one budgeted request, from the caller's point of view.
enum class RequestStatus : std::uint8_t {
  /// The full requested result was produced.
  kComplete,
  /// A budget expired mid-run; the result carries the honest partial
  /// product (completed iterations / served slots) plus what confidence it
  /// actually achieves.
  kPartial,
  /// The algorithm returned ⊥ (UniGen line 19) — a bounded-probability
  /// failure of the randomized algorithm, NOT a resource event.
  kFailed,
  /// A budget (wall-clock or deterministic units) expired before anything
  /// reportable was produced.
  kTimedOut,
  /// The request's CancelToken was tripped.
  kCancelled,
};

const char* to_string(RequestStatus s);

/// Cooperative cancellation: the requester trips the token, workers observe
/// it between solver probes (and inside long probes via the solver's
/// periodic conflict-count check) and unwind cleanly — blocking clauses
/// retracted, hash rows retired on the next epoch, pool reusable.
/// Thread-safe; reusable after reset().
class CancelToken {
 public:
  void cancel() noexcept { flag_.store(true, std::memory_order_release); }
  void reset() noexcept { flag_.store(false, std::memory_order_release); }
  bool cancelled() const noexcept {
    return flag_.load(std::memory_order_acquire);
  }
  /// The raw flag, for layers (Solver) that must not depend on this header.
  const std::atomic<bool>* flag() const noexcept { return &flag_; }

 private:
  std::atomic<bool> flag_{false};
};

/// Deterministic fault-injection hook.  `key` identifies the work unit
/// (ApproxMC iteration index, sampling request stream), `call` the 0-based
/// BSAT probe ordinal within that unit — both schedule-independent, so a
/// plan keyed on them fires identically at every thread count and across a
/// cut-and-resume.  Implementations must be thread-safe and deterministic
/// in (key, call); they live in the test tree (tests/fault_inject.hpp) —
/// production code only carries this seam.
class FaultInjector {
 public:
  virtual ~FaultInjector() = default;
  /// True = force this probe to report a timeout without running it.
  virtual bool inject_timeout(std::uint64_t key, std::uint64_t call) = 0;
};

/// The unified resource envelope of one request.  Plain value type: copy it
/// freely; the pointer members are borrowed (caller keeps them alive for
/// the duration of the request) and may be null.
struct Budget {
  /// Wall-clock deadline for the whole request.
  Deadline deadline = Deadline::never();
  /// Wall-clock budget per BSAT call (paper Section 5: 2500 s); 0 = none.
  double bsat_timeout_s = 0.0;
  /// Deterministic unit budget: total BSAT calls the request may consume
  /// (0 = unlimited).  Expiry is a pure function of the work, so a grant
  /// (or a fault plan) makes degraded paths byte-reproducible: budgeted
  /// algorithms then pin every schedule-dependent cost knob (ApproxMC's
  /// leapfrog hint: every iteration starts cold), and unit consumption and
  /// fault points are identical across thread counts and across a
  /// cut-and-resume.
  std::uint64_t max_bsat_calls = 0;
  /// Cooperative cancellation; null = not cancellable.
  const CancelToken* cancel = nullptr;
  /// Deterministic fault injection; null = no faults.
  FaultInjector* fault = nullptr;

  static Budget unlimited() { return Budget{}; }
  static Budget within_seconds(double s) {
    Budget b;
    b.deadline = Deadline::in_seconds(s);
    return b;
  }

  bool cancelled() const { return cancel != nullptr && cancel->cancelled(); }
  /// The token's raw flag, for the solver layers; null = not cancellable.
  const std::atomic<bool>* cancel_flag() const {
    return cancel != nullptr ? cancel->flag() : nullptr;
  }
  bool wall_expired() const { return deadline.expired(); }

  /// Deadline for one BSAT call: whole-request deadline capped by the
  /// per-call timeout.  (The pre-Budget per_call_deadline helpers of
  /// approxmc.cpp/approxmc_core.cpp computed exactly this.)
  Deadline per_call_deadline() const {
    if (bsat_timeout_s <= 0.0) return deadline;
    return Deadline::in_seconds(
        std::min(deadline.remaining_seconds(), bsat_timeout_s));
  }

  /// True = the fault plan forces probe (key, call) to time out.
  bool fault_fires(std::uint64_t key, std::uint64_t call) const {
    return fault != nullptr && fault->inject_timeout(key, call);
  }

  /// Admission check: the status a request must return WITHOUT issuing a
  /// single BSAT call, or kComplete if it may proceed.  A degenerate budget
  /// (deadline already expired — e.g. built from in_seconds(0) or a
  /// negative duration — or a pre-tripped cancel token) previously raced
  /// the first probe: a fast machine could squeeze work in before the first
  /// deadline check and a slow one could not.  Checking at admission makes
  /// the degenerate outcome deterministic.  max_bsat_calls is NOT checked
  /// here: 0 is the documented "unlimited" sentinel, and any positive value
  /// admits at least one probe.
  RequestStatus admission_status() const {
    if (cancelled()) return RequestStatus::kCancelled;
    if (wall_expired()) return RequestStatus::kTimedOut;
    return RequestStatus::kComplete;
  }
};

/// The one admission rule of a call-level unit grant, asked by both fan-out
/// backends before a task starts (a fleet retry included): task j (its
/// position in id order) may start unless `spent` plus the units the tasks
/// before it charged reach `granted`.  No schedule refuses a task the grant
/// still covers, because only the tasks before a task can spend the grant
/// out from under it; more tasks than it covers may start, and the caller's
/// fold decides what the grant bought.  A refusal is final: the units
/// before a task only grow.
struct UnitGrant {
  std::uint64_t granted = 0;  ///< 0 = no grant, every task starts
  std::uint64_t spent = 0;    ///< units spent before the fan-out
  /// `units_of_task(i)` = what task i has charged so far (0 until its
  /// outcome is in).
  template <class UnitsOf>
  bool admits(std::size_t j, const UnitsOf& units_of_task) const {
    if (granted == 0) return true;
    std::uint64_t before = spent;
    for (std::size_t i = 0; i < j; ++i) before += units_of_task(i);
    return before < granted;
  }
};

}  // namespace unigen
