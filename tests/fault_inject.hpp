#pragma once
// Deterministic fault injectors for the robustness test suite.
//
// Production code carries only the FaultInjector seam (service/budget.hpp);
// the implementations live here, in the test tree, so a release binary
// cannot accidentally link a fault plan.  Both injectors are deterministic
// in the schedule-independent coordinates (key, call) — an ApproxMC
// iteration index or a sampling request's stream, and the probe ordinal
// within it — so a plan fires at the same probes at every thread count,
// across a cut-and-resume, and on every replica of a seeded run.  Both are
// thread-safe: the decision is a pure function, and the only mutable state
// is the relaxed fired-counter used by tests to assert that every scheduled
// fault actually surfaced.
//
// Process-level faults (worker self-SIGKILL, sleep-forever hangs) follow
// the same (key, attempt) keying but cannot ride a function pointer across
// an exec boundary — they travel as the UNIGEN_WORKERD_FAULTS env var,
// built by ProcessFaultPlan (service/fleet_options.hpp), set by a test
// through ScopedEnv and interpreted by the unigen_workerd binary.

#include <cstdint>
#include <initializer_list>
#include <optional>
#include <set>
#include <string>
#include <utility>

#include "service/budget.hpp"

namespace unigen {

/// Fires exactly at the scheduled (key, call) pairs.  The plan is fixed at
/// construction (immutable during a run, hence safely shared by workers).
class ScheduledFaults final : public FaultInjector {
 public:
  using Probe = std::pair<std::uint64_t, std::uint64_t>;

  ScheduledFaults() = default;
  ScheduledFaults(std::initializer_list<Probe> plan) : plan_(plan) {}
  explicit ScheduledFaults(std::set<Probe> plan) : plan_(std::move(plan)) {}

  bool inject_timeout(std::uint64_t key, std::uint64_t call) override;

  /// Faults that actually fired so far (a probe the algorithm never reached
  /// does not count — honest accounting is the point).
  std::uint64_t fired() const { return fired_.load(std::memory_order_relaxed); }
  std::size_t planned() const { return plan_.size(); }

 private:
  std::set<Probe> plan_;
  std::atomic<std::uint64_t> fired_{0};
};

/// Seed-keyed rate injector: probe (key, call) faults iff
/// hash(seed, key, call) mod 2^32 < rate · 2^32.  Stateless apart from the
/// fired-counter, so the decision is reproducible from (seed, rate) alone —
/// the fuzz harness derives both from its case seed.
class SeededRateFaults final : public FaultInjector {
 public:
  /// `rate` in [0, 1]; clamped.
  SeededRateFaults(std::uint64_t seed, double rate);

  bool inject_timeout(std::uint64_t key, std::uint64_t call) override;

  std::uint64_t fired() const { return fired_.load(std::memory_order_relaxed); }

  /// The decision function, exposed so tests can predict a plan.
  bool would_fire(std::uint64_t key, std::uint64_t call) const;

 private:
  std::uint64_t seed_;
  std::uint64_t threshold_;  ///< fire iff mix(...) low 32 bits < threshold_
  std::atomic<std::uint64_t> fired_{0};
};

/// A FaultInjector that trips a CancelToken after a fixed number of probe
/// inspections and never injects a timeout itself.  Because the injector is
/// consulted at every probe boundary, this turns the cancellation point
/// into a deterministic event — the way tests drive cancel-mid-epoch
/// without racing a second thread against the run.
class CancelAfterProbes final : public FaultInjector {
 public:
  CancelAfterProbes(CancelToken& token, std::uint64_t probes)
      : token_(token), remaining_(probes) {}

  bool inject_timeout(std::uint64_t key, std::uint64_t call) override;

 private:
  CancelToken& token_;
  std::atomic<std::uint64_t> remaining_;
};

/// Sets one environment variable for a scope (`value` nullptr unsets it)
/// and restores what was there on exit.  A fleet's workers read their
/// settings (UNIGEN_WORKERD, UNIGEN_WORKERD_FAULTS,
/// UNIGEN_WORKERD_HEARTBEAT_S) from the environment they start in, so a
/// test declares this before the pool: every child it spawns, respawned
/// ones included, inherits the setting.  Not thread-safe: no other thread
/// may read the environment while one is made or destroyed.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value);
  ScopedEnv(const char* name, const std::string& value)
      : ScopedEnv(name, value.c_str()) {}
  ~ScopedEnv();
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

 private:
  std::string name_;
  std::optional<std::string> saved_;
};

}  // namespace unigen
