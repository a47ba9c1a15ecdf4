#pragma once
// Execution-backend switch of the crash-isolated process fleet
// (service/process_fleet.hpp).
//
// The keyed-stream determinism contract (worker_pool.hpp) is
// location-independent: task k draws everything from fork_stream(k) and
// results fold in canonical order, so *where* a task runs — which thread,
// which process, which attempt after a crash — cannot reach the reported
// bytes.  FleetOptions selects the backend that exploits this: the
// default in-process WorkerPool, or supervised unigen_workerd processes
// that contain a solver crash to one task retry instead of taking down the
// whole service.  `endpoints` alone decides where those processes live:
// empty, the fleet spawns `num_workers` local children over socketpairs;
// set, it dials one pre-started `unigen_workerd --listen` server per
// endpoint (any host) and spawns nothing.
//
// A worker reads its own settings from the environment it starts in, and
// the supervisor writes nothing there: the binary a spawn runs is
// $UNIGEN_WORKERD, else "unigen_workerd" next to the running executable;
// UNIGEN_WORKERD_HEARTBEAT_S sets a worker's heartbeat period (0.25 s when
// unset) and UNIGEN_WORKERD_FAULTS its test fault plan (ProcessFaultPlan).
// A spawned child inherits them from its supervisor's process, and a
// `--listen` server has its own.
//
// No setting here bounds a task's wall clock: that comes only from the
// Budget of the call the task rides in (its deadline and per-call scalars
// travel on every task frame).  The fleet's own clocks bound its workers
// only: heartbeat silence, and fixed dial, send and respawn-backoff bounds
// (process_fleet.cpp).

#include <cstdint>
#include <string>
#include <vector>

namespace unigen {

enum class ExecBackend : std::uint8_t {
  /// Threads of the caller's process (WorkerPool) — the default.
  kInProcess,
  /// Supervised out-of-process workers; falls back to kInProcess when no
  /// worker comes up (fork failure, missing unigen_workerd binary, no
  /// endpoint answering).
  kProcessFleet,
};

struct FleetOptions {
  ExecBackend backend = ExecBackend::kInProcess;
  /// Local children to spawn when `endpoints` is empty; 0 = match the
  /// embedding's thread count.  Unused when `endpoints` is set.
  std::size_t num_workers = 0;
  /// "host:port" `unigen_workerd --listen` servers to dial instead of
  /// spawning: one worker per endpoint, since a server serves one
  /// supervisor connection at a time.  A dropped connection is
  /// "respawned" by re-dialing under the same bounded backoff.  Adding
  /// machines is adding endpoints — the multi-host fan-out the paper's
  /// no-communication argument promises.
  std::vector<std::string> endpoints;
  /// Supervisor-side silence ceiling: a busy worker that produced no frame
  /// (result or heartbeat) for this long is declared hung, killed, and its
  /// task re-dispatched.
  double heartbeat_timeout_s = 10.0;
};

/// Builder for the UNIGEN_WORKERD_FAULTS plan (tests only: set it in the
/// environment the workers start in): a ;-separated list of
/// `kill@task:attempt` / `sleep@task:attempt` directives.  The worker
/// checks the plan when it receives a task frame: `kill` raises SIGKILL
/// (crash mid-task), `sleep` blocks the heartbeat mutex and sleeps forever
/// (hang detectable only by heartbeat silence).  Keyed on the task id and
/// the attempt ordinal — both schedule-independent — so a plan fires on
/// the same task at every worker count, and a retry (attempt 1) of a
/// task whose attempt 0 was killed runs clean and byte-identical.
struct ProcessFaultPlan {
  std::string plan;

  ProcessFaultPlan& kill_task(std::uint64_t task, int attempt = 0) {
    return add("kill", task, attempt);
  }
  ProcessFaultPlan& sleep_task(std::uint64_t task, int attempt = 0) {
    return add("sleep", task, attempt);
  }
  const std::string& to_env() const { return plan; }

 private:
  ProcessFaultPlan& add(const char* what, std::uint64_t task, int attempt) {
    if (!plan.empty()) plan += ';';
    plan += what;
    plan += '@';
    plan += std::to_string(task);
    plan += ':';
    plan += std::to_string(attempt);
    return *this;
  }
};

}  // namespace unigen
