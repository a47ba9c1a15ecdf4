#pragma once
// Execution-backend switch and tuning knobs of the crash-isolated process
// fleet (service/process_fleet.hpp).
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
// No knob here bounds a task's wall clock: that comes only from the Budget
// of the call the task rides in (its deadline and per-call scalars travel
// on every task frame).  The fleet's own clocks bound its workers only:
// dialing, heartbeats, respawn backoff, and a fixed 5 s on every frame
// send (process_fleet.cpp).

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
  /// Dial deadline per endpoint; an unreachable host costs this much,
  /// never an indefinite stall.
  double connect_timeout_s = 5.0;
  /// Path to the unigen_workerd binary spawned children run.  Empty =
  /// $UNIGEN_WORKERD, else "unigen_workerd" next to the running executable
  /// (/proc/self/exe).
  std::string workerd_path;
  /// Worker-side heartbeat period.  The worker emits an unsolicited
  /// heartbeat frame this often from a dedicated thread, so a busy solve
  /// is distinguishable from a hung or dead process.  Reaches spawned
  /// children through their environment (UNIGEN_WORKERD_HEARTBEAT_S); a
  /// `--listen` server reads its own.
  double heartbeat_interval_s = 0.25;
  /// Supervisor-side silence ceiling: a busy worker that produced no frame
  /// (result or heartbeat) for this long is declared hung, killed, and its
  /// task re-dispatched.
  double heartbeat_timeout_s = 10.0;
  /// Attempts (1 + retries) before a task is poisoned and surfaces through
  /// the existing RequestStatus partial/failed accounting.
  int max_task_attempts = 3;
  /// Bounded exponential backoff between respawns of a crashing worker.
  double respawn_backoff_initial_s = 0.02;
  double respawn_backoff_max_s = 2.0;
  /// Respawns per worker slot before the slot is abandoned; the fleet
  /// degrades to the surviving workers (and poisons what it must) rather
  /// than fork-bombing on a crash loop.
  int max_respawns_per_worker = 8;
  /// UNIGEN_WORKERD_FAULTS value handed to every spawned child — the
  /// process-level fault-injection seam (see ProcessFaultPlan).  Empty =
  /// no injected faults.  A `--listen` server reads its own environment.
  std::string fault_plan;
};

/// Builder for the UNIGEN_WORKERD_FAULTS plan: a ;-separated list of
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
