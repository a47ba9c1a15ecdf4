#pragma once
// ProcessFleet — crash-isolated execution backend: N supervised child
// processes (unigen_workerd) serving the same keyed-stream task shape as
// the in-process WorkerPool.
//
// Why processes: a solver crash (or an injected SIGKILL) inside a
// WorkerPool thread takes the whole service down.  Here it costs one task
// retry — the supervisor reaps the dead child, respawns it under bounded
// exponential backoff, and re-dispatches the in-flight task.  The retry is
// byte-identical to what the dead worker would have produced, because a
// task frame carries everything the computation depends on (formula in
// canonical DIMACS, raw RNG state, scalars — see service/ipc.hpp): the
// keyed-stream determinism contract is location-independent, so *where* a
// task runs, and on which attempt, cannot reach the reported bytes.
//
// Supervision model (single-threaded poll loop, no supervisor threads):
//   * liveness   — workers heartbeat on a dedicated thread; a worker silent
//                  past heartbeat_timeout_s is declared hung, SIGKILLed,
//                  and treated like any other death.
//   * crash loop — respawns back off exponentially and are capped per
//                  worker slot; a failed dial, fork or socketpair takes a
//                  backoff step as a death does.  A slot that keeps dying,
//                  or cannot be brought back, is abandoned and the fleet
//                  degrades to the survivors.
//   * poisoning  — a task whose attempt ends without a result (its worker
//                  died, or answered Error) after 3 attempts is poisoned:
//                  its slot reports unserved and flows through the
//                  embeddings' existing partial/failed accounting.
//   * grant      — a call-level unit grant (UnitGrant, budget.hpp) is
//                  asked before every dispatch, a retry included, over the
//                  results in so far; a refused task settles unserved.  A
//                  crash or hang therefore admits what the in-process pool
//                  admits: a retry is refused only if the tasks before it
//                  spent the grant.
//   * cancel/    — a tripped token or expired call deadline SIGKILLs busy
//     deadline     workers (the only way to interrupt an out-of-process
//                  solve; honest statuses for their tasks); dead slots
//                  respawn lazily, so the fleet object stays reusable.
//                  The call's Budget is the only wall clock a task has.
//
// Where workers come from (FleetOptions::endpoints): the supervision loop
// never sees anything but a connected SOCK_STREAM fd per worker, so the
// same poll() polices fork/exec'd socketpair children (no endpoints) and
// never-spawned `unigen_workerd --listen` servers it dialed (one worker
// per endpoint, on any host).  A dialed worker has no pid to SIGKILL;
// dropping the connection is the kill (the serving loop sees EOF, resets,
// and re-accepts), and a respawn is a re-dial under the same bounded
// backoff.  All frame sends are deadline-bounded (a fixed 5 s): a peer
// that stops draining is a stalled transport, classified and killed
// exactly like a heartbeat-silent hang — the single-threaded supervisor
// never blocks.
//
// Graceful degradation: start() returns false when no worker can be
// brought up (missing binary, fork failure, a malformed endpoint, no
// endpoint answering); embeddings then fall back to the in-process
// WorkerPool.  If the last live worker dies mid-run and no slot can
// respawn, run() returns with the remaining tasks unserved rather than
// spinning.

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "cnf/cnf.hpp"
#include "core/unigen.hpp"
#include "counting/approxmc.hpp"
#include "service/budget.hpp"
#include "service/fleet_options.hpp"
#include "service/ipc.hpp"

namespace unigen {

struct FleetStats {
  std::uint64_t spawns = 0;
  std::uint64_t spawn_failures = 0;
  /// Dialed endpoints only: connections to `--listen` servers established
  /// / refused (the first dial and every re-dial each count once).
  std::uint64_t dials = 0;
  std::uint64_t dial_failures = 0;
  /// Frame sends that hit the 5 s bounded-write deadline; each one killed
  /// its worker like a heartbeat-silent hang.
  std::uint64_t send_stalls = 0;
  /// Corrupt inbound streams (bad length / unknown frame type); each one
  /// poisoned its connection — worker killed/dropped and respawned.
  std::uint64_t protocol_errors = 0;
  /// Unexpected worker deaths (crash, external kill) observed mid-service.
  std::uint64_t crashes = 0;
  /// Supervisor-initiated kills of workers silent past
  /// heartbeat_timeout_s.
  std::uint64_t hang_kills = 0;
  /// Busy workers run() killed because the call's wall deadline passed
  /// while its token had not fired.
  std::uint64_t deadline_kills = 0;
  std::uint64_t respawns = 0;
  /// Tasks sent again after their worker died mid-flight.
  std::uint64_t redispatches = 0;
  std::uint64_t poisoned_tasks = 0;
  /// Crash-to-redispatch latency (death detected → task back on a live
  /// worker), the service-visible cost of one recovery.
  double total_recovery_seconds = 0.0;
  double max_recovery_seconds = 0.0;
};

class ProcessFleet {
 public:
  /// One work unit; `id` is the canonical task key (iteration index or
  /// request stream) — also the worker-side fault-plan key.
  struct TaskSpec {
    std::uint64_t id = 0;
    std::array<std::uint64_t, 4> rng_state{};
    std::uint64_t max_batch = 0; ///< kSample: 0 = single, else batch cap
    /// Trace propagation (obs/trace.hpp): rides the Task frame so the
    /// worker's spans land in the request's trace; 0 = tracing off.
    /// Observability only — never reaches the computation.
    std::uint64_t trace_id = 0;
    std::uint64_t parent_span = 0;
  };

  /// served == false means the slot never produced a result: poisoned
  /// (attempts exhausted — `poisoned` set), cut by the call budget, or
  /// stranded by total worker loss.  Embeddings stamp honest statuses for
  /// those through their existing finish paths.
  struct TaskOutcome {
    bool served = false;
    bool poisoned = false;
    std::uint32_t attempts = 0;
    ipc::ResultMsg result;
  };

  explicit ProcessFleet(FleetOptions options);
  ~ProcessFleet();
  ProcessFleet(const ProcessFleet&) = delete;
  ProcessFleet& operator=(const ProcessFleet&) = delete;

  /// Spawns `default_workers` children (FleetOptions::num_workers when
  /// set), or dials every endpoint instead, ships `setup_payload` (an
  /// encoded ipc::SetupMsg) to each, and waits for the first Ready.  False
  /// = no worker could be brought up — the caller should fall back
  /// in-process.  Idempotent.
  bool start(std::string setup_payload, std::size_t default_workers);

  /// Convenience Setup builders matching what unigen_workerd expects.
  static std::string make_count_setup(const Cnf& formula,
                                      const std::vector<Var>& sampling_set,
                                      std::uint64_t pivot);
  static std::string make_sample_setup(const Cnf& original,
                                       const std::vector<Var>& sampling_set,
                                       const UniGenPrepared& prep,
                                       const UniGenOptions& options);

  /// Fans `tasks` across the workers; synchronous; outcomes in task order.
  /// `budget` supplies the call-level wall deadline and cancellation token;
  /// its remaining deadline and per-call scalars ride on every task frame.
  /// `grant` (null = none) is asked before every dispatch, a retry
  /// included, over the ipc::units_of of the results in so far; a task it
  /// refuses is settled unserved.
  std::vector<TaskOutcome> run(const std::vector<TaskSpec>& tasks,
                               const Budget& budget,
                               const UnitGrant* grant = nullptr);

  std::size_t num_workers() const;
  /// Live child pids — the test seam for external `kill -9`.
  std::vector<int> worker_pids() const;
  const FleetStats& stats() const { return stats_; }

 private:
  struct Worker;
  struct RunState;

  /// Brings a slot's connection up: dials its endpoint, or forks/execs a
  /// child over a socketpair when the fleet has no endpoints.
  bool spawn(Worker& w);
  /// Completes a spawn/dial: register the connected fd, ship Setup.
  bool adopt_connection(Worker& w, int fd, int pid);
  void kill_worker(Worker& w);
  void handle_death(Worker& w, RunState* run);
  void process_frames(Worker& w, RunState* run);
  /// The rule for an attempt that ended without a result: poison the task
  /// once it has used every attempt, else put it back at the queue's front.
  /// True when it was requeued.
  bool requeue_or_poison(std::size_t task_index, RunState& run);
  void dispatch(Worker& w, std::size_t task_index, RunState* run);
  /// One poll round: respawn due slots, pump readable fds, police
  /// heartbeats.  Returns false when no worker is live and none can ever
  /// come back.
  bool poll_once(int timeout_ms, RunState* run);

  FleetOptions options_;
  std::string setup_payload_;
  std::string workerd_binary_;
  bool started_ = false;
  std::vector<Worker> workers_;
  FleetStats stats_;
};

}  // namespace unigen
