#include "service/process_fleet.hpp"

#include <algorithm>
#include <chrono>
#include <deque>

#include <cerrno>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include "cnf/dimacs_write.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "service/net_transport.hpp"

namespace unigen {

namespace {

using Clock = std::chrono::steady_clock;

constexpr std::size_t kNoTask = static_cast<std::size_t>(-1);

/// Bound on every supervisor-side frame send: a worker that stops draining
/// its socket this long is a stalled transport, killed like a
/// heartbeat-silent hang (the single-threaded poll loop must never block
/// in send).
constexpr double kSendTimeoutS = 5.0;
/// Dial deadline per endpoint: an unreachable host costs this much, never
/// an indefinite stall.
constexpr double kConnectTimeoutS = 5.0;
/// Attempts (1 + retries) before a task is poisoned and surfaces through
/// the embeddings' RequestStatus partial/failed accounting.
constexpr std::uint32_t kMaxTaskAttempts = 3;
/// Bounded exponential backoff between respawns of a crashing worker.
constexpr double kRespawnBackoffInitialS = 0.02;
constexpr double kRespawnBackoffMaxS = 2.0;
/// Respawns per worker slot before the slot is abandoned: the fleet
/// degrades to the surviving workers (and poisons what it must) rather
/// than fork-bombing on a crash loop.
constexpr int kMaxRespawnsPerWorker = 8;

double seconds_since(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

Clock::time_point after_seconds(double s) {
  return Clock::now() + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(s));
}

/// $UNIGEN_WORKERD, else "unigen_workerd" next to the running executable;
/// empty when neither can be named.
std::string resolve_workerd_binary() {
  if (const char* env = std::getenv("UNIGEN_WORKERD")) return env;
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (n <= 0) return {};
  buf[n] = '\0';
  std::string path(buf);
  const std::size_t slash = path.rfind('/');
  if (slash == std::string::npos) return {};
  return path.substr(0, slash + 1) + "unigen_workerd";
}

/// Closes the supervisor-side span of one dispatch attempt of `spec`,
/// opened at `start_ns` (0 = none was opened): `fleet.attempt` when its
/// Result arrived, `fleet.attempt.crashed` when its worker died with it —
/// the dead worker's own spans are gone, so this is that attempt's record
/// in the trace.  Observability only.
void record_attempt_span(const ProcessFleet::TaskSpec& spec,
                         std::uint64_t start_ns, std::uint32_t attempt,
                         pid_t pid, const char* name) {
  if (start_ns == 0 || spec.trace_id == 0 || !obs::enabled()) return;
  obs::TraceEvent e;
  e.trace_id = spec.trace_id;
  e.span_id = obs::fresh_span_id();
  e.parent_id = spec.parent_span;
  e.start_ns = start_ns;
  e.end_ns = obs::now_ns();
  e.value = spec.id;
  e.name = name;
  e.worker = pid > 0 ? static_cast<std::uint32_t>(pid) : 0;
  e.attempt = attempt;
  obs::record_span(e);
}

}  // namespace

struct ProcessFleet::Worker {
  enum class State {
    kDown,       ///< dead, respawn scheduled (next_spawn)
    kAbandoned,  ///< dead, respawn budget exhausted — slot given up
    kSpawning,   ///< alive, Setup sent, Ready not yet seen
    kIdle,
    kBusy,
  };

  pid_t pid = -1;
  int fd = -1;
  State state = State::kDown;
  /// Dialed slot (FleetOptions::endpoints set): no local process exists —
  /// pid stays -1, "kill" drops the connection, "respawn" re-dials this.
  net::Endpoint endpoint{};
  ipc::FrameReader reader;
  /// Last frame of any kind (Ready/Heartbeat/Result) — the liveness clock.
  Clock::time_point last_frame{};
  std::size_t task = kNoTask;
  int respawns = 0;
  double backoff_s = 0.0;
  Clock::time_point next_spawn{};
  /// The pending death (if any) was our own SIGKILL (hang/deadline/cancel),
  /// not a crash — kept out of the crash count.
  bool supervisor_kill = false;
  /// Supervisor-side attempt span bookkeeping (observability only): set by
  /// dispatch() when the task carries a trace id, closed at Result arrival
  /// or death.  0 = no open attempt span.
  std::uint64_t span_start_ns = 0;
  std::uint32_t span_attempt = 0;

  bool alive() const {
    return state == State::kSpawning || state == State::kIdle ||
           state == State::kBusy;
  }
  /// One step of the respawn backoff (0.02 s doubling to 2 s): the slot's
  /// next dial or spawn waits that long.
  void back_off() {
    backoff_s = backoff_s <= 0.0
                    ? kRespawnBackoffInitialS
                    : std::min(backoff_s * 2.0, kRespawnBackoffMaxS);
    next_spawn = after_seconds(backoff_s);
  }
};

struct ProcessFleet::RunState {
  const std::vector<TaskSpec>* tasks = nullptr;
  std::vector<TaskOutcome>* outcomes = nullptr;
  const Budget* budget = nullptr;
  const UnitGrant* grant = nullptr;
  /// Task indices awaiting (re-)dispatch; crash retries go to the front so
  /// a recovered task is not starved behind the original queue.
  std::deque<std::size_t> pending;
  /// served + poisoned + refused — run() returns when this reaches
  /// tasks->size().
  std::size_t settled = 0;
  /// Death-detection timestamps for crash-to-redispatch latency.
  std::vector<Clock::time_point> death_time;
  std::vector<char> death_pending;

  /// The grant admits task t now: the tasks before it charged what their
  /// results in so far say.
  bool admits(std::size_t t) const {
    return grant == nullptr || grant->admits(t, [this](std::size_t i) {
             const TaskOutcome& o = (*outcomes)[i];
             return o.served ? ipc::units_of(o.result.outcome) : 0;
           });
  }
};

ProcessFleet::ProcessFleet(FleetOptions options)
    : options_(std::move(options)) {}

ProcessFleet::~ProcessFleet() {
  for (Worker& w : workers_) {
    if (w.fd >= 0) ::close(w.fd);
    if (w.pid > 0) {
      ::kill(w.pid, SIGKILL);
      ::waitpid(w.pid, nullptr, 0);
    }
  }
}

std::size_t ProcessFleet::num_workers() const { return workers_.size(); }

std::vector<int> ProcessFleet::worker_pids() const {
  std::vector<int> pids;
  for (const Worker& w : workers_)
    if (w.alive() && w.pid > 0) pids.push_back(static_cast<int>(w.pid));
  return pids;
}

bool ProcessFleet::adopt_connection(Worker& w, int fd, int pid) {
  // CLOEXEC on every supervisor-side channel (dialed fds got it at
  // connect; socketpair ends need it here): a later spawn's child must not
  // inherit — and keep alive — a sibling's connection.
  net::tune_stream_socket(fd);
  w.pid = pid;
  w.fd = fd;
  w.state = Worker::State::kSpawning;
  w.task = kNoTask;
  w.supervisor_kill = false;
  w.reader = ipc::FrameReader{};
  w.last_frame = Clock::now();
  ++stats_.spawns;
  const ipc::WriteOutcome wr = ipc::write_frame_bounded(
      w.fd, ipc::FrameType::kSetup, setup_payload_, kSendTimeoutS);
  if (wr != ipc::WriteOutcome::kOk) {
    // kOversize is the clean refusal path for an unshippable formula: no
    // byte hit the wire, the worker is simply unusable — every slot fails
    // the same way and start() degrades to the in-process pool.
    if (wr == ipc::WriteOutcome::kStalled) ++stats_.send_stalls;
    kill_worker(w);
    handle_death(w, nullptr);
    return false;
  }
  return true;
}

bool ProcessFleet::spawn(Worker& w) {
  // A slot whose dial, socketpair or fork fails stays down for one backoff
  // step.  (A failed adopt_connection takes its step in handle_death.)
  const auto failed = [&] {
    ++stats_.spawn_failures;
    w.back_off();
    return false;
  };
  if (!options_.endpoints.empty()) {
    const int fd = net::tcp_connect(w.endpoint, kConnectTimeoutS);
    if (fd < 0) {
      ++stats_.dial_failures;
      return failed();
    }
    ++stats_.dials;
    return adopt_connection(w, fd, /*pid=*/-1);
  }
  int sv[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) != 0) return failed();
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(sv[0]);
    ::close(sv[1]);
    return failed();
  }
  if (pid == 0) {
    // Child: channel on fd 3, then exec the worker, which inherits this
    // process's environment and reads its settings there.
    ::close(sv[0]);
    if (sv[1] != 3) {
      ::dup2(sv[1], 3);
      ::close(sv[1]);
    }
    ::execl(workerd_binary_.c_str(), workerd_binary_.c_str(), "--fd", "3",
            static_cast<char*>(nullptr));
    _exit(127);
  }
  ::close(sv[1]);
  return adopt_connection(w, sv[0], pid);
}

void ProcessFleet::kill_worker(Worker& w) {
  if (!w.alive()) return;
  w.supervisor_kill = true;
  if (w.pid > 0) {
    ::kill(w.pid, SIGKILL);  // death observed as EOF in the poll loop
  } else if (w.fd >= 0) {
    // Dialed worker: no pid to signal — dropping the connection IS the
    // kill.  The serving loop sees EOF, abandons the task, resets its
    // state and re-accepts; our poll loop sees EOF and runs the same death
    // path a SIGKILL produces.
    ::shutdown(w.fd, SHUT_RDWR);
  }
}

void ProcessFleet::handle_death(Worker& w, RunState* run) {
  const pid_t dead_pid = w.pid;
  // A result that beat the death into the socket still counts — drain the
  // buffered frames before declaring the task crashed.
  process_frames(w, run);
  if (w.fd >= 0) {
    ::close(w.fd);
    w.fd = -1;
  }
  if (w.pid > 0) {
    ::waitpid(w.pid, nullptr, 0);
    w.pid = -1;
  }
  if (!w.supervisor_kill) {
    ++stats_.crashes;
    obs::metrics().counter("fleet.crashes").add();
  }
  if (w.state == Worker::State::kBusy && w.task != kNoTask && run != nullptr) {
    const std::size_t t = w.task;
    record_attempt_span((*run->tasks)[t], w.span_start_ns, w.span_attempt,
                        dead_pid, "fleet.attempt.crashed");
    if (requeue_or_poison(t, *run)) {
      run->death_time[t] = Clock::now();
      run->death_pending[t] = 1;
    }
  }
  w.span_start_ns = 0;
  w.state = Worker::State::kDown;
  w.task = kNoTask;
  w.supervisor_kill = false;
  w.back_off();
}

void ProcessFleet::process_frames(Worker& w, RunState* run) {
  ipc::FrameType type;
  std::string body;
  for (;;) {
    const ipc::ReadOutcome got = w.reader.next(type, body);
    if (got == ipc::ReadOutcome::kMore) return;
    if (got != ipc::ReadOutcome::kFrame) {
      // Corrupt stream (bad length / unknown frame type): the connection
      // is poisoned — kill and respawn; the EOF path will clean up and
      // re-dispatch whatever was in flight.
      ++stats_.protocol_errors;
      kill_worker(w);
      return;
    }
    w.last_frame = Clock::now();
    switch (type) {
      case ipc::FrameType::kReady:
        if (w.state == Worker::State::kSpawning) {
          w.state = Worker::State::kIdle;
          w.backoff_s = 0.0;  // healthy respawn: backoff resets
        }
        break;
      case ipc::FrameType::kHeartbeat:
        break;
      case ipc::FrameType::kResult: {
        if (w.state != Worker::State::kBusy || run == nullptr) break;
        ipc::ResultMsg msg;
        try {
          msg = ipc::decode_result(body);
        } catch (const std::exception&) {
          ++stats_.protocol_errors;
          kill_worker(w);
          return;
        }
        const std::size_t t = w.task;
        const std::uint64_t att_start = w.span_start_ns;
        const std::uint32_t att_ordinal = w.span_attempt;
        w.span_start_ns = 0;
        w.state = Worker::State::kIdle;
        w.task = kNoTask;
        if (t == kNoTask || msg.task_id != (*run->tasks)[t].id) break;
        TaskOutcome& out = (*run->outcomes)[t];
        if (out.served || out.poisoned) break;
        out.served = true;
        out.result = std::move(msg);
        ++run->settled;
        // Merge the worker's shipped spans into this process's trace under
        // the task's trace id, then close the supervisor-side attempt span
        // (observability only).
        const TaskSpec& spec = (*run->tasks)[t];
        if (spec.trace_id != 0 && obs::enabled())
          for (obs::TraceEvent& e : out.result.spans) {
            e.trace_id = spec.trace_id;
            obs::record_span(e);
          }
        record_attempt_span(spec, att_start, att_ordinal, w.pid,
                            "fleet.attempt");
        break;
      }
      case ipc::FrameType::kError: {
        // Structured failure: the worker survives, the attempt is spent.
        if (w.state != Worker::State::kBusy || run == nullptr) break;
        const std::size_t t = w.task;
        w.state = Worker::State::kIdle;
        w.task = kNoTask;
        if (t != kNoTask) requeue_or_poison(t, *run);
        break;
      }
      default:
        break;
    }
  }
}

bool ProcessFleet::requeue_or_poison(std::size_t task_index, RunState& run) {
  TaskOutcome& out = (*run.outcomes)[task_index];
  if (out.served || out.poisoned) return false;
  if (out.attempts >= kMaxTaskAttempts) {
    out.poisoned = true;
    ++run.settled;
    ++stats_.poisoned_tasks;
    obs::metrics().counter("fleet.poisoned_tasks").add();
    return false;
  }
  run.pending.push_front(task_index);
  return true;
}

void ProcessFleet::dispatch(Worker& w, std::size_t task_index, RunState* run) {
  const TaskSpec& spec = (*run->tasks)[task_index];
  TaskOutcome& out = (*run->outcomes)[task_index];
  const Budget& budget = *run->budget;
  ipc::TaskMsg msg;
  msg.task_id = spec.id;
  msg.attempt = out.attempts;
  msg.rng_state = spec.rng_state;
  msg.max_batch = spec.max_batch;
  msg.deadline_s =
      budget.deadline.armed() ? budget.deadline.remaining_seconds() : 0.0;
  msg.bsat_timeout_s = budget.bsat_timeout_s;
  msg.max_bsat_calls = budget.max_bsat_calls;
  msg.trace_id = spec.trace_id;
  msg.parent_span = spec.parent_span;
  w.span_start_ns = 0;
  const ipc::WriteOutcome wr = ipc::write_frame_bounded(
      w.fd, ipc::FrameType::kTask, ipc::encode_task(msg), kSendTimeoutS);
  if (wr != ipc::WriteOutcome::kOk) {
    // Worker died between poll rounds — or stopped draining its socket
    // long enough to trip the send deadline, which gets the same
    // treatment as a heartbeat-silent hang: kill, reap, re-dispatch.
    // Either way the attempt was never delivered.
    if (wr == ipc::WriteOutcome::kStalled) {
      ++stats_.send_stalls;
      kill_worker(w);
    }
    run->pending.push_front(task_index);
    handle_death(w, run);
    return;
  }
  ++out.attempts;
  // Open the supervisor-side attempt span only once the frame is actually
  // on the wire — a failed send above is not an attempt.
  if (spec.trace_id != 0 && obs::enabled()) {
    w.span_start_ns = obs::now_ns();
    w.span_attempt = out.attempts;
  }
  if (out.attempts > 1) {
    ++stats_.redispatches;
    obs::metrics().counter("fleet.redispatches").add();
  }
  if (run->death_pending[task_index]) {
    const double rec = seconds_since(run->death_time[task_index]);
    run->death_pending[task_index] = 0;
    stats_.total_recovery_seconds += rec;
    stats_.max_recovery_seconds = std::max(stats_.max_recovery_seconds, rec);
    obs::metrics()
        .histogram("fleet.crash_recovery_seconds")
        .record_ns(static_cast<std::uint64_t>(rec * 1e9));
  }
  w.state = Worker::State::kBusy;
  w.task = task_index;
}

bool ProcessFleet::poll_once(int timeout_ms, RunState* run) {
  const Clock::time_point now = Clock::now();
  // Respawn slots whose backoff elapsed (or abandon exhausted ones).
  for (Worker& w : workers_) {
    if (w.state != Worker::State::kDown || now < w.next_spawn) continue;
    if (w.respawns >= kMaxRespawnsPerWorker) {
      w.state = Worker::State::kAbandoned;
      continue;
    }
    ++w.respawns;
    if (spawn(w)) {
      ++stats_.respawns;
      obs::metrics().counter("fleet.respawns").add();
    }
  }
  // Dispatch pending work to idle workers.  A task the grant refuses is
  // settled unserved; what the grant bought is the caller's fold's call.
  if (run != nullptr) {
    for (Worker& w : workers_) {
      if (w.state != Worker::State::kIdle) continue;
      while (!run->pending.empty() && !run->admits(run->pending.front())) {
        run->pending.pop_front();
        ++run->settled;
      }
      if (run->pending.empty()) break;
      const std::size_t t = run->pending.front();
      run->pending.pop_front();
      dispatch(w, t, run);
    }
    // The last tasks were refused: run() returns without a poll round.
    if (run->settled == run->tasks->size()) return true;
  }

  std::vector<pollfd> fds;
  std::vector<std::size_t> index;
  bool any_live = false;
  bool any_down = false;
  for (std::size_t i = 0; i < workers_.size(); ++i) {
    const Worker& w = workers_[i];
    if (w.alive()) {
      any_live = true;
      fds.push_back(pollfd{w.fd, POLLIN, 0});
      index.push_back(i);
    } else if (w.state == Worker::State::kDown) {
      any_down = true;
    }
  }
  if (!any_live && !any_down) return false;  // total, permanent worker loss
  if (!fds.empty()) {
    const int rc = ::poll(fds.data(), static_cast<nfds_t>(fds.size()),
                          timeout_ms);
    if (rc > 0) {
      for (std::size_t j = 0; j < fds.size(); ++j) {
        if (fds[j].revents == 0) continue;
        Worker& w = workers_[index[j]];
        if (!w.alive()) continue;  // died earlier this round
        char buf[1 << 16];
        const ssize_t n = ::read(w.fd, buf, sizeof(buf));
        if (n > 0) {
          w.reader.feed(buf, static_cast<std::size_t>(n));
          process_frames(w, run);
        } else if (n == 0 || errno != EINTR) {
          handle_death(w, run);
        }
      }
    }
  } else {
    // Nothing to poll (all dead, some respawnable): let backoff time pass.
    struct timespec ts = {0, timeout_ms * 1000000L};
    ::nanosleep(&ts, nullptr);
  }

  // Liveness.
  const Clock::time_point after = Clock::now();
  for (Worker& w : workers_) {
    if (w.alive() && options_.heartbeat_timeout_s > 0.0 &&
        std::chrono::duration<double>(after - w.last_frame).count() >
            options_.heartbeat_timeout_s) {
      ++stats_.hang_kills;
      obs::metrics().counter("fleet.hang_kills").add();
      kill_worker(w);
    }
  }
  return true;
}

bool ProcessFleet::start(std::string setup_payload,
                         std::size_t default_workers) {
  if (started_) return true;
  setup_payload_ = std::move(setup_payload);
  // An unframeable Setup (>1 GiB formula) must fail here, cleanly, so the
  // embedding falls back to the in-process pool — not write a frame every
  // worker rejects (or a wrapped length that desynchronizes the stream).
  if (!ipc::frame_body_fits(setup_payload_.size())) return false;
  if (!options_.endpoints.empty()) {
    // Dialed servers: nothing is spawned, so no local binary is needed —
    // but every endpoint must parse or the option set is rejected whole.
    workers_ = std::vector<Worker>(options_.endpoints.size());
    for (std::size_t i = 0; i < workers_.size(); ++i)
      if (!net::parse_endpoint(options_.endpoints[i], workers_[i].endpoint)) {
        workers_.clear();
        return false;
      }
  } else {
    workerd_binary_ = resolve_workerd_binary();
    if (workerd_binary_.empty() ||
        ::access(workerd_binary_.c_str(), X_OK) != 0)
      return false;
    const std::size_t n =
        options_.num_workers != 0 ? options_.num_workers : default_workers;
    workers_ = std::vector<Worker>(std::max<std::size_t>(n, 1));
  }
  bool any = false;
  for (Worker& w : workers_) any = spawn(w) || any;
  if (!any) {
    workers_.clear();
    return false;
  }
  // Wait (bounded) for the first Ready: a fleet whose every worker dies in
  // setup (bad binary, exec failure) must report failure, not hang the
  // first run().
  const Clock::time_point give_up =
      after_seconds(std::max(10.0, options_.heartbeat_timeout_s));
  while (Clock::now() < give_up) {
    for (const Worker& w : workers_)
      if (w.state == Worker::State::kIdle) {
        started_ = true;
        return true;
      }
    if (!poll_once(50, nullptr)) break;
  }
  for (Worker& w : workers_) kill_worker(w);
  for (Worker& w : workers_)
    if (w.alive()) handle_death(w, nullptr);
  workers_.clear();
  return false;
}

std::vector<ProcessFleet::TaskOutcome> ProcessFleet::run(
    const std::vector<TaskSpec>& tasks, const Budget& budget,
    const UnitGrant* grant) {
  std::vector<TaskOutcome> outcomes(tasks.size());
  if (!started_ || tasks.empty()) return outcomes;
  RunState run;
  run.tasks = &tasks;
  run.outcomes = &outcomes;
  run.budget = &budget;
  run.grant = grant;
  run.death_time.resize(tasks.size());
  run.death_pending.assign(tasks.size(), 0);
  for (std::size_t i = 0; i < tasks.size(); ++i) run.pending.push_back(i);

  while (run.settled < tasks.size()) {
    if (budget.cancelled() || budget.wall_expired()) break;
    if (!poll_once(25, &run)) break;
  }

  // A cut (cancel/deadline) can leave workers mid-solve; SIGKILL is
  // the only out-of-process interrupt.  Observe the deaths now so the
  // fleet object is clean — and immediately reusable — for the next call.
  // A kill the call's deadline caused, not its token, is a deadline kill.
  const bool deadline_cut = !budget.cancelled() && budget.wall_expired();
  bool any_busy = false;
  for (Worker& w : workers_)
    if (w.state == Worker::State::kBusy) {
      kill_worker(w);
      any_busy = true;
      if (deadline_cut) ++stats_.deadline_kills;
    }
  if (any_busy) {
    const Clock::time_point reap_by = after_seconds(10.0);
    for (;;) {
      bool busy = false;
      for (const Worker& w : workers_)
        busy = busy || w.state == Worker::State::kBusy;
      if (!busy || Clock::now() >= reap_by) break;
      poll_once(25, nullptr);
    }
  }
  return outcomes;
}

std::string ProcessFleet::make_count_setup(
    const Cnf& formula, const std::vector<Var>& sampling_set,
    std::uint64_t pivot) {
  ipc::SetupMsg m;
  m.kind = ipc::TaskKind::kCount;
  m.formula_dimacs = to_dimacs_canonical_string(formula);
  m.sampling_set = sampling_set;
  m.pivot = pivot;
  return ipc::encode_setup(m);
}

std::string ProcessFleet::make_sample_setup(
    const Cnf& original, const std::vector<Var>& sampling_set,
    const UniGenPrepared& prep, const UniGenOptions& options) {
  ipc::SetupMsg m;
  m.kind = ipc::TaskKind::kSample;
  m.formula_dimacs = to_dimacs_canonical_string(original);
  m.sampling_set = sampling_set;
  m.simplify = options.simplify;
  m.q = prep.q;
  m.epsilon = options.epsilon;
  return ipc::encode_setup(m);
}

}  // namespace unigen
