// unigen_workerd — the crash-isolated worker process behind ProcessFleet.
//
// Protocol (service/ipc.hpp): the supervisor hands this process one end of
// a byte stream, sends one Setup frame, then Task frames one at a time;
// the worker answers each with a Result (or a structured Error) and emits
// unsolicited Heartbeat frames from a dedicated thread so the supervisor
// can tell a long solve from a hung process.  Where the stream comes
// from is the one command-line argument; anything else is a usage error
// (exit 3):
//
//   --fd N                 inherited socketpair end — how ProcessFleet
//                          spawns its local children;
//   --listen host:port     serve mode for FleetOptions::endpoints: accept
//                          one supervisor connection at a time, serve the
//                          whole Setup→Task* conversation, then reset and
//                          re-accept (port 0 binds ephemerally; the bound
//                          endpoint is printed to stdout for discovery).
//
// Determinism: a task is a pure function of its frame — the formula came
// in canonical DIMACS, the task's rng as raw state, and the task function
// is the one the in-process pool calls — so the supervisor may re-dispatch
// a task to any worker, on any host, any number of times, and fold
// byte-identical results.
//
// Protocol errors: frames arrive through the connection's one
// ipc::FrameReader (ipc::read_frame).  An unknown frame-type byte is
// answered with a structured Error (the length prefix was sound, so the
// stream is still in sync and serving continues); a corrupt length prefix
// loses framing — the worker complains best-effort and hangs up.  Neither
// is ever a blind enum cast.  A witness covers every variable the
// formula's DIMACS header declares, those in no clause included.
//
// Environment: UNIGEN_WORKERD_HEARTBEAT_S sets the heartbeat period
// (default 0.25 s).  Fault injection (tests only): UNIGEN_WORKERD_FAULTS
// holds a ;-separated plan of `kill@task:attempt` / `sleep@task:attempt`
// directives (ProcessFaultPlan).  `kill` raises SIGKILL on receipt of the
// matching task — the crash-mid-task case, which ends a `--listen` server
// too; `sleep` grabs the heartbeat mutex and sleeps forever — the hang
// case, detectable only through heartbeat silence.  Keyed on (task,
// attempt) so a retry runs clean.  The environment is the only source of
// both: a spawned child inherits its supervisor's, and a `--listen` server
// reads the one it was started with.

#include <algorithm>
#include <chrono>
#include <climits>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <csignal>
#include <unistd.h>

#include "core/unigen.hpp"
#include "counting/approxmc.hpp"
#include "counting/approxmc_core.hpp"
#include "obs/trace.hpp"
#include "sat/incremental_bsat.hpp"
#include "service/ipc.hpp"
#include "service/net_transport.hpp"
#include "simplify/simplify.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace unigen {
namespace {

struct FaultDirective {
  bool kill = false;  // else sleep
  std::uint64_t task = 0;
  std::uint32_t attempt = 0;
};

std::vector<FaultDirective> parse_faults(const char* env) {
  std::vector<FaultDirective> plan;
  if (env == nullptr) return plan;
  const std::string s(env);
  std::size_t pos = 0;
  while (pos < s.size()) {
    std::size_t end = s.find(';', pos);
    if (end == std::string::npos) end = s.size();
    const std::string item = s.substr(pos, end - pos);
    pos = end + 1;
    const std::size_t at = item.find('@');
    const std::size_t colon = item.find(':', at);
    if (at == std::string::npos || colon == std::string::npos) continue;
    FaultDirective d;
    const std::string what = item.substr(0, at);
    if (what == "kill")
      d.kill = true;
    else if (what == "sleep")
      d.kill = false;
    else
      continue;
    d.task = std::strtoull(item.c_str() + at + 1, nullptr, 10);
    d.attempt = static_cast<std::uint32_t>(
        std::strtoul(item.c_str() + colon + 1, nullptr, 10));
    plan.push_back(d);
  }
  return plan;
}

/// Worker state shared with the heartbeat thread: the write mutex orders
/// Result and Heartbeat frames on the one socket, and doubles as the hang
/// lever — the sleep fault holds it forever, so heartbeats stop.  The
/// stop flag lets a finished session join its heartbeat thread promptly,
/// which serve mode (--listen) needs before it can re-accept: a detached
/// thread writing into a recycled fd number would corrupt the next
/// session's stream.
struct Writer {
  int fd = -1;
  std::mutex mu;
  std::condition_variable cv;
  bool stop = false;

  bool send(ipc::FrameType type, const std::string& body) {
    std::lock_guard<std::mutex> lock(mu);
    return ipc::write_frame_bounded(fd, type, body, 0) ==
           ipc::WriteOutcome::kOk;
  }
  void request_stop() {
    {
      std::lock_guard<std::mutex> lock(mu);
      stop = true;
    }
    cv.notify_all();
  }
};

void heartbeat_main(Writer* writer, double interval_s) {
  const auto period = std::chrono::duration<double>(interval_s);
  std::unique_lock<std::mutex> lock(writer->mu);
  for (;;) {
    // wait_for releases mu while sleeping, so Result sends never wait a
    // heartbeat period — only the actual write below is serialized.
    if (writer->cv.wait_for(lock, period, [writer] { return writer->stop; }))
      return;
    // mu held: write directly (send() would deadlock re-locking).
    if (ipc::write_frame_bounded(writer->fd, ipc::FrameType::kHeartbeat,
                                 std::string(), 0) != ipc::WriteOutcome::kOk)
      return;  // parent gone
  }
}

[[noreturn]] void apply_fault(const FaultDirective& d, Writer& writer) {
  if (d.kill) {
    ::raise(SIGKILL);
  }
  // Hang: hold the write mutex so the heartbeat thread starves too, then
  // sleep forever.  The supervisor's heartbeat timeout is the only thing
  // that can end this process.
  writer.mu.lock();
  for (;;) std::this_thread::sleep_for(std::chrono::hours(24));
  // unreachable
  std::abort();
}

int worker_main(int fd) {
  ::signal(SIGPIPE, SIG_IGN);  // dead parent → failed write, not death
  const std::vector<FaultDirective> faults =
      parse_faults(std::getenv("UNIGEN_WORKERD_FAULTS"));

  Writer writer;
  writer.fd = fd;

  // The connection's one frame reader: a read may pull in bytes of the
  // frames after the one it completes.
  ipc::FrameReader reader;
  ipc::FrameType type;
  std::string body;
  switch (ipc::read_frame(fd, reader, type, body)) {
    case ipc::ReadOutcome::kFrame:
      break;
    case ipc::ReadOutcome::kBadType:
      writer.send(ipc::FrameType::kError,
                  ipc::encode_error("ipc: unknown frame type before Setup"));
      return 2;
    case ipc::ReadOutcome::kBadLength:
      writer.send(ipc::FrameType::kError,
                  ipc::encode_error("ipc: bad frame length"));
      return 2;
    default:  // kEof
      return 2;
  }
  if (type != ipc::FrameType::kSetup) return 2;
  ipc::SetupMsg setup;
  try {
    setup = ipc::decode_setup(body);
  } catch (const std::exception& e) {
    writer.send(ipc::FrameType::kError, ipc::encode_error(e.what()));
    return 2;
  }

  // Rebuild the task context.  kSample re-runs the deterministic simplify
  // pipeline on the shipped original formula, reproducing the parent's
  // shrunk formula AND the reconstruction stack — the part of
  // UniGenPrepared that cannot cheaply cross a process boundary.
  Cnf original;
  UniGenPrepared prep;
  UniGenOptions ug_options;
  ApproxMcOptions count_options;
  std::unique_ptr<IncrementalBsat> engine;
  try {
    original = ipc::setup_formula(setup);
    if (setup.kind == ipc::TaskKind::kCount) {
      engine = std::make_unique<IncrementalBsat>(original, setup.sampling_set);
    } else {
      // Only hashed sessions reach a fleet; κ, pivot and the thresholds
      // follow from ε.
      prep.mode = UniGenPrepared::Mode::kHashed;
      prep.kp = compute_kappa_pivot(setup.epsilon);
      prep.q = setup.q;
      if (setup.simplify.enabled)
        prep.simplifier = std::make_shared<const Simplifier>(
            original, setup.simplify, setup.sampling_set);
      ug_options.epsilon = setup.epsilon;
      ug_options.simplify = setup.simplify;
      engine = std::make_unique<IncrementalBsat>(prep.formula(original),
                                                 setup.sampling_set);
    }
  } catch (const std::exception& e) {
    writer.send(ipc::FrameType::kError, ipc::encode_error(e.what()));
    return 2;
  }

  if (!writer.send(ipc::FrameType::kReady, std::string())) return 0;
  const char* hb_env = std::getenv("UNIGEN_WORKERD_HEARTBEAT_S");
  const double hb_interval =
      hb_env != nullptr ? std::max(0.01, std::atof(hb_env)) : 0.25;
  std::thread heartbeat(heartbeat_main, &writer, hb_interval);

  UniGenStats scratch_stats;
  bool serving = true;
  while (serving) {
    switch (ipc::read_frame(fd, reader, type, body)) {
      case ipc::ReadOutcome::kFrame:
        break;
      case ipc::ReadOutcome::kBadType:
        // Length prefix was sound: exactly one frame was consumed, the
        // stream is still in sync — structured complaint, keep serving.
        writer.send(ipc::FrameType::kError,
                    ipc::encode_error("ipc: unknown frame type"));
        continue;
      case ipc::ReadOutcome::kBadLength:
        // Framing lost; nothing downstream can be trusted.  Best-effort
        // complaint, then hang up (the supervisor respawns/re-dials).
        writer.send(ipc::FrameType::kError,
                    ipc::encode_error("ipc: bad frame length"));
        serving = false;
        continue;
      default:  // kEof
        serving = false;  // supervisor closed the channel
        continue;
    }
    if (type != ipc::FrameType::kTask) continue;
    ipc::TaskMsg task;
    try {
      task = ipc::decode_task(body);
    } catch (const std::exception& e) {
      writer.send(ipc::FrameType::kError, ipc::encode_error(e.what()));
      continue;
    }
    for (const FaultDirective& d : faults)
      if (d.task == task.task_id && d.attempt == task.attempt)
        apply_fault(d, writer);

    ipc::ResultMsg result;
    result.task_id = task.task_id;
    // Tracing follows the task frame: a nonzero trace id turns recording on
    // for exactly this attempt, and the ring is drained into the Result so
    // the supervisor can merge the fragment.  Observability only — the
    // computation below never reads any of it.
    const bool tracing = task.trace_id != 0;
    obs::set_enabled(tracing);
    if (tracing) obs::clear_all();
    try {
      obs::ContextScope trace_root(
          obs::TraceContext{task.trace_id, task.parent_span});
      obs::Span task_span("worker.task");
      task_span.set_value(task.task_id);
      task_span.set_worker(static_cast<std::uint32_t>(::getpid()));
      // 1-based to match the supervisor's fleet.attempt tag (TaskMsg's
      // ordinal is 0-based because the fault plan keys on it).
      task_span.set_attempt(task.attempt + 1);
      Rng rng = Rng::from_state(task.rng_state);
      // Per-call Budget scalars ride on the task frame; pointers (cancel
      // token, in-process fault plan) cannot cross — cancellation is the
      // supervisor's kill, faults are UNIGEN_WORKERD_FAULTS.
      Budget task_budget;
      task_budget.deadline = task.deadline_s > 0.0
                                 ? Deadline::in_seconds(task.deadline_s)
                                 : Deadline::never();
      task_budget.bsat_timeout_s = task.bsat_timeout_s;
      task_budget.max_bsat_calls = task.max_bsat_calls;
      // The same task functions the in-process pool calls (dispatch.hpp);
      // counts always start their hash-count search cold here.
      if (setup.kind == ipc::TaskKind::kCount) {
        count_options.budget = task_budget;
        result.outcome = approxmc_core_iteration(
            *engine, static_cast<std::uint32_t>(setup.sampling_set.size()),
            setup.pivot, count_options, /*start_m=*/0, rng,
            /*fault_key=*/task.task_id);
      } else {
        ug_options.budget = task_budget;
        result.outcome = unigen_request(
            engine.get(), setup.sampling_set, prep, ug_options,
            original.num_vars(),
            static_cast<std::size_t>(task.max_batch), rng, scratch_stats,
            /*fault_key=*/task.task_id);
      }
    } catch (const std::exception& e) {
      writer.send(ipc::FrameType::kError, ipc::encode_error(e.what()));
      continue;
    }
    if (tracing) {
      // task_span closed at the end of the try block above; everything this
      // attempt recorded is now drained into the Result frame, tagged with
      // this process and attempt.
      result.spans = obs::snapshot_events();
      for (obs::TraceEvent& e : result.spans) {
        if (e.worker == 0) e.worker = static_cast<std::uint32_t>(::getpid());
        if (e.attempt == 0) e.attempt = task.attempt + 1;
      }
      obs::clear_all();
    }
    if (!writer.send(ipc::FrameType::kResult, ipc::encode_result(result)))
      serving = false;  // parent gone
  }
  // Session over (EOF / lost framing / dead parent): stop the heartbeat
  // thread before the fd can be closed or its number recycled — serve
  // mode accepts the next supervisor right after this returns.
  writer.request_stop();
  heartbeat.join();
  return 0;
}

/// Multi-host serve mode: accept one supervisor at a time, run the whole
/// conversation, reset, re-accept.  Each connection gets a fresh
/// worker_main — fresh Setup, fresh engine — so consecutive supervisors
/// (or a re-dialling one after it dropped us) cannot see each other's
/// state.  The bound endpoint is printed first (port 0 = ephemeral) so
/// whoever started us can discover where to point the fleet.
int listen_main(const net::Endpoint& at) {
  ::signal(SIGPIPE, SIG_IGN);
  net::TcpListener listener;
  if (!listener.listen(at.host, at.port)) {
    std::fprintf(stderr, "unigen_workerd: cannot listen on %s\n",
                 net::to_string(at).c_str());
    return 3;
  }
  std::printf("unigen_workerd listening %s\n",
              net::to_string(listener.endpoint()).c_str());
  std::fflush(stdout);
  for (;;) {
    const int fd = listener.accept(1.0);
    if (fd < 0) continue;  // timeout tick; SIGTERM/SIGKILL ends serve mode
    worker_main(fd);
    ::close(fd);
  }
}

}  // namespace
}  // namespace unigen

int main(int argc, char** argv) {
  if (argc == 3 && std::strcmp(argv[1], "--fd") == 0) {
    char* end = nullptr;
    const long fd = std::strtol(argv[2], &end, 10);
    if (*argv[2] != '\0' && *end == '\0' && fd >= 0 && fd <= INT_MAX)
      return unigen::worker_main(static_cast<int>(fd));
  }
  unigen::net::Endpoint ep;
  if (argc == 3 && std::strcmp(argv[1], "--listen") == 0 &&
      unigen::net::parse_endpoint(argv[2], ep))
    return unigen::listen_main(ep);
  std::fprintf(stderr,
               "usage: unigen_workerd --fd N | --listen host:port\n");
  return 3;
}
