#pragma once
// Low-overhead tracing: RAII Span scopes recorded into lock-free per-thread
// ring buffers, exported as JSONL.
//
// Design constraints (the byte-identity contracts of the services dictate
// them):
//
//   * Strictly outside the RNG / keyed-stream paths.  Nothing here draws
//     from or advances an `Rng`; trace ids come from their own splitmix
//     finalizer over (seed, stream) request coordinates, and span ids from
//     a process-salted counter.  Samples and counts are byte-identical with
//     tracing on or off — the determinism suites assert exactly that.
//   * Off by default, and near-free when off: constructing a disabled Span
//     is one relaxed atomic load and a branch.
//   * Lock-free recording: each thread owns a fixed-capacity ring of
//     seqlock-published slots (every field a relaxed atomic, so the
//     concurrent snapshot is ThreadSanitizer-clean).  The ring overwrites
//     oldest-first; drops are counted, never blocked on.
//
// Span hierarchy (see README "Observability"):
//
//   server.request / pool.request          one service call = one trace id
//     pool.prepare                         one-time phase (simplify + count)
//       count.request                      an ApproxMC run
//         count.iteration                  one median iteration
//           hash.probe                     one hash-level search step
//             bsat.call                    one enumerate_cell
//     sample.request                       one sample / one batch
//       hash.probe → bsat.call             Algorithm-2 probe ladder
//     fleet.attempt[.crashed]              supervisor-side dispatch attempt
//       worker.task                        shipped back in the Result frame
//
// Cross-process attribution: trace ids ride the Task IPC frame, workers
// record into their own rings and ship the events back inside Result
// (`ipc::ResultMsg::spans`, TraceEvents without their trace id), and the
// supervisor stamps the task's trace id and re-emits them — one timeline,
// CLOCK_MONOTONIC being host-wide — with worker pid and dispatch attempt
// tags.

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace unigen::obs {

namespace detail {
extern std::atomic<bool> g_enabled;
}

/// Runtime switch, default off.  Checked (one relaxed load) at every
/// recording site; flipping it mid-run only affects spans opened after the
/// flip.
inline bool enabled() {
  return detail::g_enabled.load(std::memory_order_relaxed);
}
void set_enabled(bool on);

/// CLOCK_MONOTONIC nanoseconds — one timeline for every process on the
/// host, which is what lets worker spans interleave with supervisor spans.
std::uint64_t now_ns();

/// splitmix64 finalizer; the id derivations below go through it.
std::uint64_t mix64(std::uint64_t x);

/// The 64-bit trace id of a request, a pure function of the request's
/// keyed-stream coordinates — NOT of any Rng draw.  Never zero (zero means
/// "no trace" on the wire).
std::uint64_t trace_id_for_request(std::uint64_t seed, std::uint64_t stream);

/// A trace id for root work with no stream coordinates (standalone counts,
/// CLI runs): process-salted counter, never zero.
std::uint64_t fresh_trace_id();

/// A span id nobody else holds: process-salted (so supervisor and worker
/// ids cannot collide in a merged trace), never zero.  Span/ContextScope
/// allocate their own; this is for manual emission (record_span).
std::uint64_t fresh_span_id();

/// Stable storage for a dynamic span name (worker names arriving over IPC).
/// Static string literals can be recorded directly without interning.
const char* intern_name(const char* name);

/// Where in some trace the current thread is.  trace_id == 0 ⇔ none.
struct TraceContext {
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;
  bool valid() const { return trace_id != 0; }
};

/// The installing thread's current context (innermost live Span, or
/// whatever ContextScope planted).  Invalid when tracing is off.
TraceContext current_context();

/// One finished span, as drained from the rings.  `name` is a static or
/// interned string.  `worker` tags the recording process/worker (0 =
/// untagged), `attempt` the fleet dispatch ordinal (1-based; 0 =
/// untagged).
struct TraceEvent {
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;
  std::uint64_t parent_id = 0;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint64_t value = 0;
  const char* name = "";
  std::uint32_t worker = 0;
  std::uint32_t attempt = 0;
};

/// Installs a foreign context (an IPC'd one, or the dispatcher's at
/// fan-out) as this thread's current; restores on destruction.  No event
/// is recorded — it only re-parents the Spans opened inside.
class ContextScope {
 public:
  explicit ContextScope(TraceContext ctx);
  ContextScope(const ContextScope&) = delete;
  ContextScope& operator=(const ContextScope&) = delete;
  ~ContextScope();

 private:
  TraceContext saved_;
  bool armed_ = false;
};

/// RAII span scope.  When tracing is disabled, construction is one relaxed
/// load and destruction one branch.  While alive it is the thread's
/// current context, so nested Spans parent to it automatically.
class Span {
 public:
  /// Child of the thread's current context; a root of a fresh trace when
  /// there is none and `fallback_trace` is 0, else a root of
  /// `fallback_trace`.  `name` must be a string literal (or interned).
  explicit Span(const char* name, std::uint64_t fallback_trace = 0) {
    if (!enabled()) return;
    init(name, fallback_trace);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  ~Span() {
    if (armed_) finish();
  }

  /// One free attribute slot (hash level m, request stream, task id…).
  void set_value(std::uint64_t v) {
    if (armed_) value_ = v;
  }
  void set_worker(std::uint32_t w) {
    if (armed_) worker_ = w;
  }
  void set_attempt(std::uint32_t a) {
    if (armed_) attempt_ = a;
  }
  /// For manual propagation (IPC frames).  Invalid when tracing is off.
  TraceContext context() const {
    return armed_ ? TraceContext{trace_, id_} : TraceContext{};
  }

 private:
  void init(const char* name, std::uint64_t fallback_trace);
  void finish();

  bool armed_ = false;
  const char* name_ = "";
  std::uint64_t trace_ = 0;
  std::uint64_t id_ = 0;
  std::uint64_t parent_ = 0;
  std::uint64_t start_ = 0;
  std::uint64_t value_ = 0;
  std::uint32_t worker_ = 0;
  std::uint32_t attempt_ = 0;
  TraceContext saved_;
};

/// Low-level emission of an already-timed span (supervisor attempt spans,
/// worker spans re-emitted from a Result frame).  `e.name` must be static
/// or interned.  No-op when tracing is off.
void record_span(const TraceEvent& e);

/// Ring capacity (events per thread) used for rings created after the
/// call; existing rings keep theirs.  Clamped to [64, 1<<22].
void set_ring_capacity(std::size_t events);

/// Snapshot of every thread's unread events (oldest first per thread, no
/// global order — sort by start_ns for a timeline).  Safe concurrently
/// with recording; slots mid-write or already overwritten are skipped and
/// counted as dropped.
std::vector<TraceEvent> snapshot_events();

/// Marks everything currently recorded as read; the next snapshot starts
/// empty.
void clear_all();

/// Events lost so far to ring overwrites (cumulative, reset by reset_drop
/// counters only via clear_all's watermark advancing past them).
std::uint64_t dropped_events();

/// JSONL export: one header line ({"schema":"unigen.trace.v1",…}) then one
/// line per event.  Does not clear.
std::string trace_jsonl();
bool write_trace_jsonl(const std::string& path);

}  // namespace unigen::obs
