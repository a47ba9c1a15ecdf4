#pragma once
// Length-prefixed binary protocol between ProcessFleet (supervisor) and
// unigen_workerd (child worker), shared by both sides so the codecs cannot
// drift.
//
// Wire format: every frame is a little-endian u32 payload length followed
// by the payload; the payload's first byte is the FrameType.  The
// conversation is strictly:
//
//   parent → child   Setup      (once: formula + scalars, see SetupMsg)
//   child  → parent  Ready      (setup parsed, worker serving)
//   parent → child   Task       (repeated; at most one in flight per worker)
//   child  → parent  Result     (one per Task)
//   child  → parent  Heartbeat  (unsolicited, every
//                                UNIGEN_WORKERD_HEARTBEAT_S seconds, from a
//                                dedicated thread — so a busy solve is
//                                distinguishable from a hung process)
//   child  → parent  Error      (structured failure: the worker caught an
//                                exception; the task is retried/poisoned,
//                                the worker keeps serving)
//
// Both ends parse the stream with one FrameReader per connection: the
// supervisor feeds it from nonblocking reads, the worker through the
// blocking read_frame.
//
// Everything a task needs to be a *pure function of its id* travels in the
// frames: the formula ships as canonical DIMACS (cnf/dimacs_write.hpp, one
// byte-exact serialization per structure), the task's RNG as raw xoshiro
// state (Rng::state()), the sampling set as an explicit vector (its order
// is the hash-drawing order).  That is what makes a crashed task's retry
// byte-identical, and the whole fleet's output byte-identical to the
// in-process WorkerPool.

#include <array>
#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "cnf/cnf.hpp"
#include "cnf/types.hpp"
#include "core/sampler.hpp"
#include "counting/approxmc_core.hpp"
#include "obs/trace.hpp"
#include "simplify/simplify.hpp"

namespace unigen::ipc {

enum class FrameType : std::uint8_t {
  kSetup = 1,
  kReady = 2,
  kTask = 3,
  kResult = 4,
  kHeartbeat = 5,
  kError = 6,
};

/// Every frame-type byte that may legally appear on the wire.  Both decode
/// paths check this BEFORE casting to FrameType — an unknown byte is a
/// protocol error (supervisor: poisoned connection, kill + respawn;
/// worker: structured Error reply), never a blind cast handed to a switch.
constexpr bool valid_frame_type(std::uint8_t b) {
  return b >= static_cast<std::uint8_t>(FrameType::kSetup) &&
         b <= static_cast<std::uint8_t>(FrameType::kError);
}

/// What kind of work the fleet serves; fixed per fleet at Setup time.  The
/// values are the indices of ResultMsg::Outcome.
enum class TaskKind : std::uint8_t {
  /// One ApproxMC median iteration (approxmc_core_iteration).
  kCount = 0,
  /// One UniGen sampling request (unigen_request); max_batch distinguishes
  /// single/batch.
  kSample = 1,
};

/// Bounds-checked little-endian serializer/deserializer.  The reader
/// throws std::runtime_error on underflow, and finish() on bytes left over
/// — a truncated, padded or corrupt frame becomes a structured worker
/// error, never an out-of-bounds read or a half-read message.
class WireWriter {
 public:
  void u8(std::uint8_t v) { buf_.push_back(static_cast<char>(v)); }
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void i32(std::int32_t v) { u32(static_cast<std::uint32_t>(v)); }
  void f64(double v);
  void str(const std::string& s);
  const std::string& data() const { return buf_; }
  std::string take() { return std::move(buf_); }

 private:
  std::string buf_;
};

class WireReader {
 public:
  WireReader(const char* data, std::size_t size) : data_(data), size_(size) {}
  explicit WireReader(const std::string& s) : WireReader(s.data(), s.size()) {}

  std::uint8_t u8();
  std::uint32_t u32();
  std::uint64_t u64();
  std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
  double f64();
  std::string str();
  /// An element count (u32) for elements of at least `min_bytes` (>= 1)
  /// each, checked against the bytes left before the caller sizes anything
  /// by it: a frame cannot claim more elements than it carries.
  std::uint32_t count(std::size_t min_bytes);
  /// Throws unless every byte was read: a payload longer than its message
  /// (say, a Setup from a build with a different layout) is refused, not
  /// half-read.
  void finish() const;

 private:
  void need(std::size_t n);
  const char* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

/// Everything a worker needs before the first task.  One message covers
/// both task kinds (unused fields ride along zero-valued; the frames are
/// tiny next to the formula text).
struct SetupMsg {
  TaskKind kind = TaskKind::kCount;
  /// Canonical DIMACS of the formula the worker's engine should load; its
  /// `p cnf N` header declares every variable, those in no clause
  /// included.  kCount ships the already-simplified formula (counting
  /// needs no witness reconstruction); kSample ships the ORIGINAL formula
  /// and the simplify options below — the worker re-runs the deterministic
  /// pipeline, reproducing both the shrunk formula and the reconstruction
  /// stack that maps cell models back onto the original.
  std::string formula_dimacs;
  /// Projection / sampling set, in hash-drawing order.
  std::vector<Var> sampling_set;
  // kSample: the preprocessing pipeline to re-run (enabled=false → none).
  SimplifyOptions simplify;
  // kCount scalar; the hash levels run over 1..|S|.
  std::uint64_t pivot = 0;  ///< cell-size bound
  // kSample scalars — what a worker cannot derive of the hashed-mode
  // UniGenPrepared the parent computed (κ, pivot and the thresholds follow
  // from ε).
  std::int32_t q = 0;
  double epsilon = 0.0;  ///< UniGen's ε; a kSample Setup needs ε > 1.71
  // No wall clock: the call's Budget scalars travel on each TaskMsg.
  // Pointers (cancel token, in-process fault injector) cannot cross the
  // boundary — cancellation is supervisor-side (kill), faults are
  // process-level (UNIGEN_WORKERD_FAULTS).
};

/// One task; its body has a fixed 92 bytes, every field in declaration
/// order.
struct TaskMsg {
  /// Canonical work-unit id: iteration index (kCount) or request stream
  /// (kSample).  Also the fault-plan key.
  std::uint64_t task_id = 0;
  /// 0-based attempt ordinal; fault plans are keyed (task_id, attempt), so
  /// the retry of a killed attempt runs clean — and byte-identical, since
  /// everything else in this frame is unchanged.
  std::uint32_t attempt = 0;
  /// The task's private generator, exactly fork_stream(task_id) of the
  /// parent's base — shipped as raw state so parent and worker agree on
  /// every draw.
  std::array<std::uint64_t, 4> rng_state{};
  /// kSample: 0 = single witness, else batch cell cap.  (kCount tasks
  /// always start their hash-count search cold on a worker process.)
  std::uint64_t max_batch = 0;
  /// Remaining call-level wall budget at dispatch; <= 0 = unarmed.
  double deadline_s = 0.0;
  // Per-call Budget scalars, the per-call timeout and the BSAT-call grant
  // (the embeddings let every service call carry its own Budget, so these
  // ride on the task, not the Setup).
  double bsat_timeout_s = 0.0;
  std::uint64_t max_bsat_calls = 0;
  /// Trace propagation (obs/trace.hpp): which request trace the worker's
  /// spans should land in, and under which parent span.  0 = tracing off —
  /// the worker records nothing and ships no spans back.  Observability
  /// only: never reaches the computation or the RNG.
  std::uint64_t trace_id = 0;
  std::uint64_t parent_span = 0;
};

struct ResultMsg {
  /// The task function's return value, exactly as an in-process worker
  /// gets it: a count iteration's outcome, or a sampling request's
  /// witness(es), already post-processed worker-side (single: the
  /// rng.below pick; batch: the rng.shuffle + truncate).  The index is the
  /// TaskKind.
  using Outcome = std::variant<ApproxMcCoreOutcome, BatchResult>;

  std::uint64_t task_id = 0;
  Outcome outcome;
  /// Worker-side trace fragment for this attempt (empty when the task's
  /// trace_id was 0), each span tagged with the worker's pid and the
  /// 1-based attempt.  The wire carries every field but the trace id — all
  /// spans of a Result belong to the task's trace, which the supervisor
  /// stamps on merge — and decode interns the names.  Span/parent ids are
  /// process-salted (obs::fresh_span_id), so supervisor and worker ids
  /// cannot collide.  Decode caps the count (kMaxSpans) so a corrupt frame
  /// cannot trigger a runaway allocation.
  std::vector<obs::TraceEvent> spans;

  static constexpr std::uint32_t kMaxSpans = 1u << 20;
};

/// Deterministic units a task charged against its call's grant: a count
/// iteration's BSAT probes.  Sampling requests spend per-request budgets
/// only, so they charge nothing here.
inline std::uint64_t units_of(const ApproxMcCoreOutcome& o) {
  return o.bsat_calls;
}
inline std::uint64_t units_of(const BatchResult&) { return 0; }
inline std::uint64_t units_of(const ResultMsg::Outcome& o) {
  return std::visit([](const auto& x) { return units_of(x); }, o);
}

std::string encode_setup(const SetupMsg& m);
/// Every decoder throws std::runtime_error on a truncated frame or on
/// trailing bytes.  decode_setup also throws on an unknown task kind, a
/// negative sampling variable, a count Setup with an empty S, or a
/// sample Setup whose prepared mode is not kHashed (the only mode the
/// fleet serves: trivial witness lists do not travel).
SetupMsg decode_setup(const std::string& payload);
/// The formula a worker serves for `m`: the shipped DIMACS, with as many
/// variables as its header declares.  Throws std::runtime_error on a parse
/// error or when the sampling set names a variable outside the formula —
/// the engine indexes per-variable arrays by S.
Cnf setup_formula(const SetupMsg& m);
std::string encode_task(const TaskMsg& m);
TaskMsg decode_task(const std::string& payload);
std::string encode_result(const ResultMsg& m);
/// Also throws on an unknown task kind, an out-of-range lbool or an
/// out-of-range sample status: the bytes came from another process, so no
/// enum is cast blindly.
ResultMsg decode_result(const std::string& payload);
std::string encode_error(const std::string& what);
std::string decode_error(const std::string& payload);

/// Why a frame send failed — callers classify, not just reap:
///   kOversize  the body cannot be framed (no bytes were written; the
///              stream is intact and the send fails cleanly — this is the
///              graceful-degradation path for a >1 GiB Setup, never a
///              wrapped u32 length desynchronizing the peer);
///   kStalled   the peer stopped draining and the deadline expired
///              mid-frame (the stream is now mid-frame garbage — the
///              caller must kill the connection, exactly like a
///              heartbeat-silent hang);
///   kError     the transport failed (EPIPE/ECONNRESET/…).
enum class WriteOutcome : std::uint8_t { kOk, kOversize, kStalled, kError };

/// Hard ceiling on one frame's payload length (type byte + body), shared
/// by every encode and decode path.  A corrupt or hostile length prefix
/// must not trigger a gigabyte allocation; a larger-than-this Setup must
/// fail on the WRITE side, cleanly, before any byte hits the wire.
inline constexpr std::uint32_t kMaxFrame = 1u << 30;

/// True iff a body of this size fits one frame: the u32 length prefix
/// carries body + 1 type byte and must stay within kMaxFrame.  Write paths
/// check this BEFORE building the prefix, so an oversized (or, past 4 GiB,
/// u32-wrapping) payload can never reach the wire.
constexpr bool frame_body_fits(std::size_t body_size) {
  return body_size < static_cast<std::size_t>(kMaxFrame);
}

/// Writes one frame (length prefix + type byte + body) to `fd`, refusing
/// oversized bodies up front.  Uses send(MSG_NOSIGNAL) so a dead peer
/// yields EPIPE, not SIGPIPE (the SO_NOSIGPIPE-equivalent on Linux).
/// `send_deadline_s > 0` bounds the whole flush: progress is made with
/// poll(POLLOUT) + MSG_DONTWAIT, so a peer with a full receive window
/// costs at most the deadline — never a wedged single-threaded supervisor.
/// <= 0 blocks until flushed (the worker side, whose only peer is the
/// supervisor).
WriteOutcome write_frame_bounded(int fd, FrameType type,
                                 const std::string& body,
                                 double send_deadline_s);

/// What one frame read produced:
///   kFrame      a valid frame (type/body filled in);
///   kMore       no complete frame yet: feed more bytes (FrameReader::next
///               only);
///   kEof        orderly close or transport error — the conversation is
///               over (read_frame only);
///   kBadType    the length prefix was sound but the type byte is unknown:
///               the frame was consumed whole and the stream is still in
///               sync (the worker answers with a structured Error and
///               keeps serving);
///   kBadLength  zero-length or over-kMaxFrame prefix: framing is lost and
///               the stream cannot be re-synchronized (the worker replies
///               Error best-effort and hangs up).
/// The supervisor treats either bad outcome as a poisoned connection: it
/// kills the worker and respawns it.
enum class ReadOutcome : std::uint8_t {
  kFrame,
  kMore,
  kEof,
  kBadType,
  kBadLength,
};

/// Incremental frame decoder, one per connection end on both sides: feed
/// whatever bytes arrived, pop complete frames as they materialize.
class FrameReader {
 public:
  void feed(const char* data, std::size_t size) {
    buf_.append(data, size);
  }
  /// Pops the next frame into (type, body).  The length prefix is checked
  /// before anything is sized by it, so a corrupt length cannot trigger a
  /// gigabyte allocation; after kBadLength the reader stays stuck there.
  ReadOutcome next(FrameType& type, std::string& body);

 private:
  std::string buf_;
  std::size_t pos_ = 0;  ///< consumed prefix of buf_
};

/// Blocking read of the next frame from `fd` through `reader`, the worker
/// side's (fd is its only conversation).  One reader per socket: a read may
/// pull in bytes of the frames after this one.  kEof on close or a
/// transport error (parent gone → worker exits); never kMore.
ReadOutcome read_frame(int fd, FrameReader& reader, FrameType& type,
                       std::string& body);

}  // namespace unigen::ipc
