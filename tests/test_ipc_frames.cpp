// Torture suite for the IPC frame layer (service/ipc.hpp) — the byte-level
// contract every fleet transport rides on.
//
// The incremental FrameReader must pop exactly the frames that were
// written no matter how the transport fragments the stream (TCP segments
// do not respect frame boundaries), must reject corrupt prefixes before
// allocating, and must not grow without bound across a long conversation.
// It classifies corrupt prefixes and unknown type bytes into one outcome
// taxonomy, and the worker's blocking read path (read_frame) serves the
// same reader from a socket.  The write path
// must refuse a body that cannot be framed BEFORE any byte hits the wire
// (a u32 length wrap would silently desynchronize the peer), and its
// bounded mode must give up on a stalled peer within the deadline instead
// of wedging the single-threaded supervisor.  The codecs must refuse a
// count the payload cannot hold before sizing anything by it, any value
// the worker would cast or index by unchecked, and any trailing byte.

#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <functional>
#include <limits>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <sys/socket.h>
#include <unistd.h>

#include "cnf/dimacs_write.hpp"
#include "core/unigen.hpp"
#include "service/ipc.hpp"

namespace unigen {
namespace {

/// Raw wire bytes of one frame: u32 LE length prefix + type byte + body.
std::string raw_frame(std::uint8_t type_byte, const std::string& body) {
  const std::uint32_t len = static_cast<std::uint32_t>(body.size() + 1);
  std::string out;
  out.push_back(static_cast<char>(len & 0xff));
  out.push_back(static_cast<char>((len >> 8) & 0xff));
  out.push_back(static_cast<char>((len >> 16) & 0xff));
  out.push_back(static_cast<char>((len >> 24) & 0xff));
  out.push_back(static_cast<char>(type_byte));
  out += body;
  return out;
}

/// A bare length prefix with no payload behind it (for corrupt-prefix
/// tests: the reader must reject on the prefix alone).
std::string raw_prefix(std::uint32_t len) {
  std::string out;
  out.push_back(static_cast<char>(len & 0xff));
  out.push_back(static_cast<char>((len >> 8) & 0xff));
  out.push_back(static_cast<char>((len >> 16) & 0xff));
  out.push_back(static_cast<char>((len >> 24) & 0xff));
  return out;
}

struct ExpectedFrame {
  ipc::FrameType type;
  std::string body;
};

/// Feeds `wire` into a FrameReader in `chunk`-byte slices and asserts the
/// popped frames match `expected` exactly.
void expect_frames_chunked(const std::string& wire, std::size_t chunk,
                           const std::vector<ExpectedFrame>& expected) {
  ipc::FrameReader reader;
  std::vector<ExpectedFrame> got;
  ipc::FrameType type;
  std::string body;
  for (std::size_t pos = 0; pos < wire.size(); pos += chunk) {
    const std::size_t n = std::min(chunk, wire.size() - pos);
    reader.feed(wire.data() + pos, n);
    while (reader.next(type, body) == ipc::ReadOutcome::kFrame)
      got.push_back({type, body});
  }
  ASSERT_EQ(got.size(), expected.size()) << "chunk=" << chunk;
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].type, expected[i].type) << "frame " << i;
    EXPECT_EQ(got[i].body, expected[i].body) << "frame " << i;
  }
  EXPECT_EQ(reader.next(type, body), ipc::ReadOutcome::kMore)
      << "trailing partial frame";
}

std::vector<ExpectedFrame> mixed_frames() {
  return {
      {ipc::FrameType::kSetup, "setup-payload"},
      {ipc::FrameType::kReady, ""},
      {ipc::FrameType::kTask, std::string(300, 'a')},
      {ipc::FrameType::kHeartbeat, ""},
      {ipc::FrameType::kResult, std::string("\x00\x01\x02\xff", 4)},
      {ipc::FrameType::kError, "boom"},
  };
}

std::string wire_of(const std::vector<ExpectedFrame>& frames) {
  std::string wire;
  for (const ExpectedFrame& f : frames)
    wire += raw_frame(static_cast<std::uint8_t>(f.type), f.body);
  return wire;
}

TEST(FrameReader, OneByteAtATime) {
  const auto frames = mixed_frames();
  expect_frames_chunked(wire_of(frames), 1, frames);
}

TEST(FrameReader, EveryChunkSize) {
  const auto frames = mixed_frames();
  const std::string wire = wire_of(frames);
  // Every chunk size up to "whole stream at once" — covers every split
  // point relative to the length prefix, the type byte, and frame ends.
  for (std::size_t chunk = 1; chunk <= wire.size(); ++chunk)
    expect_frames_chunked(wire, chunk, frames);
}

TEST(FrameReader, SplitAtEveryBoundary) {
  const auto frames = mixed_frames();
  const std::string wire = wire_of(frames);
  // Two-feed splits at every byte position (including mid-prefix).
  for (std::size_t cut = 0; cut <= wire.size(); ++cut) {
    ipc::FrameReader reader;
    reader.feed(wire.data(), cut);
    std::vector<ExpectedFrame> got;
    ipc::FrameType type;
    std::string body;
    while (reader.next(type, body) == ipc::ReadOutcome::kFrame)
      got.push_back({type, body});
    reader.feed(wire.data() + cut, wire.size() - cut);
    while (reader.next(type, body) == ipc::ReadOutcome::kFrame)
      got.push_back({type, body});
    ASSERT_EQ(got.size(), frames.size()) << "cut=" << cut;
    for (std::size_t i = 0; i < got.size(); ++i)
      EXPECT_EQ(got[i].body, frames[i].body) << "cut=" << cut;
  }
}

TEST(FrameReader, ZeroLengthPrefixIsBadLength) {
  ipc::FrameReader reader;
  const std::string wire = raw_prefix(0);
  reader.feed(wire.data(), wire.size());
  ipc::FrameType type;
  std::string body;
  EXPECT_EQ(reader.next(type, body), ipc::ReadOutcome::kBadLength);
}

TEST(FrameReader, OversizedPrefixIsBadLengthBeforeAllocation) {
  // 0xffffffff would be a 4 GiB allocation if the reader trusted the
  // prefix; it must be refused from the 4 prefix bytes alone.
  for (const std::uint32_t len :
       {ipc::kMaxFrame + 1, 0x7fffffffu, 0xffffffffu}) {
    ipc::FrameReader reader;
    const std::string wire = raw_prefix(len);
    reader.feed(wire.data(), wire.size());
    ipc::FrameType type;
    std::string body;
    EXPECT_EQ(reader.next(type, body), ipc::ReadOutcome::kBadLength) << len;
  }
}

TEST(FrameReader, UnknownTypeByteIsConsumedWhole) {
  // The length prefix was sound, so the bad frame goes and the stream
  // stays in sync: the next frame pops intact.
  for (const std::uint8_t bad : {std::uint8_t{0}, std::uint8_t{7},
                                 std::uint8_t{0x42}, std::uint8_t{0xff}}) {
    ipc::FrameReader reader;
    const std::string wire =
        raw_frame(bad, "body") +
        raw_frame(static_cast<std::uint8_t>(ipc::FrameType::kTask), "real");
    reader.feed(wire.data(), wire.size());
    ipc::FrameType type;
    std::string body;
    EXPECT_EQ(reader.next(type, body), ipc::ReadOutcome::kBadType)
        << int(bad);
    EXPECT_EQ(reader.next(type, body), ipc::ReadOutcome::kFrame) << int(bad);
    EXPECT_EQ(type, ipc::FrameType::kTask);
    EXPECT_EQ(body, "real");
  }
}

TEST(FrameReader, ValidTypeRangeMatchesEnum) {
  EXPECT_FALSE(ipc::valid_frame_type(0));
  for (std::uint8_t b = 1; b <= 6; ++b) EXPECT_TRUE(ipc::valid_frame_type(b));
  EXPECT_FALSE(ipc::valid_frame_type(7));
  EXPECT_FALSE(ipc::valid_frame_type(0xff));
}

TEST(FrameReader, CompactsUnderLongStream) {
  // A long-lived supervisor connection sees millions of heartbeat/result
  // frames; the reader must reclaim consumed bytes instead of growing its
  // buffer forever.  10k frames fed in ragged chunks, popped continuously
  // — the observable contract is that every frame comes out intact (the
  // compaction itself is internal, but an unbounded buffer would OOM long
  // before any real deployment noticed).
  ipc::FrameReader reader;
  const std::string body(57, 'h');
  const std::string one =
      raw_frame(static_cast<std::uint8_t>(ipc::FrameType::kHeartbeat), body);
  std::size_t popped = 0;
  std::string pending;
  ipc::FrameType type;
  std::string got;
  for (int i = 0; i < 10000; ++i) {
    pending += one;
    // Feed in a ragged, frame-misaligned slice pattern.
    const std::size_t n = 1 + (static_cast<std::size_t>(i) % 61);
    const std::size_t take = std::min(n, pending.size());
    reader.feed(pending.data(), take);
    pending.erase(0, take);
    while (reader.next(type, got) == ipc::ReadOutcome::kFrame) {
      EXPECT_EQ(type, ipc::FrameType::kHeartbeat);
      EXPECT_EQ(got, body);
      ++popped;
    }
  }
  reader.feed(pending.data(), pending.size());
  while (reader.next(type, got) == ipc::ReadOutcome::kFrame) ++popped;
  EXPECT_EQ(popped, 10000u);
}

// ---- blocking read path (read_frame, one reader per socket) -----------

struct SocketPair {
  int fds[2] = {-1, -1};
  SocketPair() { EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0); }
  ~SocketPair() {
    if (fds[0] >= 0) ::close(fds[0]);
    if (fds[1] >= 0) ::close(fds[1]);
  }
  void write_raw(const std::string& bytes) {
    ASSERT_EQ(::send(fds[1], bytes.data(), bytes.size(), 0),
              static_cast<ssize_t>(bytes.size()));
  }
  void close_writer() {
    ::close(fds[1]);
    fds[1] = -1;
  }
};

TEST(ReadFrame, ValidFrameRoundTrips) {
  SocketPair sp;
  ASSERT_EQ(ipc::write_frame_bounded(sp.fds[1], ipc::FrameType::kTask,
                                     "payload", 0),
            ipc::WriteOutcome::kOk);
  ipc::FrameReader reader;
  ipc::FrameType type;
  std::string body;
  EXPECT_EQ(ipc::read_frame(sp.fds[0], reader, type, body),
            ipc::ReadOutcome::kFrame);
  EXPECT_EQ(type, ipc::FrameType::kTask);
  EXPECT_EQ(body, "payload");
}

TEST(ReadFrame, EofOnClose) {
  SocketPair sp;
  sp.close_writer();
  ipc::FrameReader reader;
  ipc::FrameType type;
  std::string body;
  EXPECT_EQ(ipc::read_frame(sp.fds[0], reader, type, body),
            ipc::ReadOutcome::kEof);
}

TEST(ReadFrame, EofOnTruncatedFrame) {
  SocketPair sp;
  const std::string whole =
      raw_frame(static_cast<std::uint8_t>(ipc::FrameType::kTask), "payload");
  sp.write_raw(whole.substr(0, whole.size() - 3));
  sp.close_writer();
  ipc::FrameReader reader;
  ipc::FrameType type;
  std::string body;
  EXPECT_EQ(ipc::read_frame(sp.fds[0], reader, type, body),
            ipc::ReadOutcome::kEof);
}

TEST(ReadFrame, BadLengthOnZeroPrefix) {
  SocketPair sp;
  sp.write_raw(raw_prefix(0));
  ipc::FrameReader reader;
  ipc::FrameType type;
  std::string body;
  EXPECT_EQ(ipc::read_frame(sp.fds[0], reader, type, body),
            ipc::ReadOutcome::kBadLength);
}

TEST(ReadFrame, BadLengthOnOversizedPrefixWithoutAllocating) {
  // The 4 GiB prefix must be rejected from the prefix alone — no payload
  // bytes exist to read, so a reader that tried to allocate-and-read
  // would block forever (or OOM); classification must be immediate.
  SocketPair sp;
  sp.write_raw(raw_prefix(0xffffffffu));
  ipc::FrameReader reader;
  ipc::FrameType type;
  std::string body;
  EXPECT_EQ(ipc::read_frame(sp.fds[0], reader, type, body),
            ipc::ReadOutcome::kBadLength);
}

TEST(ReadFrame, BadTypeKeepsStreamInSync) {
  // An unknown type byte consumes exactly its frame: the next read must
  // pop the following valid frame — this is what lets the worker answer
  // with a structured Error and keep serving.
  SocketPair sp;
  sp.write_raw(raw_frame(0x42, "junk"));
  ASSERT_EQ(ipc::write_frame_bounded(sp.fds[1], ipc::FrameType::kTask, "real",
                                     0),
            ipc::WriteOutcome::kOk);
  ipc::FrameReader reader;
  ipc::FrameType type;
  std::string body;
  EXPECT_EQ(ipc::read_frame(sp.fds[0], reader, type, body),
            ipc::ReadOutcome::kBadType);
  EXPECT_EQ(ipc::read_frame(sp.fds[0], reader, type, body),
            ipc::ReadOutcome::kFrame);
  EXPECT_EQ(type, ipc::FrameType::kTask);
  EXPECT_EQ(body, "real");
}

// ---- write path -------------------------------------------------------

TEST(WriteFrame, BodyFitsBoundary) {
  EXPECT_TRUE(ipc::frame_body_fits(0));
  EXPECT_TRUE(ipc::frame_body_fits(ipc::kMaxFrame - 1));  // len == kMaxFrame
  EXPECT_FALSE(ipc::frame_body_fits(ipc::kMaxFrame));
  // Past-u32 sizes must fail the same check, not wrap the length prefix.
  EXPECT_FALSE(ipc::frame_body_fits(std::size_t{1} << 32));
  EXPECT_FALSE(ipc::frame_body_fits((std::size_t{1} << 32) + 5));
}

TEST(WriteFrame, OversizeRefusedBeforeAnyIo) {
  // fd -1 proves no byte is ever written: if the oversize check came
  // after the prefix send, this would fail with kError (EBADF) instead.
  const std::string huge(static_cast<std::size_t>(ipc::kMaxFrame), 'x');
  EXPECT_EQ(ipc::write_frame_bounded(-1, ipc::FrameType::kSetup, huge, 0.0),
            ipc::WriteOutcome::kOversize);
  EXPECT_EQ(ipc::write_frame_bounded(-1, ipc::FrameType::kSetup, huge, 1.0),
            ipc::WriteOutcome::kOversize);
}

TEST(WriteFrame, LargestLegalBodyRoundTrips) {
  // Just-under-the-limit bodies are legal; exercise a multi-send body
  // (well past one socket buffer) through the bounded path and read it
  // back intact.  8 MiB keeps the test fast while guaranteeing several
  // partial sends.
  SocketPair sp;
  const std::string big(8u << 20, 'b');
  ipc::WriteOutcome wo = ipc::WriteOutcome::kError;
  std::thread writer([&] {
    wo = ipc::write_frame_bounded(sp.fds[1], ipc::FrameType::kResult, big,
                                  10.0);
  });
  ipc::FrameReader reader;
  ipc::FrameType type;
  std::string body;
  EXPECT_EQ(ipc::read_frame(sp.fds[0], reader, type, body),
            ipc::ReadOutcome::kFrame);
  writer.join();
  EXPECT_EQ(wo, ipc::WriteOutcome::kOk);
  EXPECT_EQ(type, ipc::FrameType::kResult);
  EXPECT_EQ(body, big);
}

TEST(WriteFrame, ErrorOnClosedPeer) {
  SocketPair sp;
  ::close(sp.fds[0]);
  sp.fds[0] = -1;
  // MSG_NOSIGNAL discipline: a dead peer is a clean kError, not SIGPIPE
  // killing the supervisor.  May take one buffered send to surface.
  ipc::WriteOutcome wo =
      ipc::write_frame_bounded(sp.fds[1], ipc::FrameType::kTask, "x", 1.0);
  if (wo == ipc::WriteOutcome::kOk)
    wo = ipc::write_frame_bounded(sp.fds[1], ipc::FrameType::kTask, "x", 1.0);
  EXPECT_EQ(wo, ipc::WriteOutcome::kError);
}

TEST(WriteFrame, StalledPeerHitsDeadlineNotForever) {
  // A peer that stops draining must cost the supervisor at most the send
  // deadline.  Shrink both socket buffers, pre-fill the pipe with the
  // unbounded-ish path (large deadline), then assert the next bounded
  // send classifies as kStalled within ~the deadline.
  SocketPair sp;
  const int small = 4096;
  ::setsockopt(sp.fds[1], SOL_SOCKET, SO_SNDBUF, &small, sizeof(small));
  ::setsockopt(sp.fds[0], SOL_SOCKET, SO_RCVBUF, &small, sizeof(small));
  const std::string chunk(16 * 1024, 's');
  // Fill until a bounded send stalls; each attempt costs at most 0.2 s.
  const auto t0 = std::chrono::steady_clock::now();
  ipc::WriteOutcome wo = ipc::WriteOutcome::kOk;
  int sends = 0;
  while (wo == ipc::WriteOutcome::kOk && sends < 64) {
    wo = ipc::write_frame_bounded(sp.fds[1], ipc::FrameType::kTask, chunk,
                                  0.2);
    ++sends;
  }
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  EXPECT_EQ(wo, ipc::WriteOutcome::kStalled);
  // The loop wrote until the kernel buffers filled (all fast) plus one
  // stalled attempt (~0.2 s) — nowhere near 64 * 0.2 s, and emphatically
  // not forever.  Generous bound for sanitizer builds.
  EXPECT_LT(elapsed, 10.0);
}

TEST(WriteFrame, UnboundedPathRoundTrips) {
  // send_deadline_s <= 0 blocks until flushed: the worker side's form.
  SocketPair sp;
  ASSERT_EQ(ipc::write_frame_bounded(sp.fds[1], ipc::FrameType::kError, "e", 0),
            ipc::WriteOutcome::kOk);
  ipc::FrameReader reader;
  ipc::FrameType type;
  std::string body;
  ASSERT_EQ(ipc::read_frame(sp.fds[0], reader, type, body),
            ipc::ReadOutcome::kFrame);
  EXPECT_EQ(type, ipc::FrameType::kError);
  EXPECT_EQ(body, "e");
}

// ---- outcome codec ------------------------------------------------------

TEST(ResultCodec, CountOutcomeRoundTrips) {
  ipc::ResultMsg m;
  m.task_id = 7;
  ApproxMcCoreOutcome o;
  o.ok = true;
  o.faulted = true;
  o.leapfrogged = true;
  o.cell_count = 41;
  o.hash_count = 9;
  o.bsat_calls = 12;
  m.outcome = o;
  obs::TraceEvent span;
  span.name = "worker.task";
  span.span_id = 3;
  span.value = 7;
  m.spans.push_back(span);
  const ipc::ResultMsg back = ipc::decode_result(ipc::encode_result(m));
  EXPECT_EQ(back.task_id, 7u);
  const auto* c = std::get_if<ApproxMcCoreOutcome>(&back.outcome);
  ASSERT_NE(c, nullptr);
  EXPECT_TRUE(c->ok);
  EXPECT_FALSE(c->timed_out);
  EXPECT_FALSE(c->cancelled);
  EXPECT_TRUE(c->faulted);
  EXPECT_TRUE(c->leapfrogged);
  EXPECT_EQ(c->cell_count, 41u);
  EXPECT_EQ(c->hash_count, 9u);
  EXPECT_EQ(c->bsat_calls, 12u);
  EXPECT_EQ(ipc::units_of(back.outcome), 12u);
  ASSERT_EQ(back.spans.size(), 1u);
  EXPECT_STREQ(back.spans[0].name, "worker.task");
  EXPECT_EQ(back.spans[0].value, 7u);
}

TEST(ResultCodec, SampleOutcomeRoundTrips) {
  ipc::ResultMsg m;
  m.task_id = 1u << 20;
  BatchResult b;
  b.status = SampleResult::Status::kOk;
  b.models = {{lbool::True, lbool::False}, {lbool::False, lbool::Undef}};
  m.outcome = b;
  const ipc::ResultMsg back = ipc::decode_result(ipc::encode_result(m));
  EXPECT_EQ(back.task_id, 1u << 20);
  const auto* s = std::get_if<BatchResult>(&back.outcome);
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->status, SampleResult::Status::kOk);
  EXPECT_EQ(s->models, b.models);
  EXPECT_EQ(ipc::units_of(back.outcome), 0u);
  for (const auto status :
       {SampleResult::Status::kFail, SampleResult::Status::kTimeout,
        SampleResult::Status::kUnsat, SampleResult::Status::kCancelled}) {
    m.outcome = BatchResult{status, {}};
    const ipc::ResultMsg r = ipc::decode_result(ipc::encode_result(m));
    EXPECT_EQ(std::get<BatchResult>(r.outcome).status, status);
  }
}

TEST(ResultCodec, RejectsOutOfRangeStatusAndKind) {
  // The bytes come from another process: an out-of-range sample status or
  // task kind is a protocol error, never a blind enum cast.
  ipc::ResultMsg m;
  m.outcome = BatchResult{SampleResult::Status::kCancelled, {}};
  std::string bytes = ipc::encode_result(m);
  const std::size_t status_at = 8 + 1;  // u64 task id, u8 kind
  bytes[status_at] = static_cast<char>(
      static_cast<std::uint8_t>(SampleResult::Status::kCancelled) + 1);
  EXPECT_THROW(ipc::decode_result(bytes), std::runtime_error);
  bytes[status_at] = static_cast<char>(0xff);
  EXPECT_THROW(ipc::decode_result(bytes), std::runtime_error);
  std::string kind = ipc::encode_result(m);
  kind[8] = 2;
  EXPECT_THROW(ipc::decode_result(kind), std::runtime_error);
  EXPECT_THROW(ipc::decode_result(kind.substr(0, 9)), std::runtime_error);
}

TEST(TaskCodec, EveryFieldRoundTrips) {
  ipc::TaskMsg m;
  m.task_id = 11;
  m.attempt = 2;
  m.rng_state = {3, 4, 5, 6};
  m.max_batch = 7;
  m.deadline_s = 8.5;
  m.bsat_timeout_s = 9.25;
  m.max_bsat_calls = 10;
  m.trace_id = 12;
  m.parent_span = 13;
  const std::string body = ipc::encode_task(m);
  EXPECT_EQ(body.size(), 92u);
  const ipc::TaskMsg back = ipc::decode_task(body);
  EXPECT_EQ(back.task_id, m.task_id);
  EXPECT_EQ(back.attempt, m.attempt);
  EXPECT_EQ(back.rng_state, m.rng_state);
  EXPECT_EQ(back.max_batch, m.max_batch);
  EXPECT_EQ(back.deadline_s, m.deadline_s);
  EXPECT_EQ(back.bsat_timeout_s, m.bsat_timeout_s);
  EXPECT_EQ(back.max_bsat_calls, m.max_bsat_calls);
  EXPECT_EQ(back.trace_id, m.trace_id);
  EXPECT_EQ(back.parent_span, m.parent_span);
}

// ---- input validation ----------------------------------------------------
//
// A frame's bytes come from another process: every count is checked
// against the bytes left before anything is sized by it, and every value
// the worker would cast or index by is range-checked.  Each case below is
// a protocol error (std::runtime_error), never an allocation failure or
// undefined behaviour.

ipc::SetupMsg count_setup() {
  ipc::SetupMsg m;
  m.kind = ipc::TaskKind::kCount;
  m.formula_dimacs = "p cnf 3 1\n1 -2 0\n";
  m.sampling_set = {0, 2};
  m.pivot = 52;
  return m;
}

ipc::SetupMsg sample_setup() {
  ipc::SetupMsg m = count_setup();
  m.kind = ipc::TaskKind::kSample;
  m.q = 3;
  m.epsilon = 6.0;
  return m;
}

std::string runtime_error_of(const std::function<void()>& f) {
  try {
    f();
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "no error";
}

TEST(SetupCodec, ValidSetupsRoundTrip) {
  const ipc::SetupMsg c = ipc::decode_setup(ipc::encode_setup(count_setup()));
  EXPECT_EQ(c.kind, ipc::TaskKind::kCount);
  EXPECT_EQ(c.sampling_set, (std::vector<Var>{0, 2}));
  EXPECT_EQ(c.pivot, 52u);
  const ipc::SetupMsg s = ipc::decode_setup(ipc::encode_setup(sample_setup()));
  EXPECT_EQ(s.kind, ipc::TaskKind::kSample);
  EXPECT_EQ(s.q, 3);
  EXPECT_EQ(ipc::setup_formula(c).num_vars(), 3);
}

TEST(SetupCodec, UnusedTrailingVariablesSurviveTheRoundTrip) {
  // Variables 2..9 occur in no clause; the canonical DIMACS header still
  // declares all ten, and the worker's formula has all ten.
  Cnf cnf(10);
  cnf.add_clause({Lit(0, false), Lit(1, true)});
  ipc::SetupMsg m = sample_setup();
  m.formula_dimacs = to_dimacs_canonical_string(cnf);
  m.sampling_set = {0, 9};
  const ipc::SetupMsg back = ipc::decode_setup(ipc::encode_setup(m));
  EXPECT_EQ(ipc::setup_formula(back).num_vars(), 10);
}

TEST(SetupCodec, SamplingSetCountBeyondThePayloadIsTruncated) {
  // A Setup claiming 2^32 − 1 sampling variables in a 9-byte payload: the
  // count is refused before the vector is sized (it would ask for 16 GiB).
  ipc::WireWriter w;
  w.u8(static_cast<std::uint8_t>(ipc::TaskKind::kCount));
  w.str("");
  w.u32(0xFFFFFFFFu);
  const std::string bytes = w.take();
  EXPECT_EQ(runtime_error_of([&] { ipc::decode_setup(bytes); }),
            "ipc: truncated frame");
}

TEST(SetupCodec, RejectsUnknownKindAndBadSampleEpsilon) {
  ipc::SetupMsg kind = count_setup();
  kind.kind = static_cast<ipc::TaskKind>(2);
  EXPECT_EQ(runtime_error_of(
                [&] { ipc::decode_setup(ipc::encode_setup(kind)); }),
            "ipc: bad task kind");
  // A sample worker derives κ, pivot and the thresholds from ε, so ε must
  // be one UniGen accepts: above 1.71, and not NaN.
  for (const double eps : {kUniGenMinEpsilon, 1.0, 0.0, -6.0,
                           std::numeric_limits<double>::quiet_NaN()}) {
    ipc::SetupMsg m = sample_setup();
    m.epsilon = eps;
    EXPECT_EQ(runtime_error_of([&] { ipc::decode_setup(ipc::encode_setup(m)); }),
              "ipc: bad epsilon")
        << eps;
  }
  // A count Setup carries no ε.
  EXPECT_NO_THROW(ipc::decode_setup(ipc::encode_setup(count_setup())));
}

TEST(SetupCodec, RejectsCountSetupWithoutHashLevels) {
  // An empty S leaves the search no level to probe.
  ipc::SetupMsg empty = count_setup();
  empty.sampling_set.clear();
  EXPECT_EQ(runtime_error_of(
                [&] { ipc::decode_setup(ipc::encode_setup(empty)); }),
            "ipc: bad count setup");
}

TEST(SetupCodec, RejectsSamplingVariablesOutsideTheFormula) {
  ipc::SetupMsg negative = count_setup();
  negative.sampling_set = {0, -1};
  EXPECT_EQ(runtime_error_of(
                [&] { ipc::decode_setup(ipc::encode_setup(negative)); }),
            "ipc: bad sampling variable");
  // In range for the wire, outside the 3-variable formula: the engine
  // would index its per-variable arrays by it.
  ipc::SetupMsg beyond = count_setup();
  beyond.sampling_set = {0, 7};
  const ipc::SetupMsg decoded =
      ipc::decode_setup(ipc::encode_setup(beyond));
  EXPECT_EQ(runtime_error_of([&] { ipc::setup_formula(decoded); }),
            "ipc: sampling variable outside the formula");
  beyond.sampling_set = {0, 3};
  EXPECT_THROW(ipc::setup_formula(beyond), std::runtime_error);
}

TEST(PayloadCodecs, TrailingBytesAreRefused) {
  // A payload longer than its message — a Setup from a build with another
  // layout, say — is refused rather than half-read.
  ipc::TaskMsg task;
  task.task_id = 5;
  ipc::ResultMsg count_result;
  count_result.outcome = ApproxMcCoreOutcome{};
  ipc::ResultMsg sample_result;
  sample_result.outcome =
      BatchResult{SampleResult::Status::kOk, {{lbool::True}}};
  const std::vector<std::pair<std::string, std::function<void(std::string)>>>
      payloads = {
          {ipc::encode_setup(count_setup()),
           [](std::string p) { ipc::decode_setup(p); }},
          {ipc::encode_setup(sample_setup()),
           [](std::string p) { ipc::decode_setup(p); }},
          {ipc::encode_task(task), [](std::string p) { ipc::decode_task(p); }},
          {ipc::encode_result(count_result),
           [](std::string p) { ipc::decode_result(p); }},
          {ipc::encode_result(sample_result),
           [](std::string p) { ipc::decode_result(p); }},
          {ipc::encode_error("boom"),
           [](std::string p) { ipc::decode_error(p); }},
      };
  for (const auto& [bytes, decode] : payloads) {
    EXPECT_NO_THROW(decode(bytes));
    EXPECT_EQ(runtime_error_of([&] { decode(bytes + '\0'); }),
              "ipc: trailing bytes");
  }
}

TEST(ResultCodec, ModelSizeBeyondThePayloadIsTruncated) {
  // A 26-byte Result whose one model claims 2^32 − 1 entries: refused
  // before the model is sized (it would zero-fill 4 GiB first).
  ipc::WireWriter w;
  w.u64(9);                                                  // task id
  w.u8(static_cast<std::uint8_t>(ipc::TaskKind::kSample));   // kind
  w.u8(static_cast<std::uint8_t>(SampleResult::Status::kOk));
  w.u32(1);            // one model
  w.u32(0xFFFFFFFFu);  // of 2^32 − 1 entries
  w.u64(0);            // eight of them
  const std::string bytes = w.take();
  ASSERT_EQ(bytes.size(), 26u);
  EXPECT_EQ(runtime_error_of([&] { ipc::decode_result(bytes); }),
            "ipc: truncated frame");
}

TEST(ResultCodec, ModelAndSpanCountsBeyondThePayloadAreTruncated) {
  ipc::ResultMsg m;
  m.outcome = BatchResult{SampleResult::Status::kOk, {}};
  std::string models = ipc::encode_result(m);
  // The model count sits after the u64 task id, the kind and the status.
  const std::size_t count_at = 8 + 1 + 1;
  for (std::size_t i = 0; i < 4; ++i) models[count_at + i] = '\xff';
  EXPECT_EQ(runtime_error_of([&] { ipc::decode_result(models); }),
            "ipc: truncated frame");
  // A span count within kMaxSpans but beyond the bytes: refused before the
  // span vector is reserved.
  std::string spans = ipc::encode_result(m);
  const std::uint32_t claim = ipc::ResultMsg::kMaxSpans;
  for (std::size_t i = 0; i < 4; ++i)
    spans[spans.size() - 4 + i] = static_cast<char>((claim >> (8 * i)) & 0xff);
  EXPECT_EQ(runtime_error_of([&] { ipc::decode_result(spans); }),
            "ipc: truncated frame");
}

}  // namespace
}  // namespace unigen
