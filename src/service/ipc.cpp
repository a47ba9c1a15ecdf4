#include "service/ipc.hpp"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <stdexcept>

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "cnf/dimacs.hpp"
#include "core/kappa_pivot.hpp"

namespace unigen::ipc {

void WireWriter::u32(std::uint32_t v) {
  for (int i = 0; i < 4; ++i)
    buf_.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
}

void WireWriter::u64(std::uint64_t v) {
  for (int i = 0; i < 8; ++i)
    buf_.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
}

void WireWriter::f64(double v) {
  std::uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  u64(bits);
}

void WireWriter::str(const std::string& s) {
  u32(static_cast<std::uint32_t>(s.size()));
  buf_.append(s);
}

void WireReader::need(std::size_t n) {
  if (size_ - pos_ < n) throw std::runtime_error("ipc: truncated frame");
}

std::uint8_t WireReader::u8() {
  need(1);
  return static_cast<std::uint8_t>(data_[pos_++]);
}

std::uint32_t WireReader::u32() {
  need(4);
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i)
    v |= static_cast<std::uint32_t>(
             static_cast<unsigned char>(data_[pos_ + static_cast<std::size_t>(i)]))
         << (8 * i);
  pos_ += 4;
  return v;
}

std::uint64_t WireReader::u64() {
  need(8);
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i)
    v |= static_cast<std::uint64_t>(
             static_cast<unsigned char>(data_[pos_ + static_cast<std::size_t>(i)]))
         << (8 * i);
  pos_ += 8;
  return v;
}

double WireReader::f64() {
  const std::uint64_t bits = u64();
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

std::string WireReader::str() {
  const std::uint32_t n = u32();
  need(n);
  std::string s(data_ + pos_, n);
  pos_ += n;
  return s;
}

void WireReader::finish() const {
  if (pos_ != size_) throw std::runtime_error("ipc: trailing bytes");
}

std::uint32_t WireReader::count(std::size_t min_bytes) {
  const std::uint32_t n = u32();
  if ((size_ - pos_) / min_bytes < n)
    throw std::runtime_error("ipc: truncated frame");
  return n;
}

namespace {

/// A frame's little-endian u32 length prefix (type byte + body) at
/// `prefix`, or 0 when it is zero or over kMaxFrame: framing is lost, and
/// nothing may be sized by it.
std::uint32_t frame_length(const char* prefix) {
  const std::uint32_t len = WireReader(prefix, 4).u32();
  return len <= kMaxFrame ? len : 0;
}

void put_model(WireWriter& w, const Model& m) {
  w.u32(static_cast<std::uint32_t>(m.size()));
  for (const lbool v : m) w.u8(static_cast<std::uint8_t>(v));
}

Model get_model(WireReader& r) {
  const std::uint32_t n = r.count(1);
  Model m(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    const std::uint8_t v = r.u8();
    if (v > 2) throw std::runtime_error("ipc: bad lbool");
    m[i] = static_cast<lbool>(v);
  }
  return m;
}

}  // namespace

std::string encode_setup(const SetupMsg& m) {
  WireWriter w;
  w.u8(static_cast<std::uint8_t>(m.kind));
  w.str(m.formula_dimacs);
  w.u32(static_cast<std::uint32_t>(m.sampling_set.size()));
  for (const Var v : m.sampling_set) w.i32(v);
  w.u8(m.simplify.enabled ? 1 : 0);
  w.u64(m.pivot);
  w.i32(m.q);
  w.f64(m.epsilon);
  return w.take();
}

SetupMsg decode_setup(const std::string& payload) {
  WireReader r(payload);
  SetupMsg m;
  const std::uint8_t kind = r.u8();
  if (kind > static_cast<std::uint8_t>(TaskKind::kSample))
    throw std::runtime_error("ipc: bad task kind");
  m.kind = static_cast<TaskKind>(kind);
  m.formula_dimacs = r.str();
  m.sampling_set.resize(r.count(4));
  for (Var& v : m.sampling_set) {
    v = r.i32();
    if (v < 0) throw std::runtime_error("ipc: bad sampling variable");
  }
  m.simplify.enabled = r.u8() != 0;
  m.pivot = r.u64();
  m.q = r.i32();
  m.epsilon = r.f64();
  r.finish();
  // The search runs over levels 1..|S| of a hash drawn over S.
  if (m.kind == TaskKind::kCount && m.sampling_set.empty())
    throw std::runtime_error("ipc: bad count setup");
  // The worker derives κ, pivot and the thresholds from ε (NaN fails too).
  if (m.kind == TaskKind::kSample && !(m.epsilon > kUniGenMinEpsilon))
    throw std::runtime_error("ipc: bad epsilon");
  return m;
}

Cnf setup_formula(const SetupMsg& m) {
  Cnf cnf = parse_dimacs_string(m.formula_dimacs);
  for (const Var v : m.sampling_set)
    if (v >= cnf.num_vars())
      throw std::runtime_error("ipc: sampling variable outside the formula");
  return cnf;
}

std::string encode_task(const TaskMsg& m) {
  WireWriter w;
  w.u64(m.task_id);
  w.u32(m.attempt);
  for (const std::uint64_t s : m.rng_state) w.u64(s);
  w.u64(m.max_batch);
  w.f64(m.deadline_s);
  w.f64(m.bsat_timeout_s);
  w.u64(m.max_bsat_calls);
  w.u64(m.trace_id);
  w.u64(m.parent_span);
  return w.take();
}

TaskMsg decode_task(const std::string& payload) {
  WireReader r(payload);
  TaskMsg m;
  m.task_id = r.u64();
  m.attempt = r.u32();
  for (std::uint64_t& s : m.rng_state) s = r.u64();
  m.max_batch = r.u64();
  m.deadline_s = r.f64();
  m.bsat_timeout_s = r.f64();
  m.max_bsat_calls = r.u64();
  m.trace_id = r.u64();
  m.parent_span = r.u64();
  r.finish();
  return m;
}

std::string encode_result(const ResultMsg& m) {
  WireWriter w;
  w.u64(m.task_id);
  w.u8(static_cast<std::uint8_t>(m.outcome.index()));
  if (const auto* c = std::get_if<ApproxMcCoreOutcome>(&m.outcome)) {
    w.u8(c->ok ? 1 : 0);
    w.u8(c->timed_out ? 1 : 0);
    w.u8(c->cancelled ? 1 : 0);
    w.u8(c->faulted ? 1 : 0);
    w.u8(c->leapfrogged ? 1 : 0);
    w.u64(c->cell_count);
    w.u32(c->hash_count);
    w.u64(c->bsat_calls);
  } else {
    const BatchResult& b = std::get<BatchResult>(m.outcome);
    w.u8(static_cast<std::uint8_t>(b.status));
    w.u32(static_cast<std::uint32_t>(b.models.size()));
    for (const Model& model : b.models) put_model(w, model);
  }
  w.u32(static_cast<std::uint32_t>(
      std::min<std::size_t>(m.spans.size(), ResultMsg::kMaxSpans)));
  std::size_t emitted = 0;
  for (const obs::TraceEvent& s : m.spans) {
    if (emitted++ >= ResultMsg::kMaxSpans) break;
    w.str(s.name);
    w.u64(s.span_id);
    w.u64(s.parent_id);
    w.u64(s.start_ns);
    w.u64(s.end_ns);
    w.u64(s.value);
    w.u32(s.worker);
    w.u32(s.attempt);
  }
  return w.take();
}

ResultMsg decode_result(const std::string& payload) {
  WireReader r(payload);
  ResultMsg m;
  m.task_id = r.u64();
  switch (r.u8()) {
    case static_cast<std::uint8_t>(TaskKind::kCount): {
      ApproxMcCoreOutcome c;
      c.ok = r.u8() != 0;
      c.timed_out = r.u8() != 0;
      c.cancelled = r.u8() != 0;
      c.faulted = r.u8() != 0;
      c.leapfrogged = r.u8() != 0;
      c.cell_count = r.u64();
      c.hash_count = r.u32();
      c.bsat_calls = r.u64();
      m.outcome = c;
      break;
    }
    case static_cast<std::uint8_t>(TaskKind::kSample): {
      BatchResult b;
      const std::uint8_t status = r.u8();
      if (status > static_cast<std::uint8_t>(SampleResult::Status::kCancelled))
        throw std::runtime_error("ipc: bad sample status");
      b.status = static_cast<SampleResult::Status>(status);
      const std::uint32_t k = r.count(4);  // a model is at least its size
      for (std::uint32_t i = 0; i < k; ++i) b.models.push_back(get_model(r));
      m.outcome = std::move(b);
      break;
    }
    default:
      throw std::runtime_error("ipc: bad task kind");
  }
  // A span is at least its name's length, five u64s and two u32s.
  const std::uint32_t ns = r.count(4 + 5 * 8 + 2 * 4);
  if (ns > ResultMsg::kMaxSpans) throw std::runtime_error("ipc: span flood");
  m.spans.reserve(ns);
  for (std::uint32_t i = 0; i < ns; ++i) {
    obs::TraceEvent s;
    s.name = obs::intern_name(r.str().c_str());
    s.span_id = r.u64();
    s.parent_id = r.u64();
    s.start_ns = r.u64();
    s.end_ns = r.u64();
    s.value = r.u64();
    s.worker = r.u32();
    s.attempt = r.u32();
    m.spans.push_back(s);
  }
  r.finish();
  return m;
}

std::string encode_error(const std::string& what) {
  WireWriter w;
  w.str(what);
  return w.take();
}

std::string decode_error(const std::string& payload) {
  WireReader r(payload);
  std::string what = r.str();
  r.finish();
  return what;
}

WriteOutcome write_frame_bounded(int fd, FrameType type,
                                 const std::string& body,
                                 double send_deadline_s) {
  // Refuse before any byte is written: body + type byte must fit the u32
  // length prefix AND stay under kMaxFrame, or the peer would reject the
  // frame (or, past 4 GiB, read a wrapped length and lose framing).
  if (!frame_body_fits(body.size())) return WriteOutcome::kOversize;
  WireWriter w;
  w.u32(static_cast<std::uint32_t>(body.size() + 1));
  w.u8(static_cast<std::uint8_t>(type));
  std::string frame = w.take();
  frame.append(body);
  const bool bounded = send_deadline_s > 0.0;
  const auto give_up =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(bounded ? send_deadline_s : 0.0));
  std::size_t off = 0;
  while (off < frame.size()) {
    // Bounded mode never blocks in send: wait for writability under the
    // remaining deadline, then push with MSG_DONTWAIT.  A peer that stops
    // draining therefore costs at most the deadline — after which the
    // caller classifies the connection as stalled and kills it, the same
    // treatment a heartbeat-silent hang gets.
    const ssize_t n =
        ::send(fd, frame.data() + off, frame.size() - off,
               MSG_NOSIGNAL | (bounded ? MSG_DONTWAIT : 0));
    if (n > 0) {
      off += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && bounded && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      const auto now = std::chrono::steady_clock::now();
      if (now >= give_up) return WriteOutcome::kStalled;
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                            give_up - now)
                            .count();
      pollfd pfd{fd, POLLOUT, 0};
      const int pr = ::poll(&pfd, 1,
                            static_cast<int>(left > 0 ? left : 1));
      if (pr < 0 && errno != EINTR) return WriteOutcome::kError;
      if (pr == 0) return WriteOutcome::kStalled;
      continue;
    }
    return WriteOutcome::kError;
  }
  return WriteOutcome::kOk;
}

ReadOutcome FrameReader::next(FrameType& type, std::string& body) {
  const std::size_t avail = buf_.size() - pos_;
  if (avail < 4) return ReadOutcome::kMore;
  // A zero or over-limit length loses framing permanently; an unknown type
  // byte consumes exactly one frame and leaves the stream in sync.
  const std::uint32_t len = frame_length(buf_.data() + pos_);
  if (len == 0) return ReadOutcome::kBadLength;
  if (avail < 4 + static_cast<std::size_t>(len)) return ReadOutcome::kMore;
  const auto type_byte = static_cast<unsigned char>(buf_[pos_ + 4]);
  const bool valid = valid_frame_type(type_byte);
  if (valid) {
    type = static_cast<FrameType>(type_byte);
    body.assign(buf_, pos_ + 5, len - 1);
  }
  pos_ += 4 + static_cast<std::size_t>(len);
  // Compact once the consumed prefix dominates, keeping feed() amortized.
  if (pos_ > (1u << 16) && pos_ * 2 > buf_.size()) {
    buf_.erase(0, pos_);
    pos_ = 0;
  }
  return valid ? ReadOutcome::kFrame : ReadOutcome::kBadType;
}

ReadOutcome read_frame(int fd, FrameReader& reader, FrameType& type,
                       std::string& body) {
  for (;;) {
    const ReadOutcome got = reader.next(type, body);
    if (got != ReadOutcome::kMore) return got;
    char buf[1 << 16];
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n > 0)
      reader.feed(buf, static_cast<std::size_t>(n));
    else if (n == 0 || errno != EINTR)
      return ReadOutcome::kEof;
  }
}

}  // namespace unigen::ipc
