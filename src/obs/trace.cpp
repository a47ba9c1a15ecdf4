#include "obs/trace.hpp"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>
#include <set>

namespace unigen::obs {

namespace detail {
std::atomic<bool> g_enabled{false};
}

void set_enabled(bool on) {
  detail::g_enabled.store(on, std::memory_order_relaxed);
}

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

namespace {

std::uint64_t nonzero(std::uint64_t x) { return x != 0 ? x : 1; }

// Process salt: keeps span/trace ids from a supervisor and its forked
// workers out of each other's id spaces when their events are merged into
// one trace.  Lazily derived from the pid — exec'd workers get their own.
std::uint64_t process_salt() {
  static const std::uint64_t salt =
      mix64(0x0b5e7ab1e5a17000ull ^ static_cast<std::uint64_t>(::getpid()));
  return salt;
}

std::atomic<std::uint64_t> g_id_counter{0};

// --- per-thread seqlock ring -------------------------------------------
//
// Single writer (the owning thread), any-thread reader.  Every field is a
// relaxed atomic so a concurrent snapshot is a data-race-free *skip*, not
// UB: the per-slot seq (odd while the writer is inside, generation-stamped
// when stable) tells the reader which slots to trust.

struct Slot {
  std::atomic<std::uint64_t> seq{0};
  std::atomic<std::uint64_t> trace{0};
  std::atomic<std::uint64_t> span{0};
  std::atomic<std::uint64_t> parent{0};
  std::atomic<std::uint64_t> start{0};
  std::atomic<std::uint64_t> end{0};
  std::atomic<std::uint64_t> value{0};
  std::atomic<const char*> name{nullptr};
  std::atomic<std::uint32_t> worker{0};
  std::atomic<std::uint32_t> attempt{0};
};

std::atomic<std::size_t> g_ring_capacity{8192};

class Recorder {
 public:
  explicit Recorder(std::size_t cap)
      : cap_(cap), slots_(std::make_unique<Slot[]>(cap)) {}

  // Writer side: owner thread only.
  void record(const TraceEvent& e) {
    const std::uint64_t h = head_.load(std::memory_order_relaxed);
    Slot& s = slots_[h % cap_];
    const std::uint64_t gen = h / cap_;
    s.seq.store(2 * gen + 1, std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_release);
    s.trace.store(e.trace_id, std::memory_order_relaxed);
    s.span.store(e.span_id, std::memory_order_relaxed);
    s.parent.store(e.parent_id, std::memory_order_relaxed);
    s.start.store(e.start_ns, std::memory_order_relaxed);
    s.end.store(e.end_ns, std::memory_order_relaxed);
    s.value.store(e.value, std::memory_order_relaxed);
    s.name.store(e.name, std::memory_order_relaxed);
    s.worker.store(e.worker, std::memory_order_relaxed);
    s.attempt.store(e.attempt, std::memory_order_relaxed);
    s.seq.store(2 * gen + 2, std::memory_order_release);
    head_.store(h + 1, std::memory_order_release);
  }

  // Reader side: any thread.  Appends valid unread events; returns the
  // number dropped (overwritten before this read, or torn mid-write).
  std::uint64_t snapshot_into(std::vector<TraceEvent>& out) const {
    const std::uint64_t head = head_.load(std::memory_order_acquire);
    const std::uint64_t tail = tail_.load(std::memory_order_relaxed);
    const std::uint64_t lo =
        std::max(tail, head > cap_ ? head - cap_ : 0);
    std::uint64_t dropped = head - tail - (head - lo);
    for (std::uint64_t i = lo; i < head; ++i) {
      const Slot& s = slots_[i % cap_];
      const std::uint64_t want = 2 * (i / cap_) + 2;
      const std::uint64_t s1 = s.seq.load(std::memory_order_acquire);
      if (s1 != want) {
        ++dropped;  // being overwritten right now (writer lapped us)
        continue;
      }
      TraceEvent e;
      e.trace_id = s.trace.load(std::memory_order_relaxed);
      e.span_id = s.span.load(std::memory_order_relaxed);
      e.parent_id = s.parent.load(std::memory_order_relaxed);
      e.start_ns = s.start.load(std::memory_order_relaxed);
      e.end_ns = s.end.load(std::memory_order_relaxed);
      e.value = s.value.load(std::memory_order_relaxed);
      e.name = s.name.load(std::memory_order_relaxed);
      e.worker = s.worker.load(std::memory_order_relaxed);
      e.attempt = s.attempt.load(std::memory_order_relaxed);
      std::atomic_thread_fence(std::memory_order_acquire);
      if (s.seq.load(std::memory_order_relaxed) != s1) {
        ++dropped;
        continue;
      }
      if (e.name == nullptr) e.name = "";
      out.push_back(e);
    }
    return dropped;
  }

  void mark_read() {
    tail_.store(head_.load(std::memory_order_acquire),
                std::memory_order_relaxed);
  }

  std::uint64_t unread_dropped() const {
    const std::uint64_t head = head_.load(std::memory_order_acquire);
    const std::uint64_t tail = tail_.load(std::memory_order_relaxed);
    const std::uint64_t live = std::min<std::uint64_t>(head - tail, cap_);
    return (head - tail) - live;
  }

 private:
  const std::size_t cap_;
  std::unique_ptr<Slot[]> slots_;
  std::atomic<std::uint64_t> head_{0};
  std::atomic<std::uint64_t> tail_{0};  // logical clear watermark
};

std::mutex& registry_mutex() {
  static std::mutex mu;
  return mu;
}

std::vector<Recorder*>& registry() {
  // Recorders are never destroyed: a drained thread's ring must stay
  // readable after the thread exits (pools join their workers before the
  // dispatcher snapshots, but nothing should depend on that ordering).
  // Memory is bounded by threads-ever × ring bytes.
  static std::vector<Recorder*>* regs = new std::vector<Recorder*>();
  return *regs;
}

Recorder& local_recorder() {
  thread_local Recorder* rec = nullptr;
  if (rec == nullptr) {
    auto* fresh = new Recorder(g_ring_capacity.load(std::memory_order_relaxed));
    {
      std::lock_guard<std::mutex> lk(registry_mutex());
      registry().push_back(fresh);
    }
    rec = fresh;
  }
  return *rec;
}

thread_local TraceContext t_current;

}  // namespace

std::uint64_t trace_id_for_request(std::uint64_t seed, std::uint64_t stream) {
  return nonzero(mix64(mix64(seed) ^ (stream + 0x514e47454eull)));
}

std::uint64_t fresh_trace_id() {
  return nonzero(mix64(process_salt() +
                       g_id_counter.fetch_add(1, std::memory_order_relaxed)));
}

std::uint64_t fresh_span_id() {
  return nonzero(mix64(process_salt() ^
                       (g_id_counter.fetch_add(1, std::memory_order_relaxed) +
                        0x5bd1e995ull)));
}

const char* intern_name(const char* name) {
  static std::mutex mu;
  static std::set<std::string>* names = new std::set<std::string>();
  std::lock_guard<std::mutex> lk(mu);
  return names->insert(name ? name : "").first->c_str();
}

TraceContext current_context() {
  if (!enabled()) return {};
  return t_current;
}

ContextScope::ContextScope(TraceContext ctx) {
  if (!enabled()) return;
  saved_ = t_current;
  t_current = ctx;
  armed_ = true;
}

ContextScope::~ContextScope() {
  if (armed_) t_current = saved_;
}

void Span::init(const char* name, std::uint64_t fallback_trace) {
  name_ = name;
  if (t_current.valid()) {
    trace_ = t_current.trace_id;
    parent_ = t_current.span_id;
  } else {
    trace_ = fallback_trace != 0 ? fallback_trace : fresh_trace_id();
    parent_ = 0;
  }
  id_ = fresh_span_id();
  start_ = now_ns();
  saved_ = t_current;
  t_current = TraceContext{trace_, id_};
  armed_ = true;
}

void Span::finish() {
  t_current = saved_;
  TraceEvent e;
  e.trace_id = trace_;
  e.span_id = id_;
  e.parent_id = parent_;
  e.start_ns = start_;
  e.end_ns = now_ns();
  e.value = value_;
  e.name = name_;
  e.worker = worker_;
  e.attempt = attempt_;
  local_recorder().record(e);
}

void record_span(const TraceEvent& e) {
  if (!enabled()) return;
  local_recorder().record(e);
}

void set_ring_capacity(std::size_t events) {
  events = std::clamp<std::size_t>(events, 64, std::size_t{1} << 22);
  g_ring_capacity.store(events, std::memory_order_relaxed);
}

std::vector<TraceEvent> snapshot_events() {
  std::vector<Recorder*> recs;
  {
    std::lock_guard<std::mutex> lk(registry_mutex());
    recs = registry();
  }
  std::vector<TraceEvent> out;
  for (const Recorder* r : recs) r->snapshot_into(out);
  return out;
}

void clear_all() {
  std::lock_guard<std::mutex> lk(registry_mutex());
  for (Recorder* r : registry()) r->mark_read();
}

std::uint64_t dropped_events() {
  std::lock_guard<std::mutex> lk(registry_mutex());
  std::uint64_t total = 0;
  for (const Recorder* r : registry()) total += r->unread_dropped();
  return total;
}

std::string trace_jsonl() {
  std::vector<TraceEvent> events = snapshot_events();
  std::sort(events.begin(), events.end(),
            [](const TraceEvent& a, const TraceEvent& b) {
              if (a.start_ns != b.start_ns) return a.start_ns < b.start_ns;
              return a.span_id < b.span_id;
            });
  std::string out;
  char line[512];
  std::snprintf(line, sizeof(line),
                "{\"schema\":\"unigen.trace.v1\",\"events\":%zu,"
                "\"dropped\":%llu}\n",
                events.size(),
                static_cast<unsigned long long>(dropped_events()));
  out += line;
  for (const TraceEvent& e : events) {
    std::snprintf(
        line, sizeof(line),
        "{\"trace\":\"%016llx\",\"span\":\"%016llx\",\"parent\":\"%016llx\","
        "\"name\":\"%s\",\"start_ns\":%llu,\"end_ns\":%llu,\"value\":%llu,"
        "\"worker\":%u,\"attempt\":%u}\n",
        static_cast<unsigned long long>(e.trace_id),
        static_cast<unsigned long long>(e.span_id),
        static_cast<unsigned long long>(e.parent_id), e.name,
        static_cast<unsigned long long>(e.start_ns),
        static_cast<unsigned long long>(e.end_ns),
        static_cast<unsigned long long>(e.value), e.worker, e.attempt);
    out += line;
  }
  return out;
}

bool write_trace_jsonl(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::string text = trace_jsonl();
  const bool ok = std::fwrite(text.data(), 1, text.size(), f) == text.size();
  return std::fclose(f) == 0 && ok;
}

}  // namespace unigen::obs
