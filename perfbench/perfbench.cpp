// perfbench — the repository benchmark.
//
//   perfbench --workload <cold_count|warm_sample|fleet_batch> --seed N
//             --seconds S --trace <0|1> [--source-digest D]
//
// One client drives a SamplingServer in a closed loop (the next request is
// sent when the previous one returns), with sessions at num_threads = nproc
// and, on fleet_batch, num_workers = nproc worker processes.  Formulas come
// from the family generators in src/workloads/, seeded from --seed; the
// options are the paper's (ε = 6, nested count at (0.8, 0.8)).
//
//   cold_count   server.count(F) on a formula never seen before (fresh
//                generator seed per request): fingerprint, simplify,
//                prepare (easy-case check + ApproxMC), LRU eviction.
//   warm_sample  server.sample(F, 8) round-robin over live sessions
//                prepared during set-up: accept-cell work on nproc threads.
//   fleet_batch  server.sample_batches(F, 4, 16) on the same sessions, on
//                the process-fleet backend.
//
// --trace 0 measures the end-to-end metrics with tracing off.  --trace 1
// runs an untraced pass, then a traced pass of the same length whose spans
// are drained after every request and folded into per-layer time
// (fold.cpp), then a width-1 replay (replay.cpp) for the schedule-free work
// counters, twice, which must agree.  Every returned witness is checked
// against its formula, counts against the known count where the generator
// knows it; the last line of standard output is the result JSON.

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "cnf/fingerprint.hpp"
#include "obs/metrics.hpp"
#include "perfbench.hpp"
#include "sat/incremental_bsat.hpp"
#include "service/process_fleet.hpp"
#include "service/sampling_server.hpp"
#include "simplify/simplify.hpp"
#include "workloads/circuits.hpp"
#include "workloads/sketch.hpp"

#ifndef PERFBENCH_GIT_DESCRIBE
#define PERFBENCH_GIT_DESCRIBE "unknown"
#endif

namespace perfbench {
namespace {

using namespace unigen;
using Clock = std::chrono::steady_clock;

/// splitmix64 of (a, b): derives every generator seed from (benchmark
/// seed, role).
std::uint64_t mix(std::uint64_t a, std::uint64_t b) {
  std::uint64_t x = a ^ (b * 0x9E3779B97F4A7C15ull + 0x6A09E667F3BCC909ull);
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

double since(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

// --- inputs ----------------------------------------------------------------

struct SketchRow {
  const char* name;
  std::size_t spec_bits, selector_bits, mode_bits;
  std::uint64_t threshold;
};

// The Table-2 sketch rows at suite scale 0.1 (spec widths shrunk the way
// make_table2_suite shrinks them).  tutorial3 is left out: 10–22 s per cold
// request.  Measured on 4 cores: 0.09–0.45 s per cold count, 0.07–0.38 s
// per 8-witness request.
constexpr SketchRow kSketchRows[] = {
    {"TreeMax_like", 7, 11, 8, 150},
    {"LLReverse_like", 6, 15, 10, 700},
    {"LoginService2_like", 4, 20, 16, 50000},
    {"EnqueueSeqSK_like", 4, 26, 16, 40000},
    {"ProjectService3_like", 4, 39, 16, 20000},
    {"Sort_like", 4, 36, 16, 60000},
    {"Karatsuba_like", 5, 25, 16, 30000},
    {"ProcessBean_like", 4, 48, 16, 25000},
};
constexpr std::size_t kSketchCount = std::size(kSketchRows);

// A circuit-parity row between the s526 and s1196 families in size (20
// state bits, 6 inputs, |S| = 26): one cold count takes about 1.0 s and
// one 8-witness request about 0.66 s on 4 cores, within ±5% across
// generator seeds — the solver-hard tail of both mixes.
constexpr workloads::CircuitParityOptions kCircuitShape = {20, 6, 2, 5, 0};
constexpr const char* kCircuitName = "circuit_20x6_like";

// Both request mixes cycle the 8 sketch rows and two circuit rows: the
// sketch rows' latencies overlap, so the median does not rest on one
// formula, and the tail percentile falls between the two circuit rows of
// one shape.
constexpr std::size_t kRows = kSketchCount + 2;

Instance make_row(std::size_t row, std::uint64_t gen_seed) {
  if (row >= kSketchCount) {
    workloads::CircuitParityOptions o = kCircuitShape;
    o.seed = gen_seed;
    return Instance{kCircuitName,
                    workloads::make_circuit_parity_bench(o, kCircuitName),
                    std::nullopt};
  }
  const SketchRow& r = kSketchRows[row];
  workloads::SketchOptions o;
  o.spec_input_bits = r.spec_bits;
  o.selector_bits = r.selector_bits;
  o.mode_bits = r.mode_bits;
  o.threshold = r.threshold;
  o.seed = gen_seed;
  workloads::SketchBench b = workloads::make_sketch_bench(o, r.name);
  return Instance{r.name, std::move(b.cnf), b.witness_count.log2()};
}

/// Request i of the cold_count stream: row i mod kRows, with a fresh
/// generator seed per request.
Instance cold_instance(std::uint64_t seed, std::size_t i) {
  return make_row(i % kRows, mix(seed, 0xC01D0000ull + i));
}

/// The session set of warm_sample and fleet_batch: one formula per row.
std::vector<Instance> warm_instances(std::uint64_t seed) {
  std::vector<Instance> out;
  for (std::size_t j = 0; j < kRows; ++j)
    out.push_back(make_row(j, mix(seed, 0x3A4D00ull + j)));
  return out;
}

// --- workloads ---------------------------------------------------------------

enum class Kind { kColdCount, kWarmSample, kFleetBatch };

struct WorkloadSpec {
  const char* name;
  Kind kind;
};
constexpr WorkloadSpec kWorkloads[] = {
    {"cold_count", Kind::kColdCount},
    {"warm_sample", Kind::kWarmSample},
    {"fleet_batch", Kind::kFleetBatch},
};

constexpr std::size_t kWitnessesPerRequest = 8;  // warm_sample
constexpr std::size_t kBatchRequests = 4;        // fleet_batch cells ...
constexpr std::size_t kBatchSize = 16;           // ... of up to 16 witnesses
constexpr std::size_t kReplayCells = 4;  // per sketch session, trace runs
constexpr std::size_t kSetupRepeats = 3;
constexpr std::size_t kDigestRequests = 10;
constexpr double kCountBandLog2 = 0.84799690655495;  // log2(1 + 0.8)

struct Checks {
  std::vector<std::string> failures;
  void fail(const std::string& why) {
    if (failures.size() < 20) failures.push_back(why);
    else if (failures.size() == 20) failures.push_back("...");
  }
  bool ok() const { return failures.empty(); }
};

/// FNV-1a over every output of the first kDigestRequests requests — the
/// services' determinism contract says it repeats byte for byte.
struct Digest {
  std::uint64_t h = 0xCBF29CE484222325ull;
  std::size_t requests = 0;
  void bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) h = (h ^ b[i]) * 0x100000001B3ull;
  }
  template <typename T>
  void value(const T& v) {
    bytes(&v, sizeof v);
  }
  void model(const Model& m) {
    value(m.size());
    bytes(m.data(), m.size());
  }
};

struct Service {
  Kind kind = Kind::kColdCount;
  std::uint64_t seed = 0;
  std::size_t width = 1;
  SamplerPoolOptions options;
  std::unique_ptr<SamplingServer> server;
  std::vector<Instance> sessions;
  std::vector<ServerCountResponse> setup_counts;  ///< per session
  /// The widths a live session actually uses.
  std::size_t pool_width = 0;
  std::size_t fleet_workers = 0;
};

SamplerPoolOptions pool_options(Kind kind, std::uint64_t seed,
                                std::size_t width) {
  SamplerPoolOptions o;
  o.num_threads = width;
  o.seed = mix(seed, 0x9001ull);
  o.unigen.epsilon = 6.0;
  o.unigen.counter_epsilon = 0.8;
  o.unigen.counter_confidence = 0.8;
  if (kind == Kind::kFleetBatch) {
    o.unigen.fleet.backend = ExecBackend::kProcessFleet;
    o.unigen.fleet.num_workers = width;
  }
  return o;
}

bool valid_witness(const Cnf& cnf, const Model& m) {
  return m.size() == static_cast<std::size_t>(cnf.num_vars()) &&
         cnf.satisfied_by(m);
}

/// Accuracy of the counts against the generator's known count.
struct CountQuality {
  double log2_err_max = 0.0;
  std::uint64_t out_of_band = 0;
  void add(const Instance& inst, const ServerCountResponse& r) {
    if (!inst.known_log2 || r.status != RequestStatus::kComplete) return;
    const double err = std::fabs(r.approx_log2_count - *inst.known_log2);
    log2_err_max = std::max(log2_err_max, err);
    if (err > kCountBandLog2) ++out_of_band;
  }
};

/// Drains every ring into `out` (when given), counting drops first —
/// clear_all forgets them.
std::uint64_t drain(std::vector<obs::TraceEvent>* out) {
  const std::uint64_t dropped = obs::dropped_events();
  std::vector<obs::TraceEvent> events = obs::snapshot_events();
  obs::clear_all();
  if (out != nullptr) *out = std::move(events);
  return dropped;
}

struct TraceState {
  LayerTotals setup;
  LayerTotals pass;
  std::uint64_t dropped = 0;
  double simplify_on_miss_s = 0.0;
  double clauses_removed_frac_sum = 0.0;
  std::uint64_t simplified = 0;
};

/// The fleet-honesty check: every session must serve from real worker
/// processes, all spawned, none lost.  Folds the fleet counters into
/// `totals` (the same session set is visited once per call).
void check_fleet(Service& s, Checks& checks, FleetStats* totals) {
  for (const Instance& inst : s.sessions) {
    const AcquireResult a = s.server->registry().acquire(inst.cnf);
    if (!a.ok()) {
      checks.fail("fleet: session for " + inst.row + " is gone");
      continue;
    }
    const ProcessFleet* fleet = a.session->pool().fleet();
    if (fleet == nullptr) {
      checks.fail("fleet: " + inst.row + " fell back to the in-process pool");
      continue;
    }
    const FleetStats& st = fleet->stats();
    if (st.spawns < s.width)
      checks.fail("fleet: " + inst.row + " spawned " +
                  std::to_string(st.spawns) + " of " +
                  std::to_string(s.width) + " workers");
    if (st.crashes + st.redispatches + st.protocol_errors + st.send_stalls +
            st.hang_kills + st.deadline_kills + st.poisoned_tasks !=
        0)
      checks.fail("fleet: " + inst.row + " lost workers or tasks");
    if (totals != nullptr) {
      totals->spawns += st.spawns;
      totals->crashes += st.crashes;
      totals->redispatches += st.redispatches;
      totals->protocol_errors += st.protocol_errors;
      totals->send_stalls += st.send_stalls;
    }
  }
}

/// Builds the server and, on the warm workloads, cold-prepares every
/// session (fleet spawn included) through server.count.  cold_count's
/// set-up is the server plus one cold count that lets process-level lazy
/// set-up finish before timing.
std::unique_ptr<Service> set_up(Kind kind, std::uint64_t seed,
                                std::size_t width, Checks& checks,
                                CountQuality& quality, TraceState* trace) {
  auto s = std::make_unique<Service>();
  s->kind = kind;
  s->seed = seed;
  s->width = width;
  s->options = pool_options(kind, seed, width);
  SamplingServerOptions so;
  so.registry.pool = s->options;
  // cold_count keeps the default cap, so every cold request evicts; the
  // warm workloads hold their whole session set.
  so.registry.max_sessions = kind == Kind::kColdCount ? 8 : kRows;
  s->server = std::make_unique<SamplingServer>(so);
  std::vector<Instance> warmup;
  if (kind == Kind::kColdCount)
    warmup.push_back(make_row(2, mix(seed, 0x5E7ull)));
  else
    s->sessions = warm_instances(seed);
  const std::vector<Instance>& prepare = kind == Kind::kColdCount
                                             ? warmup
                                             : s->sessions;
  for (const Instance& inst : prepare) {
    ServerCountResponse r;
    {
      obs::Span span("bench.setup");
      r = s->server->count(inst.cnf);
    }
    if (trace != nullptr) {
      std::vector<obs::TraceEvent> events;
      trace->dropped += drain(&events);
      fold_request(events, "bench.setup", width,
                   kind == Kind::kFleetBatch, trace->setup);
    }
    if (r.status != RequestStatus::kComplete || r.unsat)
      checks.fail("set-up: prepare of " + inst.row + " failed");
    if (kind != Kind::kColdCount) {
      quality.add(inst, r);
      s->setup_counts.push_back(r);
    }
  }
  if (kind == Kind::kFleetBatch) check_fleet(*s, checks, nullptr);
  const AcquireResult a = s->server->registry().acquire(prepare.front().cnf);
  if (a.ok()) {
    s->pool_width = a.session->pool().num_threads();
    const ProcessFleet* fleet = a.session->pool().fleet();
    s->fleet_workers = fleet != nullptr ? fleet->num_workers() : 0;
  }
  return s;
}

struct PassStats {
  std::vector<double> latencies;
  std::uint64_t requests = 0;
  /// Requests whose call did not complete, or that returned a timed-out,
  /// cancelled or invalid slot.  ⊥ is the algorithm's bounded-probability
  /// outcome, not a service failure: it only lowers ok_frac.
  std::uint64_t failed = 0;
  std::uint64_t slots = 0;         ///< witness slots (or counts) attempted
  std::uint64_t ok_slots = 0;
  std::uint64_t bottom_slots = 0;  ///< ⊥ (kFail) witness slots
  std::uint64_t outputs = 0;       ///< ok witnesses (or ok counts)
  double server_s = 0.0;           ///< summed request latency
};

/// What the first requests returned, for the replay comparison.
struct Firsts {
  std::vector<ServerCountResponse> counts;  // cold_count, request order
  std::vector<std::vector<Model>> outputs;  // per session, first request
};

/// Times the public calls the server makes without a span of its own —
/// fingerprint_cnf, the simplifier, make_session_key — on the request's
/// formula, each in a benchmark span, outside the request.
void time_direct(const Instance& inst, const SamplerPoolOptions& options,
                 bool miss, TraceState& trace) {
  static std::uint64_t sink = 0;
  {
    obs::Span span("bench.fingerprint");
    sink += fingerprint_cnf(inst.cnf).lo;
  }
  {
    const Clock::time_point t0 = Clock::now();
    std::unique_ptr<Simplifier> simp;
    {
      obs::Span span("bench.simplify");
      simp = std::make_unique<Simplifier>(inst.cnf, options.unigen.simplify);
    }
    if (miss) trace.simplify_on_miss_s += since(t0);
    const SimplifyStats& st = simp->stats();
    if (st.original_clauses > 0) {
      trace.clauses_removed_frac_sum +=
          static_cast<double>(st.clauses_removed()) /
          static_cast<double>(st.original_clauses);
      ++trace.simplified;
    }
  }
  {
    obs::Span span("bench.session_key");
    sink += make_session_key(inst.cnf, options).key.formula.lo;
  }
  std::vector<obs::TraceEvent> events;
  trace.dropped += drain(&events);
  fold_direct(events, trace.pass);
}

/// One server call inside the benchmark's request span; the checks of its
/// outputs happen after the span closes.
template <typename Call>
auto timed_request(double& latency, Call&& call) {
  const Clock::time_point t0 = Clock::now();
  obs::Span span("bench.request");
  auto response = call();
  latency = since(t0);
  return response;
}

/// Checks one response and accounts it; returns false when the request
/// failed.  The sample checks also collect the outputs in slot order into
/// `first`.
bool check_count(const Instance& inst, const ServerCountResponse& r,
                 PassStats& ps, CountQuality& quality, Digest* digest) {
  ++ps.slots;
  const bool ok = r.status == RequestStatus::kComplete && !r.unsat;
  if (ok) {
    ++ps.ok_slots;
    ++ps.outputs;
  }
  quality.add(inst, r);
  if (digest != nullptr) {
    digest->value(r.status);
    digest->value(r.exact);
    digest->value(r.unsat);
    digest->value(r.approx_log2_count);
  }
  return ok;
}

bool check_samples(const Instance& inst, const ServerSampleResponse& r,
                   PassStats& ps, Checks& checks, Digest* digest,
                   std::vector<Model>& first) {
  bool ok = r.status == RequestStatus::kComplete &&
            r.samples.size() == kWitnessesPerRequest;
  for (const SampleResult& slot : r.samples) {
    ++ps.slots;
    if (slot.status == SampleResult::Status::kFail) {
      ++ps.bottom_slots;
    } else if (!slot.ok()) {
      ok = false;
    } else if (!valid_witness(inst.cnf, slot.witness)) {
      checks.fail("invalid witness for " + inst.row);
      ok = false;
    } else {
      ++ps.ok_slots;
      ++ps.outputs;
    }
    if (digest != nullptr) {
      digest->value(slot.status);
      digest->model(slot.witness);
    }
    first.push_back(slot.ok() ? slot.witness : Model{});
  }
  return ok;
}

bool check_batches(const Instance& inst, const ServerBatchResponse& r,
                   PassStats& ps, Checks& checks, Digest* digest,
                   std::vector<Model>& first) {
  bool ok = r.status == RequestStatus::kComplete &&
            r.batches.size() == kBatchRequests;
  for (const BatchResult& b : r.batches) {
    ++ps.slots;
    if (b.status == SampleResult::Status::kFail) {
      ++ps.bottom_slots;
    } else if (!b.ok() || b.models.empty()) {
      ok = false;
    } else {
      ++ps.ok_slots;
      std::vector<Model> sorted = b.models;
      std::sort(sorted.begin(), sorted.end());
      if (std::adjacent_find(sorted.begin(), sorted.end()) != sorted.end())
        checks.fail("repeated witness in a batch for " + inst.row);
      for (const Model& m : b.models) {
        if (valid_witness(inst.cnf, m)) {
          ++ps.outputs;
        } else {
          checks.fail("invalid witness for " + inst.row);
          ok = false;
        }
      }
    }
    if (digest != nullptr) {
      digest->value(b.status);
      digest->value(b.models.size());
      for (const Model& m : b.models) digest->model(m);
    }
    first.insert(first.end(), b.models.begin(), b.models.end());
  }
  return ok;
}

/// One closed-loop pass of `seconds`, continuing the request sequence at
/// `next`.  Every output is verified; the first kDigestRequests requests
/// of the run feed the digest.
void run_pass(Service& s, std::size_t& next, double seconds, PassStats& ps,
              Checks& checks, Digest& digest, Firsts& firsts,
              CountQuality& quality, TraceState* trace) {
  SamplingServer& server = *s.server;
  const std::size_t first = next;
  const Clock::time_point start = Clock::now();
  // The pass ends on a whole cycle of the rows, so every run weighs each
  // row the same wherever the clock runs out.
  while (since(start) < seconds || (next - first) % kRows != 0) {
    const std::size_t i = next++;
    Instance cold;
    if (s.kind == Kind::kColdCount) cold = cold_instance(s.seed, i);
    const Instance& inst = s.kind == Kind::kColdCount
                               ? cold
                               : s.sessions[i % s.sessions.size()];
    Digest* d = nullptr;
    if (i < kDigestRequests) {
      d = &digest;
      ++digest.requests;
      digest.value(i);
    }
    double latency = 0.0;
    bool ok = false;
    bool warm = false;
    std::vector<Model> first;
    if (s.kind == Kind::kColdCount) {
      const ServerCountResponse r =
          timed_request(latency, [&] { return server.count(inst.cnf); });
      warm = r.warm;
      ok = check_count(inst, r, ps, quality, d);
      if (firsts.counts.size() < kRows) firsts.counts.push_back(r);
    } else if (s.kind == Kind::kWarmSample) {
      const ServerSampleResponse r = timed_request(latency, [&] {
        return server.sample(inst.cnf, kWitnessesPerRequest);
      });
      warm = r.warm;
      ok = check_samples(inst, r, ps, checks, d, first);
    } else {
      const ServerBatchResponse r = timed_request(latency, [&] {
        return server.sample_batches(inst.cnf, kBatchRequests, kBatchSize);
      });
      warm = r.warm;
      ok = check_batches(inst, r, ps, checks, d, first);
    }
    if (s.kind != Kind::kColdCount && firsts.outputs.size() < s.sessions.size())
      firsts.outputs.push_back(std::move(first));
    ps.latencies.push_back(latency);
    ps.server_s += latency;
    ++ps.requests;
    if (!ok) ++ps.failed;
    // Each workload must do what it claims: cold_count never hits a live
    // session, the warm workloads always do.
    if (warm != (s.kind != Kind::kColdCount))
      checks.fail("request " + std::to_string(i) + " was " +
                  (warm ? "warm" : "cold"));
    if (trace != nullptr) {
      std::vector<obs::TraceEvent> events;
      trace->dropped += drain(&events);
      fold_request(events, "bench.request", s.width,
                   s.kind == Kind::kFleetBatch, trace->pass);
      time_direct(inst, s.options, !warm, *trace);
    }
  }
}

// --- reporting -----------------------------------------------------------------

/// Linear-interpolated quantile (q in [0, 1]) of unsorted values.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double ratio(double a, double b) { return b > 0.0 ? a / b : 0.0; }

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

std::string json_number(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

double peak_rss_mb() {
  rusage self{}, children{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &children);
  return static_cast<double>(self.ru_maxrss + children.ru_maxrss) / 1024.0;
}

std::size_t nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0)
    return static_cast<std::size_t>(std::max(1, CPU_COUNT(&set)));
  return std::max(1u, std::thread::hardware_concurrency());
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string source_digest = "unknown";
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<cold_count|warm_sample|fleet_batch> --seed N --seconds S "
               "--trace <0|1> [--source-digest D]\n",
               why);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + key).c_str());
    const std::string val = argv[++i];
    try {
      if (key == "--workload") a.workload = val;
      else if (key == "--seed") a.seed = std::stoull(val);
      else if (key == "--seconds") a.seconds = std::stod(val);
      else if (key == "--trace") a.trace = std::stoi(val) != 0;
      else if (key == "--source-digest") a.source_digest = val;
      else usage(("unknown argument " + key).c_str());
    } catch (const std::logic_error&) {
      usage(("bad value for " + key).c_str());
    }
  }
  if (a.workload.empty()) usage("--workload is required");
  if (!(a.seconds > 0.0)) usage("--seconds must be positive");
  return a;
}

struct Hist {
  std::uint64_t count = 0;
  std::uint64_t sum_ns = 0;
  double mean_s() const {
    return count == 0 ? 0.0 : static_cast<double>(sum_ns) * 1e-9 /
                                  static_cast<double>(count);
  }
};

/// The change of one metric-registry histogram between two snapshots.
Hist histogram_delta(const obs::MetricsSnapshot& before,
                     const obs::MetricsSnapshot& after, const char* name) {
  Hist out;
  for (const auto& row : after.histograms)
    if (row.name == name) out = Hist{row.count, row.sum_ns};
  for (const auto& row : before.histograms)
    if (row.name == name) {
      out.count -= row.count;
      out.sum_ns -= row.sum_ns;
    }
  return out;
}

/// What one run accumulates across set-up and passes.
struct Run {
  Kind kind = Kind::kColdCount;
  std::uint64_t seed = 0;
  std::size_t width = 1;
  double seconds = 0.0;
  Checks checks;
  CountQuality quality;
  Digest digest;
  Firsts firsts;
  PassStats pass;
  std::size_t next = 0;  ///< index of the next request
  std::size_t pool_width = 0, fleet_workers = 0;  ///< read back from a session
};

/// --trace 0: set-up several times (the last one serves), one timed pass.
std::vector<Metric> end_to_end(Run& run) {
  std::vector<double> setups;
  std::unique_ptr<Service> service;
  for (std::size_t k = 0; k < kSetupRepeats; ++k) {
    service.reset();
    CountQuality scratch;
    const Clock::time_point t0 = Clock::now();
    service = set_up(run.kind, run.seed, run.width, run.checks,
                     k + 1 == kSetupRepeats ? run.quality : scratch, nullptr);
    setups.push_back(since(t0));
  }
  run.pool_width = service->pool_width;
  run.fleet_workers = service->fleet_workers;
  PassStats& pass = run.pass;
  run_pass(*service, run.next, run.seconds, pass, run.checks, run.digest,
           run.firsts, run.quality, nullptr);
  if (run.kind == Kind::kFleetBatch) check_fleet(*service, run.checks, nullptr);
  service.reset();  // joins pools, reaps fleet workers
  std::printf("latency n=%llu p50=%.6f p90=%.6f\n",
              static_cast<unsigned long long>(pass.requests),
              quantile(pass.latencies, 0.5), quantile(pass.latencies, 0.9));
  return {
      {"setup_s", quantile(setups, 0.5), "s"},
      {"latency_p50_s", quantile(pass.latencies, 0.5), "s"},
      {"latency_p90_s", quantile(pass.latencies, 0.9), "s"},
      {"requests_per_s",
       ratio(static_cast<double>(pass.requests), pass.server_s), "1/s"},
      {"outputs_per_s", ratio(static_cast<double>(pass.outputs), pass.server_s),
       "1/s"},
      {"ok_frac",
       ratio(static_cast<double>(pass.ok_slots),
             static_cast<double>(pass.slots)),
       "ratio"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
  };
}

/// --trace 1: an untraced pass, a traced pass of the same length, and the
/// width-1 replay (twice).
std::vector<Metric> per_layer(Run& run) {
  const Kind kind = run.kind;
  Checks& checks = run.checks;
  // Rings are drained after every request; this only has to hold one.
  obs::set_ring_capacity(4096);
  TraceState trace;
  obs::set_enabled(true);
  std::unique_ptr<Service> service =
      set_up(kind, run.seed, run.width, checks, run.quality, &trace);
  obs::set_enabled(false);
  run.pool_width = service->pool_width;
  run.fleet_workers = service->fleet_workers;
  PassStats untraced;
  run_pass(*service, run.next, run.seconds, untraced, checks, run.digest,
           run.firsts, run.quality, nullptr);

  PassStats& pass = run.pass;
  const SessionRegistryStats reg0 = service->server->stats();
  const std::uint64_t builds0 = IncrementalBsat::total_constructions();
  const obs::MetricsSnapshot m0 = obs::metrics().snapshot();
  obs::set_enabled(true);
  run_pass(*service, run.next, run.seconds, pass, checks, run.digest,
           run.firsts, run.quality, &trace);
  obs::set_enabled(false);
  const obs::MetricsSnapshot m1 = obs::metrics().snapshot();
  const std::uint64_t builds1 = IncrementalBsat::total_constructions();
  const SessionRegistryStats reg1 = service->server->stats();

  // The width-1 replay covers the sketch rows: cold_count's first count of
  // each, and on the warm workloads each sketch session's count plus the
  // first kReplayCells cells of its first request.  The circuit rows are
  // left out: their counts' search work moves by up to 1% between processes
  // (learnt-clause reduction visits clauses in pointer-hash order), and at
  // width 1 they would add about 10 s to the run.
  FleetStats fleet;
  std::uint64_t timeout_retries = 0;
  std::vector<Instance> cold_inputs;
  std::vector<ReplayInput> inputs;
  if (kind == Kind::kColdCount) {
    for (std::size_t i = 0; i < kSketchCount; ++i)
      cold_inputs.push_back(cold_instance(run.seed, i));
    for (const Instance& inst : cold_inputs) inputs.push_back({&inst});
  } else {
    if (kind == Kind::kFleetBatch) check_fleet(*service, checks, &fleet);
    for (std::size_t j = 0; j < kSketchCount; ++j) {
      const Instance& inst = service->sessions[j];
      const AcquireResult a = service->server->registry().acquire(inst.cnf);
      if (!a.ok()) {
        checks.fail("session for " + inst.row + " is gone");
        break;
      }
      for (const SamplerPoolWorkerStats& w : a.session->pool().stats().workers)
        timeout_retries += w.bsat_timeout_retries;
      inputs.push_back({&inst, &a.session->pool().prepared()});
    }
  }
  const std::size_t cells = kind == Kind::kColdCount ? 0 : kReplayCells;
  const std::size_t batch = kind == Kind::kFleetBatch ? kBatchSize : 0;
  const ReplayResult rep = replay(inputs, service->options, cells, batch);
  const ReplayResult rep2 = replay(inputs, service->options, cells, batch);
  if (!rep.c.same_outcome_work(rep2.c) || rep.count_log2 != rep2.count_log2 ||
      rep.outputs != rep2.outputs)
    checks.fail("width-1 replay is not repeatable");
  // The replay must give the server's answers: the counts of cold_count's
  // first requests or of the warm set-up, and the sessions' witnesses.
  const std::vector<ServerCountResponse>& served_counts =
      kind == Kind::kColdCount ? run.firsts.counts : service->setup_counts;
  for (std::size_t j = 0; j < inputs.size(); ++j) {
    if (j >= served_counts.size()) {
      checks.fail("too few counts to compare with the replay");
      break;
    }
    const ServerCountResponse& r = served_counts[j];
    if (!r.exact && !r.unsat &&
        (!rep.count_valid[j] || rep.count_log2[j] != r.approx_log2_count))
      checks.fail("replayed count differs for " + inputs[j].inst->row);
    if (kind == Kind::kColdCount) continue;
    // Singles: the first kReplayCells slots; batches: all of them.
    std::vector<Model> served = j < run.firsts.outputs.size()
                                    ? run.firsts.outputs[j]
                                    : std::vector<Model>{};
    if (kind == Kind::kWarmSample && served.size() > kReplayCells)
      served.resize(kReplayCells);
    if (served != rep.outputs[j])
      checks.fail("replayed witnesses differ for " + inputs[j].inst->row);
  }
  service.reset();

  // Layer attribution: carve the directly-timed fingerprint and simplifier
  // out of the registry's self time.
  LayerTotals& t = trace.pass;
  const double cnf_s = std::min(t.fingerprint.total_s, t.layer_s[kRegistry]);
  t.layer_s[kRegistry] -= cnf_s;
  t.layer_s[kCnf] += cnf_s;
  const double simp_s = std::min(trace.simplify_on_miss_s, t.layer_s[kRegistry]);
  t.layer_s[kRegistry] -= simp_s;
  t.layer_s[kSimplify] += simp_s;
  // Prepare and count spans: the pass's on cold_count, the set-up's on the
  // warm workloads, whose requests never prepare.
  const LayerTotals& prep = t.count.n > 0 ? t : trace.setup;

  const ReplayCounters& c = rep.c;
  // Replay work per request: a count on cold_count, a request's worth of
  // cells (8 singles or 4 batches) otherwise.
  const double replay_requests =
      kind == Kind::kColdCount
          ? static_cast<double>(c.counts)
          : static_cast<double>(c.cells) /
                static_cast<double>(kind == Kind::kWarmSample
                                        ? kWitnessesPerRequest
                                        : kBatchRequests);
  const auto per = [](std::uint64_t a, double b) {
    return ratio(static_cast<double>(a), b);
  };
  const double solves_per_cell = per(c.solves, static_cast<double>(c.bsat_cells));
  const Hist solve = histogram_delta(m0, m1, "bsat.solve_seconds");
  const Hist queue = histogram_delta(m0, m1, "pool.queue_wait_seconds");
  // Fleet workers keep their metric registries; there the mean solve is the
  // workers' bsat.call time over the replay's solves per cell.
  const double solve_mean = solve.count > 0
                                ? solve.mean_s()
                                : ratio(t.cell_enum.mean(), solves_per_cell);
  const double reg_requests =
      static_cast<double>(reg1.requests - reg0.requests);
  const double traced_mean =
      ratio(pass.server_s, static_cast<double>(pass.requests));
  const double untraced_mean =
      ratio(untraced.server_s, static_cast<double>(untraced.requests));
  std::vector<Metric> metrics = {
      {"registry.hit_rate", per(reg1.hits - reg0.hits, reg_requests), "ratio"},
      {"registry.key_s", t.session_key.mean(), "s"},
      {"registry.evictions", per(reg1.evictions - reg0.evictions, reg_requests),
       "count/req"},
      {"cnf.fingerprint_s", t.fingerprint.mean(), "s"},
      {"simplify.s", t.simplify.mean(), "s"},
      {"simplify.clauses_removed_frac",
       ratio(trace.clauses_removed_frac_sum,
             static_cast<double>(trace.simplified)),
       "ratio"},
      {"core.prepare_s", prep.prepare.mean(), "s"},
      {"core.prepare_self_s", prep.prepare_self.mean(), "s"},
      {"counting.count_s", prep.count.mean(), "s"},
      {"counting.iteration_s", prep.iteration.mean(), "s"},
      {"counting.bsat_calls",
       per(c.count_bsat_calls, static_cast<double>(c.counts)), "count"},
      {"counting.leapfrog_hit_rate",
       per(c.iterations_warm, static_cast<double>(c.iterations)), "ratio"},
      {"counting.worker_idle_frac",
       prep.count_cap_s > 0 ? 1.0 - prep.count_busy_s / prep.count_cap_s : 0.0,
       "ratio"},
      {"counting.log2_err_max", run.quality.log2_err_max, "log2"},
      {"counting.out_of_band", static_cast<double>(run.quality.out_of_band),
       "count"},
      {"core.accept_cell_s", t.accept_cell.mean(), "s"},
      {"core.bsat_calls_per_cell",
       per(c.sample_bsat_calls, static_cast<double>(c.cells)), "count"},
      {"core.fail_frac",
       per(pass.bottom_slots, static_cast<double>(pass.slots)), "ratio"},
      {"core.timeout_retries", static_cast<double>(timeout_retries), "count"},
      {"sat.solves_per_cell", solves_per_cell, "count"},
      {"sat.solve_s_mean", solve_mean, "s"},
      {"sat.cell_enum_s", t.cell_enum.mean(), "s"},
      {"sat.propagations", per(c.propagations, replay_requests), "count/req"},
      {"sat.conflicts", per(c.conflicts, replay_requests), "count/req"},
      {"sat.decisions", per(c.decisions, replay_requests), "count/req"},
      {"sat.propagations_per_model",
       per(c.propagations, static_cast<double>(c.models)), "count"},
      {"sat.engine_builds",
       per(builds1 - builds0, static_cast<double>(pass.requests)),
       "count/req"},
      {"pool.queue_wait_s", queue.mean_s(), "s"},
      {"pool.worker_idle_frac",
       t.fan_cap_s > 0 ? 1.0 - t.fan_busy_s / t.fan_cap_s : 0.0, "ratio"},
      {"fleet.dispatch_overhead_s", t.dispatch_overhead.mean(), "s"},
      {"fleet.spawns", static_cast<double>(fleet.spawns), "count"},
      {"fleet.crashes", static_cast<double>(fleet.crashes), "count"},
      {"fleet.redispatches", static_cast<double>(fleet.redispatches), "count"},
      {"fleet.protocol_errors", static_cast<double>(fleet.protocol_errors),
       "count"},
      {"fleet.send_stalls", static_cast<double>(fleet.send_stalls), "count"},
      {"obs.overhead_frac",
       untraced_mean > 0 ? traced_mean / untraced_mean - 1.0 : 0.0, "ratio"},
      {"obs.unattributed_frac", ratio(t.layer_s[kHarness], t.wall_s), "ratio"},
      {"obs.spans_dropped", static_cast<double>(trace.dropped), "count"},
  };
  for (std::size_t l = kRegistry; l < kLayerCount; ++l)
    metrics.push_back({std::string("share.") + kLayerNames[l],
                       ratio(t.layer_s[l], t.wall_s), "ratio"});
  metrics.push_back(
      {"share.count_incl", ratio(t.count_incl_s, t.wall_s), "ratio"});
  metrics.push_back(
      {"share.fanout_incl", ratio(t.fanout_incl_s, t.wall_s), "ratio"});
  if (trace.dropped != 0) checks.fail("the traced run dropped spans");
  if (t.roots != pass.requests)
    checks.fail("some traced requests have no root span");

  std::printf("replay counts=%llu count_bsat_calls=%llu cells=%llu "
              "sample_bsat_calls=%llu solves=%llu models=%llu\n",
              static_cast<unsigned long long>(c.counts),
              static_cast<unsigned long long>(c.count_bsat_calls),
              static_cast<unsigned long long>(c.cells),
              static_cast<unsigned long long>(c.sample_bsat_calls),
              static_cast<unsigned long long>(c.solves),
              static_cast<unsigned long long>(c.models));
  for (const ReplayCounters* r : {&rep.c, &rep2.c})
    std::printf("replay search propagations=%llu conflicts=%llu "
                "decisions=%llu\n",
                static_cast<unsigned long long>(r->propagations),
                static_cast<unsigned long long>(r->conflicts),
                static_cast<unsigned long long>(r->decisions));
  std::printf("latency untraced n=%llu traced n=%llu\n",
              static_cast<unsigned long long>(untraced.requests),
              static_cast<unsigned long long>(pass.requests));
  pass.requests += untraced.requests;
  pass.failed += untraced.failed;
  return metrics;
}

int run_benchmark(const Args& args) {
  const WorkloadSpec* spec = nullptr;
  for (const WorkloadSpec& w : kWorkloads)
    if (args.workload == w.name) spec = &w;
  if (spec == nullptr) usage(("unknown workload " + args.workload).c_str());
  Run run;
  run.kind = spec->kind;
  run.seed = args.seed;
  run.seconds = args.seconds;
  const std::size_t cores = nproc();
  run.width = cores;
  const std::vector<Metric> metrics =
      args.trace ? per_layer(run) : end_to_end(run);

  // Machine shape: a result says what produced it, and a session wider
  // than the cores the run may use is flagged.
  const bool too_wide =
      run.pool_width > cores || run.fleet_workers > cores;
  std::printf(
      "machine {\"nproc\":%zu,\"hardware_concurrency\":%u,"
      "\"git_describe\":\"%s\",\"source_digest\":\"%s\",\"pool_width\":%zu,"
      "\"fleet_workers\":%zu,\"width_exceeds_nproc\":%s}\n",
      cores, std::thread::hardware_concurrency(),
      json_escape(PERFBENCH_GIT_DESCRIBE).c_str(),
      json_escape(args.source_digest).c_str(), run.pool_width,
      run.fleet_workers, too_wide ? "true" : "false");
  if (too_wide)
    std::fprintf(stderr, "perfbench: a session is wider than nproc %zu\n",
                 cores);

  std::printf("digest %s requests=%zu %016llx\n", spec->name,
              run.digest.requests,
              static_cast<unsigned long long>(run.digest.h));
  for (const std::string& f : run.checks.failures)
    std::fprintf(stderr, "perfbench: check failed: %s\n", f.c_str());
  std::string out = "{\"correct\": ";
  out += run.checks.ok() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(run.pass.requests);
  out += ", \"failed\": " + std::to_string(run.pass.failed);
  out += ", \"metrics\": {";
  for (std::size_t k = 0; k < metrics.size(); ++k) {
    if (k > 0) out += ", ";
    out += "\"" + metrics[k].name + "\": {\"value\": " +
           json_number(metrics[k].value) + ", \"unit\": \"" +
           metrics[k].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run_benchmark(perfbench::parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
