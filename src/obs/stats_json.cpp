#include "obs/stats_json.hpp"

#include <cstdio>
#include <type_traits>

namespace unigen::obs {

namespace {

// One field list per struct: the keys of its JSON object, in order.
template <class F>
void visit_fields(const SolverStats& s, F&& f) {
  f("decisions", s.decisions);
  f("propagations", s.propagations);
  f("xor_propagations", s.xor_propagations);
  f("conflicts", s.conflicts);
  f("restarts", s.restarts);
  f("learnt_clauses", s.learnt_clauses);
  f("removed_clauses", s.removed_clauses);
  f("minimized_literals", s.minimized_literals);
  f("gauss_units", s.gauss_units);
  f("gauss_rows", s.gauss_rows);
  f("solver_rebuilds", s.solver_rebuilds);
  f("reused_solves", s.reused_solves);
  f("retracted_blocks", s.retracted_blocks);
}

template <class F>
void visit_fields(const SimplifyStats& s, F&& f) {
  f("ran", s.ran);
  f("unsat", s.unsat);
  f("rounds", s.rounds);
  f("original_clauses", s.original_clauses);
  f("original_literals", s.original_literals);
  f("result_clauses", s.result_clauses);
  f("result_literals", s.result_literals);
  f("units_fixed", s.units_fixed);
  f("tautologies_removed", s.tautologies_removed);
  f("pure_literals_fixed", s.pure_literals_fixed);
  f("subsumed_clauses", s.subsumed_clauses);
  f("strengthened_literals", s.strengthened_literals);
  f("eliminated_vars", s.eliminated_vars);
  f("seconds", s.seconds);
}

template <class F>
void visit_fields(const UniGenStats& s, F&& f) {
  f("kappa", s.kappa);
  f("pivot", s.pivot);
  f("hi_thresh", s.hi_thresh);
  f("lo_thresh", s.lo_thresh);
  f("approx_log2_count", s.approx_log2_count);
  f("q", s.q);
  f("prepare_seconds", s.prepare_seconds);
  f("prepare_bsat_calls", s.prepare_bsat_calls);
  f("trivial", s.trivial);
  f("samples_requested", s.samples_requested);
  f("samples_ok", s.samples_ok);
  f("samples_failed", s.samples_failed);
  f("samples_timed_out", s.samples_timed_out);
  f("samples_cancelled", s.samples_cancelled);
  f("sample_bsat_calls", s.sample_bsat_calls);
  f("bsat_timeout_retries", s.bsat_timeout_retries);
  f("sample_seconds", s.sample_seconds);
  f("solver_rebuilds", s.solver_rebuilds);
  f("reused_solves", s.reused_solves);
  f("retracted_blocks", s.retracted_blocks);
  f("solver_propagations", s.solver_propagations);
  f("counter_solver_rebuilds", s.counter_solver_rebuilds);
  f("total_xor_row_length", s.total_xor_row_length);
  f("total_xor_rows", s.total_xor_rows);
}

template <class F>
void visit_fields(const SamplerPoolWorkerStats& s, F&& f) {
  f("requests_served", s.requests_served);
  f("solver_rebuilds", s.solver_rebuilds);
  f("reused_solves", s.reused_solves);
  f("retracted_blocks", s.retracted_blocks);
  f("solver_propagations", s.solver_propagations);
  f("sample_bsat_calls", s.sample_bsat_calls);
  f("bsat_timeout_retries", s.bsat_timeout_retries);
  f("total_xor_rows", s.total_xor_rows);
  f("total_xor_row_length", s.total_xor_row_length);
}

template <class F>
void visit_fields(const SamplerPoolStats& s, F&& f) {
  f("requests", s.requests);
  f("samples_ok", s.samples_ok);
  f("samples_failed", s.samples_failed);
  f("samples_timed_out", s.samples_timed_out);
  f("samples_cancelled", s.samples_cancelled);
  f("service_seconds", s.service_seconds);
}

template <class F>
void visit_fields(const SessionRegistryStats& s, F&& f) {
  f("requests", s.requests);
  f("hits", s.hits);
  f("misses", s.misses);
  f("evictions", s.evictions);
  f("prepare_failures", s.prepare_failures);
  f("sessions", s.sessions);
  f("resident_bytes", s.resident_bytes);
}

template <class F>
void visit_fields(const FleetStats& s, F&& f) {
  f("spawns", s.spawns);
  f("spawn_failures", s.spawn_failures);
  f("dials", s.dials);
  f("dial_failures", s.dial_failures);
  f("send_stalls", s.send_stalls);
  f("protocol_errors", s.protocol_errors);
  f("crashes", s.crashes);
  f("hang_kills", s.hang_kills);
  f("deadline_kills", s.deadline_kills);
  f("respawns", s.respawns);
  f("redispatches", s.redispatches);
  f("poisoned_tasks", s.poisoned_tasks);
  f("total_recovery_seconds", s.total_recovery_seconds);
  f("max_recovery_seconds", s.max_recovery_seconds);
}

/// Appends `"name":value` to the object open in `out`.
struct MemberWriter {
  std::string& out;
  template <class T>
  void operator()(const char* name, const T& value) const {
    if (out.back() != '{') out += ',';
    out += '"';
    out += name;
    out += "\":";
    char buf[32];
    if constexpr (std::is_same_v<T, bool>) {
      std::snprintf(buf, sizeof(buf), "%s", value ? "true" : "false");
    } else if constexpr (std::is_floating_point_v<T>) {
      std::snprintf(buf, sizeof(buf), "%.17g", static_cast<double>(value));
    } else if constexpr (std::is_signed_v<T>) {
      std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(value));
    } else {
      std::snprintf(buf, sizeof(buf), "%llu",
                    static_cast<unsigned long long>(value));
    }
    out += buf;
  }
};

/// `s`'s object with its field list written and the brace still open.
template <class S>
std::string open_object(const S& s) {
  std::string out = "{";
  visit_fields(s, MemberWriter{out});
  return out;
}

}  // namespace

std::string to_json(const SolverStats& s) { return open_object(s) + '}'; }
std::string to_json(const SimplifyStats& s) { return open_object(s) + '}'; }
std::string to_json(const SamplerPoolWorkerStats& s) {
  return open_object(s) + '}';
}
std::string to_json(const SessionRegistryStats& s) {
  return open_object(s) + '}';
}
std::string to_json(const FleetStats& s) { return open_object(s) + '}'; }

std::string to_json(const UniGenStats& s) {
  return open_object(s) + ",\"simplify\":" + to_json(s.simplify) + '}';
}

std::string to_json(const SamplerPoolStats& s) {
  std::string out = open_object(s) + ",\"prepare\":" + to_json(s.prepare) +
                    ",\"workers\":[";
  for (std::size_t i = 0; i < s.workers.size(); ++i) {
    if (i != 0) out += ',';
    out += to_json(s.workers[i]);
  }
  return out + "]}";
}

const char* to_string(SampleResult::Status s) {
  switch (s) {
    case SampleResult::Status::kOk:
      return "ok";
    case SampleResult::Status::kFail:
      return "fail";
    case SampleResult::Status::kTimeout:
      return "timeout";
    case SampleResult::Status::kUnsat:
      return "unsat";
    case SampleResult::Status::kCancelled:
      return "cancelled";
  }
  return "unknown";
}

}  // namespace unigen::obs
