#include "obs/stats_json.hpp"

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <type_traits>

namespace unigen::obs {

// --- JsonValue ----------------------------------------------------------

JsonValue JsonValue::object() {
  JsonValue v;
  v.kind_ = Kind::kObject;
  return v;
}
JsonValue JsonValue::array() {
  JsonValue v;
  v.kind_ = Kind::kArray;
  return v;
}
JsonValue JsonValue::of_bool(bool b) {
  JsonValue v;
  v.kind_ = Kind::kBool;
  v.bool_ = b;
  return v;
}
JsonValue JsonValue::of_double(double d) {
  JsonValue v;
  v.kind_ = Kind::kNumber;
  v.num_kind_ = NumKind::kDouble;
  v.dbl_ = d;
  return v;
}
JsonValue JsonValue::of_int(std::int64_t i) {
  JsonValue v;
  v.kind_ = Kind::kNumber;
  v.num_kind_ = NumKind::kInt;
  v.int_ = i;
  return v;
}
JsonValue JsonValue::of_uint(std::uint64_t u) {
  JsonValue v;
  v.kind_ = Kind::kNumber;
  v.num_kind_ = NumKind::kUint;
  v.uint_ = u;
  return v;
}
JsonValue JsonValue::of_string(std::string s) {
  JsonValue v;
  v.kind_ = Kind::kString;
  v.str_ = std::move(s);
  return v;
}

const JsonValue* JsonValue::find(std::string_view key) const {
  if (kind_ != Kind::kObject) return nullptr;
  for (const auto& [k, v] : obj_)
    if (k == key) return &v;
  return nullptr;
}

void JsonValue::set(std::string key, JsonValue v) {
  if (kind_ == Kind::kNull) kind_ = Kind::kObject;
  for (auto& [k, old] : obj_) {
    if (k == key) {
      old = std::move(v);
      return;
    }
  }
  obj_.emplace_back(std::move(key), std::move(v));
}

void JsonValue::push_back(JsonValue v) {
  if (kind_ == Kind::kNull) kind_ = Kind::kArray;
  arr_.push_back(std::move(v));
}

bool JsonValue::as_bool() const {
  if (kind_ != Kind::kBool) throw std::runtime_error("json: not a bool");
  return bool_;
}
double JsonValue::as_double() const {
  if (kind_ != Kind::kNumber) throw std::runtime_error("json: not a number");
  switch (num_kind_) {
    case NumKind::kDouble:
      return dbl_;
    case NumKind::kInt:
      return static_cast<double>(int_);
    case NumKind::kUint:
      return static_cast<double>(uint_);
  }
  return 0.0;
}
std::int64_t JsonValue::as_int() const {
  if (kind_ != Kind::kNumber) throw std::runtime_error("json: not a number");
  switch (num_kind_) {
    case NumKind::kDouble:
      return static_cast<std::int64_t>(dbl_);
    case NumKind::kInt:
      return int_;
    case NumKind::kUint:
      return static_cast<std::int64_t>(uint_);
  }
  return 0;
}
std::uint64_t JsonValue::as_uint() const {
  if (kind_ != Kind::kNumber) throw std::runtime_error("json: not a number");
  switch (num_kind_) {
    case NumKind::kDouble:
      return static_cast<std::uint64_t>(dbl_);
    case NumKind::kInt:
      return static_cast<std::uint64_t>(int_);
    case NumKind::kUint:
      return uint_;
  }
  return 0;
}
const std::string& JsonValue::as_string() const {
  if (kind_ != Kind::kString) throw std::runtime_error("json: not a string");
  return str_;
}

namespace {

void dump_escaped(const std::string& s, std::string& out) {
  out += '"';
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

}  // namespace

std::string JsonValue::dump() const {
  std::string out;
  char buf[64];
  switch (kind_) {
    case Kind::kNull:
      return "null";
    case Kind::kBool:
      return bool_ ? "true" : "false";
    case Kind::kNumber:
      switch (num_kind_) {
        case NumKind::kDouble:
          std::snprintf(buf, sizeof(buf), "%.17g", dbl_);
          return buf;
        case NumKind::kInt:
          std::snprintf(buf, sizeof(buf), "%lld",
                        static_cast<long long>(int_));
          return buf;
        case NumKind::kUint:
          std::snprintf(buf, sizeof(buf), "%llu",
                        static_cast<unsigned long long>(uint_));
          return buf;
      }
      return "0";
    case Kind::kString:
      dump_escaped(str_, out);
      return out;
    case Kind::kArray: {
      out = "[";
      for (std::size_t i = 0; i < arr_.size(); ++i) {
        if (i != 0) out += ',';
        out += arr_[i].dump();
      }
      out += ']';
      return out;
    }
    case Kind::kObject: {
      out = "{";
      for (std::size_t i = 0; i < obj_.size(); ++i) {
        if (i != 0) out += ',';
        dump_escaped(obj_[i].first, out);
        out += ':';
        out += obj_[i].second.dump();
      }
      out += '}';
      return out;
    }
  }
  return "null";
}

// --- parser -------------------------------------------------------------

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  JsonValue parse_document() {
    JsonValue v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing garbage");
    return v;
  }

 private:
  [[noreturn]] void fail(const char* what) const {
    throw std::runtime_error("json parse error at byte " +
                             std::to_string(pos_) + ": " + what);
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r'))
      ++pos_;
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end");
    return text_[pos_];
  }

  void expect(char c) {
    if (pos_ >= text_.size() || text_[pos_] != c) fail("unexpected character");
    ++pos_;
  }

  bool consume_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  JsonValue parse_value() {
    skip_ws();
    const char c = peek();
    if (c == '{') return parse_object();
    if (c == '[') return parse_array();
    if (c == '"') return JsonValue::of_string(parse_string());
    if (c == 't') {
      if (!consume_literal("true")) fail("bad literal");
      return JsonValue::of_bool(true);
    }
    if (c == 'f') {
      if (!consume_literal("false")) fail("bad literal");
      return JsonValue::of_bool(false);
    }
    if (c == 'n') {
      if (!consume_literal("null")) fail("bad literal");
      return JsonValue{};
    }
    return parse_number();
  }

  JsonValue parse_object() {
    expect('{');
    JsonValue v = JsonValue::object();
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    for (;;) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      v.set(std::move(key), parse_value());
      skip_ws();
      const char c = peek();
      if (c == ',') {
        ++pos_;
        continue;
      }
      if (c == '}') {
        ++pos_;
        return v;
      }
      fail("expected ',' or '}'");
    }
  }

  JsonValue parse_array() {
    expect('[');
    JsonValue v = JsonValue::array();
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    for (;;) {
      v.push_back(parse_value());
      skip_ws();
      const char c = peek();
      if (c == ',') {
        ++pos_;
        continue;
      }
      if (c == ']') {
        ++pos_;
        return v;
      }
      fail("expected ',' or ']'");
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    for (;;) {
      if (pos_ >= text_.size()) fail("unterminated string");
      char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      c = text_[pos_++];
      switch (c) {
        case '"':
        case '\\':
        case '/':
          out += c;
          break;
        case 'n':
          out += '\n';
          break;
        case 't':
          out += '\t';
          break;
        case 'r':
          out += '\r';
          break;
        case 'b':
          out += '\b';
          break;
        case 'f':
          out += '\f';
          break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail("bad \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9')
              code += static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f')
              code += static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F')
              code += static_cast<unsigned>(h - 'A' + 10);
            else
              fail("bad \\u escape");
          }
          // The stats schemas are ASCII; anything else is preserved as a
          // naive UTF-8 encoding of the code point (no surrogate pairs).
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xc0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3f));
          } else {
            out += static_cast<char>(0xe0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3f));
            out += static_cast<char>(0x80 | (code & 0x3f));
          }
          break;
        }
        default:
          fail("bad escape");
      }
    }
  }

  JsonValue parse_number() {
    const std::size_t begin = pos_;
    bool negative = false;
    bool integral = true;
    if (peek() == '-') {
      negative = true;
      ++pos_;
    }
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (std::isdigit(static_cast<unsigned char>(c))) {
        ++pos_;
      } else if (c == '.' || c == 'e' || c == 'E' || c == '+' || c == '-') {
        integral = false;
        ++pos_;
      } else {
        break;
      }
    }
    if (pos_ == begin || (negative && pos_ == begin + 1)) fail("bad number");
    const std::string token(text_.substr(begin, pos_ - begin));
    if (integral) {
      errno = 0;
      if (negative) {
        const long long v = std::strtoll(token.c_str(), nullptr, 10);
        if (errno == 0) return JsonValue::of_int(v);
      } else {
        const unsigned long long v = std::strtoull(token.c_str(), nullptr, 10);
        if (errno == 0) return JsonValue::of_uint(v);
      }
    }
    return JsonValue::of_double(std::strtod(token.c_str(), nullptr));
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

JsonValue JsonValue::parse(std::string_view text) {
  return Parser(text).parse_document();
}

// --- per-struct field lists ---------------------------------------------

namespace {

// One field list per struct; to_json and from_json both walk it, so the
// two directions cannot drift (the round-trip tests in
// tests/test_stats_json.cpp lean on exactly this).
template <class F>
void visit_fields(SolverStats& s, F&& f) {
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
void visit_fields(SimplifyStats& s, F&& f) {
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
void visit_fields(UniGenStats& s, F&& f) {
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
void visit_fields(SamplerPoolWorkerStats& s, F&& f) {
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
void visit_fields(SamplerPoolStats& s, F&& f) {
  f("requests", s.requests);
  f("samples_ok", s.samples_ok);
  f("samples_failed", s.samples_failed);
  f("samples_timed_out", s.samples_timed_out);
  f("samples_cancelled", s.samples_cancelled);
  f("service_seconds", s.service_seconds);
}

template <class F>
void visit_fields(SessionRegistryStats& s, F&& f) {
  f("requests", s.requests);
  f("hits", s.hits);
  f("misses", s.misses);
  f("evictions", s.evictions);
  f("prepare_failures", s.prepare_failures);
  f("sessions", s.sessions);
  f("resident_bytes", s.resident_bytes);
}

template <class F>
void visit_fields(FleetStats& s, F&& f) {
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

struct FieldWriter {
  JsonValue* obj;
  template <class T>
  void operator()(const char* name, const T& value) const {
    if constexpr (std::is_same_v<T, bool>) {
      obj->set(name, JsonValue::of_bool(value));
    } else if constexpr (std::is_floating_point_v<T>) {
      obj->set(name, JsonValue::of_double(value));
    } else if constexpr (std::is_signed_v<T>) {
      obj->set(name, JsonValue::of_int(static_cast<std::int64_t>(value)));
    } else {
      obj->set(name, JsonValue::of_uint(static_cast<std::uint64_t>(value)));
    }
  }
};

struct FieldReader {
  const JsonValue* obj;
  bool ok = true;
  template <class T>
  void operator()(const char* name, T& value) {
    const JsonValue* v = obj->find(name);
    if (v == nullptr) {
      ok = false;
      return;
    }
    try {
      if constexpr (std::is_same_v<T, bool>) {
        value = v->as_bool();
      } else if constexpr (std::is_floating_point_v<T>) {
        value = static_cast<T>(v->as_double());
      } else if constexpr (std::is_signed_v<T>) {
        value = static_cast<T>(v->as_int());
      } else {
        value = static_cast<T>(v->as_uint());
      }
    } catch (const std::runtime_error&) {
      ok = false;
    }
  }
};

template <class S>
JsonValue flat_to_json(const S& s) {
  S copy = s;  // visit_fields takes a mutable ref; the writer only reads
  JsonValue v = JsonValue::object();
  visit_fields(copy, FieldWriter{&v});
  return v;
}

template <class S>
bool flat_from_json(const JsonValue& v, S& out) {
  if (!v.is_object()) return false;
  FieldReader reader{&v};
  visit_fields(out, reader);
  return reader.ok;
}

}  // namespace

JsonValue to_json(const SolverStats& s) { return flat_to_json(s); }
JsonValue to_json(const SimplifyStats& s) { return flat_to_json(s); }
JsonValue to_json(const SamplerPoolWorkerStats& s) { return flat_to_json(s); }
JsonValue to_json(const SessionRegistryStats& s) { return flat_to_json(s); }
JsonValue to_json(const FleetStats& s) { return flat_to_json(s); }

JsonValue to_json(const UniGenStats& s) {
  JsonValue v = flat_to_json(s);
  v.set("simplify", to_json(s.simplify));
  return v;
}

JsonValue to_json(const SamplerPoolStats& s) {
  JsonValue v = flat_to_json(s);
  v.set("prepare", to_json(s.prepare));
  JsonValue workers = JsonValue::array();
  for (const SamplerPoolWorkerStats& w : s.workers)
    workers.push_back(to_json(w));
  v.set("workers", std::move(workers));
  return v;
}

bool from_json(const JsonValue& v, SolverStats& out) {
  return flat_from_json(v, out);
}
bool from_json(const JsonValue& v, SimplifyStats& out) {
  return flat_from_json(v, out);
}
bool from_json(const JsonValue& v, SamplerPoolWorkerStats& out) {
  return flat_from_json(v, out);
}
bool from_json(const JsonValue& v, SessionRegistryStats& out) {
  return flat_from_json(v, out);
}
bool from_json(const JsonValue& v, FleetStats& out) {
  return flat_from_json(v, out);
}

bool from_json(const JsonValue& v, UniGenStats& out) {
  if (!flat_from_json(v, out)) return false;
  const JsonValue* simp = v.find("simplify");
  return simp != nullptr && from_json(*simp, out.simplify);
}

bool from_json(const JsonValue& v, SamplerPoolStats& out) {
  if (!flat_from_json(v, out)) return false;
  const JsonValue* prep = v.find("prepare");
  if (prep == nullptr || !from_json(*prep, out.prepare)) return false;
  const JsonValue* workers = v.find("workers");
  if (workers == nullptr || !workers->is_array()) return false;
  out.workers.clear();
  for (const JsonValue& w : workers->items()) {
    SamplerPoolWorkerStats ws;
    if (!from_json(w, ws)) return false;
    out.workers.push_back(ws);
  }
  return true;
}

// --- enum round-trips ---------------------------------------------------

bool request_status_from_string(std::string_view name, RequestStatus& out) {
  for (const RequestStatus s :
       {RequestStatus::kComplete, RequestStatus::kPartial,
        RequestStatus::kFailed, RequestStatus::kTimedOut,
        RequestStatus::kCancelled}) {
    if (name == to_string(s)) {
      out = s;
      return true;
    }
  }
  return false;
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

bool sample_status_from_string(std::string_view name,
                               SampleResult::Status& out) {
  for (const SampleResult::Status s :
       {SampleResult::Status::kOk, SampleResult::Status::kFail,
        SampleResult::Status::kTimeout, SampleResult::Status::kUnsat,
        SampleResult::Status::kCancelled}) {
    if (name == to_string(s)) {
      out = s;
      return true;
    }
  }
  return false;
}

}  // namespace unigen::obs
