#pragma once
// Shared infrastructure for the table/figure reproduction benches: row
// formatting, environment-variable budgets, and the per-instance
// UniGen-vs-UniWit measurement loop used by bench_table1/bench_table2.
//
// Budgets default to laptop-friendly values and can be raised toward the
// paper's setup (2500 s per BSAT call, 20 h per run, 1000+ samples):
//   UNIGEN_BENCH_SCALE        instance scale (0..1], default per-bench
//   UNIGEN_BENCH_SAMPLES      UniGen samples per instance   (default 5)
//   UNIGEN_UNIWIT_SAMPLES     UniWit samples per instance   (default 2)
//   UNIGEN_BSAT_TIMEOUT_S     per-BSAT timeout              (default 15)
//   UNIGEN_PREPARE_TIMEOUT_S  UniGen prepare wall cap       (default 240)
//   UNIGEN_SAMPLE_TIMEOUT_S   per-witness wall cap          (default 45)
// bench_table2 lowers some of these defaults.  The UniGen leg runs its
// prepare and each witness as a call of its own, each under its cap
// (run_capped_unigen below).

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/unigen.hpp"
#include "core/uniwit.hpp"
#include "service/sampler_pool.hpp"
#include "util/timer.hpp"
#include "workloads/suite.hpp"

// The checkout the bench was built from (CMake passes it); git_describe()
// asks git about it when the bench runs.
#ifndef UNIGEN_SOURCE_DIR
#define UNIGEN_SOURCE_DIR "."
#endif

namespace unigen::bench {

/// `git describe --always --dirty --tags` of the source checkout, run now,
/// so the stamp names the commit the bench ran at even when the build
/// directory was configured at an older one; "unknown" outside a checkout.
inline std::string git_describe() {
  const char* cmd = "git -C '" UNIGEN_SOURCE_DIR
                    "' describe --always --dirty --tags 2>/dev/null";
  std::string out;
  const std::unique_ptr<std::FILE, int (*)(std::FILE*)> git(
      ::popen(cmd, "r"), ::pclose);
  char buf[256];
  while (git && std::fgets(buf, sizeof buf, git.get()) != nullptr) out += buf;
  while (!out.empty() && (out.back() == '\n' || out.back() == '\r'))
    out.pop_back();
  return out.empty() ? "unknown" : out;
}

/// Bumped whenever the shared BENCH_*.json preamble changes shape.
/// v2: bench/schema_version/hardware_threads/git_describe header fields.
inline constexpr std::uint64_t kBenchSchemaVersion = 2;

/// Minimal flat-JSON emitter for machine-readable bench results
/// (BENCH_*.json), so the perf trajectory can be tracked across PRs:
/// wall-clock, BSAT-call and solver-rebuild counters per bench.
class BenchJson {
 public:
  BenchJson() = default;
  /// The versioned preamble every BENCH_*.json shares, so a committed
  /// file says what produced it: bench name, schema_version,
  /// hardware_threads, and the run-time git describe.
  explicit BenchJson(const char* bench) {
    add("bench", bench);
    add("schema_version", kBenchSchemaVersion);
    add("hardware_threads",
        static_cast<std::uint64_t>(std::thread::hardware_concurrency()));
    add("git_describe", git_describe().c_str());
  }

  void add(const char* key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.6f", v);
    field(key, buf, /*quote=*/false);
  }
  void add(const char* key, std::uint64_t v) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%llu", static_cast<unsigned long long>(v));
    field(key, buf, /*quote=*/false);
  }
  void add(const char* key, const char* v) { field(key, v, /*quote=*/true); }

  std::string str() const { return "{" + body_ + "}\n"; }

  /// Writes `{...}` to `path`; returns false (and warns) on I/O failure.
  bool write(const char* path) const {
    std::FILE* f = std::fopen(path, "w");
    if (f == nullptr) {
      std::fprintf(stderr, "BenchJson: cannot write %s\n", path);
      return false;
    }
    const std::string s = str();
    std::fwrite(s.data(), 1, s.size(), f);
    std::fclose(f);
    std::printf("wrote %s\n", path);
    return true;
  }

 private:
  /// A repeated key is a bench bug (JSON readers keep one of the two
  /// silently), so it aborts the bench with the key's name.
  void field(const char* key, const char* value, bool quote) {
    if (!keys_.insert(key).second) {
      std::fprintf(stderr, "BenchJson: duplicate key \"%s\"\n", key);
      std::abort();
    }
    if (!body_.empty()) body_ += ",";
    body_ += "\"";
    body_ += key;
    body_ += "\":";
    if (quote) body_ += "\"";
    body_ += value;
    if (quote) body_ += "\"";
  }
  std::string body_;
  std::set<std::string> keys_;
};

inline double env_double(const char* name, double fallback) {
  const char* raw = std::getenv(name);
  if (raw == nullptr) return fallback;
  const double v = std::atof(raw);
  return v > 0 ? v : fallback;
}

inline std::uint64_t env_u64(const char* name, std::uint64_t fallback) {
  const char* raw = std::getenv(name);
  if (raw == nullptr) return fallback;
  const long long v = std::atoll(raw);
  return v > 0 ? static_cast<std::uint64_t>(v) : fallback;
}

/// One UniGen run driven call by call, so that prepare and every witness
/// keep a wall cap of their own.  A width-1 SamplerPool seeded with one
/// draw of `rng` is exactly a UniGen (tests/test_unigen_batch.cpp).
struct CappedUniGen {
  bool prepared = false;            ///< prepare finished within its cap
  std::vector<SampleResult> samples;  ///< one per witness call (if prepared)
  SamplerPoolStats stats;

  double average_xor_length() const {
    const SamplerPoolWorkerStats& w = stats.workers[0];
    return w.total_xor_rows == 0
               ? 0.0
               : w.total_xor_row_length / static_cast<double>(w.total_xor_rows);
  }
};

/// Prepares under `prepare_s` seconds, then draws `samples` witnesses, each
/// as a call of its own under `sample_s` seconds.  Every call runs under
/// `options.budget` with its deadline replaced by that call's cap.
inline CappedUniGen run_capped_unigen(const Cnf& cnf, UniGenOptions options,
                                      Rng& rng, std::uint64_t samples,
                                      double prepare_s, double sample_s) {
  const auto capped = [&options](double wall_s) {
    Budget budget = options.budget;
    budget.deadline = Deadline::in_seconds(wall_s);
    return budget;
  };
  CappedUniGen run;
  const std::uint64_t seed = rng();
  SamplerPool pool(cnf, SamplerPoolOptions{1, seed, options});
  run.prepared = pool.prepare(capped(prepare_s));
  if (run.prepared)
    for (std::uint64_t i = 0; i < samples; ++i)
      run.samples.push_back(
          std::move(pool.sample_many_within(1, capped(sample_s)).samples[0]));
  run.stats = pool.stats();
  return run;
}

struct TableBudgets {
  std::uint64_t unigen_samples = env_u64("UNIGEN_BENCH_SAMPLES", 5);
  std::uint64_t uniwit_samples = env_u64("UNIGEN_UNIWIT_SAMPLES", 2);
  double bsat_timeout_s = env_double("UNIGEN_BSAT_TIMEOUT_S", 15.0);
  double prepare_timeout_s = env_double("UNIGEN_PREPARE_TIMEOUT_S", 240.0);
  double sample_timeout_s = env_double("UNIGEN_SAMPLE_TIMEOUT_S", 45.0);
};

struct TableRow {
  std::string name;
  int num_vars = 0;
  std::size_t support_size = 0;
  // UniGen
  bool unigen_ran = false;
  double unigen_succ = 0.0;
  double unigen_avg_time_s = 0.0;
  double unigen_prepare_s = 0.0;
  double unigen_xor_len = 0.0;
  // UniWit
  bool uniwit_ran = false;
  double uniwit_succ = 0.0;
  double uniwit_avg_time_s = 0.0;
  double uniwit_xor_len = 0.0;
};

/// Runs both samplers on one instance under the given budgets.
inline TableRow run_instance(const workloads::SuiteInstance& instance,
                             const TableBudgets& budgets,
                             std::uint64_t seed) {
  TableRow row;
  row.name = instance.name;
  row.num_vars = instance.cnf.num_vars();
  row.support_size = instance.cnf.sampling_set_or_all().size();

  {
    Rng rng(seed);
    UniGenOptions opts;
    opts.epsilon = 6.0;  // the paper's experimental setting
    opts.budget.bsat_timeout_s = budgets.bsat_timeout_s;
    const CappedUniGen run =
        run_capped_unigen(instance.cnf, opts, rng, budgets.unigen_samples,
                          budgets.prepare_timeout_s, budgets.sample_timeout_s);
    if (run.prepared) {
      const SamplerPoolStats& st = run.stats;
      row.unigen_ran = st.samples_ok > 0;
      row.unigen_succ = st.success_rate();
      row.unigen_avg_time_s =
          st.samples_ok > 0
              ? st.service_seconds / static_cast<double>(st.requests)
              : 0.0;
      row.unigen_prepare_s = st.prepare.prepare_seconds;
      row.unigen_xor_len = run.average_xor_length();
    }
  }
  {
    Rng rng(seed + 1);
    UniWitOptions opts;
    opts.epsilon = 6.0;
    opts.bsat_timeout_s = budgets.bsat_timeout_s;
    opts.sample_timeout_s = budgets.sample_timeout_s;
    UniWit sampler(instance.cnf, opts, rng);
    for (std::uint64_t i = 0; i < budgets.uniwit_samples; ++i)
      sampler.sample();
    const auto& st = sampler.stats();
    row.uniwit_ran = st.samples_ok > 0;
    row.uniwit_succ = st.success_rate();
    row.uniwit_avg_time_s =
        st.samples_ok > 0
            ? st.sample_seconds / static_cast<double>(st.samples_requested)
            : 0.0;
    row.uniwit_xor_len = st.average_xor_length();
  }
  return row;
}

inline void print_table_header(const char* title) {
  std::printf("%s\n", title);
  std::printf(
      "%-22s %8s %5s | %8s %10s %8s %9s | %10s %8s %8s | %8s\n", "Benchmark",
      "|X|", "|S|", "succ", "avg t (s)", "xor len", "prep (s)", "avg t (s)",
      "xor len", "succ", "speedup");
  std::printf(
      "%-22s %8s %5s | %8s %10s %8s %9s | %10s %8s %8s | %8s\n", "", "", "",
      "UniGen", "UniGen", "UniGen", "UniGen", "UniWit", "UniWit", "UniWit",
      "");
  std::printf("%s\n", std::string(126, '-').c_str());
}

inline void print_table_row(const TableRow& row) {
  char unigen_time[32], uniwit_time[32], uniwit_succ[16], speedup[16];
  if (row.unigen_ran)
    std::snprintf(unigen_time, sizeof unigen_time, "%10.3f",
                  row.unigen_avg_time_s);
  else
    std::snprintf(unigen_time, sizeof unigen_time, "%10s", "-");
  if (row.uniwit_ran) {
    std::snprintf(uniwit_time, sizeof uniwit_time, "%10.3f",
                  row.uniwit_avg_time_s);
    std::snprintf(uniwit_succ, sizeof uniwit_succ, "%8.2f", row.uniwit_succ);
  } else {
    std::snprintf(uniwit_time, sizeof uniwit_time, "%10s", "-");
    std::snprintf(uniwit_succ, sizeof uniwit_succ, "%8s", "-");
  }
  if (row.unigen_ran && row.uniwit_ran && row.unigen_avg_time_s > 0)
    std::snprintf(speedup, sizeof speedup, "%7.1fx",
                  row.uniwit_avg_time_s / row.unigen_avg_time_s);
  else if (row.unigen_ran && !row.uniwit_ran)
    std::snprintf(speedup, sizeof speedup, "%8s", ">>1");
  else
    std::snprintf(speedup, sizeof speedup, "%8s", "-");

  std::printf("%-22s %8d %5zu | %8.2f %s %8.1f %9.2f | %s %8.1f %s | %s\n",
              row.name.c_str(), row.num_vars, row.support_size,
              row.unigen_succ, unigen_time, row.unigen_xor_len,
              row.unigen_prepare_s, uniwit_time, row.uniwit_xor_len,
              uniwit_succ, speedup);
}

}  // namespace unigen::bench
