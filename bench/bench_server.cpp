// bench_server — the session server's cache economics on the Table-1
// suite, with the registry's correctness invariants checked inline:
//
//   * byte-identical responses for a fixed seed across 1/2/4 worker
//     threads (the per-session determinism contract, surviving the
//     registry layer);
//   * warm ≡ cold: every session's concatenated responses equal a fresh
//     SamplerPool over the same formula serving the same request script
//     (stream continuation — a warm hit is indistinguishable from a pool
//     that never went cold);
//   * at most one engine build per worker per session (the warm handoff's
//     point: the old design built a transient counting pool and threw its
//     N warmed engines away, i.e. ~2N builds per hashed formula; the cap
//     asserted here is N, observable via IncrementalBsat::
//     total_constructions — workers build lazily on first task, so *when*
//     a build happens is scheduler-dependent, but the total cannot exceed
//     the worker count);
//   * deterministic LRU arithmetic under a session cap (a scripted
//     register/evict sequence with exact expected hit/miss/eviction
//     counts).
//
// The headline number is warm_speedup: average cold request latency
// (simplify + prepare + N samples) over average warm request latency
// (N samples on live engines) — the registry's reason to exist, tracked
// in BENCH_server.json.
//
// `--smoke` swaps the suite for three built-in formulas and shrinks the
// request script so the whole run (gates included) fits in the tier-1
// ctest budget; gates are identical except the timing-based speedup gate,
// which is recorded but not enforced (a 1-core CI container's clock is
// not a contract).
//
// Env knobs: UNIGEN_BENCH_SCALE        instance scale      (default 0.1)
//            UNIGEN_SERVER_SAMPLES     witnesses/request   (default 8)
//            UNIGEN_SERVER_ROUNDS      warm rounds         (default 4)
//            UNIGEN_PREPARE_TIMEOUT_S  per-cold-request    (default 1200)

#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common.hpp"
#include "sat/incremental_bsat.hpp"
#include "service/sampling_server.hpp"
#include "util/timer.hpp"
#include "workloads/suite.hpp"

namespace {

using namespace unigen;

constexpr std::uint64_t kSeed = 0x5E55DAC14ull;

struct Instance {
  std::string name;
  Cnf cnf;
};

/// Three cheap, structurally distinct formulas: two hashed-mode (different
/// model counts, so distinct canonical keys) and one easy-case — enough to
/// exercise cold/warm/evict without suite-scale prepare cost.
std::vector<Instance> smoke_instances() {
  std::vector<Instance> out;
  {
    Cnf cnf(10);
    cnf.add_clause({Lit(0, false), Lit(1, false), Lit(2, false)});
    cnf.add_clause({Lit(3, false), Lit(4, true)});
    cnf.add_clause({Lit(5, false), Lit(6, false), Lit(7, true)});
    cnf.add_clause({Lit(8, false), Lit(9, false), Lit(0, true)});
    out.push_back({"hashed_a", std::move(cnf)});
  }
  {
    Cnf cnf(10);
    cnf.add_clause({Lit(0, false), Lit(1, false)});
    cnf.add_clause({Lit(2, false), Lit(3, false), Lit(4, false)});
    cnf.add_clause({Lit(5, true), Lit(6, false)});
    cnf.add_clause({Lit(7, false), Lit(8, false), Lit(9, true)});
    out.push_back({"hashed_b", std::move(cnf)});
  }
  {
    Cnf cnf(3);
    cnf.add_clause({Lit(0, false), Lit(1, false), Lit(2, false)});
    out.push_back({"trivial_c", std::move(cnf)});
  }
  return out;
}

SamplerPoolOptions pool_template(std::size_t threads) {
  SamplerPoolOptions o;
  o.num_threads = threads;
  o.seed = kSeed;
  return o;
}

/// The whole request script against one server: register every instance
/// cold, then `rounds` round-robin warm passes.  Responses are collected
/// per instance in call order — the unit of every identity gate.
struct ScriptRun {
  std::vector<std::vector<SampleResult>> responses;  // per instance
  std::vector<char> prepared;                        // cold prepare ok
  double cold_s = 0.0;
  double warm_s = 0.0;
  std::uint64_t warm_requests = 0;
  std::uint64_t builds_total = 0;
  std::uint64_t builds_warm_phase = 0;
  bool warm_flags_ok = true;  ///< cold reported !warm, warm reported warm
  SessionRegistryStats stats;
};

ScriptRun run_script(const std::vector<Instance>& instances,
                     std::size_t threads, std::size_t samples,
                     std::size_t rounds, double cold_budget_s) {
  SamplingServerOptions so;
  so.registry.pool = pool_template(threads);
  so.registry.max_sessions = 0;  // the capped pass measures eviction
  SamplingServer server(so);

  ScriptRun out;
  out.responses.resize(instances.size());
  out.prepared.assign(instances.size(), 0);
  const std::uint64_t builds_before = IncrementalBsat::total_constructions();
  for (std::size_t i = 0; i < instances.size(); ++i) {
    const std::uint64_t failures_before =
        server.stats().prepare_failures;
    const Stopwatch watch;
    ServerSampleResponse r = server.sample(
        instances[i].cnf, samples, Budget::within_seconds(cold_budget_s));
    out.cold_s += watch.seconds();
    if (r.warm) out.warm_flags_ok = false;
    out.prepared[i] =
        server.stats().prepare_failures == failures_before ? 1 : 0;
    out.responses[i].insert(out.responses[i].end(), r.samples.begin(),
                            r.samples.end());
    if (out.prepared[i]) {
      // A warm hit: the session's count, served without disturbing
      // anything but the hit counter.
      if (!server.count(instances[i].cnf).warm) out.warm_flags_ok = false;
    }
  }
  const std::uint64_t builds_after_cold =
      IncrementalBsat::total_constructions();
  for (std::size_t round = 0; round < rounds; ++round) {
    for (std::size_t i = 0; i < instances.size(); ++i) {
      if (!out.prepared[i]) continue;
      const Stopwatch watch;
      ServerSampleResponse r = server.sample(instances[i].cnf, samples);
      out.warm_s += watch.seconds();
      ++out.warm_requests;
      if (!r.warm) out.warm_flags_ok = false;
      out.responses[i].insert(out.responses[i].end(), r.samples.begin(),
                              r.samples.end());
    }
  }
  out.builds_total = IncrementalBsat::total_constructions() - builds_before;
  out.builds_warm_phase =
      IncrementalBsat::total_constructions() - builds_after_cold;
  out.stats = server.stats();
  return out;
}

bool same_samples(const std::vector<SampleResult>& a,
                  const std::vector<SampleResult>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (a[i].status != b[i].status || a[i].witness != b[i].witness)
      return false;
  return true;
}

/// Fresh-pool reference: one SamplerPool per instance serving the same
/// call script (1 cold-shaped + `rounds` calls of `samples` each) — what
/// the server's responses must byte-equal.
std::vector<std::vector<SampleResult>> reference_responses(
    const std::vector<Instance>& instances, const std::vector<char>& prepared,
    std::size_t samples, std::size_t rounds) {
  std::vector<std::vector<SampleResult>> out(instances.size());
  for (std::size_t i = 0; i < instances.size(); ++i) {
    if (!prepared[i]) continue;
    SamplerPool pool(instances[i].cnf, pool_template(1));
    for (std::size_t call = 0; call < rounds + 1; ++call) {
      const auto r = pool.sample_many(samples);
      out[i].insert(out[i].end(), r.begin(), r.end());
    }
  }
  return out;
}

/// Scripted LRU check under max_sessions = 2 with three formulas:
///   acquire a, b      -> miss, miss              (cache {b, a})
///   acquire c         -> miss, evicts a          (cache {c, b})
///   acquire a         -> miss, evicts b          (cache {a, c})
///   acquire c         -> HIT  (c still live)     (cache {c, a})
/// Exact arithmetic, same on every machine — the determinism gate for the
/// eviction path.
bool capped_lru_ok(SessionRegistryStats* out_stats) {
  const auto trio = smoke_instances();
  SessionRegistryOptions ro;
  ro.pool = pool_template(1);
  ro.max_sessions = 2;
  SessionRegistry registry(ro);
  const std::size_t order[] = {0, 1, 2, 0, 2};
  for (const std::size_t i : order) registry.acquire(trio[i].cnf);
  const SessionRegistryStats st = registry.stats();
  if (out_stats != nullptr) *out_stats = st;
  return st.requests == 5 && st.misses == 4 && st.hits == 1 &&
         st.evictions == 2 && st.sessions == 2 && st.prepare_failures == 0;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  const double scale = workloads::bench_scale_from_env(0.1);
  const std::size_t samples =
      smoke ? 4 : bench::env_u64("UNIGEN_SERVER_SAMPLES", 8);
  const std::size_t rounds =
      smoke ? 2 : bench::env_u64("UNIGEN_SERVER_ROUNDS", 4);
  const double cold_budget_s =
      bench::env_double("UNIGEN_PREPARE_TIMEOUT_S", 1200.0);

  std::vector<Instance> instances;
  if (smoke) {
    instances = smoke_instances();
  } else {
    for (auto& si : workloads::make_table1_suite(scale))
      instances.push_back({si.name, std::move(si.cnf)});
  }
  const unsigned hw = std::thread::hardware_concurrency();
  std::printf(
      "sampling server — %s (%zu formulas), %zu witnesses/request, 1 cold + "
      "%zu warm rounds, %u hardware thread(s)\n\n",
      smoke ? "smoke trio" : "Table-1 suite", instances.size(), samples,
      rounds, hw);

  // The measured run (threads = 2) plus the determinism sweep.
  const std::size_t thread_counts[] = {1, 2, 4};
  std::vector<ScriptRun> runs;
  for (const std::size_t threads : thread_counts) {
    runs.push_back(
        run_script(instances, threads, samples, rounds, cold_budget_s));
    const ScriptRun& r = runs.back();
    std::printf(
        "threads=%zu: cold %.2f s (%zu formulas), warm %.3f s (%llu "
        "requests), %llu engine builds (%llu in warm phase)\n",
        threads, r.cold_s, instances.size(), r.warm_s,
        static_cast<unsigned long long>(r.warm_requests),
        static_cast<unsigned long long>(r.builds_total),
        static_cast<unsigned long long>(r.builds_warm_phase));
    std::fflush(stdout);
  }
  const ScriptRun& measured = runs[1];  // threads = 2

  bool identical_across_threads = true;
  for (std::size_t i = 0; i < instances.size(); ++i)
    for (std::size_t r = 1; r < runs.size(); ++r)
      if (!same_samples(runs[0].responses[i], runs[r].responses[i]))
        identical_across_threads = false;

  const auto reference = reference_responses(instances, runs[0].prepared,
                                             samples, rounds);
  bool warm_equals_cold = true;
  for (std::size_t i = 0; i < instances.size(); ++i)
    if (runs[0].prepared[i] &&
        !same_samples(runs[0].responses[i], reference[i]))
      warm_equals_cold = false;

  bool build_cap_ok = true;
  bool warm_flags_ok = true;
  bool registry_arithmetic_ok = true;
  std::size_t prepared_count = 0;
  for (std::size_t i = 0; i < instances.size(); ++i)
    if (runs[0].prepared[i]) ++prepared_count;
  for (std::size_t r = 0; r < runs.size(); ++r) {
    const ScriptRun& run = runs[r];
    // The handoff's build cap: every session may build up to one engine
    // per worker (lazily — a worker's first task may land in any phase).
    // Easy-case and UNSAT sessions too: prepare starts the count's
    // iterations on the other workers beside the easy-case check, before
    // it knows the session is easy.  The pre-handoff design paid ~2 per
    // worker (transient counting pool + sampling pool), which this cap
    // catches.
    const std::uint64_t cap = instances.size() * thread_counts[r];
    if (run.builds_total > cap) build_cap_ok = false;
    if (!run.warm_flags_ok) warm_flags_ok = false;
    // Expected ledger: one miss per formula, one hit per warm request plus
    // the warm count() per prepared formula, no evictions.
    if (run.stats.misses != instances.size() ||
        run.stats.hits != run.warm_requests + prepared_count ||
        run.stats.evictions != 0 || run.stats.sessions != prepared_count)
      registry_arithmetic_ok = false;
  }

  SessionRegistryStats capped;
  const bool lru_ok = capped_lru_ok(&capped);

  const double cold_avg =
      instances.empty() ? 0.0
                        : measured.cold_s /
                              static_cast<double>(instances.size());
  const double warm_avg =
      measured.warm_requests == 0
          ? 0.0
          : measured.warm_s / static_cast<double>(measured.warm_requests);
  const double warm_speedup = warm_avg > 0.0 ? cold_avg / warm_avg : 0.0;

  std::printf("\ncold request latency (avg):          %.4f s\n", cold_avg);
  std::printf("warm request latency (avg):          %.4f s\n", warm_avg);
  std::printf("warm speedup:                        %.1fx\n", warm_speedup);
  std::printf("byte-identical across thread counts: %s\n",
              identical_across_threads ? "yes" : "NO");
  std::printf("warm responses == fresh-pool bytes:  %s\n",
              warm_equals_cold ? "yes" : "NO");
  std::printf("engine builds within handoff cap:    %s\n",
              build_cap_ok ? "yes (<= 1 per worker per session)"
                           : "NO — transient engines are back");
  std::printf("registry hit/miss arithmetic:        %s\n",
              registry_arithmetic_ok ? "exact" : "WRONG");
  std::printf("capped LRU script:                   %s\n",
              lru_ok ? "exact" : "WRONG");

  bench::BenchJson json("server");
  json.add("suite", smoke ? "smoke" : "table1");
  json.add("scale", scale);
  json.add("formulas", static_cast<std::uint64_t>(instances.size()));
  json.add("prepared", static_cast<std::uint64_t>(prepared_count));
  json.add("samples_per_request", static_cast<std::uint64_t>(samples));
  json.add("warm_rounds", static_cast<std::uint64_t>(rounds));
  json.add("cold_wall_s", measured.cold_s);
  json.add("warm_wall_s", measured.warm_s);
  json.add("cold_request_avg_s", cold_avg);
  json.add("warm_request_avg_s", warm_avg);
  json.add("warm_speedup", warm_speedup);
  json.add("hits", measured.stats.hits);
  json.add("misses", measured.stats.misses);
  json.add("hit_rate", measured.stats.hit_rate());
  json.add("resident_bytes", static_cast<std::uint64_t>(
                                 measured.stats.resident_bytes));
  json.add("engine_builds", measured.builds_total);
  json.add("engine_builds_warm_phase", measured.builds_warm_phase);
  json.add("capped_lru_evictions", capped.evictions);
  json.add("identical_across_threads",
           static_cast<std::uint64_t>(identical_across_threads ? 1 : 0));
  json.add("warm_equals_cold",
           static_cast<std::uint64_t>(warm_equals_cold ? 1 : 0));
  json.add("build_cap_ok", static_cast<std::uint64_t>(build_cap_ok ? 1 : 0));
  json.add("invariant_violations",
           static_cast<std::uint64_t>(
               (identical_across_threads ? 0 : 1) +
               (warm_equals_cold ? 0 : 1) + (build_cap_ok ? 0 : 1) +
               (warm_flags_ok ? 0 : 1) + (registry_arithmetic_ok ? 0 : 1) +
               (lru_ok ? 0 : 1)));
  json.write("BENCH_server.json");

  const bool gates = identical_across_threads && warm_equals_cold &&
                     build_cap_ok && warm_flags_ok &&
                     registry_arithmetic_ok && lru_ok &&
                     // Timing gate only where the clock means something.
                     (smoke || warm_speedup > 1.0);
  return gates ? 0 : 1;
}
