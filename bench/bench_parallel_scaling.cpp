// bench_parallel_scaling — throughput of the SamplerPool service at 1, 2
// and 4 worker threads on a circuit-parity workload, with the two
// correctness invariants the service advertises checked inline:
//
//   * byte-identical sample sets for a fixed seed across thread counts
//     (the keyed-stream determinism contract), and
//   * exactly one solver build per worker thread that served requests.
//
// Writes BENCH_parallel.json.  Speedup is bounded by the machine:
// `hardware_threads` is recorded so a 1-core container's flat curve is not
// misread as a service regression — the fan-out is embarrassingly parallel
// (zero shared mutable state after prepare), so on an N-core box the curve
// tracks min(threads, N).
//
// Env knobs: UNIGEN_BENCH_SAMPLES   requests per measured run (default 64)
//            UNIGEN_PARALLEL_STATE  circuit state bits        (default 14)
//            UNIGEN_BSAT_TIMEOUT_S  per-BSAT cap              (default 60)
// No wall cap is set: the identity check holds only when no cap binds.

#include <cstdio>
#include <thread>
#include <vector>

#include "common.hpp"
#include "service/sampler_pool.hpp"
#include "workloads/circuits.hpp"

namespace {

using namespace unigen;

constexpr std::uint64_t kSeed = 0xDAC14;
// Identical warm-up for every pool so the measured run covers the same
// request streams regardless of thread count (streams are global).
constexpr std::size_t kWarmup = 4;

struct RunResult {
  bool valid = false;  ///< prepare succeeded and the run was measured
  double seconds = 0.0;
  double sps = 0.0;
  std::uint64_t ok = 0;
  bool one_build_per_worker = true;
  std::vector<SampleResult> samples;
};

RunResult run_at(const Cnf& cnf, std::size_t threads, std::size_t requests) {
  SamplerPoolOptions opts;
  opts.num_threads = threads;
  opts.seed = kSeed;
  opts.unigen.budget.bsat_timeout_s =
      bench::env_double("UNIGEN_BSAT_TIMEOUT_S", 60.0);
  SamplerPool pool(cnf, opts);
  RunResult out;
  if (!pool.prepare()) {
    std::fprintf(stderr, "prepare timed out at %zu threads\n", threads);
    return out;
  }
  out.valid = true;
  pool.sample_many(kWarmup);
  const Stopwatch watch;
  out.samples = pool.sample_many(requests);
  out.seconds = watch.seconds();
  out.sps = static_cast<double>(requests) / out.seconds;
  for (const auto& r : out.samples) out.ok += r.ok() ? 1 : 0;
  for (const auto& w : pool.stats().workers)
    if (w.requests_served > 0 && w.solver_rebuilds != 1)
      out.one_build_per_worker = false;
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

}  // namespace

int main() {
  const std::size_t requests = bench::env_u64("UNIGEN_BENCH_SAMPLES", 64);
  const std::size_t state_bits = bench::env_u64("UNIGEN_PARALLEL_STATE", 14);

  workloads::CircuitParityOptions co;
  co.state_bits = state_bits;
  co.input_bits = state_bits / 2;
  co.rounds = 2;
  co.parity_constraints = 3;
  co.seed = 7;
  const Cnf cnf =
      workloads::make_circuit_parity_bench(co, "parallel_scaling_bench");

  const unsigned hw = std::thread::hardware_concurrency();
  std::printf("parallel sampling service scaling — %s (%d vars), %zu "
              "requests, %u hardware thread(s)\n\n",
              cnf.name.c_str(), cnf.num_vars(), requests, hw);
  std::printf("%8s %10s %12s %8s %12s\n", "threads", "time (s)", "samples/s",
              "succ", "speedup");

  const std::size_t counts[] = {1, 2, 4};
  std::vector<RunResult> runs;
  for (const std::size_t t : counts) {
    runs.push_back(run_at(cnf, t, requests));
    const RunResult& r = runs.back();
    if (!r.valid) {
      // No silent success: an unmeasured run must not pass the invariant
      // comparison below as a vacuous triple of empty sample sets.
      std::fprintf(stderr, "run at %zu thread(s) did not complete; "
                           "raise UNIGEN_BSAT_TIMEOUT_S or shrink "
                           "UNIGEN_PARALLEL_STATE\n", t);
      return 1;
    }
    std::printf("%8zu %10.3f %12.1f %8.2f %11.2fx\n", t, r.seconds, r.sps,
                static_cast<double>(r.ok) / static_cast<double>(requests),
                r.sps / runs.front().sps);
  }

  const bool identical = same_samples(runs[0].samples, runs[1].samples) &&
                         same_samples(runs[0].samples, runs[2].samples);
  const bool one_build = runs[0].one_build_per_worker &&
                         runs[1].one_build_per_worker &&
                         runs[2].one_build_per_worker;
  std::printf("\nbyte-identical samples across thread counts: %s\n",
              identical ? "yes" : "NO — determinism contract violated");
  std::printf("one solver build per serving worker:         %s\n",
              one_build ? "yes" : "NO");

  bench::BenchJson json("parallel_scaling");
  json.add("workload", cnf.name.c_str());
  json.add("requests", static_cast<std::uint64_t>(requests));
  json.add("sps_threads_1", runs[0].sps);
  json.add("sps_threads_2", runs[1].sps);
  json.add("sps_threads_4", runs[2].sps);
  json.add("speedup_4_over_1", runs[2].sps / runs[0].sps);
  json.add("identical_across_threads",
           static_cast<std::uint64_t>(identical ? 1 : 0));
  json.add("one_build_per_worker",
           static_cast<std::uint64_t>(one_build ? 1 : 0));
  json.add("success_rate",
           static_cast<double>(runs[0].ok) / static_cast<double>(requests));
  json.write("BENCH_parallel.json");
  return (identical && one_build) ? 0 : 1;
}
