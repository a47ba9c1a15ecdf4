// bench_parallel_count — the counting service's scaling and leapfrog
// numbers on the Table-1 suite, with the correctness invariants the
// parallel counter advertises checked inline:
//
//   * byte-identical counts for a fixed seed across 1/2/4 threads (the
//     keyed-stream + canonical-fold determinism contract), and
//   * exactly one solver build per worker that served an iteration.
//
// Per thread count the run records wall-clock, total BSAT probes, the
// engines' propagations and the leapfrog hit-rate (warm starts /
// iterations started).  Probes are the unit cost, not the work: a cold
// start's one-model probes are many and cheap, so propagations say where
// the solver time went.  A width-1 pool
// leapfrogs every iteration after the first, a wider one every iteration
// that finds a completed predecessor, so the aggregate rate
// should sit well above 1/2 (the acceptance bar tracked in
// BENCH_parallel_count.json).  Speedup is bounded by the machine:
// `hardware_threads` is recorded so a 1-core container's flat curve is not
// misread as a service regression.
//
// Both gates are calibrated for the default configuration below:
//   * per-BSAT timeouts default to OFF — a probe that beats its budget on
//     one thread count but not another would fail an iteration on one run
//     only, which is the documented determinism caveat, not a bug.  Turn
//     UNIGEN_BSAT_TIMEOUT_S on only for stress runs and read the
//     determinism line accordingly.
//   * at scales far above the default, a single worker can retire more
//     than the engine's retired-row cap (4096 hash rows) and the
//     engine legitimately compacts itself (solver_rebuilds = 2); the
//     one-build gate asserts the acceptance configuration, not a
//     scale-independent law.
//
// Env knobs: UNIGEN_BENCH_SCALE        instance scale     (default 0.1)
//            UNIGEN_COUNT_EPSILON      counter tolerance  (default 0.8)
//            UNIGEN_COUNT_DELTA       counter 1-confid.   (default 0.05)
//            UNIGEN_BSAT_TIMEOUT_S     per-BSAT timeout   (default 0 = off)
//            UNIGEN_PREPARE_TIMEOUT_S  per-count budget   (default 1200)

#include <cstdio>
#include <thread>
#include <vector>

#include "common.hpp"
#include "counting/approxmc.hpp"
#include "workloads/suite.hpp"

namespace {

using namespace unigen;

constexpr std::uint64_t kSeed = 0xDAC14C;

struct ThreadTotals {
  double seconds = 0.0;
  std::uint64_t bsat_calls = 0;
  std::uint64_t propagations = 0;
  std::uint64_t warm = 0;
  std::uint64_t cold = 0;
  bool one_build_per_worker = true;
  std::vector<ApproxMcResult> counts;

  double hit_rate() const {
    const std::uint64_t started = warm + cold;
    return started == 0 ? 0.0
                        : static_cast<double>(warm) /
                              static_cast<double>(started);
  }
};

bool same_count(const ApproxMcResult& a, const ApproxMcResult& b) {
  return a.valid == b.valid && a.exact == b.exact &&
         a.cell_count == b.cell_count && a.hash_count == b.hash_count;
}

}  // namespace

int main() {
  const double scale = workloads::bench_scale_from_env(0.1);
  ApproxMcOptions base;
  base.epsilon = bench::env_double("UNIGEN_COUNT_EPSILON", 0.8);
  base.delta = bench::env_double("UNIGEN_COUNT_DELTA", 0.05);
  // 0 = no per-probe timeout (see header: the determinism gate requires
  // it; env_double treats the knob as unset unless positive).
  base.budget.bsat_timeout_s = bench::env_double("UNIGEN_BSAT_TIMEOUT_S", 0.0);
  const double budget_s =
      bench::env_double("UNIGEN_PREPARE_TIMEOUT_S", 1200.0);

  const auto suite = workloads::make_table1_suite(scale);
  const unsigned hw = std::thread::hardware_concurrency();
  const int iterations = approxmc_iteration_count(base.delta);
  std::printf(
      "parallel counting service — Table-1 suite (scale=%.2f, %zu "
      "instances), eps=%.2f delta=%.2f (%d median iterations), %u hardware "
      "thread(s)\n\n",
      scale, suite.size(), base.epsilon, base.delta, iterations, hw);
  std::printf("%8s %10s %12s %14s %10s %14s\n", "threads", "time (s)",
              "bsat calls", "propagations", "hit-rate", "speedup");

  const std::size_t thread_counts[] = {1, 2, 4};
  std::vector<ThreadTotals> runs;
  for (const std::size_t threads : thread_counts) {
    ThreadTotals totals;
    for (const auto& instance : suite) {
      ApproxMcOptions opts = base;
      opts.num_threads = threads;
      opts.budget.deadline = Deadline::in_seconds(budget_s);
      Rng rng(kSeed);  // same seed per instance across thread counts
      const Stopwatch watch;
      ApproxMcResult r = approx_count(instance.cnf, opts, rng);
      totals.seconds += watch.seconds();
      totals.bsat_calls += r.bsat_calls;
      totals.propagations += r.solver_propagations;
      totals.warm += r.leapfrog_warm_starts;
      totals.cold += r.leapfrog_cold_starts;
      for (std::size_t w = 0; w < r.workers.size(); ++w)
        if (r.workers[w].solver_rebuilds > 1)
          totals.one_build_per_worker = false;
      totals.counts.push_back(std::move(r));
    }
    runs.push_back(std::move(totals));
    const ThreadTotals& t = runs.back();
    std::printf("%8zu %10.2f %12llu %14llu %9.0f%% %13.2fx\n", threads,
                t.seconds, static_cast<unsigned long long>(t.bsat_calls),
                static_cast<unsigned long long>(t.propagations),
                100.0 * t.hit_rate(), runs.front().seconds / t.seconds);
    std::fflush(stdout);
  }

  bool identical = true;
  for (std::size_t i = 0; i < suite.size(); ++i)
    for (std::size_t r = 1; r < runs.size(); ++r)
      if (!same_count(runs[0].counts[i], runs[r].counts[i]))
        identical = false;
  const bool one_build = runs[0].one_build_per_worker &&
                         runs[1].one_build_per_worker &&
                         runs[2].one_build_per_worker;
  std::uint64_t warm = 0, cold = 0;
  for (const auto& t : runs) {
    warm += t.warm;
    cold += t.cold;
  }
  const double aggregate_hit_rate =
      warm + cold == 0
          ? 0.0
          : static_cast<double>(warm) / static_cast<double>(warm + cold);

  std::printf("\nbyte-identical counts across thread counts: %s\n",
              identical ? "yes" : "NO — determinism contract violated");
  std::printf("one solver build per serving worker:        %s\n",
              one_build ? "yes" : "NO");
  std::printf("aggregate leapfrog hit-rate:                %.0f%%\n",
              100.0 * aggregate_hit_rate);

  bench::BenchJson json("parallel_count");
  json.add("suite", "table1");
  json.add("scale", scale);
  json.add("instances", static_cast<std::uint64_t>(suite.size()));
  json.add("iterations_per_count", static_cast<std::uint64_t>(iterations));
  json.add("wall_s_threads_1", runs[0].seconds);
  json.add("wall_s_threads_2", runs[1].seconds);
  json.add("wall_s_threads_4", runs[2].seconds);
  json.add("bsat_calls_threads_1", runs[0].bsat_calls);
  json.add("bsat_calls_threads_2", runs[1].bsat_calls);
  json.add("bsat_calls_threads_4", runs[2].bsat_calls);
  json.add("solver_propagations_threads_1", runs[0].propagations);
  json.add("solver_propagations_threads_2", runs[1].propagations);
  json.add("solver_propagations_threads_4", runs[2].propagations);
  json.add("leapfrog_hit_rate_threads_1", runs[0].hit_rate());
  json.add("leapfrog_hit_rate_threads_2", runs[1].hit_rate());
  json.add("leapfrog_hit_rate_threads_4", runs[2].hit_rate());
  json.add("leapfrog_hit_rate", aggregate_hit_rate);
  json.add("speedup_4_over_1", runs[0].seconds / runs[2].seconds);
  json.add("identical_across_threads",
           static_cast<std::uint64_t>(identical ? 1 : 0));
  json.add("one_build_per_worker",
           static_cast<std::uint64_t>(one_build ? 1 : 0));
  json.add("cold_starts_threads_1", runs[0].cold);
  json.add("cold_starts_threads_2", runs[1].cold);
  json.add("cold_starts_threads_4", runs[2].cold);
  json.write("BENCH_parallel_count.json");
  return (identical && one_build) ? 0 : 1;
}
