// parallel_counter — the counting-service CLI: approximate a DIMACS
// instance's (projected) model count on N threads.
//
//   $ ./parallel_counter [--trace-out t.jsonl] [--stats-json s.json]
//                        [--fleet N]
//                        [--fleet-endpoints host:port[,host:port...]]
//                        formula.cnf [threads] [epsilon] [delta]
//   $ ./parallel_counter                       # built-in demo workload
//
// --trace-out / --stats-json switch the observability layer on and export
// the count's span tree (count.request → count.iteration → hash.probe →
// bsat.call) and the metric registry.  --fleet N runs the iterations on N
// crash-isolated unigen_workerd processes, --fleet-endpoints on one
// pre-started `unigen_workerd --listen` server per endpoint instead; the
// estimate is identical in every configuration.
//
// The count is a deterministic function of (formula, epsilon, delta, seed)
// alone: running with 1, 4 or 32 threads returns the same estimate, only
// faster — thread count is a deployment knob, not a semantics knob.  The
// report shows where the parallel counter's time went: per-worker engine
// builds (one each), BSAT probes, and how many hash-count searches
// leapfrogged off a completed iteration instead of starting cold.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "cnf/dimacs.hpp"
#include "counting/approxmc.hpp"
#include "obs/trace.hpp"
#include "obs/metrics.hpp"
#include "util/timer.hpp"
#include "workloads/circuits.hpp"

int main(int argc, char** argv) {
  using namespace unigen;

  std::string trace_out, stats_json;
  std::size_t fleet_workers = 0;
  std::vector<std::string> fleet_endpoints;
  std::vector<char*> pos;
  for (int i = 1; i < argc; ++i) {
    const auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "error: %s needs a value\n", flag);
        std::exit(1);
      }
      return argv[++i];
    };
    if (std::strcmp(argv[i], "--trace-out") == 0)
      trace_out = next("--trace-out");
    else if (std::strcmp(argv[i], "--stats-json") == 0)
      stats_json = next("--stats-json");
    else if (std::strcmp(argv[i], "--fleet") == 0)
      fleet_workers = static_cast<std::size_t>(std::atoll(next("--fleet")));
    else if (std::strcmp(argv[i], "--fleet-endpoints") == 0) {
      const std::string list = next("--fleet-endpoints");
      for (std::size_t b = 0; b < list.size();) {
        std::size_t e = list.find(',', b);
        if (e == std::string::npos) e = list.size();
        if (e > b) fleet_endpoints.push_back(list.substr(b, e - b));
        b = e + 1;
      }
    } else
      pos.push_back(argv[i]);
  }
  if (!trace_out.empty() || !stats_json.empty()) obs::set_enabled(true);

  Cnf cnf;
  if (!pos.empty()) {
    try {
      cnf = parse_dimacs_file(pos[0]);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "cannot read %s: %s\n", pos[0], e.what());
      return 1;
    }
  } else {
    workloads::CircuitParityOptions co;
    co.state_bits = 24;
    co.input_bits = 12;
    co.rounds = 2;
    co.parity_constraints = 3;
    co.seed = 7;
    cnf = workloads::make_circuit_parity_bench(co, "demo");
    std::printf("no input file; counting the built-in demo circuit\n");
  }

  ApproxMcOptions opts;
  opts.num_threads = pos.size() > 1 ? std::strtoul(pos[1], nullptr, 10) : 0;
  if (pos.size() > 2) opts.epsilon = std::atof(pos[2]);
  if (pos.size() > 3) opts.delta = std::atof(pos[3]);
  if (fleet_workers > 0 || !fleet_endpoints.empty()) {
    opts.fleet.backend = ExecBackend::kProcessFleet;
    opts.fleet.num_workers = fleet_workers;
    opts.fleet.endpoints = fleet_endpoints;
  }

  const std::size_t display_threads =
      opts.num_threads == 0
          ? std::max<std::size_t>(1, std::thread::hardware_concurrency())
          : opts.num_threads;
  std::printf("counting %s on %zu thread(s), eps=%.2f delta=%.2f\n",
              cnf.summary().c_str(), display_threads, opts.epsilon,
              opts.delta);

  Rng rng(0xDAC14);
  const Stopwatch watch;
  const ApproxMcAnytime any = approx_count_anytime(cnf, opts, rng);
  const ApproxMcResult& r = any.result;
  const double seconds = watch.seconds();

  if (!r.valid) {
    std::printf("no estimate (%s)\n", to_string(any.status));
    return 1;
  }
  if (r.exact)
    std::printf("exact count: %llu  (small solution space)\n",
                static_cast<unsigned long long>(r.cell_count));
  else
    std::printf("estimate: %llu * 2^%u  (log2 = %.2f)\n",
                static_cast<unsigned long long>(r.cell_count), r.hash_count,
                r.log2_value());
  std::printf(
      "  %.2fs wall, %llu BSAT probes, %d/%d iterations succeeded\n",
      seconds, static_cast<unsigned long long>(r.bsat_calls),
      r.iterations_succeeded, r.iterations_requested);
  std::printf(
      "  fan-out: %zu worker(s), leapfrog warm/cold = %llu/%llu\n",
      r.threads_used,
      static_cast<unsigned long long>(r.leapfrog_warm_starts),
      static_cast<unsigned long long>(r.leapfrog_cold_starts));
  for (std::size_t w = 0; w < r.workers.size(); ++w)
    std::printf("  worker %zu: %llu solver build(s), %llu reused solves\n",
                w,
                static_cast<unsigned long long>(r.workers[w].solver_rebuilds),
                static_cast<unsigned long long>(r.workers[w].reused_solves));
  if (!trace_out.empty() && obs::write_trace_jsonl(trace_out))
    std::printf("wrote %s\n", trace_out.c_str());
  if (!stats_json.empty() && obs::write_metrics_json(stats_json))
    std::printf("wrote %s\n", stats_json.c_str());
  return 0;
}
