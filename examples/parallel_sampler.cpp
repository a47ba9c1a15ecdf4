// parallel_sampler — the dimacs_sampler CLI served by the SamplerPool:
// read a DIMACS CNF, prepare once, then draw K almost-uniform witnesses
// across N worker threads.  For a fixed seed the printed v-lines are
// identical for every N — the service's determinism contract — so the
// thread count is purely a throughput knob.
//
//   usage: parallel_sampler [--trace-out t.jsonl] [--stats-json s.json]
//                           [--fleet N]
//                           [--fleet-endpoints host:port[,host:port...]]
//                           <file.cnf> [num_samples=10] [threads=0(auto)]
//                           [epsilon=6] [seed]
//
// With no file argument, a built-in demo formula is sampled instead.
// --trace-out / --stats-json switch the observability layer on and export
// the pool.request span tree and the pool's stats struct as JSON.
// --fleet N serves the hashed path from N crash-isolated unigen_workerd
// processes; --fleet-endpoints instead dials one pre-started
// `unigen_workerd --listen` server per endpoint (any host) and spawns
// nothing — the printed v-lines are identical in every configuration.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "cnf/dimacs.hpp"
#include "obs/stats_json.hpp"
#include "obs/trace.hpp"
#include "service/sampler_pool.hpp"

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
      std::fprintf(stderr, "error: %s\n", e.what());
      return 1;
    }
  } else {
    std::printf("no input file; sampling a built-in demo formula\n");
    // 336 witnesses: above hiThresh(ε=6) = 89, so the demo runs the hashed
    // path and actually fans out across the workers.
    cnf = parse_dimacs_string(
        "c ind 1 2 3 4 5 6 7 8 9 10 0\n"
        "p cnf 10 3\n"
        "1 2 3 0\n"
        "-3 4 0\n"
        "x5 6 7 0\n");
  }
  const std::size_t num_samples =
      pos.size() > 1 ? static_cast<std::size_t>(std::atoll(pos[1])) : 10;
  const std::size_t threads =
      pos.size() > 2 ? static_cast<std::size_t>(std::atoll(pos[2])) : 0;
  const double epsilon = pos.size() > 3 ? std::atof(pos[3]) : 6.0;
  const std::uint64_t seed =
      pos.size() > 4 ? static_cast<std::uint64_t>(std::atoll(pos[4]))
                     : 0xDAC14;

  std::printf("c %s\n", cnf.summary().c_str());

  SamplerPoolOptions options;
  options.num_threads = threads;
  options.seed = seed;
  options.unigen.epsilon = epsilon;
  if (fleet_workers > 0 || !fleet_endpoints.empty()) {
    options.unigen.fleet.backend = ExecBackend::kProcessFleet;
    options.unigen.fleet.num_workers = fleet_workers;
    options.unigen.fleet.endpoints = fleet_endpoints;
  }
  SamplerPool pool(std::move(cnf), options);
  if (!pool.prepare()) {
    std::fprintf(stderr, "error: prepare exceeded its budget\n");
    return 1;
  }
  std::printf("c serving with %zu worker thread(s), seed %llu\n",
              pool.num_threads(), static_cast<unsigned long long>(seed));
  if (pool.fleet() != nullptr)
    std::printf("c process fleet up: %zu worker(s), %s\n",
                pool.fleet()->num_workers(),
                fleet_endpoints.empty() ? "spawned" : "dialed");
  else if (fleet_workers > 0 || !fleet_endpoints.empty())
    std::printf("c process fleet unavailable; serving in-process\n");

  const auto results = pool.sample_many(num_samples);
  for (const auto& r : results) {
    if (r.status == SampleResult::Status::kUnsat) {
      std::printf("s UNSATISFIABLE\n");
      return 20;
    }
    if (!r.ok()) continue;  // ⊥ / timeout: accounted below
    std::printf("v");
    for (std::size_t v = 0; v < r.witness.size(); ++v)
      std::printf(" %s%zu", r.witness[v] == lbool::True ? "" : "-", v + 1);
    std::printf(" 0\n");
  }

  const auto st = pool.stats();
  std::printf("c %llu/%llu ok (%llu bottom, %llu timeout), q=%d, "
              "service %.3f s\n",
              static_cast<unsigned long long>(st.samples_ok),
              static_cast<unsigned long long>(st.requests),
              static_cast<unsigned long long>(st.samples_failed),
              static_cast<unsigned long long>(st.samples_timed_out),
              st.prepare.q, st.service_seconds);
  for (std::size_t w = 0; w < st.workers.size(); ++w)
    std::printf("c worker %zu: %llu served, %llu BSAT calls, %llu solver "
                "build(s)\n",
                w, static_cast<unsigned long long>(st.workers[w].requests_served),
                static_cast<unsigned long long>(st.workers[w].sample_bsat_calls),
                static_cast<unsigned long long>(st.workers[w].solver_rebuilds));
  if (!trace_out.empty() && obs::write_trace_jsonl(trace_out))
    std::printf("c wrote %s\n", trace_out.c_str());
  if (!stats_json.empty()) {
    std::FILE* f = std::fopen(stats_json.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "error: cannot write %s\n", stats_json.c_str());
      return 1;
    }
    const std::string text = obs::to_json(st) + "\n";
    std::fwrite(text.data(), 1, text.size(), f);
    std::fclose(f);
    std::printf("c wrote %s\n", stats_json.c_str());
  }
  return 0;
}
