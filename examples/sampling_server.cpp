// sampling_server — the multi-formula serving front end as a CLI: feed it
// any number of DIMACS files and it answers witness requests through the
// session registry, printing per request whether it was served cold (one
// simplify + prepare, engines built and warmed) or warm (live session,
// lines 12–22 cost only), plus the registry's cache economics at the end.
//
//   usage: sampling_server [--samples N] [--rounds R] [--threads T]
//                          [--max-sessions M] [--seed S]
//                          [--fleet N]
//                          [--fleet-endpoints host:port[,host:port...]]
//                          [--trace-out trace.jsonl] [--stats-json stats.json]
//                          [file.cnf ...]
//
// --fleet N serves every session's hashed path from N crash-isolated
// unigen_workerd processes (--fleet-endpoints: dialing one pre-started
// `unigen_workerd --listen` server per endpoint instead); the served
// witnesses are identical in every configuration.
//
// --trace-out / --stats-json switch the observability layer on and export
// the run: per-request span trees as JSONL, and a JSON document holding the
// registry stats plus the global metric registry.
//
// Each round requests N witnesses from every formula in order; rounds
// after the first are warm (unless M forced an eviction — try
// --max-sessions 1 with several files to watch LRU thrash).  With no
// files, a built-in demo trio is served.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "cnf/dimacs.hpp"
#include "obs/metrics.hpp"
#include "obs/stats_json.hpp"
#include "obs/trace.hpp"
#include "service/sampling_server.hpp"

int main(int argc, char** argv) {
  using namespace unigen;

  std::size_t samples = 5;
  std::size_t rounds = 2;
  std::size_t threads = 0;
  std::size_t max_sessions = 8;
  std::uint64_t seed = 0xDAC14;
  std::string trace_out, stats_json;
  std::size_t fleet_workers = 0;
  std::vector<std::string> fleet_endpoints;
  std::vector<std::string> files;
  for (int i = 1; i < argc; ++i) {
    const auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "error: %s needs a value\n", flag);
        std::exit(1);
      }
      return argv[++i];
    };
    if (std::strcmp(argv[i], "--samples") == 0)
      samples = static_cast<std::size_t>(std::atoll(next("--samples")));
    else if (std::strcmp(argv[i], "--rounds") == 0)
      rounds = static_cast<std::size_t>(std::atoll(next("--rounds")));
    else if (std::strcmp(argv[i], "--threads") == 0)
      threads = static_cast<std::size_t>(std::atoll(next("--threads")));
    else if (std::strcmp(argv[i], "--max-sessions") == 0)
      max_sessions =
          static_cast<std::size_t>(std::atoll(next("--max-sessions")));
    else if (std::strcmp(argv[i], "--seed") == 0)
      seed = static_cast<std::uint64_t>(std::atoll(next("--seed")));
    else if (std::strcmp(argv[i], "--trace-out") == 0)
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
      files.emplace_back(argv[i]);
  }
  if (!trace_out.empty() || !stats_json.empty()) obs::set_enabled(true);

  std::vector<std::pair<std::string, Cnf>> formulas;
  if (files.empty()) {
    std::printf("c no input files; serving a built-in demo trio\n");
    formulas.emplace_back("demo_a", parse_dimacs_string(
                                        "p cnf 10 3\n"
                                        "1 2 3 0\n"
                                        "-3 4 0\n"
                                        "5 6 7 0\n"));
    formulas.emplace_back("demo_b", parse_dimacs_string(
                                        "p cnf 8 3\n"
                                        "1 2 0\n"
                                        "3 -4 0\n"
                                        "5 6 -7 0\n"));
    formulas.emplace_back("demo_c", parse_dimacs_string(
                                        "p cnf 3 1\n"
                                        "1 2 3 0\n"));
  } else {
    for (const std::string& path : files) {
      try {
        formulas.emplace_back(path, parse_dimacs_file(path));
      } catch (const std::exception& e) {
        std::fprintf(stderr, "error: %s: %s\n", path.c_str(), e.what());
        return 1;
      }
    }
  }

  SamplingServerOptions options;
  options.registry.pool.num_threads = threads;
  options.registry.pool.seed = seed;
  options.registry.max_sessions = max_sessions;
  if (fleet_workers > 0 || !fleet_endpoints.empty()) {
    options.registry.pool.unigen.fleet.backend = ExecBackend::kProcessFleet;
    options.registry.pool.unigen.fleet.num_workers = fleet_workers;
    options.registry.pool.unigen.fleet.endpoints = fleet_endpoints;
  }
  SamplingServer server(options);

  for (std::size_t round = 0; round < rounds; ++round) {
    for (const auto& [name, cnf] : formulas) {
      const ServerSampleResponse r = server.sample(cnf, samples);
      std::size_t ok = 0;
      for (const auto& s : r.samples)
        if (s.ok()) ++ok;
      std::printf(
          "c round %zu  %-20s %s  %s  %zu/%zu witnesses  session %s\n",
          round, name.c_str(), r.warm ? "warm" : "COLD", to_string(r.status),
          ok, r.samples.size(), r.key.hex().c_str());
      if (round == 0)
        for (const auto& s : r.samples) {
          if (!s.ok()) continue;
          std::printf("v");
          for (std::size_t v = 0; v < s.witness.size(); ++v)
            std::printf(" %s%zu", s.witness[v] == lbool::True ? "" : "-",
                        v + 1);
          std::printf(" 0\n");
        }
    }
  }

  const SessionRegistryStats st = server.stats();
  std::printf(
      "c registry: %llu requests, %llu hits (%.0f%%), %llu misses, %llu "
      "evictions, %llu prepare failures, %zu live sessions, ~%zu bytes "
      "resident\n",
      static_cast<unsigned long long>(st.requests),
      static_cast<unsigned long long>(st.hits), 100.0 * st.hit_rate(),
      static_cast<unsigned long long>(st.misses),
      static_cast<unsigned long long>(st.evictions),
      static_cast<unsigned long long>(st.prepare_failures), st.sessions,
      st.resident_bytes);

  if (!trace_out.empty() && obs::write_trace_jsonl(trace_out))
    std::printf("c wrote %s\n", trace_out.c_str());
  if (!stats_json.empty()) {
    std::FILE* f = std::fopen(stats_json.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "error: cannot write %s\n", stats_json.c_str());
      return 1;
    }
    const std::string text = "{\"registry\":" + obs::to_json(st) +
                             ",\"metrics\":" + obs::metrics_json() + "}\n";
    std::fwrite(text.data(), 1, text.size(), f);
    std::fclose(f);
    std::printf("c wrote %s\n", stats_json.c_str());
  }
  return 0;
}
