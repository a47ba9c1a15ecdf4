// dimacs_sampler — the command-line tool UX of the original UniGen release:
// read a DIMACS CNF (with optional `c ind` sampling-set lines and `x` XOR
// clauses), draw K almost-uniform witnesses, print them as v-lines.
//
//   usage: dimacs_sampler [--trace-out t.jsonl] [--stats-json s.json]
//                         <file.cnf> [num_samples=10] [epsilon=6] [seed]
//
// With no file argument, a small demo formula is sampled instead so the
// example is runnable out of the box.
// --trace-out / --stats-json switch the observability layer on and export
// the sample.request span trees and the sampler's UniGenStats as JSON.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "cnf/dimacs.hpp"
#include "core/unigen.hpp"
#include "obs/stats_json.hpp"
#include "obs/trace.hpp"

int main(int argc, char** argv) {
  using namespace unigen;

  std::string trace_out, stats_json;
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
    else
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
    cnf = parse_dimacs_string(
        "c ind 1 2 3 4 5 6 0\n"
        "p cnf 6 3\n"
        "1 2 3 0\n"
        "-3 4 0\n"
        "x5 6 0\n");
  }
  const int num_samples = pos.size() > 1 ? std::atoi(pos[1]) : 10;
  const double epsilon = pos.size() > 2 ? std::atof(pos[2]) : 6.0;
  const std::uint64_t seed =
      pos.size() > 3 ? static_cast<std::uint64_t>(std::atoll(pos[3]))
                     : 0xDAC14;

  std::printf("c %s\n", cnf.summary().c_str());
  if (!cnf.sampling_set().has_value())
    std::printf("c note: no `c ind` lines; hashing over the full support "
                "(correct, but slower on large formulas)\n");

  Rng rng(seed);
  UniGenOptions options;
  options.epsilon = epsilon;
  UniGen sampler(std::move(cnf), options, rng);
  if (!sampler.prepare()) {
    std::fprintf(stderr, "error: prepare exceeded its budget\n");
    return 1;
  }

  int produced = 0, failures = 0;
  while (produced < num_samples) {
    const SampleResult r = sampler.sample();
    if (r.status == SampleResult::Status::kUnsat) {
      std::printf("s UNSATISFIABLE\n");
      return 20;
    }
    if (r.status == SampleResult::Status::kTimeout) {
      std::fprintf(stderr, "error: sampling %s\n", obs::to_string(r.status));
      return 1;
    }
    if (!r.ok()) {
      if (++failures > 10 * num_samples + 100) {
        std::fprintf(stderr, "error: persistent sampling failure\n");
        return 1;
      }
      continue;
    }
    std::printf("v");
    for (std::size_t v = 0; v < r.witness.size(); ++v)
      std::printf(" %s%zu", r.witness[v] == lbool::True ? "" : "-", v + 1);
    std::printf(" 0\n");
    ++produced;
  }
  std::printf("c success rate %.3f, avg xor length %.1f, q=%d\n",
              sampler.stats().success_rate(),
              sampler.stats().average_xor_length(), sampler.stats().q);
  if (!trace_out.empty() && obs::write_trace_jsonl(trace_out))
    std::printf("c wrote %s\n", trace_out.c_str());
  if (!stats_json.empty()) {
    std::FILE* f = std::fopen(stats_json.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "error: cannot write %s\n", stats_json.c_str());
      return 1;
    }
    const std::string text = obs::to_json(sampler.stats()) + "\n";
    std::fwrite(text.data(), 1, text.size(), f);
    std::fclose(f);
    std::printf("c wrote %s\n", stats_json.c_str());
  }
  return 0;
}
