// Ablation A — the paper's central design choice (Section 4): hash over an
// independent support S instead of the full support X.  Same formula, same
// algorithm, only the sampling set differs.  Expected shape: XOR rows drop
// from ≈|X|/2 to ≈|S|/2 variables and per-witness time drops with them;
// both runs remain almost-uniform (S is an independent support).
//
// Env knobs: UNIGEN_BENCH_SAMPLES witnesses per run (default 10),
// UNIGEN_BSAT_TIMEOUT_S the per-BSAT cap (default 10),
// UNIGEN_PREPARE_TIMEOUT_S the prepare cap (default 90) and
// UNIGEN_SAMPLE_TIMEOUT_S each witness's cap (default 30; each witness is a
// call of its own, run_capped_unigen).

#include <cstdio>

#include "common.hpp"
#include "workloads/sketch.hpp"

int main() {
  using namespace unigen;
  using namespace unigen::bench;
  const auto samples = env_u64("UNIGEN_BENCH_SAMPLES", 10);

  workloads::SketchOptions sk;
  sk.spec_input_bits = 6;
  sk.selector_bits = 20;
  sk.mode_bits = 12;
  sk.threshold = 3000;
  sk.seed = 7;
  auto bench = workloads::make_sketch_bench(sk, "ablation_support");
  const auto independent_support = bench.cnf.sampling_set_or_all();

  std::printf("Ablation: sampling set = independent support vs full support\n");
  std::printf("instance: %s\n\n", bench.cnf.summary().c_str());
  std::printf("%-22s %6s %10s %10s %10s %8s\n", "sampling set", "|S|",
              "xor len", "t/witness", "prep (s)", "succ");

  for (const bool use_independent : {true, false}) {
    Cnf cnf = bench.cnf;
    if (use_independent) {
      cnf.set_sampling_set(independent_support);
    } else {
      std::vector<Var> all(static_cast<std::size_t>(cnf.num_vars()));
      for (Var v = 0; v < cnf.num_vars(); ++v)
        all[static_cast<std::size_t>(v)] = v;
      cnf.set_sampling_set(all);  // legal: X is an independent support too
    }
    Rng rng(4242);
    UniGenOptions opts;
    opts.epsilon = 6.0;
    opts.budget.bsat_timeout_s = env_double("UNIGEN_BSAT_TIMEOUT_S", 10.0);
    const CappedUniGen run = run_capped_unigen(
        cnf, opts, rng, samples, env_double("UNIGEN_PREPARE_TIMEOUT_S", 90.0),
        env_double("UNIGEN_SAMPLE_TIMEOUT_S", 30.0));
    if (!run.prepared) {
      std::printf("%-22s %6zu %10s %10s %10s %8s\n",
                  use_independent ? "independent (S)" : "full (X)",
                  cnf.sampling_set_or_all().size(), "-", "-", "(timeout)",
                  "-");
      std::fflush(stdout);
      continue;
    }
    const SamplerPoolStats& st = run.stats;
    std::printf("%-22s %6zu %10.1f %10.3f %10.2f %8.2f\n",
                use_independent ? "independent (S)" : "full (X)",
                cnf.sampling_set_or_all().size(), run.average_xor_length(),
                st.requests ? st.service_seconds /
                                  static_cast<double>(st.requests)
                            : 0.0,
                st.prepare.prepare_seconds, st.success_rate());
    std::fflush(stdout);
  }
  std::printf("\nExpected shape: the independent-support run uses ~%zu-var "
              "XOR rows vs ~%d for full support, and is markedly faster.\n",
              independent_support.size() / 2, bench.cnf.num_vars() / 2);
  return 0;
}
