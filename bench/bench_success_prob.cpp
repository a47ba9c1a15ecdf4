// Reproduces the paper's headline success-probability claim: Theorem 1
// guarantees Pr[UniGen != ⊥] >= 0.62; Tables 1/2 observe ~1.0 in practice.
// This bench measures observed success probability over many samples on a
// spread of instances, alongside the theoretical floor.
//
//   UNIGEN_SUCC_SAMPLES   samples per instance (default 200)

#include <cstdio>

#include "common.hpp"
#include "workloads/circuits.hpp"
#include "workloads/sketch.hpp"

int main() {
  using namespace unigen;
  using namespace unigen::bench;
  const auto n = env_u64("UNIGEN_SUCC_SAMPLES", 200);
  std::printf("UniGen observed success probability (n=%llu per instance; "
              "Theorem 1 floor = 0.62)\n\n",
              static_cast<unsigned long long>(n));
  std::printf("%-24s %8s %5s %10s %10s\n", "instance", "|X|", "|S|",
              "succ", "fail(⊥)");

  std::vector<workloads::SuiteInstance> instances;
  {
    workloads::CircuitParityOptions c;
    c.state_bits = 20;
    c.input_bits = 8;
    c.rounds = 2;
    c.parity_constraints = 5;
    c.seed = 61;
    workloads::SuiteInstance inst;
    inst.name = "circuit_parity_28";
    inst.cnf = workloads::make_circuit_parity_bench(c, inst.name);
    instances.push_back(std::move(inst));
  }
  {
    const auto affine = workloads::make_case110_like(24, 10);
    workloads::SuiteInstance inst;
    inst.name = "affine_2^14";
    inst.cnf = affine.cnf;
    instances.push_back(std::move(inst));
  }
  {
    workloads::SketchOptions s;
    s.spec_input_bits = 6;
    s.selector_bits = 18;
    s.mode_bits = 12;
    s.threshold = 3000;
    s.seed = 62;
    workloads::SuiteInstance inst;
    inst.name = "sketch_30";
    inst.cnf = workloads::make_sketch_bench(s, inst.name).cnf;
    instances.push_back(std::move(inst));
  }

  for (const auto& inst : instances) {
    Rng rng(777);
    UniGenOptions opts;
    opts.epsilon = 6.0;
    opts.budget.bsat_timeout_s = env_double("UNIGEN_BSAT_TIMEOUT_S", 10.0);
    UniGen sampler(inst.cnf, opts, rng);
    if (!sampler.prepare()) {
      std::printf("%-24s prepare failed\n", inst.name.c_str());
      continue;
    }
    for (std::uint64_t i = 0; i < n; ++i) sampler.sample();
    const auto& st = sampler.stats();
    std::printf("%-24s %8d %5zu %10.3f %10llu\n", inst.name.c_str(),
                inst.cnf.num_vars(), inst.cnf.sampling_set_or_all().size(),
                st.success_rate(),
                static_cast<unsigned long long>(st.samples_failed));
    std::fflush(stdout);
  }
  std::printf("\nExpected shape: succ ≈ 1.0 on every row, well above the "
              "0.62 floor.\n");
  return 0;
}
