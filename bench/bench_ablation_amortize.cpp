// Ablation C — the prepare-once amortization (paper Section 4: "lines 1-11
// of the pseudocode need to be executed only once for every formula F",
// and Section 5: UniWit "has no way to amortize" the search for m).
//
// Compares k witnesses drawn from one prepared UniGen instance against k
// witnesses each drawn from a freshly constructed instance (so ApproxMC
// and the easy-case check are re-paid every time, UniWit-style).

#include <cstdio>

#include "common.hpp"
#include "sat/incremental_bsat.hpp"
#include "workloads/circuits.hpp"

int main() {
  using namespace unigen;
  using namespace unigen::bench;
  const auto k = env_u64("UNIGEN_BENCH_SAMPLES", 12);

  workloads::CircuitParityOptions c;
  c.state_bits = 20;
  c.input_bits = 8;
  c.rounds = 2;
  c.parity_constraints = 5;
  c.seed = 99;
  const Cnf cnf = workloads::make_circuit_parity_bench(c, "ablation_amortize");
  std::printf("Ablation: amortized prepare vs per-witness prepare "
              "(k = %llu witnesses)\ninstance: %s\n\n",
              static_cast<unsigned long long>(k), cnf.summary().c_str());

  UniGenOptions opts;
  opts.epsilon = 6.0;

  // Amortized: one sampler, prepare once, k samples — one persistent
  // incremental-BSAT engine serves the nested count and every hashed query.
  // Engines are counted by construction, whoever built them.
  double amortized_total = 0.0, amortized_prepare = 0.0;
  std::uint64_t amortized_bsat = 0, amortized_engines = 0,
                amortized_reused = 0, amortized_retracted = 0;
  {
    const std::uint64_t engines_before = IncrementalBsat::total_constructions();
    Rng rng(555);
    UniGen sampler(cnf, opts, rng);
    Stopwatch watch;
    if (!sampler.prepare()) {
      std::printf("prepare failed\n");
      return 1;
    }
    amortized_prepare = watch.seconds();
    for (std::uint64_t i = 0; i < k; ++i) sampler.sample();
    amortized_total = watch.seconds();
    const UniGenStats st = sampler.stats();
    amortized_bsat = st.prepare_bsat_calls + st.sample_bsat_calls;
    amortized_engines = IncrementalBsat::total_constructions() - engines_before;
    amortized_reused = st.reused_solves;
    amortized_retracted = st.retracted_blocks;
  }

  // Non-amortized: a fresh sampler per witness.
  double fresh_total = 0.0;
  std::uint64_t fresh_bsat = 0, fresh_engines = 0;
  {
    const std::uint64_t engines_before = IncrementalBsat::total_constructions();
    Stopwatch watch;
    for (std::uint64_t i = 0; i < k; ++i) {
      Rng rng(600 + i);
      UniGen sampler(cnf, opts, rng);
      if (!sampler.prepare()) {
        std::printf("prepare failed\n");
        return 1;
      }
      sampler.sample();
      const UniGenStats st = sampler.stats();
      fresh_bsat += st.prepare_bsat_calls + st.sample_bsat_calls;
    }
    fresh_total = watch.seconds();
    fresh_engines = IncrementalBsat::total_constructions() - engines_before;
  }

  const double speedup = fresh_total / amortized_total;
  std::printf("%-28s %12s %14s %8s %9s\n", "mode", "total (s)",
              "per witness (s)", "bsat", "engines");
  std::printf("%-28s %12.3f %14.4f %8llu %9llu   (prepare %.3fs paid once)\n",
              "amortized (UniGen)", amortized_total,
              amortized_total / static_cast<double>(k),
              static_cast<unsigned long long>(amortized_bsat),
              static_cast<unsigned long long>(amortized_engines),
              amortized_prepare);
  std::printf("%-28s %12.3f %14.4f %8llu %9llu\n",
              "fresh per witness (UniWit-ish)", fresh_total,
              fresh_total / static_cast<double>(k),
              static_cast<unsigned long long>(fresh_bsat),
              static_cast<unsigned long long>(fresh_engines));
  std::printf("\namortization speedup: %.1fx\n", speedup);
  std::printf("Expected shape: the fresh-per-witness mode re-pays ApproxMC "
              "for every witness and loses by roughly prepare/sample-cost; "
              "the gap widens with k.\n");

  BenchJson json("ablation_amortize");
  json.add("witnesses", k);
  json.add("amortized_wall_s", amortized_total);
  json.add("amortized_prepare_s", amortized_prepare);
  json.add("amortized_bsat_calls", amortized_bsat);
  json.add("amortized_engines", amortized_engines);
  json.add("amortized_reused_solves", amortized_reused);
  json.add("amortized_retracted_blocks", amortized_retracted);
  json.add("fresh_wall_s", fresh_total);
  json.add("fresh_bsat_calls", fresh_bsat);
  json.add("fresh_engines", fresh_engines);
  json.add("speedup", speedup);
  json.write("BENCH_amortize.json");
  return 0;
}
