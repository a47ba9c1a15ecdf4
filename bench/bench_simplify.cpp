// Count-safe simplification A/B: end-to-end ApproxMC counts and UniGen
// sampling on the workload suite with the preprocessing pipeline on vs
// off.  Three claims are measured per instance and aggregated into
// BENCH_simplify.json:
//
//   * total solver propagations (clause + XOR) drop with simplification on,
//   * end-to-end wall-time does not regress (the pipeline pays for itself),
//   * correctness is byte-identical: every exact count and every seed-fixed
//     sample matches the simplification-off path bit for bit (the suite's
//     sampling sets are independent supports, so each S-projection has a
//     unique witness extension and the streams must coincide).
//
// Budgets follow the table benches: UNIGEN_BENCH_SCALE shrinks the
// instances, UNIGEN_BENCH_SAMPLES sets the per-instance witness count,
// UNIGEN_BSAT_TIMEOUT_S caps every BSAT call.  UNIGEN_PREPARE_TIMEOUT_S
// caps the count and the UniGen leg's prepare, UNIGEN_SAMPLE_TIMEOUT_S each
// of its witnesses (each a call of its own, run_capped_unigen).

#include <cstdio>

#include "common.hpp"
#include "counting/approxmc.hpp"
#include "simplify/simplify.hpp"

int main() {
  using namespace unigen;
  using namespace unigen::bench;
  const double scale = workloads::bench_scale_from_env(0.05);
  const auto samples = env_u64("UNIGEN_BENCH_SAMPLES", 8);
  const double bsat_timeout_s = env_double("UNIGEN_BSAT_TIMEOUT_S", 15.0);
  const double count_budget_s = env_double("UNIGEN_PREPARE_TIMEOUT_S", 240.0);
  const double sample_budget_s = env_double("UNIGEN_SAMPLE_TIMEOUT_S", 45.0);

  auto suite = workloads::make_table1_suite(scale);
  std::printf("Simplification A/B on the Table-1 suite "
              "(scale=%.2f, %llu samples/instance)\n\n",
              scale, static_cast<unsigned long long>(samples));
  std::printf("%-22s | %9s %9s | %12s %12s | %7s %7s | %5s %5s\n",
              "instance", "t_off(s)", "t_on(s)", "props_off", "props_on",
              "cls-", "vars-", "count", "samps");
  std::printf("%s\n", std::string(110, '-').c_str());

  double wall_off = 0.0, wall_on = 0.0;
  std::uint64_t props_off = 0, props_on = 0;
  SimplifyStats total_simplify;  // per-instance on-leg stats, merge()d
  std::uint64_t counts_identical = 0, samples_identical = 0, instances = 0;
  std::uint64_t comparable_instances = 0;

  for (const auto& instance : suite) {
    struct Leg {
      double seconds = 0.0;
      std::uint64_t propagations = 0;
      ApproxMcResult count;
      std::vector<Model> witnesses;
      std::uint64_t ok = 0;
      SimplifyStats simplify;
      bool clean = true;  ///< no budget expiry anywhere (identity holds)
    };
    const auto run_leg = [&](bool simplify_on) {
      Leg leg;
      const Stopwatch watch;
      {
        ApproxMcOptions amc;
        amc.budget.bsat_timeout_s = bsat_timeout_s;
        amc.budget.deadline = Deadline::in_seconds(count_budget_s);
        amc.simplify.enabled = simplify_on;
        Rng rng(20140001);
        const ApproxMcAnytime any = approx_count_anytime(instance.cnf, amc, rng);
        leg.count = any.result;
        leg.propagations += leg.count.solver_propagations;
        leg.simplify = leg.count.simplify;
        leg.clean = leg.clean && any.status != RequestStatus::kTimedOut;
      }
      {
        UniGenOptions opts;
        opts.epsilon = 6.0;
        opts.budget.bsat_timeout_s = bsat_timeout_s;
        opts.simplify.enabled = simplify_on;
        Rng rng(20140002);
        const CappedUniGen run =
            run_capped_unigen(instance.cnf, opts, rng, samples,
                              count_budget_s, sample_budget_s);
        leg.clean = leg.clean && run.prepared;
        for (const SampleResult& r : run.samples) {
          leg.witnesses.push_back(r.witness);
          leg.ok += r.ok() ? 1 : 0;
          leg.clean = leg.clean && r.status != SampleResult::Status::kTimeout;
        }
        leg.propagations += run.stats.workers[0].solver_propagations;
        // Both pipelines of this leg count: approx_count's own run (above)
        // and the one the sampler's prepare performed.
        leg.simplify.merge(run.stats.prepare.simplify);
      }
      leg.seconds = watch.seconds();
      return leg;
    };

    const Leg off = run_leg(false);
    const Leg on = run_leg(true);
    ++instances;
    wall_off += off.seconds;
    wall_on += on.seconds;
    props_off += off.propagations;
    props_on += on.propagations;
    total_simplify.merge(on.simplify);

    // Byte-identity only holds when neither leg hit a budget (a timeout
    // retry draws extra randomness and the trajectories fork legally).
    const bool comparable = on.clean && off.clean;
    comparable_instances += comparable ? 1 : 0;
    const bool count_same =
        comparable && on.count.valid == off.count.valid &&
        on.count.cell_count == off.count.cell_count &&
        on.count.hash_count == off.count.hash_count;
    const bool samples_same = comparable && on.witnesses == off.witnesses;
    counts_identical += count_same ? 1 : 0;
    samples_identical += samples_same ? 1 : 0;

    std::printf("%-22s | %9.3f %9.3f | %12llu %12llu | %7lld %7llu | %5s %5s\n",
                instance.name.c_str(), off.seconds, on.seconds,
                static_cast<unsigned long long>(off.propagations),
                static_cast<unsigned long long>(on.propagations),
                static_cast<long long>(on.simplify.clauses_removed()),
                static_cast<unsigned long long>(on.simplify.eliminated_vars),
                !comparable ? "t/o" : (count_same ? "==" : "DIFF"),
                !comparable ? "t/o" : (samples_same ? "==" : "DIFF"));
    std::fflush(stdout);
  }

  const double prop_reduction =
      props_off == 0 ? 0.0
                     : 1.0 - static_cast<double>(props_on) /
                                 static_cast<double>(props_off);
  std::printf("\ntotals: wall %.3fs -> %.3fs  propagations %llu -> %llu "
              "(-%.1f%%)  simplify cost %.3fs\n",
              wall_off, wall_on, static_cast<unsigned long long>(props_off),
              static_cast<unsigned long long>(props_on),
              100.0 * prop_reduction, total_simplify.seconds);
  std::printf("identical results (over %llu budget-clean instances): "
              "counts %llu, sample streams %llu\n",
              static_cast<unsigned long long>(comparable_instances),
              static_cast<unsigned long long>(counts_identical),
              static_cast<unsigned long long>(samples_identical));

  BenchJson json("simplify_ab");
  json.add("scale", scale);
  json.add("instances", instances);
  json.add("samples_per_instance", samples);
  json.add("wall_off_s", wall_off);
  json.add("wall_on_s", wall_on);
  json.add("simplify_seconds", total_simplify.seconds);
  json.add("propagations_off", props_off);
  json.add("propagations_on", props_on);
  json.add("propagation_reduction", prop_reduction);
  json.add("clauses_removed",
           static_cast<std::uint64_t>(
               std::max<std::int64_t>(0, total_simplify.clauses_removed())));
  json.add("literals_removed",
           static_cast<std::uint64_t>(
               std::max<std::int64_t>(0, total_simplify.literals_removed())));
  json.add("vars_eliminated", total_simplify.eliminated_vars);
  json.add("comparable_instances", comparable_instances);
  json.add("counts_identical", counts_identical);
  json.add("sample_streams_identical", samples_identical);
  json.write("BENCH_simplify.json");
  // Non-zero exit when correctness drifted — or when every instance hit a
  // budget and nothing was actually compared.
  return comparable_instances > 0 &&
                 counts_identical == comparable_instances &&
                 samples_identical == comparable_instances
             ? 0
             : 1;
}
