// Width-1 replay: the workload's request work on benchmark-owned engines on
// one thread, where the work counters no longer depend on the thread
// schedule.  The outcome work (BSAT calls, solver calls, cells, models) is
// then a pure function of the inputs and repeats exactly; the search work
// (propagations, conflicts, decisions) can still move slightly between
// processes, see ReplayCounters.
//
// The count replay follows the serial path of approx_count — the unhashed
// prologue, then t median iterations with the last completed m as the
// leapfrog hint — through approxmc_core_iteration on an engine whose
// stats() are read around each call.  Its estimate must equal the
// server's, which checks that the replay did the server's work.  The
// sample replay runs the first cells of a session's first request through
// unigen_accept_cell, with the session's prepared state and the request
// streams the server used, so its witnesses must equal the server's too.

#include <algorithm>
#include <cmath>

#include "counting/approxmc.hpp"
#include "obs/metrics.hpp"
#include "perfbench.hpp"
#include "sat/incremental_bsat.hpp"
#include "simplify/simplify.hpp"

namespace perfbench {

namespace {

using namespace unigen;

/// Solver work between two points: engine stats plus the solve/cell
/// counters the solver records into the metric registry.
struct Work {
  SolverStats engine;
  std::uint64_t solves = 0;
  std::uint64_t cells = 0;
};

Work read_work(const IncrementalBsat& engine) {
  static obs::Counter& solves = obs::metrics().counter("bsat.solves");
  static obs::Counter& cells = obs::metrics().counter("bsat.cells");
  return Work{engine.stats(), solves.value(), cells.value()};
}

void add_work(const Work& before, const Work& after, ReplayCounters& c) {
  c.solves += after.solves - before.solves;
  c.bsat_cells += after.cells - before.cells;
  c.propagations += (after.engine.propagations + after.engine.xor_propagations) -
                    (before.engine.propagations + before.engine.xor_propagations);
  c.conflicts += after.engine.conflicts - before.engine.conflicts;
  c.decisions += after.engine.decisions - before.engine.decisions;
  // Every model an enumeration finds adds one blocking clause, and every
  // block is retracted when its cell ends.
  c.models += after.engine.retracted_blocks - before.engine.retracted_blocks;
}

/// The count of `cnf` as a server session computes it, at width 1; its
/// solver work is added to `c` when `count_work`.  Returns the log2
/// estimate (NaN when no iteration produced one).
double replay_count(const Cnf& cnf, const SamplerPoolOptions& options,
                    bool count_work, ReplayCounters& c) {
  const UniGenOptions& u = options.unigen;
  const Simplifier simplifier(cnf, u.simplify);
  const std::vector<Var> sampling_set = cnf.sampling_set_or_all();
  IncrementalBsat engine(simplifier.result(), sampling_set);
  ApproxMcOptions amc;
  amc.epsilon = u.counter_epsilon;
  amc.delta = 1.0 - u.counter_confidence;
  amc.simplify.enabled = false;
  const std::uint64_t pivot = approxmc_pivot(amc.epsilon);
  // SamplerPool::prepare hands the nested count stream 0 of the pool seed;
  // approx_count forks its iteration base from it.
  Rng prepare_rng = Rng(options.seed).fork_stream(0);

  const Work before = read_work(engine);
  ++c.counts;
  double log2 = std::nan("");
  const EnumerateResult prologue =
      engine.enumerate_cell(0, pivot + 1, Deadline::never(), false);
  ++c.count_bsat_calls;
  if (prologue.count <= pivot) {
    log2 = std::log2(static_cast<double>(prologue.count));
  } else {
    const Rng base = prepare_rng.fork();
    const int t = approxmc_iteration_count(amc.delta);
    std::uint32_t hint = 0;
    std::vector<double> estimates;
    for (int i = 0; i < t; ++i) {
      Rng rng = base.fork_stream(static_cast<std::uint64_t>(i));
      const ApproxMcCoreOutcome o = approxmc_core_iteration(
          engine, static_cast<std::uint32_t>(sampling_set.size()), pivot, amc,
          hint, rng, static_cast<std::uint64_t>(i));
      c.count_bsat_calls += o.bsat_calls;
      ++c.iterations;
      if (o.leapfrogged) ++c.iterations_warm;
      if (const auto m = leapfrog_publish(o)) hint = *m;
      if (o.ok)
        estimates.push_back(std::log2(static_cast<double>(o.cell_count)) +
                            static_cast<double>(o.hash_count));
    }
    if (!estimates.empty()) {
      std::sort(estimates.begin(), estimates.end());
      log2 = estimates[estimates.size() / 2];
    }
  }
  if (count_work) add_work(before, read_work(engine), c);
  return log2;
}

/// The first `cells` requests (streams 1..cells) of a session.
void replay_cells(const ReplayInput& in, const SamplerPoolOptions& options,
                  std::size_t cells, std::size_t max_batch, ReplayResult& out) {
  const Cnf& cnf = in.inst->cnf;
  const std::vector<Var> sampling_set = cnf.sampling_set_or_all();
  IncrementalBsat engine(in.prep->formula(cnf), sampling_set);
  UniGenStats stats;
  std::vector<Model>& models = out.outputs.emplace_back();
  const Rng streams(options.seed);
  for (std::size_t k = 1; k <= cells; ++k) {
    Rng rng = streams.fork_stream(k);
    const Work before = read_work(engine);
    AcceptCellResult cell =
        unigen_accept_cell(engine, sampling_set, *in.prep, options.unigen,
                           cnf.num_vars(), rng, stats, k);
    add_work(before, read_work(engine), out.c);
    ++out.c.cells;
    if (max_batch == 0) {
      SampleResult s = finish_single_from_cell(std::move(cell), rng);
      models.push_back(s.ok() ? std::move(s.witness) : Model{});
    } else {
      BatchResult b = finish_batch_from_cell(std::move(cell), max_batch, rng);
      for (Model& m : b.models) models.push_back(std::move(m));
    }
  }
  out.c.sample_bsat_calls += stats.sample_bsat_calls;
  out.c.timeout_retries += stats.bsat_timeout_retries;
}

}  // namespace

ReplayResult replay(const std::vector<ReplayInput>& inputs,
                    const SamplerPoolOptions& options, std::size_t cells,
                    std::size_t max_batch) {
  ReplayResult out;
  // The solve/cell counters are recorded only while observability is on;
  // the spans recorded meanwhile are dropped below.
  const bool was_enabled = obs::enabled();
  obs::set_enabled(true);
  for (const ReplayInput& in : inputs) {
    const double log2 = replay_count(in.inst->cnf, options, cells == 0, out.c);
    out.count_valid.push_back(!std::isnan(log2));
    out.count_log2.push_back(std::isnan(log2) ? 0.0 : log2);
    if (cells > 0) replay_cells(in, options, cells, max_batch, out);
  }
  obs::clear_all();
  obs::set_enabled(was_enabled);
  return out;
}

}  // namespace perfbench
