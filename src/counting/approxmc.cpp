#include "counting/approxmc.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <optional>
#include <stdexcept>
#include <thread>

#include "obs/trace.hpp"
#include "sat/incremental_bsat.hpp"
#include "service/dispatch.hpp"

namespace unigen {
namespace {

struct Estimate {
  std::uint64_t cell_count;
  std::uint32_t hash_count;
  double log2_value() const {
    return std::log2(static_cast<double>(cell_count)) + hash_count;
  }
};

/// Did this iteration run to an end that is a pure function of its stream
/// (+ fault plan)?  Those are the outcomes a resume may keep; anything else
/// — never started, cancelled, or cut by a wall clock — is treated as
/// never run and re-executed.  An injected-fault timeout IS deterministic
/// (the plan is keyed on schedule-independent coordinates); any other
/// timeout was a wall clock's (the call's deadline or `bsat_timeout_s`).
bool deterministic_end(const ApproxMcCoreOutcome& o) {
  if (o.bsat_calls == 0 || o.cancelled) return false;
  if (o.ok || o.faulted) return true;
  // Otherwise it either found no small cell at any hash count (stream-pure)
  // or a wall clock cut it.
  return !o.timed_out;
}

/// The standalone count's unhashed probe: cell(0) counted up to
/// `min_models`, witnesses not kept, under the budget's per-call deadline.
/// A cut probe reports no count.
UnhashedProbeFn count_only_probe(const Budget& budget) {
  return [&budget](IncrementalBsat& engine, std::uint64_t min_models) {
    const EnumerateResult r = engine.enumerate_cell(
        0, min_models, budget.per_call_deadline(), false,
        budget.cancel_flag());
    return UnhashedProbe{r.count, !r.timed_out && !r.cancelled};
  };
}

/// Executes (or continues) the run described by `st` under
/// st.options.budget, and folds the anytime result.  Until the unhashed
/// probe has settled the prologue, `probe` runs as task 0 of the fan-out.
/// `shared_pool` is the borrowed pool of the warm-handoff approx_count,
/// null everywhere else.
ApproxMcAnytime run_anytime(const Cnf& cnf, ApproxMcAnytimeState st,
                            WorkerPool* shared_pool,
                            const UnhashedProbeFn& probe) {
  const ApproxMcOptions& options = st.options;
  const Budget& budget = options.budget;
  ApproxMcAnytime any;
  ApproxMcResult& result = any.result;

  // Observability only: one span per counting run — child of the caller's
  // context when a service request is in flight, root of a fresh trace for
  // standalone counts.  Strictly outside every RNG path.
  obs::Span count_span("count.request");

  result.pivot = st.pivot;
  result.iterations_requested = static_cast<int>(st.outcomes.size());
  const std::vector<Var> sampling_set = cnf.sampling_set_or_all();
  const auto n = static_cast<std::uint32_t>(sampling_set.size());

  // Count-safe preprocessing: ApproxMC only ever reports |R_S|, which every
  // simplification pass preserves (simplify/simplify.hpp), and it never
  // hands out witnesses, so no model reconstruction is needed here.  The
  // pipeline is deterministic, so a resume re-derives the same formula.
  std::optional<Simplifier> simplifier;
  if (options.simplify.enabled) {
    simplifier.emplace(cnf, options.simplify);
    result.simplify = simplifier->stats();
  }
  const Cnf& formula = simplifier ? simplifier->result() : cnf;

  const auto finish = [&any, &st](RequestStatus status) -> ApproxMcAnytime& {
    any.status = status;
    st.options.budget = Budget{};  // scrub borrowed pointers / stale clocks
    any.state = std::move(st);
    return any;
  };

  // Degenerate budget admitted nothing: report before building a solver or
  // issuing a probe, so a zero/negative deadline (or pre-tripped cancel)
  // yields the same status on every machine instead of racing the first
  // deadline check.
  if (const RequestStatus adm = budget.admission_status();
      adm != RequestStatus::kComplete && !st.exact) {
    return finish(adm);
  }

  // Exact from the unhashed cell, now or in an earlier slice: the run needs
  // no iterations.
  const auto settle_exact = [&](std::uint64_t count) -> ApproxMcAnytime& {
    st.prologue_done = true;
    st.exact = count;
    result.valid = true;
    result.exact = true;
    result.cell_count = count;
    result.bsat_calls = 1;
    any.achieved_delta = 0.0;
    return finish(RequestStatus::kComplete);
  };
  if (st.exact) return settle_exact(*st.exact);

  count_span.set_value(st.outcomes.size());
  // Deterministic mode follows the *cumulative* grant (a resume that adds
  // units continues a deterministic run even if its own Budget carries no
  // fault plan), so the cold-start policy cannot flip between slices.
  const bool det = st.units_granted > 0 || budget.fault != nullptr;
  const std::uint64_t grant = st.units_granted;

  // The grant's admission rule for this slice's fan-out, charged with the
  // unhashed probe plus every settled iteration, all of whose costs are
  // stream-pure in deterministic mode.
  UnitGrant admission{grant, 1};
  // The ApproxMC2-style leapfrog hint: the m of the last completed
  // iteration, 0 (cold) while none has.  Racy on purpose — the hint only
  // steers where a search starts, never what it finds (approxmc_core.hpp),
  // so one relaxed atomic is all the coordination it needs.  Settled slots
  // (from an earlier slice) seed it in iteration order, as a width-1 pool
  // running them would have.  Deterministic mode never reads it: every
  // iteration starts cold, so its probe count is a pure function of its
  // stream at every thread count.  A slot is settled exactly when its
  // outcome spent BSAT calls: the fold below resets every other slot.
  std::atomic<std::uint32_t> hint{0};
  std::vector<std::uint64_t> unsettled;
  for (std::size_t i = 0; i < st.outcomes.size(); ++i) {
    const ApproxMcCoreOutcome& o = st.outcomes[i];
    if (o.bsat_calls == 0) {
      unsettled.push_back(i);
      continue;
    }
    admission.spent += o.bsat_calls;
    if (const auto m = leapfrog_publish(o)) hint.store(*m);
  }

  // The process-fleet backend for the iterations: the task frames carry
  // each iteration's raw RNG state and the Setup carries the canonical
  // formula, so every outcome is the same pure function of its stream — a
  // worker crash costs one retry, a poisoned task just leaves its slot
  // unsettled for the fold below.  Fleet iterations always start cold
  // (outcome-neutral, only probe counts move).  When no worker can be
  // spawned the pool serves.
  std::optional<ProcessFleet> fleet;
  if (options.fleet.backend == ExecBackend::kProcessFleet &&
      shared_pool == nullptr)
    fleet.emplace(options.fleet);
  // The executor: the shared pool, or a private pool of up to one worker
  // per task (width 1 runs on this thread), the probe included unless it
  // runs alone ahead of the fleet.  Beside a fleet the private pool serves
  // only that probe, so it is one wide; `width` then sizes the fleet, and
  // the pool again if the fleet cannot start.
  const std::size_t width = std::min<std::size_t>(
      options.num_threads == 0
          ? std::max<std::size_t>(1, std::thread::hardware_concurrency())
          : options.num_threads,
      st.outcomes.size() + (st.prologue_done || fleet ? 0 : 1));
  WorkerPool* pool = shared_pool;
  std::optional<WorkerPool> owned;
  if (pool == nullptr) {
    owned.emplace(fleet ? 1 : width);
    owned->start(formula, sampling_set);
    pool = &*owned;
  }

  // The unhashed probe, as task 0 beside the iterations until it has
  // settled the prologue.  Iterations are wanted only when it counted more
  // than pivot models for a caller that still needs the count; otherwise
  // the ones not yet started skip, and running ones are dropped.
  std::optional<UnhashedProbe> unhashed;
  bool iterations_wanted = st.prologue_done;
  const std::function<bool(IncrementalBsat&)> lead =
      [&](IncrementalBsat& worker0_engine) {
        unhashed = probe(worker0_engine, st.pivot + 1);
        iterations_wanted =
            unhashed->count_needed && unhashed->count > st.pivot;
        return iterations_wanted;
      };
  const auto fan_out = [&](ProcessFleet* on_fleet,
                           const std::vector<std::uint64_t>& ids,
                           bool with_lead) {
    return run_tasks<ApproxMcCoreOutcome>(
        *pool, on_fleet, ids, st.iter_base, /*max_batch=*/0, budget,
        &admission,
        [&](IncrementalBsat& engine, std::size_t, std::uint64_t i,
            Rng& it_rng) {
          ApproxMcCoreOutcome o = approxmc_core_iteration(
              engine, n, st.pivot, options,
              det ? 0 : hint.load(std::memory_order_relaxed), it_rng,
              /*fault_key=*/i);
          if (!det)
            if (const auto m = leapfrog_publish(o))
              hint.store(*m, std::memory_order_relaxed);
          return o;
        },
        with_lead ? &lead : nullptr);
  };
  bool with_lead = !st.prologue_done;
  if (fleet && with_lead) {
    // The fleet's supervisor loop needs this thread, so there the probe
    // runs first, alone, on worker 0, and the fleet starts only when the
    // probe asks for the iterations.
    fan_out(nullptr, {}, true);
    with_lead = false;
  }
  // Aggregated through SolverStats::merge below; the fallback seeds it.
  SolverStats total;
  if (fleet && iterations_wanted &&
      !fleet->start(
          ProcessFleet::make_count_setup(formula, sampling_set, st.pivot),
          width)) {
    // The in-process fallback runs the iterations on a pool of that width.
    // The probe's engine goes with the old pool, so its counters are kept.
    fleet.reset();
    total = pool->engine_stats(0);
    owned.emplace(width);
    owned->start(formula, sampling_set);
  }
  std::vector<std::optional<ApproxMcCoreOutcome>> served;
  if (iterations_wanted || with_lead)
    served = fan_out(fleet ? &*fleet : nullptr, unsettled, with_lead);

  // Aggregate through SolverStats::merge (the path the coverage test in
  // tests/test_solver_stats.cpp guards), then project into the flat fields.
  // On a shared pool these are the engines' *lifetime* counters (they may
  // include the embedding's earlier probes — diagnostics, not part of any
  // byte-identity contract).  On the fleet only the probe's engine is
  // ours; the fleet's workers are external.
  if (fleet) {
    total = pool->engine_stats(0);
  } else {
    result.threads_used = pool->num_threads();
    for (std::size_t w = 0; w < pool->num_threads(); ++w) {
      result.workers.push_back(pool->engine_stats(w));
      total.merge(result.workers.back());
    }
  }
  result.solver_rebuilds = total.solver_rebuilds;
  result.reused_solves = total.reused_solves;
  result.retracted_blocks = total.retracted_blocks;
  result.solver_propagations = total.propagations + total.xor_propagations;

  if (!iterations_wanted) {
    // The probe settled the run, or produced no count (cut, or never
    // started).  Iterations that ran beside it are dropped uncounted, so
    // the ledger stays a pure function of the stream.  A resume of a run
    // without a count probes again.
    if (unhashed && unhashed->count_needed)
      return settle_exact(unhashed->count);
    result.bsat_calls = unhashed ? 1 : 0;
    return finish(budget.cancelled() ? RequestStatus::kCancelled
                                     : RequestStatus::kTimedOut);
  }
  st.prologue_done = true;
  result.bsat_calls = 1;  // the unhashed probe, in this slice or an earlier one
  for (std::size_t j = 0; j < unsettled.size(); ++j)
    if (served[j]) st.outcomes[unsettled[j]] = *served[j];

  // Canonical fold: walk outcomes in iteration order — whatever schedule
  // produced them — then take the median by value.  Identical at every
  // pool width and on the fleet because each outcome is a pure function of
  // its iteration's stream (approxmc_core.hpp).
  //
  // Settlement first: every slot left unsettled is reset.  Deterministic
  // mode admits the longest prefix of stream-pure completions the
  // cumulative grant covers (slots settled by an earlier slice pass
  // unchecked) — executed work beyond that prefix is scrubbed (parallel
  // schedules may run more than the grant covers; what the grant *bought*
  // must not depend on the schedule) and a resume re-runs it
  // byte-identically.  Wall-clock mode keeps every stream-pure completion
  // wherever it sits (there is no purity claim to protect) and leaves
  // wall-cut slots for a resume to retry.
  bool cancelled_seen = budget.cancelled();
  for (const ApproxMcCoreOutcome& o : st.outcomes)
    cancelled_seen = cancelled_seen || o.cancelled;
  if (det) {
    std::uint64_t cum = 1;  // the unhashed probe's unit
    std::size_t prefix = 0;
    while (prefix < st.outcomes.size()) {
      const ApproxMcCoreOutcome& o = st.outcomes[prefix];
      if (std::binary_search(unsettled.begin(), unsettled.end(), prefix)) {
        if (!deterministic_end(o)) break;
        if (grant != 0 && cum + o.bsat_calls > grant) break;
      }
      cum += o.bsat_calls;
      ++prefix;
    }
    for (std::size_t i = prefix; i < st.outcomes.size(); ++i)
      st.outcomes[i] = ApproxMcCoreOutcome{};
  } else {
    for (ApproxMcCoreOutcome& o : st.outcomes)
      if (!deterministic_end(o)) {
        // Wall-mode diagnostics count the cut attempt before scrubbing it
        // (legacy behavior: a timed-out iteration's probes happened).
        result.bsat_calls += o.bsat_calls;
        o = ApproxMcCoreOutcome{};
      }
  }

  std::vector<Estimate> estimates;
  for (const ApproxMcCoreOutcome& o : st.outcomes) {
    if (o.bsat_calls == 0) continue;  // unsettled
    result.bsat_calls += o.bsat_calls;
    ++(o.leapfrogged ? result.leapfrog_warm_starts
                     : result.leapfrog_cold_starts);
    if (o.ok) {
      estimates.push_back(Estimate{o.cell_count, o.hash_count});
      ++result.iterations_succeeded;
    }
    ++any.iterations_completed;
  }
  any.achieved_delta =
      approxmc_median_failure_tail(static_cast<int>(estimates.size()));
  if (!estimates.empty()) {
    std::sort(estimates.begin(), estimates.end(),
              [](const Estimate& a, const Estimate& b) {
                return a.log2_value() < b.log2_value();
              });
    const Estimate median = estimates[estimates.size() / 2];
    result.valid = true;
    result.cell_count = median.cell_count;
    result.hash_count = median.hash_count;
  }

  if (cancelled_seen) return finish(RequestStatus::kCancelled);
  if (any.iterations_completed == result.iterations_requested)
    return finish(result.valid ? RequestStatus::kComplete
                               : RequestStatus::kFailed);
  return finish(result.valid ? RequestStatus::kPartial
                             : RequestStatus::kTimedOut);
}

/// The state a run starts from: the call's options and grant, the pivot, t
/// empty slots, and the iteration base — the one fork this takes from the
/// caller's rng, on every first slice, once ε and δ are validated.
/// Per-iteration keyed RNG streams: iteration i draws everything from
/// fork_stream(i) of that base, whatever executes it, which — together
/// with the canonical fold — makes the count a pure function of (formula,
/// options, seed), thread count and backend excluded.
ApproxMcAnytimeState first_slice(const ApproxMcOptions& options, Rng& rng) {
  ApproxMcAnytimeState st;
  st.options = options;
  st.units_granted = options.budget.max_bsat_calls;
  st.pivot = approxmc_pivot(options.epsilon);
  st.outcomes.resize(
      static_cast<std::size_t>(approxmc_iteration_count(options.delta)));
  st.iter_base = rng.fork();
  return st;
}

}  // namespace

std::uint64_t approxmc_pivot(double epsilon) {
  if (epsilon <= 0.0) throw std::invalid_argument("approxmc: epsilon must be > 0");
  return 2 * static_cast<std::uint64_t>(std::ceil(
                 3.0 * std::exp(0.5) * (1.0 + 1.0 / epsilon) *
                 (1.0 + 1.0 / epsilon)));
}

double approxmc_median_failure_tail(int t) {
  if (t <= 0) return 1.0;
  const double p = 1.0 - std::exp(-1.5);  // per-iteration success probability
  // The median is bad iff at least ⌊t/2⌋+1 iterations are bad:
  // tail = sum_{k=⌊t/2⌋+1}^{t} C(t,k) (1-p)^k p^(t-k).
  double fail = 0.0;
  for (int k = t / 2 + 1; k <= t; ++k) {
    double log_c = 0.0;
    for (int i = 0; i < k; ++i)
      log_c += std::log(static_cast<double>(t - i)) -
               std::log(static_cast<double>(i + 1));
    fail += std::exp(log_c + k * std::log(1.0 - p) + (t - k) * std::log(p));
  }
  return std::min(fail, 1.0);
}

int approxmc_iteration_count(double delta) {
  if (delta <= 0.0 || delta >= 1.0)
    throw std::invalid_argument("approxmc: delta must be in (0,1)");
  for (int t = 1; t <= 999; t += 2)
    if (approxmc_median_failure_tail(t) <= delta) return t;
  return 999;
}

ApproxMcResult approx_count(const Cnf& cnf, const ApproxMcOptions& options,
                            Rng& rng) {
  return approx_count_anytime(cnf, options, rng).result;
}

ApproxMcResult approx_count(const Cnf& cnf, const ApproxMcOptions& options,
                            WorkerPool& pool, Rng& rng,
                            const UnhashedProbeFn& probe) {
  return run_anytime(cnf, first_slice(options, rng), &pool, probe)
      .result;
}

ApproxMcAnytime approx_count_anytime(const Cnf& cnf,
                                     const ApproxMcOptions& options,
                                     Rng& rng) {
  return run_anytime(cnf, first_slice(options, rng), nullptr,
                     count_only_probe(options.budget));
}

ApproxMcAnytime approx_count_resume(const Cnf& cnf, ApproxMcAnytimeState state,
                                    const Budget& more_budget) {
  state.options.budget = more_budget;
  if (more_budget.max_bsat_calls > 0) {
    // The grant is cumulative: cut at B₁ then resume with B₂ charges the
    // admission fold against B₁+B₂, exactly the single-grant run's ledger.
    state.units_granted += more_budget.max_bsat_calls;
  }
  return run_anytime(cnf, std::move(state), nullptr,
                     count_only_probe(more_budget));
}

}  // namespace unigen
