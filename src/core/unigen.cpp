#include "core/unigen.hpp"

#include <algorithm>
#include <cmath>
#include <optional>
#include <stdexcept>

#include "hashing/xor_hash.hpp"
#include "obs/trace.hpp"
#include "service/sampler_pool.hpp"
#include "service/worker_pool.hpp"
#include "util/timer.hpp"

namespace unigen {
namespace {

/// Canonical order of a cell: lexicographic on the S-projection, in
/// sampling-set order (lbool's False=0 < True=1).  Blocking is over S, so
/// projections are unique within a cell.  Bits outside S come from the
/// serving engine's history when S is not an independent support, so they
/// must not steer the order.  With S = all variables this is plain
/// lexicographic order on the whole witness.
void sort_by_projection(std::vector<Model>& cell,
                        const std::vector<Var>& sampling_set) {
  std::sort(cell.begin(), cell.end(), [&](const Model& a, const Model& b) {
    for (const Var v : sampling_set) {
      const auto x = static_cast<std::uint8_t>(a[static_cast<std::size_t>(v)]);
      const auto y = static_cast<std::uint8_t>(b[static_cast<std::size_t>(v)]);
      if (x != y) return x < y;
    }
    return false;
  });
}

}  // namespace

void unigen_prepare(const Cnf& cnf, const std::vector<Var>& sampling_set,
                    const UniGenOptions& options, WorkerPool& pool, Rng& rng,
                    UniGenPrepared& prep, UniGenStats& stats) {
  const Stopwatch watch;

  // Lines 1–3: thresholds.
  prep.kp = compute_kappa_pivot(options.epsilon);
  stats.kappa = prep.kp.kappa;
  stats.pivot = prep.kp.pivot;
  stats.hi_thresh = prep.kp.hi_thresh;
  stats.lo_thresh = prep.kp.lo_thresh;

  // Count-safe simplification, once per formula: every cell enumerated
  // below — prepare's easy-case check, the ApproxMC call, and every pool
  // worker's accept_cell — runs on the shrunk formula.  |R_S| is
  // invariant, so thresholds, q and acceptance statistics are untouched;
  // witnesses are reconstructed back onto the original formula before
  // anything leaves this layer.
  // Precondition (header contract): `sampling_set` is the formula's
  // effective sampling set.  Everything downstream assumes the two agree —
  // the Simplifier freezes it, and the nested approx_count projects over
  // the formula's own declared set.  Checked in all build types: the
  // silent failure mode (wrong q/thresholds) is far worse than the one
  // O(|S|) comparison per prepare.
  if (sampling_set != cnf.sampling_set_or_all())
    throw std::invalid_argument(
        "unigen_prepare: sampling_set must equal the formula's "
        "sampling_set_or_all()");
  if (options.simplify.enabled) {
    // A presimplified pipeline (the registry ran one to compute the session
    // key) is adopted as-is — the pipeline is deterministic, so this is the
    // same object a fresh run would produce, minus the second run.
    prep.simplifier =
        options.presimplified != nullptr
            ? options.presimplified
            : std::make_shared<const Simplifier>(cnf, options.simplify,
                                                 sampling_set);
    stats.simplify = prep.simplifier->stats();
  }
  const Cnf& formula = prep.formula(cnf);

  // The serving pool starts now, and lines 4–10 run as one fan-out on it:
  // the easy-case check is task 0 of the nested count's fan-out, on worker
  // 0's engine (this thread), while the other workers start the median
  // iterations.  Every engine the count builds and warms keeps serving
  // samples for the pool's lifetime; nothing is discarded between the two
  // phases.
  pool.start(formula, sampling_set);

  // Lines 9–10: C <- ApproxModelCounter(F, 0.8, 0.8);
  //             q <- ceil(log C + log 1.8 - log pivot)    (logs base 2).
  ApproxMcOptions amc;
  amc.epsilon = options.counter_epsilon;
  amc.delta = 1.0 - options.counter_confidence;
  amc.budget.deadline = options.budget.deadline;
  amc.budget.bsat_timeout_s = options.budget.bsat_timeout_s;
  // Cancellation reaches the nested count; the deterministic per-request
  // knobs (max_bsat_calls, fault) deliberately do not — they are scoped to
  // sampling requests, and a fault plan keyed by request streams must not
  // also fire inside prepare's iteration-keyed count.
  amc.budget.cancel = options.budget.cancel;
  amc.simplify.enabled = false;  // `formula` is already simplified

  // Lines 4–7: the easy case — enumerate the unhashed cell, witnesses kept;
  // when at most hiThresh witnesses exist, uniform sampling is exact.  The
  // count asks for at least pivot + 1 models, and at most pivot models is
  // its exact count, so the same enumeration settles its unhashed prologue
  // too.  The check draws no randomness, and its blocking clauses are
  // retracted, so the iterations and samples on this engine start from the
  // unblocked formula plus whatever the solver learnt here.  The caller's
  // cancellation token rides along with the call's deadline.
  // The check's outcome is the mode; a check the budget cut, or never let
  // start, leaves kTimedOut — a cut prepare, never an empty cell.
  using Mode = UniGenPrepared::Mode;
  prep.mode = Mode::kTimedOut;
  std::optional<EnumerateResult> check;  // unset when the check never ran
  const ApproxMcResult count = approx_count(
      formula, amc, pool, rng,
      [&](IncrementalBsat& engine, std::uint64_t min_models) {
        check = engine.enumerate_cell(
            0, std::max(prep.kp.hi_thresh + 1, min_models),
            options.budget.deadline, true, options.budget.cancel_flag());
        prep.mode = check->timed_out || check->cancelled ? Mode::kTimedOut
                    : check->count == 0                 ? Mode::kUnsat
                    : check->count <= prep.kp.hi_thresh ? Mode::kTrivial
                                                        : Mode::kHashed;
        // Only a hashed instance needs the count.
        return UnhashedProbe{check->count, prep.mode == Mode::kHashed};
      });
  stats.prepare_bsat_calls += count.bsat_calls;
  stats.counter_solver_rebuilds = count.solver_rebuilds;
  if (prep.mode == Mode::kTrivial) {
    prep.trivial_models =
        project_models_to_formula(std::move(check->models), cnf.num_vars());
    if (prep.simplifier)
      prep.trivial_models =
          prep.simplifier->extend_models(std::move(prep.trivial_models));
    // Canonical order: trivial_models[j] must denote the same S-assignment
    // no matter which solver history produced the enumeration.
    sort_by_projection(prep.trivial_models, sampling_set);
    stats.trivial = true;
  } else if (prep.mode == Mode::kHashed && !count.valid) {
    prep.mode = Mode::kTimedOut;
  } else if (prep.mode == Mode::kHashed) {
    prep.approx_log2_count = count.log2_value();
    stats.approx_log2_count = prep.approx_log2_count;
    prep.q = static_cast<int>(std::ceil(
        prep.approx_log2_count + std::log2(1.8) -
        std::log2(static_cast<double>(prep.kp.pivot))));
    stats.q = prep.q;
  }
  stats.prepare_seconds = watch.seconds();
}

AcceptCellResult unigen_accept_cell(IncrementalBsat& engine,
                                    const std::vector<Var>& sampling_set,
                                    const UniGenPrepared& prep,
                                    const UniGenOptions& options,
                                    Var formula_vars, Rng& rng,
                                    UniGenStats& stats,
                                    std::uint64_t fault_key) {
  // Lines 12–17.  i ranges over {q-3, ..., q}, clamped to valid hash sizes.
  AcceptCellResult out;
  // Observability only: one span per sampling request, tagged with the
  // request's stream/fault key.  Strictly outside every RNG draw.
  obs::Span request_span("sample.request");
  request_span.set_value(fault_key);
  const Budget& budget = options.budget;
  const int n = static_cast<int>(sampling_set.size());
  const int i_last = std::clamp(prep.q, 1, n);
  const int i_first = std::clamp(prep.q - 3, 1, i_last);
  // Per-request probe ordinal: the deterministic-unit ledger and the fault
  // plan's call index in one.  Counting probes (not attempts) keeps the
  // ordinal a pure function of the request's stream.
  std::uint64_t calls = 0;

  for (int i = i_first; i <= i_last; ++i) {
    for (;;) {  // BSAT-timeout retry loop: repeat lines 14-16 with same i
      if (budget.cancelled()) {
        out.status = RequestStatus::kCancelled;
        return out;
      }
      if (budget.wall_expired() ||
          (budget.max_bsat_calls != 0 && calls >= budget.max_bsat_calls)) {
        out.status = RequestStatus::kTimedOut;
        return out;
      }

      // Observability only: one span per probe attempt (hash draw + BSAT),
      // tagged with the candidate hash count i.
      obs::Span probe_span("hash.probe");
      probe_span.set_value(static_cast<std::uint64_t>(i));

      // Lines 14–15: random h from H_xor(|S|, i, 3), random α.
      const XorHash hash =
          draw_xor_hash(sampling_set, static_cast<std::size_t>(i), rng);
      stats.total_xor_rows += hash.m();
      stats.total_xor_row_length +=
          hash.average_row_length() * static_cast<double>(hash.m());

      // A scheduled fault is a probe that "ran" and returned Undef: it
      // charges a unit and drives the same Section-5 retry (same i, fresh
      // hash) a real timeout would, deterministically.
      if (budget.fault_fires(fault_key, calls)) {
        ++calls;
        ++stats.sample_bsat_calls;
        ++stats.bsat_timeout_retries;
        continue;
      }

      // Line 16: Y <- BSAT(F ∧ (h = α), hiThresh), on the persistent
      // engine: the rows go in absorber-activated (the previous attempt's
      // rows become inert), so no CNF copy and no solver rebuild happens —
      // and everything learnt in earlier samples keeps working for us.
      engine.begin_hash();
      engine.push_rows(hash);
      EnumerateResult r = engine.enumerate_cell(
          static_cast<std::size_t>(i), prep.kp.hi_thresh + 1,
          budget.per_call_deadline(), true, budget.cancel_flag());
      ++calls;
      ++stats.sample_bsat_calls;

      if (r.cancelled) {
        out.status = RequestStatus::kCancelled;
        return out;
      }
      if (r.timed_out) {
        ++stats.bsat_timeout_retries;
        continue;  // same i, fresh hash (paper Section 5)
      }
      // Line 17 acceptance test: loThresh <= |Y| <= hiThresh.
      if (static_cast<double>(r.count) >= prep.kp.lo_thresh &&
          r.count <= prep.kp.hi_thresh) {
        std::vector<Model> cell =
            project_models_to_formula(std::move(r.models), formula_vars);
        // Canonical order (see the header contract): the index a caller's
        // RNG then draws selects the same S-assignment on every replica.
        sort_by_projection(cell, sampling_set);
        out.status = RequestStatus::kComplete;
        out.cell = std::move(cell);
        out.reconstruct = prep.simplifier.get();
        return out;
      }
      break;  // cell out of range: next i
    }
  }
  out.status = RequestStatus::kFailed;  // line 19: ⊥
  return out;
}

SampleResult::Status sample_status_from_request(RequestStatus status) {
  switch (status) {
    case RequestStatus::kComplete:
      return SampleResult::Status::kOk;
    case RequestStatus::kTimedOut:
      return SampleResult::Status::kTimeout;
    case RequestStatus::kCancelled:
      return SampleResult::Status::kCancelled;
    default:
      return SampleResult::Status::kFail;  // ⊥ (kFailed / kPartial)
  }
}

SampleResult finish_single_from_cell(AcceptCellResult r, Rng& rng) {
  if (r.ok()) {
    Model& witness = r.cell[rng.below(r.cell.size())];
    if (r.reconstruct != nullptr) r.reconstruct->extend_model(witness);
    return SampleResult::success(std::move(witness));
  }
  SampleResult out;
  out.status = sample_status_from_request(r.status);
  return out;
}

BatchResult finish_batch_from_cell(AcceptCellResult r, std::size_t max_batch,
                                   Rng& rng) {
  BatchResult out;
  out.status = sample_status_from_request(r.status);
  if (r.ok()) {
    rng.shuffle(r.cell);
    if (r.cell.size() > max_batch) r.cell.resize(max_batch);
    if (r.reconstruct != nullptr)
      for (Model& m : r.cell) r.reconstruct->extend_model(m);
    out.models = std::move(r.cell);
  }
  return out;
}

BatchResult unigen_request(IncrementalBsat* engine,
                           const std::vector<Var>& sampling_set,
                           const UniGenPrepared& prep,
                           const UniGenOptions& options, Var formula_vars,
                           std::size_t max_batch, Rng& rng,
                           UniGenStats& stats, std::uint64_t fault_key) {
  BatchResult out;
  switch (prep.mode) {
    case UniGenPrepared::Mode::kUnsat:
      out.status = SampleResult::Status::kUnsat;
      return out;
    case UniGenPrepared::Mode::kTimedOut:
      out.status = SampleResult::Status::kTimeout;
      return out;
    case UniGenPrepared::Mode::kTrivial: {
      // Lines 5–7: uniform draws from the full witness list — one index,
      // or a uniform subset of up to max_batch distinct witnesses.
      const std::vector<Model>& all = prep.trivial_models;
      out.status = SampleResult::Status::kOk;
      if (max_batch == 0) {
        out.models.push_back(all[rng.below(all.size())]);
        return out;
      }
      std::vector<std::size_t> order(all.size());
      for (std::size_t k = 0; k < order.size(); ++k) order[k] = k;
      rng.shuffle(order);
      for (std::size_t k = 0; k < std::min(max_batch, all.size()); ++k)
        out.models.push_back(all[order[k]]);
      return out;
    }
    case UniGenPrepared::Mode::kHashed:
      break;
  }
  AcceptCellResult cell =
      unigen_accept_cell(*engine, sampling_set, prep, options, formula_vars,
                         rng, stats, fault_key);
  if (max_batch != 0)
    return finish_batch_from_cell(std::move(cell), max_batch, rng);
  // Lines 21–22: a uniform element of the cell.
  SampleResult single = finish_single_from_cell(std::move(cell), rng);
  out.status = single.status;
  if (single.ok()) out.models.push_back(std::move(single.witness));
  return out;
}

UniGen::UniGen(Cnf cnf, UniGenOptions options, Rng& rng)
    : pool_(std::make_unique<SamplerPool>(
          std::move(cnf), SamplerPoolOptions{1, rng(), std::move(options)})) {}

UniGen::~UniGen() = default;

bool UniGen::prepare() { return pool_->prepare(); }

SampleResult UniGen::sample() { return std::move(pool_->sample_many(1)[0]); }

std::vector<Model> UniGen::sample_batch(std::size_t max_batch) {
  if (max_batch == 0) return {};
  return std::move(pool_->sample_batches(1, max_batch)[0].models);
}

UniGenStats UniGen::stats() const {
  const SamplerPoolStats ps = pool_->stats();
  UniGenStats out = ps.prepare;
  out.samples_requested = ps.requests;
  out.samples_ok = ps.samples_ok;
  out.samples_failed = ps.samples_failed;
  out.samples_timed_out = ps.samples_timed_out;
  out.samples_cancelled = ps.samples_cancelled;
  out.sample_seconds = ps.service_seconds;
  const SamplerPoolWorkerStats& w = ps.workers[0];
  out.sample_bsat_calls = w.sample_bsat_calls;
  out.bsat_timeout_retries = w.bsat_timeout_retries;
  out.total_xor_rows = w.total_xor_rows;
  out.total_xor_row_length = w.total_xor_row_length;
  out.solver_rebuilds = w.solver_rebuilds;
  out.reused_solves = w.reused_solves;
  out.retracted_blocks = w.retracted_blocks;
  out.solver_propagations = w.solver_propagations;
  return out;
}

}  // namespace unigen
