#include "counting/approxmc_core.hpp"

#include <algorithm>
#include <bit>

#include "counting/approxmc.hpp"
#include "hashing/xor_hash.hpp"
#include "obs/trace.hpp"
#include "service/budget.hpp"

namespace unigen {
namespace {

struct ProbeOutcome {
  std::uint64_t count = 0;
  bool small = false;  // count <= pivot with the space exhausted
  bool timed_out = false;
  bool cancelled = false;
  bool faulted = false;
};

/// BSAT on F ∧ (first m rows of the iteration's hash), bounded at pivot+1.
/// Runs on the persistent engine: rows are drawn lazily as m climbs and
/// activated by assumption, so no CNF copy and no solver construction
/// happens per call (ApproxMC2 uses the same nested-prefix hash levels).
ProbeOutcome probe(IncrementalBsat& engine, std::uint32_t m,
                   std::uint64_t pivot, const ApproxMcOptions& options,
                   Rng& rng, std::uint64_t fault_key,
                   std::uint64_t& bsat_calls) {
  const Budget& budget = options.budget;
  ProbeOutcome out;
  // Observability only: the hash-level probe span (child of the enclosing
  // count.iteration).  Strictly outside the RNG path — draw_xor_hash below
  // consumes `rng` identically with tracing on or off.
  obs::Span span("hash.probe");
  span.set_value(m);
  // The fault plan addresses probes by (iteration, call ordinal), both
  // schedule-independent; a faulted probe is charged like a real one (the
  // unit ledger is part of the deterministic cost) but never runs — it is
  // the paper's 2500 s timeout made reproducible.
  if (budget.fault_fires(fault_key, bsat_calls)) {
    ++bsat_calls;
    out.timed_out = true;
    out.faulted = true;
    return out;
  }
  if (m > engine.hash_level())
    engine.push_rows(
        draw_xor_hash(engine.projection(), m - engine.hash_level(), rng));
  ProbeLimits limits;
  limits.deadline = budget.per_call_deadline();
  limits.conflict_budget = budget.conflicts_per_call;
  limits.cancel = budget.cancel != nullptr ? budget.cancel->flag() : nullptr;
  const EnumerateResult r = engine.enumerate_cell(m, pivot + 1, limits, false);
  ++bsat_calls;

  out.count = r.count;
  out.cancelled = r.cancelled;
  out.timed_out = r.timed_out;
  out.small = !r.timed_out && !r.cancelled && r.count <= pivot;
  return out;
}

}  // namespace

ApproxMcCoreOutcome approxmc_core_iteration(IncrementalBsat& engine,
                                            std::uint32_t n,
                                            std::uint64_t pivot,
                                            const ApproxMcOptions& options,
                                            std::uint32_t start_m, Rng& rng,
                                            std::uint64_t fault_key) {
  ApproxMcCoreOutcome out;
  out.leapfrogged = start_m > 0;
  // Observability only: one span per median iteration, tagged with the
  // iteration index (the fault key doubles as that index on every path).
  obs::Span span("count.iteration");
  span.set_value(fault_key);

  // Search for the smallest m with a small cell: lo = largest m known big,
  // hi = smallest m known small (n + 1 while none is).  The probe placement
  // is described in approxmc_core.hpp.
  std::uint32_t lo = 0;
  std::uint32_t hi = n + 1;
  std::uint64_t hi_count = 0;
  const std::uint32_t first = std::clamp<std::uint32_t>(start_m, 1, n);
  std::uint32_t m = first;
  std::uint64_t stride = 1;  // the leapfrog gallop's next offset
  engine.begin_hash();  // fresh hash per iteration; levels nest within it
  for (;;) {
    if (options.budget.cancelled()) {
      out.cancelled = true;
      return out;
    }
    const ProbeOutcome pr = probe(engine, m, pivot, options, rng, fault_key,
                                  out.bsat_calls);
    if (pr.cancelled) {
      out.cancelled = true;
      return out;
    }
    if (pr.timed_out) {
      out.timed_out = true;
      out.faulted = pr.faulted;
      return out;
    }
    if (pr.small) {
      hi = m;
      hi_count = pr.count;
    } else {
      lo = m;
    }
    if (hi == lo + 1) break;
    if (hi == n + 1) {
      // Still galloping upward; lo == m < n here.
      const std::uint64_t next =
          out.leapfrogged ? first + stride : 2 * std::uint64_t{m};
      stride *= 2;
      m = static_cast<std::uint32_t>(std::min<std::uint64_t>(n, next));
    } else if (hi_count == 0) {
      m = (lo + hi) / 2;  // an empty cell says nothing about its level
    } else if (pr.small) {
      // Each row halves the cell in expectation, so the smallest small
      // level sits about k levels down, k = the largest shift with
      // count · 2^k <= pivot; k == 0 steps one level to confirm.
      const std::uint32_t k = std::max<std::uint32_t>(
          1, static_cast<std::uint32_t>(std::bit_width(pivot / pr.count)) - 1);
      m = hi - std::min(k, hi - lo - 1);
    } else {
      m = hi - 1;  // the guess was big: the cell grew faster than halving
    }
  }
  if (hi == n + 1 || hi_count == 0) return out;
  out.ok = true;
  out.cell_count = hi_count;
  out.hash_count = hi;
  return out;
}

std::optional<std::uint32_t> leapfrog_publish(const ApproxMcCoreOutcome& o) {
  if (!o.ok) return std::nullopt;
  return o.hash_count;
}

}  // namespace unigen
