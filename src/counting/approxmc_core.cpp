#include "counting/approxmc_core.hpp"

#include <algorithm>
#include <bit>

#include "counting/approxmc.hpp"
#include "hashing/xor_hash.hpp"
#include "obs/trace.hpp"
#include "service/budget.hpp"

namespace unigen {
namespace {

/// min(|cell(m)|, cap) for F ∧ (first m rows of the iteration's hash), or
/// nullopt when the probe is cut — cancelled, timed out or faulted, as
/// `out` then records.  Every probe that runs or faults charges
/// out.bsat_calls.  Runs on the persistent engine: rows are drawn lazily
/// as m climbs and activated by assumption, so no CNF copy and no solver
/// construction happens per call (ApproxMC2 uses the same nested-prefix
/// hash levels).
std::optional<std::uint64_t> probe(IncrementalBsat& engine, std::uint32_t m,
                                   std::uint64_t cap,
                                   const ApproxMcOptions& options, Rng& rng,
                                   std::uint64_t fault_key,
                                   ApproxMcCoreOutcome& out) {
  const Budget& budget = options.budget;
  if (budget.cancelled()) {
    out.cancelled = true;
    return std::nullopt;
  }
  // Observability only: the hash-level probe span (child of the enclosing
  // count.iteration).  Strictly outside the RNG path — draw_xor_hash below
  // consumes `rng` identically with tracing on or off.
  obs::Span span("hash.probe");
  span.set_value(m);
  // The fault plan addresses probes by (iteration, call ordinal), both
  // schedule-independent; a faulted probe is charged like a real one (the
  // unit ledger is part of the deterministic cost) but never runs — it is
  // the paper's 2500 s timeout made reproducible.
  if (budget.fault_fires(fault_key, out.bsat_calls)) {
    ++out.bsat_calls;
    out.timed_out = true;
    out.faulted = true;
    return std::nullopt;
  }
  if (m > engine.hash_level())
    engine.push_rows(
        draw_xor_hash(engine.projection(), m - engine.hash_level(), rng));
  const EnumerateResult r = engine.enumerate_cell(
      m, cap, budget.per_call_deadline(), false, budget.cancel_flag());
  ++out.bsat_calls;
  if (r.cancelled) {
    out.cancelled = true;
    return std::nullopt;
  }
  if (r.timed_out) {
    out.timed_out = true;
    return std::nullopt;
  }
  return r.count;
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
  engine.begin_hash();  // fresh hash per iteration; levels nest within it

  // Search for the smallest m with a small cell: lo = largest m known big,
  // hi = smallest m known small (n + 1 while none is).  The probe placement
  // is described in approxmc_core.hpp.
  std::uint32_t lo = 0;
  std::uint32_t hi = n + 1;
  std::uint64_t hi_count = 0;
  std::uint32_t m = std::min(start_m, n);
  if (start_m == 0) {
    // The empty-level ladder: one-model probes find E, the shallowest
    // level with an empty cell (n + 1 if none is).  Gallop until a cell is
    // empty or m = n, then bisect between the deepest non-empty level and
    // the shallowest empty one.
    std::uint32_t full = 0;
    std::uint32_t empty = n + 1;
    m = 1;
    while (empty > full + 1) {
      const auto c = probe(engine, m, 1, options, rng, fault_key, out);
      if (!c) return out;
      (*c == 0 ? empty : full) = m;
      m = empty == n + 1 ? static_cast<std::uint32_t>(std::min<std::uint64_t>(
                               n, 2 * std::uint64_t{m}))
                         : (full + empty) / 2;
    }
    hi = empty;  // an empty cell is small (n + 1: no level is empty)
    m = full;    // the deepest non-empty level; 0 if cell(1) is empty
  }
  const std::uint32_t first = m;
  std::uint64_t stride = 1;  // the leapfrog gallop's next offset
  while (hi > lo + 1) {
    const auto c = probe(engine, m, pivot + 1, options, rng, fault_key, out);
    if (!c) return out;
    const bool small = *c <= pivot;
    if (small) {
      hi = m;
      hi_count = *c;
    } else {
      lo = m;
    }
    if (hi == n + 1) {
      // Still galloping upward past a hint (a ladder leaves hi <= n after
      // its first full-cap probe); lo == m < n while the search goes on.
      m = static_cast<std::uint32_t>(
          std::min<std::uint64_t>(n, std::uint64_t{first} + stride));
      stride *= 2;
    } else if (hi_count == 0) {
      m = (lo + hi) / 2;  // an empty cell says nothing about its level
    } else if (small) {
      // Each row halves the cell in expectation, so the smallest small
      // level sits about k levels down, k = the largest shift with
      // count · 2^k <= pivot; k == 0 steps one level to confirm.
      const std::uint32_t k = std::max<std::uint32_t>(
          1, static_cast<std::uint32_t>(std::bit_width(pivot / *c)) - 1);
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
