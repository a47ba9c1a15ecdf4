#pragma once
// ApproxMcCore — one median iteration of ApproxMC: the count task
// function.  In-process pool workers (counting/approxmc.cpp, through
// run_tasks in service/dispatch.hpp) and unigen_workerd processes both call
// approxmc_core_iteration as is, so the backends cannot drift.
//
// An iteration draws one hash h from H_xor(|S|, ·, 3) lazily (rows appear
// as the search climbs, nested-prefix style) and finds the smallest hash
// count m whose cell F ∧ (first m rows) has at most `pivot` solutions,
// returning that cell's exact size.  Two properties make the surrounding
// schedulers free to reorder and leapfrog iterations:
//
//   * Stream purity: row j of the hash is drawn exactly once, in level
//     order, and consumes a fixed number of draws (|S| + 2), so the whole
//     hash — and therefore the iteration's outcome — is a pure function of
//     the iteration's private RNG stream, no matter which probes the
//     search happens to make.
//   * Monotonicity: the cells of nested hash prefixes are nested, so cell
//     size is non-increasing in m and "smallest m with a small cell" is
//     well-defined independently of where the search starts.
//
// Hence `start_m` (the leapfrog hint: the m a previously completed
// iteration landed on) changes only the number of BSAT probes, never the
// outcome — which is exactly why the parallel service can share hints
// across racing iterations and still fold byte-identical results, and why
// ApproxMC2-style leapfrogging costs no part of the (ε, δ) analysis here.
// The single caveat is a cut — per-probe timeout, injected fault, or
// cancellation: an iteration cut short reports how, and contributes no
// estimate.  One more consequence of stream purity matters to the anytime
// layer (approxmc.hpp): with a *cold* start (start_m = 0) the probe
// sequence, and therefore bsat_calls — the unit cost — is itself a pure
// function of the stream, which is why deterministic-budget runs force
// cold starts everywhere instead of chasing the racy hint.
//
// The same argument frees the probe placement.  The search keeps lo (the
// largest level known big, 0 at first) and hi (the smallest known small,
// n + 1 while none is).
//
// A cold start first climbs the empty-level ladder.  Count-only probes
// capped at one model gallop m = 1, 2, 4, ... until a cell is empty or
// m = n, then bisect between the deepest non-empty level and the
// shallowest empty one.  That finds E, the shallowest level whose cell is
// empty (n + 1 if none is).  The search proper then starts with hi = E,
// since an empty cell is small, and makes its first full-cap probe at
// E − 1, the deepest non-empty level.  If cell(1) is empty the iteration
// ends after that first probe, with no estimate.  A one-model probe costs
// at most one solver call, and none when the epoch's model store already
// holds a member of the cell, while a full-cap probe at a big level
// enumerates pivot + 1 models; so the ladder finds where the cells thin
// out without enumerating the big cells below m*.  It keeps both
// properties above: a one-model probe returns min(|cell(m)|, 1), which
// depends only on the hash, so the levels the ladder visits, and E, are
// pure functions of the stream, and the search still finds the outcome
// every start finds.  A ladder probe is a probe like any other: one unit
// of a deterministic budget and one fault-plan ordinal.
//
// A leapfrog start skips the ladder: it probes the hint and, while its
// cells stay big, gallops +1, +2, +4, ... levels past it.  From either
// start, the next probe below a small cell of c >= 1 solutions is hi − k,
// k the largest shift with c · 2^k <= pivot (at least 1, clamped into
// (lo, hi)), because each row halves a cell in expectation.  If that
// guess comes back big, the cell grew faster than halving, and the search
// probes hi − 1.  Only an empty cell, which says nothing about its level,
// makes a leapfrog search bisect.  The big cells just below m* are the
// costliest probes of an iteration, and this placement skips most of
// them: a search started at its own m* makes at most 3 probes (m*, the
// guess, m* − 1), where bisection from 0 would make 1 + ⌈log2 m*⌉.  The
// m* − 1 probe, the costliest at pivot + 1 models, is cheap for a second
// reason: the c models of cell(m*) lie in cell(m* − 1), and the engine's
// model store (incremental_bsat.hpp) hands them over, so that probe
// enumerates only pivot + 1 − c more.  The same store makes a cold
// search's descent from E − 1 cheap: each shallower probe reads the
// deeper probes' models instead of finding them again.

#include <cstdint>
#include <optional>

#include "sat/incremental_bsat.hpp"
#include "util/rng.hpp"

namespace unigen {

// counting/approxmc.hpp; declared here so that header can embed
// ApproxMcCoreOutcome in the anytime resume state without a cycle.
struct ApproxMcOptions;

struct ApproxMcCoreOutcome {
  /// The iteration produced an estimate (cell_count · 2^hash_count).
  bool ok = false;
  /// A wall clock cut the search (the call's deadline or the per-call
  /// timeout, or — when `faulted` is also set — an injected fault posing as
  /// one).
  bool timed_out = false;
  /// The cancel token tripped mid-search; contributes nothing, and the
  /// anytime layer treats the slot as never run (cancellation is the one
  /// nondeterminism the determinism contract must survive).
  bool cancelled = false;
  /// The timeout above was an injected fault (Budget::fault) — i.e. the
  /// cut is a pure function of (fault plan, stream) and the outcome is
  /// deterministic even though timed_out is set.
  bool faulted = false;
  std::uint64_t cell_count = 0;
  std::uint32_t hash_count = 0;
  /// BSAT probes this iteration made, one-model ladder probes included
  /// (the leapfrog savings show up here).
  /// Faulted probes charge too: the unit ledger must match across a run
  /// and its resume, and the fault plan is part of the deterministic cost.
  std::uint64_t bsat_calls = 0;
  /// True when the search started from a prior iteration's m (start_m > 0)
  /// instead of a cold start's empty-level ladder.
  bool leapfrogged = false;
};

/// Runs one iteration on `engine` (a fresh hash epoch is opened; previous
/// epochs' rows become inert).  `n` = |S|, `pivot` the cell-size bound,
/// `start_m` = 0 for the cold search or the leapfrog hint.  The probe
/// envelope (deadline, per-call timeout, cancellation, fault plan) comes
/// from options.budget; the caller owns the iteration-level
/// budget policy.  `rng` must be the iteration's private stream (see
/// stream purity above).  `fault_key` identifies this iteration to the
/// fault plan (the canonical iteration index): probe c of iteration k asks
/// fault->inject_timeout(fault_key, c), a schedule-independent coordinate.
ApproxMcCoreOutcome approxmc_core_iteration(IncrementalBsat& engine,
                                            std::uint32_t n,
                                            std::uint64_t pivot,
                                            const ApproxMcOptions& options,
                                            std::uint32_t start_m, Rng& rng,
                                            std::uint64_t fault_key = 0);

/// The one leapfrog-hint publication rule: an iteration's m may seed
/// later searches iff the iteration ran to a completed estimate.  A cut
/// iteration (timeout, fault, cancel) must publish nothing — its m is
/// where an aborted search happened to stand, not a concentration point,
/// and a stale hint would bias later iterations' probe counts.  Returns
/// the m to publish, or nullopt.
std::optional<std::uint32_t> leapfrog_publish(const ApproxMcCoreOutcome& o);

}  // namespace unigen
