#pragma once
// BSAT(F, N): bounded model enumeration (paper Section 4).
//
// Returns up to N distinct witnesses of the formula loaded into a Solver.
// Distinctness — and the blocking clauses that enforce it — are over a
// *projection* set, normally the sampling set S.  Restricting blocking
// clauses to the independent support is one of the paper's two key
// implementation optimizations ("blocking clauses can be restricted to only
// variables in the set S"); since S is an independent support, two witnesses
// differ iff their S-projections differ, so nothing is lost.

#include <atomic>
#include <cstdint>
#include <functional>
#include <vector>

#include "cnf/types.hpp"
#include "sat/solver.hpp"
#include "util/timer.hpp"

namespace unigen {

struct EnumerateOptions {
  /// Stop after this many models (the paper's N; hiThresh in UniGen).
  std::uint64_t max_models = UINT64_MAX;
  /// Wall-clock deadline for the whole enumeration (maps to the paper's
  /// 2500 s per-BSAT timeout).
  Deadline deadline = Deadline::never();
  /// Cooperative cancellation flag (a CancelToken's raw atomic); polled
  /// between model searches and, inside them, at the solver's periodic
  /// conflict check.  Null = not cancellable.
  const std::atomic<bool>* cancel = nullptr;
  /// Variables over which models are projected and blocked.  Empty means
  /// all variables of the solver.
  std::vector<Var> projection;
  /// Keep the full models; turn off when only the count matters (ApproxMC).
  bool store_models = true;
  /// Assumptions passed to every solve call.  The incremental BSAT engine
  /// uses these to switch on absorber-activated hash rows and the current
  /// cell's blocking selector; plain callers leave it empty.
  std::vector<Lit> assumptions;
  /// Number of variables of the *formula* (excluding engine auxiliaries
  /// such as absorbers and selectors); 0 means solver.num_vars().  Used to
  /// decide whether the projection is trivial (covers the whole formula)
  /// so priority branching keeps its seed semantics on a persistent solver
  /// whose variable count keeps growing.
  Var formula_vars = 0;
  /// When valid, this literal is appended to every blocking clause, so the
  /// whole cell's blocks can later be retracted by asserting it as a unit
  /// (IncrementalBsat does exactly that after counting the cell).  The
  /// caller must also assume its negation via `assumptions`, otherwise the
  /// blocks are inert from the start.
  Lit block_activation = kUndefLit;
  /// When set, called with each model found, straight from the solver and
  /// before it is blocked (IncrementalBsat records the epoch's projections
  /// this way, also for count-only calls).
  std::function<void(const Model&)> on_model;
};

struct EnumerateResult {
  /// Full models found (empty if store_models is false).
  std::vector<Model> models;
  /// Number of distinct (projected) models found, == models.size() when
  /// store_models is true.
  std::uint64_t count = 0;
  /// True iff the solution space was exhausted below max_models.
  bool exhausted = false;
  /// True iff enumeration stopped because the deadline expired.
  bool timed_out = false;
  /// True iff enumeration stopped because the cancel flag tripped.  Takes
  /// precedence over timed_out; the cell's blocks are still retractable
  /// (cancellation unwinds exactly like a timeout at the solver level).
  bool cancelled = false;
  /// Number of blocking clauses actually added to the solver (<= count;
  /// the engine's retraction accounting uses this).
  std::uint64_t blocks_added = 0;
};

/// Adds blocking clauses to `solver`.  Without `block_activation` this is
/// destructive — callers that need the solver again must reload the formula;
/// with it, the blocks can be retracted afterwards by asserting the
/// activation literal as a unit (see IncrementalBsat).
EnumerateResult enumerate_models(Solver& solver, const EnumerateOptions& options);

/// Convenience wrapper: loads `cnf` into a fresh solver and enumerates over
/// its sampling set (or all variables when none is declared).
EnumerateResult bsat(const Cnf& cnf, std::uint64_t max_models,
                     const Deadline& deadline = Deadline::never());

}  // namespace unigen
