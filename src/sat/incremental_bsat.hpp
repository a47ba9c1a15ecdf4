#pragma once
// Incremental BSAT engine: one persistent Solver shared by every BSAT call
// a pool worker makes — a standalone ApproxMC run's, or a sampling
// session's nested count followed by its samples.
//
// The paper's runtime is dominated by repeated BSAT calls on F ∧ (h = α).
// The naive implementation pays, per call: one full Cnf copy, one Solver
// construction, one clause re-attachment pass, one Gaussian elimination from
// scratch — and throws away every learnt clause.  This engine eliminates all
// of that (the CryptoMiniSAT-backed UniGen/ApproxMC tools amortize the same
// way):
//
//   * The base formula is loaded exactly once (`solver_rebuilds` stays ~1).
//   * XOR hash rows are added once per epoch with a fresh *absorber*
//     variable folded into each row.  XOR(vars, a) = rhs is inert while `a`
//     is free (it merely defines `a`), and equivalent to XOR(vars) = rhs
//     under the assumption ¬a — so hash levels m = 1..n are nested prefixes
//     of the activation-literal list, switched on via solve(assumptions)
//     with no CNF copies and no solver reconstruction.
//   * Enumeration blocking clauses carry a per-cell selector literal; after
//     a cell is counted, a single unit clause (the selector) permanently
//     satisfies — i.e. retracts — all of that cell's blocks.
//   * Learnt clauses survive across BSAT calls, hash levels, ApproxMC
//     iterations and UniGen samples.  When an epoch ends its rows are
//     deleted together with the learnts that mention their absorbers; the
//     surviving learnts are implied by the base formula alone (each row is
//     a conservative extension — it only defines its fresh absorber), so
//     retirement costs nothing at solve time.  Of those, only the best
//     kLearntsAcrossEpochs (128, by LBD/activity) cross the boundary:
//     within an epoch lemmas are hot, across epochs a large stale tail
//     slows propagation more than it saves conflicts (measured sweet spot
//     on the circuit-parity bench: 64–256).
//   * Within an epoch the levels nest, so every cell(m) contains the cells
//     of the deeper levels.  The engine keeps, per epoch, the rows it was
//     given and the S-projection of every model any call found.  A
//     count-only call (store_models == false) counts the remembered
//     projections that lie in cell(m) and enumerates only the rest of the
//     cell, or none of it once they reach the cap; witness calls record
//     into the store but never read it, so every witness still comes from
//     a search.  The count, min(|cell(m)|, max_models), and the
//     `exhausted` flag are exactly what a full enumeration returns.
//
// Each retired row leaves one frozen absorber variable behind, so a
// long-lived engine rebuilds the solver once kMaxRetiredRows (4096) have
// accumulated — a rare, counted event (about one per thousand UniGen
// samples, in SolverStats::solver_rebuilds) that merely compacts the
// tables.

#include <atomic>
#include <cstdint>
#include <memory>
#include <unordered_set>
#include <vector>

#include "cnf/cnf.hpp"
#include "cnf/types.hpp"
#include "hashing/xor_hash.hpp"
#include "sat/enumerator.hpp"
#include "sat/solver.hpp"
#include "util/timer.hpp"

namespace unigen {

class IncrementalBsat {
 public:
  /// `projection` is the set the cells are counted/blocked over (normally
  /// the sampling set S); empty means all variables of `cnf`.  The engine
  /// keeps a reference to `cnf` (for the rare rebuilds), which must
  /// therefore outlive it; temporaries are rejected at compile time.
  IncrementalBsat(const Cnf& cnf, std::vector<Var> projection);
  IncrementalBsat(Cnf&&, std::vector<Var>) = delete;

  /// Starts a new hash epoch: the rows of the previous epoch become inert
  /// (their absorbers are simply never assumed again), and the epoch's
  /// model store is emptied.
  void begin_hash();

  /// Extends the active hash with `h`'s rows; hash levels grow by h.m().
  /// Rows pushed later are deeper levels of the same epoch, so a caller can
  /// draw rows lazily as its search for m climbs.
  void push_rows(const XorHash& h);

  /// Number of rows installed in the active epoch (the deepest usable m).
  std::size_t hash_level() const { return activations_.size(); }

  /// BSAT(F ∧ first-m-rows-of-the-active-hash, max_models): enumerates the
  /// target cell at hash level m on the persistent solver, until `deadline`
  /// (the paper's per-call timeout) or the `cancel` flag (a CancelToken's
  /// raw atomic; null = not cancellable) stops it.  All exits — exhausted,
  /// timed out, cancelled — leave the engine in the same reusable state:
  /// the blocking clauses added during the call are retracted before
  /// returning.  A count-only call may be served in part, or wholly, from
  /// the models the epoch's earlier calls found (see the file comment).
  EnumerateResult enumerate_cell(std::size_t m, std::uint64_t max_models,
                                 const Deadline& deadline, bool store_models,
                                 const std::atomic<bool>* cancel = nullptr);

  /// Cumulative statistics across rebuilds, including the engine counters
  /// solver_rebuilds / reused_solves / retracted_blocks.
  SolverStats stats() const;

  const std::vector<Var>& projection() const { return projection_; }
  Solver& solver() { return *solver_; }

  /// Process-wide count of IncrementalBsat constructions, ever.  A test
  /// seam: per-engine SolverStats cannot reveal a *transient* engine that
  /// was built, warmed and discarded (its stats die with it), but the
  /// counter-to-sampler handoff's whole point is that no such engine
  /// exists — tests assert the delta across prepare+sample equals the
  /// worker count (see tests/test_session_registry.cpp).  Monotonic,
  /// thread-safe, never reset.
  static std::uint64_t total_constructions();

 private:
  /// The epoch's model store: each distinct S-projection found, as a
  /// bitset in projection order (bit i = projection[i] is true), with its
  /// depth, the number of leading rows of the epoch it satisfies.  A
  /// projection lies in cell(m) iff its depth is at least m: it came from a
  /// model of F, and the rows read only S.  When a row reads a variable
  /// outside S that test is not possible, and the store stays unused until
  /// the next epoch.
  class ModelStore {
   public:
    ModelStore(const std::vector<Var>& projection, Var formula_vars);
    void clear();
    void push_rows(const XorHash& h);
    /// Adds the S-projection of `model` unless the store already has it.
    void record(const Model& model);
    bool usable() const { return usable_; }
    std::uint64_t count_in_cell(std::size_t m) const;
    /// Adds to `solver`, for every stored projection in cell(m), the
    /// blocking clause its enumeration would have added: some variable of
    /// S differs, or `activation` holds.
    void block_cell(std::size_t m, Lit activation, Solver& solver) const;

   private:
    /// Leading rows `bits` satisfies, given that it satisfies the first
    /// `from`.
    std::size_t depth_from(const std::uint64_t* bits, std::size_t from) const;

    std::vector<Var> vars_;               // the projection, in order
    std::vector<std::int32_t> position_;  // formula var -> index in vars_
    std::size_t words_ = 0;               // 64-bit words per bitset
    bool usable_ = true;
    std::vector<std::uint64_t> row_bits_;  // one bitset per row
    std::vector<char> row_rhs_;
    std::vector<std::uint64_t> bits_;  // one bitset per stored projection
    std::vector<std::size_t> depth_;
    // Hashes of the stored bitsets.  Two projections whose hashes collide
    // keep only the first: a projection missing from the store is merely
    // enumerated again, while one stored twice would be counted twice.
    std::unordered_set<std::uint64_t> hashes_;
    std::vector<std::uint64_t> scratch_;
  };

  void rebuild();

  const Cnf& cnf_;  // not owned; rare rebuilds reload the base formula
  std::vector<Var> projection_;
  std::unique_ptr<Solver> solver_;
  std::vector<Lit> activations_;         // ¬absorber per active row, in order
  std::size_t retired_rows_ = 0;         // rows retired on the current build
  std::uint64_t solves_on_build_ = 0;
  SolverStats accum_;  // folded stats of retired builds + engine counters
  ModelStore store_;
};

/// Drops the engine's auxiliary variables (absorbers, selectors) from a
/// model: witnesses are reported over the original formula's `n` variables.
/// The auxiliaries are deterministic extensions, so nothing is lost.
inline Model project_model_to_formula(Model m, Var n) {
  m.resize(static_cast<std::size_t>(n));
  return m;
}

inline std::vector<Model> project_models_to_formula(std::vector<Model> models,
                                                    Var n) {
  for (Model& m : models) m.resize(static_cast<std::size_t>(n));
  return models;
}

}  // namespace unigen
