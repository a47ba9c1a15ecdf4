#pragma once
// Count-safe CNF simplification in front of every counter and sampler run.
//
// The paper's central trick is hashing only the sampling set S, which makes
// everything outside S fair game for aggressive formula shrinking: the
// projected model count over S — the only quantity ApproxMC estimates and
// the only distribution UniGen's guarantee speaks about — is invariant
// under elimination of non-S variables.  Production ApproxMC/UniGen ship
// exactly this kind of preprocessor (Arjun / SatELite-style); this is the
// same occurrence-list pipeline, built for this codebase.
//
// The Simplifier runs a fixpoint over five passes.  Writing R_S(F) for the
// set of S-projections of F's models, every pass keeps R_S(F) — and hence
// |R_S(F)| — exactly; the first three even keep the full model set:
//
//   1. Level-0 unit propagation with literal elimination.  Satisfied
//      clauses are dropped, falsified literals deleted, and one unit
//      clause per fixed variable is RE-EMITTED into the result, so the
//      simplified formula has exactly the same models over all variables
//      (a fixed variable stays fixed — nothing is projected away).
//   2. Tautology and duplicate-literal removal.  A clause containing l and
//      ¬l is true in every assignment; deleting it changes nothing.
//   3. Forward/backward subsumption and self-subsuming resolution
//      (signature-hashed occurrence lists).  A subsumed clause is implied
//      by its subsumer, so deleting it preserves the model set; SSR
//      replaces D = A ∨ ¬l by A when some clause C = B ∨ l with B ⊆ A
//      exists, and A ≡ D under C (resolution), so again the model set is
//      unchanged.
//   4. Pure-literal elimination restricted to non-S variables.  If the
//      non-S literal l is pure, F and F ∧ l have the same S-projections:
//      any model of F|σ can be re-assigned l = true without falsifying a
//      clause (no clause contains ¬l), so σ ∈ R_S(F) ⇔ σ ∈ R_S(F ∧ l).
//      The unit l is emitted into the result, pinning the variable — the
//      full model count shrinks, the projected count over S does not.
//      Restriction to non-S is essential: pinning an S variable would
//      delete projections.
//   5. Bounded variable elimination (BVE) restricted to non-S variables
//      with a clause-growth cap.  Replacing v's clauses by all
//      non-tautological resolvents is Davis–Putnam existential
//      quantification: resolvents ∧ rest ≡ ∃v.F, whose models over the
//      remaining variables are exactly the projections of F's models — so
//      for any S with v ∉ S, R_S is untouched.  The eliminated variable
//      becomes unconstrained in the simplified formula; callers that hand
//      out full witnesses re-attach its value via extend_model() (the
//      SatELite reconstruction sweep over the saved clauses), which maps
//      every model of the simplified formula to a model of the original
//      with the same values on all surviving variables.
//
// Variables occurring in XOR constraints are frozen alongside S: the
// pipeline reasons over OR-clauses only, and an XOR constrains its
// variables in ways the occurrence lists cannot see.  XOR constraints pass
// through unchanged (the solver's level-0 Gaussian elimination owns them).
//
// Determinism: the pipeline draws no randomness and iterates in fixed
// variable/clause order, so (formula, options) → (result, reconstruction)
// is a pure function.  Together with the canonical cell ordering of the
// samplers this keeps the service's byte-identical replica contract intact
// when S is an independent support (each S-projection then has exactly one
// extension, which extend_model reproduces).

#include <cstdint>
#include <optional>
#include <vector>

#include "cnf/cnf.hpp"
#include "cnf/types.hpp"

namespace unigen {

class FingerprintBuilder;  // cnf/fingerprint.hpp

struct SimplifyOptions {
  /// Master switch (on by default; off = feed the raw CNF, for A/B runs).
  /// The pipeline itself has no knobs: all five passes run, to a fixpoint
  /// of at most 20 rounds, with BVE allowed no clause growth and skipping
  /// variables both of whose polarities occur more than 16 times.
  bool enabled = true;
};

struct SimplifyStats {
  bool ran = false;    ///< the pipeline executed (options.enabled)
  bool unsat = false;  ///< simplification proved the formula unsatisfiable
  int rounds = 0;      ///< fixpoint rounds executed
  // Input/output sizes (literal counts over OR-clauses; XORs untouched).
  std::size_t original_clauses = 0;
  std::size_t original_literals = 0;
  std::size_t result_clauses = 0;
  std::size_t result_literals = 0;
  // Per-pass work counters.
  std::size_t units_fixed = 0;            ///< variables fixed at level 0
  std::size_t tautologies_removed = 0;
  std::size_t pure_literals_fixed = 0;    ///< non-S pure literals pinned
  std::size_t subsumed_clauses = 0;
  std::size_t strengthened_literals = 0;  ///< literals removed by SSR
  std::size_t eliminated_vars = 0;        ///< non-S variables BVE'd away
  double seconds = 0.0;

  /// Net clause / literal shrinkage (can be negative if BVE growth was
  /// allowed, hence signed).
  std::int64_t clauses_removed() const {
    return static_cast<std::int64_t>(original_clauses) -
           static_cast<std::int64_t>(result_clauses);
  }
  std::int64_t literals_removed() const {
    return static_cast<std::int64_t>(original_literals) -
           static_cast<std::int64_t>(result_literals);
  }

  /// Folds another run's counters into this one (bench aggregation).
  void merge(const SimplifyStats& other);
};

class Simplifier {
 public:
  /// Runs the pipeline on `input`.  The frozen set — variables passes 4
  /// and 5 must not touch — defaults to input.sampling_set_or_all(); a
  /// caller whose projection differs from the formula's declared sampling
  /// set (UniWit counts over the FULL support) passes it explicitly.
  /// Variables of XOR constraints are always frozen in addition.
  explicit Simplifier(const Cnf& input, SimplifyOptions options = {},
                      std::optional<std::vector<Var>> frozen = std::nullopt);

  /// The simplified formula: same num_vars, same sampling set, same XORs,
  /// same name; units + surviving clauses (or the empty clause when
  /// simplification derived UNSAT).  Valid as long as this Simplifier
  /// lives — engines keep references to it.
  const Cnf& result() const { return result_; }

  const SimplifyStats& stats() const { return stats_; }

  /// True when BVE eliminated at least one variable, i.e. models of
  /// result() need extend_model() before they satisfy the original.
  bool needs_extension() const { return !elim_stack_.empty(); }

  /// SatELite solution reconstruction: rewrites the (unconstrained) values
  /// of eliminated variables so `m` — a model of result() — satisfies the
  /// original formula.  Deterministic: an unforced variable is set false,
  /// a forced one to the unique satisfying value, scanning the saved
  /// clauses in reverse elimination order.
  void extend_model(Model& m) const;
  std::vector<Model> extend_models(std::vector<Model> models) const;

  /// Folds the reconstruction state (the BVE elimination stack, in order)
  /// into `fb`.  Part of a session key: two inputs can simplify to the same
  /// core yet reconstruct witnesses differently, and a cache that served
  /// one's witnesses for the other would emit non-models — so the key must
  /// cover how witnesses are extended, not just what gets solved.
  void fold_reconstruction(FingerprintBuilder& fb) const;

 private:
  void run(const Cnf& input, const std::vector<Var>& frozen_vars);

  /// One eliminated variable and the original clauses it occurred in (the
  /// reconstruction witness set).
  struct EliminatedVar {
    Var v;
    std::vector<std::vector<Lit>> clauses;
  };

  Cnf result_;
  SimplifyStats stats_;
  std::vector<EliminatedVar> elim_stack_;  // in elimination order
};

}  // namespace unigen
