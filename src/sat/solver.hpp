#pragma once
// CDCL SAT solver with native XOR-clause reasoning.
//
// This is the substrate the paper obtains from CryptoMiniSAT [Soos]: a
// conflict-driven clause-learning solver that additionally handles parity
// (XOR) constraints natively, so that the hash constraints added by
// UniGen/ApproxMC do not explode into exponential CNF.
//
// Feature set (all from scratch):
//   * two-watched-literal propagation with blockers,
//   * first-UIP conflict analysis with recursive clause minimization,
//   * EVSIDS decision heuristic (indexed binary heap) + phase saving,
//   * Luby restarts, LBD/activity-based learnt-clause database reduction,
//   * incremental interface: add clauses/XORs between solve calls,
//     solve under assumptions,
//   * native XOR constraints via a two-watched-variable scheme; XOR
//     propagations/conflicts participate in clause learning through
//     lazily materialized reason clauses,
//   * level-0 Gaussian elimination over the XOR system (gaussian.cpp):
//     the formula's own rows once per solver, non-priority columns first,
//     which also projects their parities onto the priority set; the
//     priority-local rows (those parities plus live hash rows) once per
//     XOR change; without a priority set the hash rows stay unreduced,
//   * conflict budgets and wall-clock deadlines (returns Undef on limit).

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "cnf/cnf.hpp"
#include "cnf/types.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace unigen {

struct SolverStats {
  std::uint64_t decisions = 0;
  std::uint64_t propagations = 0;
  std::uint64_t xor_propagations = 0;
  std::uint64_t conflicts = 0;
  std::uint64_t restarts = 0;
  std::uint64_t learnt_clauses = 0;
  std::uint64_t removed_clauses = 0;
  std::uint64_t minimized_literals = 0;
  /// The whole-formula elimination (gaussian.cpp): units it forced, and
  /// the rank of its last run.
  std::uint64_t gauss_units = 0;
  std::uint64_t gauss_rows = 0;
  // Incremental-BSAT engine counters, maintained by IncrementalBsat (a
  // single Solver cannot count its own reconstructions): how often the
  // persistent solver was torn down and rebuilt, how many BSAT calls were
  // served by an already-warm solver, and how many blocking clauses were
  // retired by a selector unit instead of a solver reload.
  std::uint64_t solver_rebuilds = 0;
  std::uint64_t reused_solves = 0;
  std::uint64_t retracted_blocks = 0;

  /// Accumulates `other` field-wise (used when an engine folds the stats of
  /// a retired solver into its running totals).
  void merge(const SolverStats& other);
};

struct SolverOptions {
  int restart_base = 128;       // conflicts per Luby unit
  bool random_initial_phase = false;  // diversify first polarity via rng
  std::uint64_t reduce_db_first = 4096;  // learnts before first reduction
  /// Run Gaussian elimination over the XOR system when solve() starts.
  bool xor_gauss = true;
};

class Solver {
 public:
  Solver();
  ~Solver();
  Solver(const Solver&) = delete;
  Solver& operator=(const Solver&) = delete;

  // --- problem construction -------------------------------------------
  Var new_var();
  Var num_vars() const { return static_cast<Var>(assigns_.size()); }

  /// Returns false if the solver is already in an UNSAT state (the clause
  /// may then have been discarded).
  bool add_clause(std::vector<Lit> lits);
  /// Same contract as add_clause, but reads the literals from a
  /// caller-owned buffer; the caller can keep reusing that buffer (the hot
  /// enumeration loop adds one blocking clause per model).  Only the
  /// surviving literals are copied into the stored clause.
  bool add_clause_from(const Lit* lits, std::size_t n);
  /// Adds the parity constraint XOR(vars) = rhs.  A row without an
  /// absorber is the formula's own and makes the next solve re-run the
  /// whole-formula elimination; a hash row (one with an absorber) only
  /// re-runs the priority-local reduction.
  bool add_xor(std::vector<Var> vars, bool rhs);
  /// Declares `v` an absorber: a fresh variable folded into exactly one XOR
  /// hash row so the row can be switched on by assuming the absorber's
  /// negative literal (and is inert — merely defining `v` — otherwise).
  /// Mark it before adding its row: that is how add_xor tells hash rows
  /// from the formula's own.  Gaussian elimination treats absorber columns
  /// specially (gaussian.cpp).
  void mark_absorber(Var v) { is_absorber_[static_cast<std::size_t>(v)] = 1; }
  /// Retires a whole hash epoch: removes every XOR row containing one of
  /// the given absorbers, drops the learnt clauses that mention them, and
  /// freezes the now-unconstrained absorbers at level 0 so search never
  /// decides or propagates them again.
  ///
  /// Soundness: each absorber is fresh and occurs only in its row, so the
  /// rows are a conservative extension of the rest of the formula — any
  /// absorber-free consequence (clause or model projection) derivable with
  /// the rows is derivable without them.  Removing the rows can therefore
  /// only add total models that differ in absorber values, and the learnt
  /// clauses that could disagree with the new absorber values are exactly
  /// the ones that mention them, which are purged here.
  void retire_rows(const std::vector<Var>& absorbers);
  bool is_absorber(Var v) const {
    return is_absorber_[static_cast<std::size_t>(v)] != 0;
  }
  bool is_live_absorber(Var v) const {
    return is_absorber_[static_cast<std::size_t>(v)] == 1;
  }
  /// Loads an entire formula (variables are created as needed).
  bool load(const Cnf& cnf);

  // --- solving ----------------------------------------------------------
  /// Returns True (model available), False (UNSAT under assumptions), or
  /// Undef (budget exhausted).
  lbool solve(const std::vector<Lit>& assumptions = {});
  /// `interrupt`, when non-null, is a cooperative cancellation flag (a
  /// CancelToken's raw atomic, passed raw so this layer stays free of
  /// service dependencies): it is polled at the same every-64-conflicts
  /// cadence as the deadline, and a tripped flag makes the call return
  /// Undef with the trail unwound to level 0 — indistinguishable from a
  /// budget stop as far as solver state is concerned, so the solver stays
  /// fully reusable.
  lbool solve_limited(const std::vector<Lit>& assumptions,
                      const Deadline& deadline,
                      std::uint64_t conflict_budget = 0,
                      const std::atomic<bool>* interrupt = nullptr);

  /// Model of the last successful solve() (total assignment).
  const Model& model() const { return model_; }

  /// False once the clause database is unconditionally unsatisfiable.
  bool okay() const { return ok_; }

  SolverOptions& options() { return options_; }
  const SolverStats& stats() const { return stats_; }

  /// Optional RNG for phase/branching diversification; not owned.
  void set_rng(Rng* rng) { rng_ = rng; }

  /// Prefer these variables for branching (highest activity first) until
  /// all are assigned; only then fall back to the global VSIDS order.
  /// With the sampling set S (an independent support) as priority, every
  /// decision sequence assigns S within |S| levels, after which unit/XOR
  /// propagation determines the dependent Tseitin variables — this keeps
  /// parity conflicts shallow and is the projection-aware branching used
  /// by the CryptoMiniSAT-based UniGen/ApproxMC tool family.
  /// A request identical to the previous one is a no-op, so that repeated
  /// enumerations over an unchanged projection neither re-trigger the
  /// Gaussian elimination nor undo its pivot removal; a changed one re-runs
  /// both the whole-formula elimination (its column order depends on the
  /// set) and the priority-local reduction.
  void set_priority_vars(const std::vector<Var>& vars);

  /// Value of a variable in the current (level-0) assignment; used by
  /// preprocessing consumers.
  lbool fixed_value(Var v) const;

  /// Level-0 cleanup: drops problem and learnt clauses satisfied by the
  /// root assignment.  The incremental engine calls this after retracting a
  /// cell's blocking clauses (the retraction unit satisfies them all), so
  /// the clause database does not grow with the number of cells counted.
  void simplify();

  /// Trims the learnt database down to the `max_keep` most valuable clauses
  /// (lowest LBD, then highest activity), binary and locked clauses always
  /// kept.  The incremental engine calls this at hash-epoch boundaries:
  /// within an epoch retained lemmas are hot (the nested hash levels share
  /// rows), but across epochs most of them are dead weight that a fresh
  /// solver would not carry.
  void shrink_learnts(std::size_t max_keep);

 private:
  // --- internal clause representation ---
  struct Clause {
    std::vector<Lit> lits;
    bool learnt = false;
    float activity = 0.0f;
    std::uint32_t lbd = 0;
  };
  struct Watcher {
    Clause* clause;
    Lit blocker;
  };
  /// One parity row: the formula's own, a hash row (with its absorber) or
  /// a row Gaussian elimination derived.  Derived rows follow from the
  /// formula alone, so they are ordinary rows that no epoch retires.
  struct XorCls {
    std::vector<Var> vars;  // vars[0], vars[1] are the watched positions
    bool rhs = false;
  };
  /// Reason for an implied literal: exactly one of clause / xor id, or
  /// neither for decisions and level-0 facts.
  struct Reason {
    Clause* clause = nullptr;
    std::int32_t xor_id = -1;
    bool is_none() const { return clause == nullptr && xor_id < 0; }
  };
  struct VarData {
    Reason reason;
    std::int32_t level = 0;
  };

  // --- core search ---
  lbool search(const std::vector<Lit>& assumptions, std::uint64_t max_conflicts,
               const Deadline& deadline, std::uint64_t conflict_budget,
               const std::atomic<bool>* interrupt);
  bool enqueue(Lit p, Reason from);
  Clause* propagate();
  Clause* propagate_xors(Lit p);
  void analyze(Clause* confl, std::vector<Lit>& out_learnt, int& out_btlevel,
               std::uint32_t& out_lbd);
  bool lit_redundant(Lit p, std::uint32_t abstract_levels);
  void cancel_until(int level);
  Lit pick_branch_lit();
  void reduce_db();
  void attach_clause(Clause* c);
  void detach_clause(Clause* c);
  /// Materializes the antecedent literals of `r` for implied literal `p`
  /// (or the full conflict when p == kUndefLit) into `out`.
  void reason_literals(const Reason& r, Lit p, std::vector<Lit>& out) const;

  lbool value(Lit p) const {
    const lbool v = assigns_[static_cast<std::size_t>(p.var())];
    return p.sign() ? ~v : v;
  }
  lbool value(Var v) const { return assigns_[static_cast<std::size_t>(v)]; }
  /// Shared core of add_clause / add_clause_from: filters `lits` in place;
  /// with `steal` the surviving literals are moved into the stored clause.
  bool add_clause_impl(std::vector<Lit>& lits, bool steal);
  /// Detaches and erases the `target` worst learnt clauses (highest LBD,
  /// then lowest activity) from `removable`.
  void drop_worst_learnts(std::vector<Clause*>& removable, std::size_t target);
  int level(Var v) const { return vardata_[static_cast<std::size_t>(v)].level; }
  int decision_level() const { return static_cast<int>(trail_lim_.size()); }
  bool locked(const Clause* c) const;

  // --- VSIDS ---
  void var_bump_activity(Var v);
  void var_decay_activity();
  void claus_bump_activity(Clause& c);
  void heap_insert(Var v);
  void heap_update(Var v);
  Var heap_pop();
  void heap_sift_up(std::size_t i);
  void heap_sift_down(std::size_t i);

  // --- XOR engine (xor_engine.cpp) ---
  bool attach_xor(std::int32_t id);
  /// Evaluates parity of assigned vars[from..] of xor `x`.
  bool xor_parity_from(const XorCls& x, std::size_t from) const;
  /// Replaces the whole XOR database with `rows`: rebuilds the watch
  /// lists, restores the invariant that watched positions 0 and 1 are
  /// unassigned, folds rows with fewer than two unassigned variables into
  /// consistency checks / root units, and clears stale xor-id reasons on
  /// the (level-0) trail.  Returns false (setting ok_) on inconsistency.
  /// Callers decide whether the change warrants re-running Gauss.
  bool replace_xors(std::vector<XorCls> rows);
  // --- Gaussian elimination (gaussian.cpp) ---
  /// A hash row carries an absorber; every other row is the formula's own
  /// or was derived from the formula's own rows.
  bool is_hash_row(const std::vector<Var>& vars) const {
    return std::any_of(vars.begin(), vars.end(),
                       [&](Var v) { return is_absorber(v); });
  }
  /// The whole-formula elimination over every row without an absorber,
  /// non-priority columns first.  Enqueues its units and keeps, as ordinary
  /// rows, each reduced row that pivots on a priority column (a parity of
  /// the formula over the priority set alone) or has at most three
  /// variables.  Runs once per change of the formula's rows or of the
  /// priority set.
  bool gauss_preprocess();
  /// RREF over the XOR rows local to the priority (sampling) set: replaces
  /// them by a reduced basis and removes the pivot variables from the
  /// branching priority, so deciding the remaining free variables forces
  /// every pivot by watch propagation.  This is the step that makes BSAT
  /// on hash-constrained formulas tractable (CryptoMiniSAT's Gaussian
  /// elimination plays this role in the paper).  A no-op without a
  /// priority set: a full-support projection leaves its hash rows as added.
  bool reduce_priority_local_xors();

  // --- state ---
  SolverOptions options_;
  SolverStats stats_;
  bool ok_ = true;
  Rng* rng_ = nullptr;

  std::vector<std::unique_ptr<Clause>> clauses_;  // problem clauses
  std::vector<std::unique_ptr<Clause>> learnts_;
  std::vector<XorCls> xors_;
  bool formula_gauss_done_ = false;  // gauss_preprocess is current
  bool gauss_done_ = false;  // so is reduce_priority_local_xors

  std::vector<std::vector<Watcher>> watches_;      // indexed by Lit::index()
  std::vector<std::vector<std::int32_t>> xor_watches_;  // indexed by Var

  std::vector<lbool> assigns_;
  std::vector<VarData> vardata_;
  std::vector<Lit> trail_;
  std::vector<std::int32_t> trail_lim_;
  std::size_t qhead_ = 0;

  std::vector<double> activity_;
  double var_inc_ = 1.0;
  float clause_inc_ = 1.0f;
  std::vector<std::int32_t> heap_pos_;  // var -> heap index, -1 if absent
  std::vector<Var> heap_;
  std::vector<char> polarity_;  // saved phase (true = assign negative)
  std::vector<char> is_absorber_;  // hash-row activation variables
  std::vector<Var> priority_vars_;
  std::vector<Var> priority_request_;  // last set_priority_vars argument

  Model model_;
  std::uint64_t max_learnts_ = 0;

  // scratch buffers for analyze(); xor_confl_buf_ holds the lazily
  // materialized conflict clause of a violated XOR constraint.
  std::vector<char> seen_;
  std::vector<Lit> analyze_stack_;
  std::vector<Lit> analyze_toclear_;
  std::vector<Lit> reason_buf_;
  std::vector<Lit> add_buf_;  // scratch for add_clause_from
  Clause xor_confl_buf_;
};

}  // namespace unigen
