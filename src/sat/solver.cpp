#include "sat/solver.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <functional>

#include "obs/metrics.hpp"
#include "util/gf2.hpp"

namespace unigen {
namespace {

/// EVSIDS decay of variable activities, per conflict.
constexpr double kVarDecay = 0.95;
/// Decay of learnt-clause activities, per conflict.
constexpr double kClauseActivityDecay = 0.999;
/// Growth of the learnt-clause limit at each database reduction.
constexpr double kReduceDbGrowth = 1.3;

/// Luby restart sequence (Luby, Sinclair, Zuckerman 1993), MiniSat-style.
double luby(double y, int x) {
  int size = 1, seq = 0;
  while (size < x + 1) {
    ++seq;
    size = 2 * size + 1;
  }
  while (size - 1 != x) {
    size = (size - 1) >> 1;
    --seq;
    x = x % size;
  }
  return std::pow(y, seq);
}

}  // namespace

void SolverStats::merge(const SolverStats& other) {
  decisions += other.decisions;
  propagations += other.propagations;
  xor_propagations += other.xor_propagations;
  conflicts += other.conflicts;
  restarts += other.restarts;
  learnt_clauses += other.learnt_clauses;
  removed_clauses += other.removed_clauses;
  minimized_literals += other.minimized_literals;
  gauss_units += other.gauss_units;
  gauss_rows += other.gauss_rows;
  solver_rebuilds += other.solver_rebuilds;
  reused_solves += other.reused_solves;
  retracted_blocks += other.retracted_blocks;
}

Solver::Solver() = default;
Solver::~Solver() = default;

Var Solver::new_var() {
  const Var v = num_vars();
  assigns_.push_back(lbool::Undef);
  vardata_.push_back(VarData{});
  activity_.push_back(0.0);
  heap_pos_.push_back(-1);
  const bool neg_first =
      options_.random_initial_phase && rng_ ? rng_->flip() : true;
  polarity_.push_back(neg_first ? 1 : 0);
  is_absorber_.push_back(0);
  watches_.emplace_back();
  watches_.emplace_back();
  xor_watches_.emplace_back();
  seen_.push_back(0);
  heap_insert(v);
  return v;
}

lbool Solver::fixed_value(Var v) const {
  if (assigns_[static_cast<std::size_t>(v)] != lbool::Undef && level(v) == 0)
    return assigns_[static_cast<std::size_t>(v)];
  return lbool::Undef;
}

bool Solver::add_clause(std::vector<Lit> lits) {
  return add_clause_impl(lits, /*steal=*/true);
}

bool Solver::add_clause_from(const Lit* lits, std::size_t n) {
  add_buf_.assign(lits, lits + n);
  return add_clause_impl(add_buf_, /*steal=*/false);
}

bool Solver::add_clause_impl(std::vector<Lit>& lits, bool steal) {
  assert(decision_level() == 0);
  if (!ok_) return false;
  std::sort(lits.begin(), lits.end());
  std::size_t j = 0;
  Lit prev = kUndefLit;
  for (const Lit l : lits) {
    assert(l.var() < num_vars());
    if (value(l) == lbool::True || (prev.valid() && l == ~prev))
      return true;  // satisfied at level 0 or tautological
    if (value(l) != lbool::False && l != prev) {
      lits[j++] = l;
      prev = l;
    }
  }
  lits.resize(j);
  if (lits.empty()) {
    ok_ = false;
    return false;
  }
  if (lits.size() == 1) {
    if (!enqueue(lits[0], Reason{})) {
      ok_ = false;
      return false;
    }
    if (propagate() != nullptr) ok_ = false;
    return ok_;
  }
  auto c = std::make_unique<Clause>();
  if (steal)
    c->lits = std::move(lits);
  else
    c->lits = lits;
  attach_clause(c.get());
  clauses_.push_back(std::move(c));
  return true;
}

void Solver::simplify() {
  assert(decision_level() == 0);
  if (!ok_) return;
  // Level-0 facts never need their reasons again; clearing them unlocks
  // clauses that acted as reasons for root implications.
  for (const Lit l : trail_)
    vardata_[static_cast<std::size_t>(l.var())].reason = Reason{};
  const auto satisfied = [&](const Clause& c) {
    for (const Lit l : c.lits)
      if (value(l) == lbool::True) return true;  // root-level true
    return false;
  };
  const auto sweep = [&](std::vector<std::unique_ptr<Clause>>& db) {
    std::erase_if(db, [&](const std::unique_ptr<Clause>& up) {
      if (!satisfied(*up)) return false;
      detach_clause(up.get());
      ++stats_.removed_clauses;
      return true;
    });
  };
  sweep(clauses_);
  sweep(learnts_);
}

void Solver::shrink_learnts(std::size_t max_keep) {
  assert(decision_level() == 0);
  if (learnts_.size() <= max_keep) return;
  std::vector<Clause*> removable;
  removable.reserve(learnts_.size());
  for (const auto& up : learnts_) {
    Clause* c = up.get();
    if (c->lits.size() > 2 && !locked(c)) removable.push_back(c);
  }
  const std::size_t always_kept = learnts_.size() - removable.size();
  if (always_kept >= max_keep) return;  // nothing trimmable below the cap
  drop_worst_learnts(removable, removable.size() - (max_keep - always_kept));
}

void Solver::retire_rows(const std::vector<Var>& absorbers) {
  assert(decision_level() == 0);
  if (absorbers.empty() || !ok_) return;
  std::vector<char> retiring(static_cast<std::size_t>(num_vars()), 0);
  for (const Var v : absorbers) {
    assert(is_absorber(v));
    is_absorber_[static_cast<std::size_t>(v)] = 2;
    retiring[static_cast<std::size_t>(v)] = 1;
  }
  const auto mentions_retired = [&](const std::vector<Lit>& lits) {
    for (const Lit l : lits)
      if (retiring[static_cast<std::size_t>(l.var())]) return true;
    return false;
  };
  // Learnt clauses mentioning a retiring absorber were implied only
  // together with the rows being removed; everything else stays.
  std::erase_if(learnts_, [&](const std::unique_ptr<Clause>& up) {
    if (!mentions_retired(up->lits)) return false;
    detach_clause(up.get());
    ++stats_.removed_clauses;
    return true;
  });

  // Partition the XOR system.  Rows with an unassigned retiring absorber
  // cannot simply be dropped: the priority-local reduction back-substitutes
  // rows into one another, so base parity information may survive only
  // inside absorber-carrying combinations.  Existentially eliminating the
  // retiring columns — pivoting on them FIRST, then discarding the pivot
  // rows — keeps exactly the retiring-free span: every consequence not
  // mentioning a retired absorber is preserved, nothing else is.
  std::vector<XorCls> kept;
  std::vector<const XorCls*> touched;
  kept.reserve(xors_.size());
  for (auto& x : xors_) {
    bool drop = false;
    for (const Var v : x.vars) {
      if (value(v) == lbool::Undef && retiring[static_cast<std::size_t>(v)]) {
        drop = true;
        break;
      }
    }
    if (drop)
      touched.push_back(&x);
    else
      kept.push_back(std::move(x));
  }

  if (!touched.empty()) {
    // Column order: retiring absorbers first so they become the pivots.
    std::vector<std::uint32_t> col_of(static_cast<std::size_t>(num_vars()), 0);
    std::vector<char> has_col(static_cast<std::size_t>(num_vars()), 0);
    std::vector<Var> columns;
    const auto add_column = [&](Var v) {
      if (has_col[static_cast<std::size_t>(v)]) return;
      has_col[static_cast<std::size_t>(v)] = 1;
      col_of[static_cast<std::size_t>(v)] =
          static_cast<std::uint32_t>(columns.size());
      columns.push_back(v);
    };
    for (const XorCls* x : touched)
      for (const Var v : x->vars)
        if (value(v) == lbool::Undef && retiring[static_cast<std::size_t>(v)])
          add_column(v);
    const std::size_t num_retiring = columns.size();
    for (const XorCls* x : touched)
      for (const Var v : x->vars)
        if (value(v) == lbool::Undef) add_column(v);

    Gf2System system(columns.size());
    std::vector<std::uint32_t> row;
    for (const XorCls* x : touched) {
      row.clear();
      bool rhs = x->rhs;
      for (const Var v : x->vars) {
        if (value(v) == lbool::Undef)
          row.push_back(col_of[static_cast<std::size_t>(v)]);
        else
          rhs ^= (value(v) == lbool::True);
      }
      if (!system.add_constraint(row, rhs)) {
        ok_ = false;  // cannot happen: all rows are valid constraints
        return;
      }
    }
    for (const auto& reduced : system.reduced_rows()) {
      if (reduced.vars[0] < num_retiring) continue;  // defines a retiring var
      XorCls combo;
      combo.rhs = reduced.rhs;
      combo.vars.reserve(reduced.vars.size());
      for (const auto col : reduced.vars) combo.vars.push_back(columns[col]);
      kept.push_back(std::move(combo));
    }
  }

  if (!replace_xors(std::move(kept))) return;
  gauss_done_ = false;  // the formula's rows are untouched: only the
                        // priority-local reduction runs again
  // Freeze the now-unmentioned absorbers (value is arbitrary) so they cost
  // neither decisions nor propagations in any later solve.
  for (const Var v : absorbers) {
    if (value(v) == lbool::Undef) {
      if (!enqueue(Lit(v, true), Reason{})) {
        ok_ = false;
        return;
      }
    }
  }
  if (propagate() != nullptr) ok_ = false;  // cannot happen; defensive
}

void Solver::set_priority_vars(const std::vector<Var>& vars) {
  if (vars == priority_request_) return;  // unchanged projection: keep the
                                          // reduced set and the Gauss state
  priority_request_ = vars;
  priority_vars_ = vars;
  // Both eliminations depend on the set: the whole-formula one orders its
  // columns by it, the priority-local one pivots on it.
  formula_gauss_done_ = false;
  gauss_done_ = false;
}

bool Solver::add_xor(std::vector<Var> vars, bool rhs) {
  assert(decision_level() == 0);
  if (!ok_) return false;
  // Any change to the XOR system (including a row collapsing to a level-0
  // fact, which alters how existing rows fold) invalidates the previous
  // Gaussian elimination; without this reset a solver that already ran
  // solve() would never re-eliminate over rows added afterwards.  A hash
  // row leaves the formula's own rows, and so their elimination, as is.
  if (!is_hash_row(vars)) formula_gauss_done_ = false;
  gauss_done_ = false;
  std::sort(vars.begin(), vars.end());
  std::vector<Var> norm;
  norm.reserve(vars.size());
  for (std::size_t i = 0; i < vars.size();) {
    std::size_t k = i;
    while (k < vars.size() && vars[k] == vars[i]) ++k;
    if ((k - i) % 2 == 1) {
      const Var v = vars[i];
      assert(v < num_vars());
      const lbool val = value(v);
      if (val == lbool::Undef)
        norm.push_back(v);
      else
        rhs ^= (val == lbool::True);  // fold level-0 facts into the rhs
    }
    i = k;
  }
  if (norm.empty()) {
    if (rhs) ok_ = false;  // 0 = 1
    return ok_;
  }
  if (norm.size() == 1) {
    if (!enqueue(Lit(norm[0], !rhs), Reason{})) {
      ok_ = false;
      return false;
    }
    if (propagate() != nullptr) ok_ = false;
    return ok_;
  }
  xors_.push_back(XorCls{std::move(norm), rhs});
  attach_xor(static_cast<std::int32_t>(xors_.size()) - 1);
  return true;
}

bool Solver::load(const Cnf& cnf) {
  while (num_vars() < cnf.num_vars()) new_var();
  for (const auto& clause : cnf.clauses()) {
    if (!add_clause(clause)) return false;
  }
  for (const auto& x : cnf.xors()) {
    if (!add_xor(x.vars, x.rhs)) return false;
  }
  return ok_;
}

void Solver::attach_clause(Clause* c) {
  assert(c->lits.size() >= 2);
  watches_[static_cast<std::size_t>((~c->lits[0]).index())].push_back(
      Watcher{c, c->lits[1]});
  watches_[static_cast<std::size_t>((~c->lits[1]).index())].push_back(
      Watcher{c, c->lits[0]});
}

void Solver::detach_clause(Clause* c) {
  for (int w = 0; w < 2; ++w) {
    auto& ws = watches_[static_cast<std::size_t>((~c->lits[w]).index())];
    for (std::size_t i = 0; i < ws.size(); ++i) {
      if (ws[i].clause == c) {
        ws[i] = ws.back();
        ws.pop_back();
        break;
      }
    }
  }
}

bool Solver::enqueue(Lit p, Reason from) {
  const lbool v = value(p);
  if (v != lbool::Undef) return v == lbool::True;
  assigns_[static_cast<std::size_t>(p.var())] =
      p.sign() ? lbool::False : lbool::True;
  vardata_[static_cast<std::size_t>(p.var())] =
      VarData{from, decision_level()};
  trail_.push_back(p);
  return true;
}

Solver::Clause* Solver::propagate() {
  Clause* confl = nullptr;
  while (qhead_ < trail_.size()) {
    const Lit p = trail_[qhead_++];
    ++stats_.propagations;
    auto& ws = watches_[static_cast<std::size_t>(p.index())];
    std::size_t i = 0, j = 0;
    const Lit false_lit = ~p;
    while (i < ws.size()) {
      const Watcher w = ws[i];
      if (value(w.blocker) == lbool::True) {
        ws[j++] = ws[i++];
        continue;
      }
      Clause& c = *w.clause;
      if (c.lits[0] == false_lit) std::swap(c.lits[0], c.lits[1]);
      assert(c.lits[1] == false_lit);
      ++i;
      const Lit first = c.lits[0];
      if (first != w.blocker && value(first) == lbool::True) {
        ws[j++] = Watcher{w.clause, first};
        continue;
      }
      bool moved = false;
      for (std::size_t k = 2; k < c.lits.size(); ++k) {
        if (value(c.lits[k]) != lbool::False) {
          std::swap(c.lits[1], c.lits[k]);
          watches_[static_cast<std::size_t>((~c.lits[1]).index())].push_back(
              Watcher{w.clause, first});
          moved = true;
          break;
        }
      }
      if (moved) continue;
      // Clause is unit under the current assignment, or conflicting.
      ws[j++] = Watcher{w.clause, first};
      if (value(first) == lbool::False) {
        confl = w.clause;
        qhead_ = trail_.size();
        while (i < ws.size()) ws[j++] = ws[i++];
      } else {
        enqueue(first, Reason{w.clause, -1});
      }
    }
    ws.resize(j);
    if (confl != nullptr) return confl;
    confl = propagate_xors(p);
    if (confl != nullptr) return confl;
  }
  return nullptr;
}

void Solver::reason_literals(const Reason& r, Lit p,
                             std::vector<Lit>& out) const {
  if (r.clause != nullptr) {
    for (const Lit l : r.clause->lits) {
      if (!p.valid() || l != p) out.push_back(l);
    }
    return;
  }
  assert(r.xor_id >= 0);
  const XorCls& x = xors_[static_cast<std::size_t>(r.xor_id)];
  for (const Var v : x.vars) {
    if (p.valid() && v == p.var()) continue;
    assert(value(v) != lbool::Undef);
    out.push_back(Lit(v, value(v) == lbool::True));  // the false literal
  }
}

void Solver::analyze(Clause* confl, std::vector<Lit>& out_learnt,
                     int& out_btlevel, std::uint32_t& out_lbd) {
  out_learnt.clear();
  out_learnt.push_back(kUndefLit);  // slot for the asserting literal
  int path_count = 0;
  Lit p = kUndefLit;
  std::size_t index = trail_.size();
  Reason cur{confl, -1};

  do {
    if (cur.clause != nullptr && cur.clause->learnt)
      claus_bump_activity(*cur.clause);
    reason_buf_.clear();
    reason_literals(cur, p, reason_buf_);
    for (const Lit q : reason_buf_) {
      const Var v = q.var();
      if (!seen_[static_cast<std::size_t>(v)] && level(v) > 0) {
        seen_[static_cast<std::size_t>(v)] = 1;
        var_bump_activity(v);
        if (level(v) >= decision_level())
          ++path_count;
        else
          out_learnt.push_back(q);
      }
    }
    while (!seen_[static_cast<std::size_t>(trail_[index - 1].var())]) --index;
    p = trail_[index - 1];
    --index;
    cur = vardata_[static_cast<std::size_t>(p.var())].reason;
    seen_[static_cast<std::size_t>(p.var())] = 0;
    --path_count;
  } while (path_count > 0);
  out_learnt[0] = ~p;

  // Recursive clause minimization (MiniSat ccmin deep).
  analyze_toclear_ = out_learnt;
  std::uint32_t abstract_levels = 0;
  for (std::size_t k = 1; k < out_learnt.size(); ++k)
    abstract_levels |= 1u << (level(out_learnt[k].var()) & 31);
  std::size_t j = 1;
  for (std::size_t k = 1; k < out_learnt.size(); ++k) {
    const Reason r = vardata_[static_cast<std::size_t>(out_learnt[k].var())].reason;
    if (r.is_none() || !lit_redundant(out_learnt[k], abstract_levels))
      out_learnt[j++] = out_learnt[k];
    else
      ++stats_.minimized_literals;
  }
  out_learnt.resize(j);

  if (out_learnt.size() == 1) {
    out_btlevel = 0;
  } else {
    std::size_t max_i = 1;
    for (std::size_t k = 2; k < out_learnt.size(); ++k) {
      if (level(out_learnt[k].var()) > level(out_learnt[max_i].var()))
        max_i = k;
    }
    std::swap(out_learnt[1], out_learnt[max_i]);
    out_btlevel = level(out_learnt[1].var());
  }

  // LBD = number of distinct decision levels in the learnt clause.
  std::vector<int> levels;
  levels.reserve(out_learnt.size());
  for (const Lit l : out_learnt) levels.push_back(level(l.var()));
  std::sort(levels.begin(), levels.end());
  out_lbd = static_cast<std::uint32_t>(
      std::unique(levels.begin(), levels.end()) - levels.begin());

  for (const Lit l : analyze_toclear_)
    seen_[static_cast<std::size_t>(l.var())] = 0;
}

bool Solver::lit_redundant(Lit p, std::uint32_t abstract_levels) {
  analyze_stack_.clear();
  analyze_stack_.push_back(p);
  const std::size_t top = analyze_toclear_.size();
  while (!analyze_stack_.empty()) {
    const Lit q = analyze_stack_.back();
    analyze_stack_.pop_back();
    const Reason r = vardata_[static_cast<std::size_t>(q.var())].reason;
    assert(!r.is_none());
    reason_buf_.clear();
    reason_literals(r, q, reason_buf_);
    for (const Lit l : reason_buf_) {
      const Var v = l.var();
      if (seen_[static_cast<std::size_t>(v)] || level(v) == 0) continue;
      const Reason lr = vardata_[static_cast<std::size_t>(v)].reason;
      if (!lr.is_none() && ((1u << (level(v) & 31)) & abstract_levels) != 0) {
        seen_[static_cast<std::size_t>(v)] = 1;
        analyze_stack_.push_back(l);
        analyze_toclear_.push_back(l);
      } else {
        for (std::size_t k = top; k < analyze_toclear_.size(); ++k)
          seen_[static_cast<std::size_t>(analyze_toclear_[k].var())] = 0;
        analyze_toclear_.resize(top);
        return false;
      }
    }
  }
  return true;
}

void Solver::cancel_until(int target_level) {
  if (decision_level() <= target_level) return;
  const auto lim =
      static_cast<std::size_t>(trail_lim_[static_cast<std::size_t>(target_level)]);
  for (std::size_t c = trail_.size(); c-- > lim;) {
    const Var v = trail_[c].var();
    polarity_[static_cast<std::size_t>(v)] =  // phase saving
        (assigns_[static_cast<std::size_t>(v)] == lbool::False) ? 1 : 0;
    assigns_[static_cast<std::size_t>(v)] = lbool::Undef;
    if (heap_pos_[static_cast<std::size_t>(v)] < 0) heap_insert(v);
  }
  trail_.resize(lim);
  trail_lim_.resize(static_cast<std::size_t>(target_level));
  qhead_ = trail_.size();
}

Lit Solver::pick_branch_lit() {
  // Priority pass: the set is small (a sampling set), so a linear scan for
  // the most active unassigned member is cheaper than a second heap.
  Var best = kNoVar;
  for (const Var v : priority_vars_) {
    if (value(v) != lbool::Undef) continue;
    if (best == kNoVar || activity_[static_cast<std::size_t>(v)] >
                              activity_[static_cast<std::size_t>(best)])
      best = v;
  }
  if (best != kNoVar)
    return Lit(best, polarity_[static_cast<std::size_t>(best)] != 0);

  while (!heap_.empty()) {
    const Var v = heap_pop();
    if (value(v) == lbool::Undef)
      return Lit(v, polarity_[static_cast<std::size_t>(v)] != 0);
  }
  return kUndefLit;
}

bool Solver::locked(const Clause* c) const {
  const Lit first = c->lits[0];
  return value(first) == lbool::True &&
         vardata_[static_cast<std::size_t>(first.var())].reason.clause == c;
}

void Solver::drop_worst_learnts(std::vector<Clause*>& removable,
                                std::size_t target) {
  if (target == 0) return;
  std::sort(removable.begin(), removable.end(),
            [](const Clause* a, const Clause* b) {
              if (a->lbd != b->lbd) return a->lbd > b->lbd;  // worst first
              return a->activity < b->activity;
            });
  // Detach in the sorted order: the swap-removes reorder the watch lists,
  // so an order that followed heap addresses would make two solvers given
  // the same calls search differently.  The address-sorted copy is only
  // for membership tests, which do not depend on order.
  const auto doomed_end =
      removable.begin() + static_cast<std::ptrdiff_t>(target);
  for (auto it = removable.begin(); it != doomed_end; ++it) detach_clause(*it);
  std::vector<Clause*> doomed(removable.begin(), doomed_end);
  std::sort(doomed.begin(), doomed.end(), std::less<Clause*>());
  std::erase_if(learnts_, [&](const std::unique_ptr<Clause>& up) {
    return std::binary_search(doomed.begin(), doomed.end(), up.get(),
                              std::less<Clause*>());
  });
  stats_.removed_clauses += target;
}

void Solver::reduce_db() {
  std::vector<Clause*> removable;
  removable.reserve(learnts_.size());
  for (const auto& up : learnts_) {
    Clause* c = up.get();
    if (c->lits.size() > 2 && c->lbd > 2 && !locked(c)) removable.push_back(c);
  }
  drop_worst_learnts(removable, removable.size() / 2);
  max_learnts_ = static_cast<std::uint64_t>(
      static_cast<double>(max_learnts_) * kReduceDbGrowth);
}

void Solver::var_bump_activity(Var v) {
  auto& a = activity_[static_cast<std::size_t>(v)];
  a += var_inc_;
  if (a > 1e100) {
    for (auto& act : activity_) act *= 1e-100;
    var_inc_ *= 1e-100;
  }
  heap_update(v);
}

void Solver::var_decay_activity() { var_inc_ *= 1.0 / kVarDecay; }

void Solver::claus_bump_activity(Clause& c) {
  c.activity += clause_inc_;
  if (c.activity > 1e20f) {
    for (auto& up : learnts_) up->activity *= 1e-20f;
    clause_inc_ *= 1e-20f;
  }
}

// --- indexed binary max-heap on activity ---

void Solver::heap_sift_up(std::size_t i) {
  const Var v = heap_[i];
  const double a = activity_[static_cast<std::size_t>(v)];
  while (i > 0) {
    const std::size_t parent = (i - 1) / 2;
    if (activity_[static_cast<std::size_t>(heap_[parent])] >= a) break;
    heap_[i] = heap_[parent];
    heap_pos_[static_cast<std::size_t>(heap_[i])] = static_cast<std::int32_t>(i);
    i = parent;
  }
  heap_[i] = v;
  heap_pos_[static_cast<std::size_t>(v)] = static_cast<std::int32_t>(i);
}

void Solver::heap_sift_down(std::size_t i) {
  const Var v = heap_[i];
  const double a = activity_[static_cast<std::size_t>(v)];
  const std::size_t n = heap_.size();
  for (;;) {
    std::size_t child = 2 * i + 1;
    if (child >= n) break;
    if (child + 1 < n &&
        activity_[static_cast<std::size_t>(heap_[child + 1])] >
            activity_[static_cast<std::size_t>(heap_[child])])
      ++child;
    if (activity_[static_cast<std::size_t>(heap_[child])] <= a) break;
    heap_[i] = heap_[child];
    heap_pos_[static_cast<std::size_t>(heap_[i])] = static_cast<std::int32_t>(i);
    i = child;
  }
  heap_[i] = v;
  heap_pos_[static_cast<std::size_t>(v)] = static_cast<std::int32_t>(i);
}

void Solver::heap_insert(Var v) {
  if (heap_pos_[static_cast<std::size_t>(v)] >= 0) return;
  heap_.push_back(v);
  heap_pos_[static_cast<std::size_t>(v)] =
      static_cast<std::int32_t>(heap_.size() - 1);
  heap_sift_up(heap_.size() - 1);
}

void Solver::heap_update(Var v) {
  const std::int32_t pos = heap_pos_[static_cast<std::size_t>(v)];
  if (pos >= 0) heap_sift_up(static_cast<std::size_t>(pos));
}

Var Solver::heap_pop() {
  const Var top = heap_[0];
  heap_pos_[static_cast<std::size_t>(top)] = -1;
  const Var last = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) {
    heap_[0] = last;
    heap_pos_[static_cast<std::size_t>(last)] = 0;
    heap_sift_down(0);
  }
  return top;
}

// --- top-level search ---

lbool Solver::search(const std::vector<Lit>& assumptions,
                     std::uint64_t max_conflicts, const Deadline& deadline,
                     std::uint64_t conflict_budget_end,
                     const std::atomic<bool>* interrupt) {
  std::uint64_t conflict_count = 0;
  std::vector<Lit> learnt;
  int btlevel = 0;
  std::uint32_t lbd = 0;

  for (;;) {
    Clause* confl = propagate();
    if (confl != nullptr) {
      ++stats_.conflicts;
      ++conflict_count;
      if (decision_level() == 0) {
        ok_ = false;
        return lbool::False;
      }
      analyze(confl, learnt, btlevel, lbd);
      cancel_until(btlevel);
      if (learnt.size() == 1) {
        enqueue(learnt[0], Reason{});
      } else {
        auto c = std::make_unique<Clause>();
        c->lits = learnt;
        c->learnt = true;
        c->lbd = lbd;
        attach_clause(c.get());
        claus_bump_activity(*c);
        enqueue(learnt[0], Reason{c.get(), -1});
        learnts_.push_back(std::move(c));
        ++stats_.learnt_clauses;
      }
      var_decay_activity();
      clause_inc_ *= static_cast<float>(1.0 / kClauseActivityDecay);

      const bool out_of_conflicts =
          conflict_count >= max_conflicts ||
          (conflict_budget_end != 0 && stats_.conflicts >= conflict_budget_end);
      const bool out_of_time =
          (conflict_count & 63u) == 0 &&
          (deadline.expired() ||
           (interrupt != nullptr &&
            interrupt->load(std::memory_order_acquire)));
      if (out_of_conflicts || out_of_time) {
        cancel_until(0);
        return lbool::Undef;
      }
    } else {
      if (learnts_.size() >= max_learnts_) reduce_db();

      Lit next = kUndefLit;
      while (decision_level() < static_cast<int>(assumptions.size())) {
        const Lit a = assumptions[static_cast<std::size_t>(decision_level())];
        if (value(a) == lbool::True) {
          trail_lim_.push_back(static_cast<std::int32_t>(trail_.size()));
        } else if (value(a) == lbool::False) {
          cancel_until(0);
          return lbool::False;
        } else {
          next = a;
          break;
        }
      }
      if (!next.valid()) {
        next = pick_branch_lit();
        if (!next.valid()) {
          model_ = assigns_;  // complete satisfying assignment
          return lbool::True;
        }
        ++stats_.decisions;
      }
      trail_lim_.push_back(static_cast<std::int32_t>(trail_.size()));
      enqueue(next, Reason{});
    }
  }
}

lbool Solver::solve(const std::vector<Lit>& assumptions) {
  return solve_limited(assumptions, Deadline::never(), 0);
}

lbool Solver::solve_limited(const std::vector<Lit>& assumptions,
                            const Deadline& deadline,
                            std::uint64_t conflict_budget,
                            const std::atomic<bool>* interrupt) {
  // Observability only — timing a solve touches no solver or RNG state, so
  // the result is byte-identical with tracing on or off.
  static obs::Counter& solves = obs::metrics().counter("bsat.solves");
  static obs::Histogram& solve_seconds =
      obs::metrics().histogram("bsat.solve_seconds");
  solves.add();
  obs::ScopedTimer solve_timer(solve_seconds);
  if (!ok_) return lbool::False;
  cancel_until(0);
  if (propagate() != nullptr) {
    ok_ = false;
    return lbool::False;
  }
  if (options_.xor_gauss && !gauss_done_ && !xors_.empty()) {
    // Pivot removal below is relative to the *current* XOR basis; start
    // from the full requested priority set so that re-eliminations (after
    // incremental XOR additions/retirements) re-derive a coherent basis
    // instead of shaving an already-shrunk set further and further.
    priority_vars_ = priority_request_;
    // The whole-formula elimination first: the priority-local reduction
    // pivots on the parities over the priority set it derives.
    if ((!formula_gauss_done_ && !gauss_preprocess()) ||
        !reduce_priority_local_xors()) {
      ok_ = false;
      return lbool::False;
    }
    // Set last: the rows gauss_preprocess adds clear both flags.
    formula_gauss_done_ = gauss_done_ = true;
  }
  if (max_learnts_ == 0) max_learnts_ = options_.reduce_db_first;
  const std::uint64_t conflict_end =
      conflict_budget != 0 ? stats_.conflicts + conflict_budget : 0;

  lbool status = lbool::Undef;
  int restarts = 0;
  for (;;) {
    if (deadline.expired()) break;
    if (interrupt != nullptr && interrupt->load(std::memory_order_acquire))
      break;
    if (conflict_end != 0 && stats_.conflicts >= conflict_end) break;
    const auto max_c = static_cast<std::uint64_t>(
        luby(2.0, restarts) * options_.restart_base);
    status = search(assumptions, max_c, deadline, conflict_end, interrupt);
    ++restarts;
    ++stats_.restarts;
    if (status != lbool::Undef) break;
  }
  cancel_until(0);
  return status;
}

}  // namespace unigen
