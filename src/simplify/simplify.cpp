#include "simplify/simplify.hpp"

#include <algorithm>
#include <optional>

#include "cnf/fingerprint.hpp"
#include "util/timer.hpp"

namespace unigen {

void SimplifyStats::merge(const SimplifyStats& other) {
  ran = ran || other.ran;
  unsat = unsat || other.unsat;
  rounds += other.rounds;
  original_clauses += other.original_clauses;
  original_literals += other.original_literals;
  result_clauses += other.result_clauses;
  result_literals += other.result_literals;
  units_fixed += other.units_fixed;
  tautologies_removed += other.tautologies_removed;
  pure_literals_fixed += other.pure_literals_fixed;
  subsumed_clauses += other.subsumed_clauses;
  strengthened_literals += other.strengthened_literals;
  eliminated_vars += other.eliminated_vars;
  seconds += other.seconds;
}

namespace {

// The pipeline's fixed limits (see SimplifyOptions).
constexpr int kMaxRounds = 20;
/// BVE clause-growth cap: eliminate v only when the number of kept
/// resolvents is at most (#clauses deleted) + kBveGrowth.
constexpr std::size_t kBveGrowth = 0;
/// Skip BVE scoring for variables where both polarities occur more than
/// this often (the resolvent product would be quadratic).
constexpr std::size_t kBveMaxOccurrences = 16;

/// Resolvent of two clauses (sorted by Lit::index(), duplicate-free) on
/// pivot `v`; nullopt when the resolvent is tautological.  Both inputs must
/// contain `v` with opposite signs; the output is again sorted and
/// duplicate-free.  The result cannot be empty: each input has a literal
/// besides the pivot, and if every pair cancelled the clause would have
/// been flagged tautological.
std::optional<std::vector<Lit>> resolve(const std::vector<Lit>& a,
                                        const std::vector<Lit>& b, Var v) {
  std::vector<Lit> out;
  out.reserve(a.size() + b.size() - 2);
  std::size_t i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    const Lit x = a[i], y = b[j];
    if (x.var() == v) {
      ++i;
      continue;
    }
    if (y.var() == v) {
      ++j;
      continue;
    }
    if (x == y) {
      out.push_back(x);
      ++i;
      ++j;
    } else if (x.var() == y.var()) {
      return std::nullopt;  // complementary pair outside the pivot
    } else if (x.index() < y.index()) {
      out.push_back(x);
      ++i;
    } else {
      out.push_back(y);
      ++j;
    }
  }
  for (; i < a.size(); ++i)
    if (a[i].var() != v) out.push_back(a[i]);
  for (; j < b.size(); ++j)
    if (b[j].var() != v) out.push_back(b[j]);
  return out;
}

/// The whole working state of one pipeline run.  Clauses of length >= 2
/// live in `cls` (units are folded into `fixed` immediately); occurrence
/// lists are supersets pruned lazily by live_occs().
struct Pipeline {
  SimplifyStats& stats;

  Var n = 0;
  std::vector<std::vector<Lit>> cls;
  std::vector<char> dead;
  std::vector<std::uint64_t> sig;  // OR of 1 << (var % 64) per clause
  std::vector<std::vector<std::uint32_t>> occs;  // per Lit::index()
  Model fixed;                  // level-0 assignment
  std::vector<char> frozen;     // S ∪ vars(XORs): passes 4/5 keep out
  std::vector<char> eliminated; // BVE'd away
  std::vector<Lit> queue;       // pending unit literals
  std::size_t qhead = 0;
  bool unsat = false;

  explicit Pipeline(SimplifyStats& s) : stats(s) {}

  static std::uint64_t signature(const std::vector<Lit>& lits) {
    std::uint64_t s = 0;
    for (const Lit l : lits) s |= std::uint64_t{1} << (l.var() & 63);
    return s;
  }

  lbool value(Lit l) const {
    const lbool v = fixed[static_cast<std::size_t>(l.var())];
    return l.sign() ? ~v : v;
  }

  void enqueue(Lit l) { queue.push_back(l); }

  /// Normalizes and stores a clause: sorts, drops duplicate literals and
  /// fixed-false literals, detects tautologies and satisfied clauses.
  /// `from_input` routes the tautology counter (resolvent tautologies are
  /// never materialized, so only input clauses can hit it here).
  void add_clause(std::vector<Lit> lits, bool from_input) {
    std::sort(lits.begin(), lits.end());
    std::vector<Lit> kept;
    kept.reserve(lits.size());
    for (const Lit l : lits) {
      if (!kept.empty() && l == kept.back()) continue;  // duplicate
      if (!kept.empty() && l == ~kept.back()) {
        if (from_input) ++stats.tautologies_removed;
        return;  // tautology (sorted: ~l adjacent to l)
      }
      const lbool v = value(l);
      if (v == lbool::True) return;  // already satisfied at level 0
      if (v == lbool::False) continue;
      kept.push_back(l);
    }
    if (kept.empty()) {
      unsat = true;
      return;
    }
    if (kept.size() == 1) {
      enqueue(kept[0]);
      return;
    }
    const auto idx = static_cast<std::uint32_t>(cls.size());
    sig.push_back(signature(kept));
    for (const Lit l : kept)
      occs[static_cast<std::size_t>(l.index())].push_back(idx);
    cls.push_back(std::move(kept));
    dead.push_back(0);
  }

  void kill(std::uint32_t ci) { dead[ci] = 1; }

  bool contains(std::uint32_t ci, Lit l) const {
    return std::binary_search(cls[ci].begin(), cls[ci].end(), l);
  }

  /// Prunes stale entries (dead clause, or literal strengthened away) out
  /// of the occurrence list of `l` and returns it.
  std::vector<std::uint32_t>& live_occs(Lit l) {
    auto& list = occs[static_cast<std::size_t>(l.index())];
    std::erase_if(list, [&](std::uint32_t ci) {
      return dead[ci] || !contains(ci, l);
    });
    return list;
  }

  /// Level-0 unit propagation with literal elimination (pass 1).  Every
  /// fixed variable is re-emitted as a unit clause in the result, so the
  /// model set over all variables is preserved exactly.
  bool propagate() {
    bool changed = false;
    while (qhead < queue.size() && !unsat) {
      const Lit l = queue[qhead++];
      const auto v = static_cast<std::size_t>(l.var());
      if (fixed[v] != lbool::Undef) {
        if (value(l) == lbool::False) unsat = true;
        continue;
      }
      fixed[v] = l.sign() ? lbool::False : lbool::True;
      ++stats.units_fixed;
      changed = true;
      // Clauses satisfied by l disappear ...  (occurrence lists are lazy
      // supersets: verify membership before acting on an entry)
      for (const std::uint32_t ci : occs[static_cast<std::size_t>(l.index())])
        if (!dead[ci] && contains(ci, l)) kill(ci);
      occs[static_cast<std::size_t>(l.index())].clear();
      // ... and ¬l is deleted from the rest.
      auto& falsified = occs[static_cast<std::size_t>((~l).index())];
      for (const std::uint32_t ci : falsified) {
        if (dead[ci] || !contains(ci, ~l)) continue;
        auto& c = cls[ci];
        c.erase(std::remove(c.begin(), c.end(), ~l), c.end());
        sig[ci] = signature(c);
        if (c.size() == 1) {
          enqueue(c[0]);
          kill(ci);
        }
      }
      falsified.clear();
    }
    return changed;
  }

  /// Pass 4: pure literals, restricted to unfrozen variables (count-safe
  /// only outside S — see the header).  Pinning cascades through
  /// propagate(), which can expose new pure literals; the fixpoint loop
  /// picks those up next round.
  bool pure_pass() {
    std::vector<std::uint32_t> count(static_cast<std::size_t>(2 * n), 0);
    for (std::uint32_t ci = 0; ci < cls.size(); ++ci) {
      if (dead[ci]) continue;
      for (const Lit l : cls[ci]) ++count[static_cast<std::size_t>(l.index())];
    }
    bool changed = false;
    for (Var v = 0; v < n; ++v) {
      const auto sv = static_cast<std::size_t>(v);
      if (frozen[sv] || eliminated[sv] || fixed[sv] != lbool::Undef) continue;
      const std::uint32_t pos = count[static_cast<std::size_t>(Lit(v, false).index())];
      const std::uint32_t neg = count[static_cast<std::size_t>(Lit(v, true).index())];
      if (pos == 0 && neg == 0) continue;  // free variable: leave alone
      if (neg == 0) {
        enqueue(Lit(v, false));
      } else if (pos == 0) {
        enqueue(Lit(v, true));
      } else {
        continue;
      }
      ++stats.pure_literals_fixed;
      changed = true;
    }
    if (changed) propagate();
    return changed;
  }

  /// True iff cls[a] ⊆ cls[b]; both sorted.
  bool subset(std::uint32_t a, std::uint32_t b) const {
    return std::includes(cls[b].begin(), cls[b].end(), cls[a].begin(),
                         cls[a].end());
  }

  /// True iff cls[a] \ {skip} ⊆ cls[b]; both sorted.
  bool subset_except(std::uint32_t a, Lit skip, std::uint32_t b) const {
    const auto& ca = cls[a];
    const auto& cb = cls[b];
    std::size_t j = 0;
    for (const Lit l : ca) {
      if (l == skip) continue;
      while (j < cb.size() && cb[j] < l) ++j;
      if (j == cb.size() || !(cb[j] == l)) return false;
      ++j;
    }
    return true;
  }

  /// Pass 3: forward/backward subsumption + self-subsuming resolution.
  /// Candidates come from the occurrence list of one literal of the
  /// subsuming clause; signatures reject most non-subset pairs in one AND.
  bool subsume_pass() {
    bool changed = false;
    std::vector<std::uint32_t> cand;
    for (std::uint32_t ci = 0; ci < cls.size() && !unsat; ++ci) {
      if (dead[ci]) continue;
      // Backward subsumption: clauses that contain a superset of cls[ci],
      // searched through the least-occurring literal of cls[ci].
      Lit best = cls[ci][0];
      for (const Lit l : cls[ci]) {
        if (occs[static_cast<std::size_t>(l.index())].size() <
            occs[static_cast<std::size_t>(best.index())].size())
          best = l;
      }
      cand = live_occs(best);  // copy: kills below mutate the lists
      for (const std::uint32_t cj : cand) {
        if (cj == ci || dead[cj] || dead[ci]) continue;
        if (cls[cj].size() < cls[ci].size()) continue;
        if (cls[cj].size() == cls[ci].size() && cj < ci) continue;  // dup: keep lower
        if ((sig[ci] & ~sig[cj]) != 0) continue;
        if (!subset(ci, cj)) continue;
        kill(cj);
        ++stats.subsumed_clauses;
        changed = true;
      }
      if (dead[ci]) continue;
      // Self-subsuming resolution: C = B ∨ l strengthens D = A ∨ ¬l to A
      // whenever B ⊆ A (resolving C against D yields A, which subsumes D).
      for (std::size_t k = 0; k < cls[ci].size(); ++k) {
        const Lit l = cls[ci][k];
        const std::uint64_t sig_rest =
            sig[ci];  // superset of sig(C \ {l}); safe one-sided filter
        cand = live_occs(~l);
        for (const std::uint32_t cj : cand) {
          if (dead[cj] || !contains(cj, ~l) ||
              cls[cj].size() < cls[ci].size())
            continue;
          if ((sig_rest & ~(sig[cj] | (std::uint64_t{1} << (l.var() & 63)))) != 0)
            continue;
          if (!subset_except(ci, l, cj)) continue;
          auto& c = cls[cj];
          c.erase(std::remove(c.begin(), c.end(), ~l), c.end());
          sig[cj] = signature(c);
          ++stats.strengthened_literals;
          changed = true;
          if (c.size() == 1) {
            enqueue(c[0]);
            kill(cj);
          }
        }
      }
    }
    if (changed) propagate();
    return changed;
  }

  /// Pass 5: bounded variable elimination on unfrozen variables.  The
  /// elimination is Davis–Putnam existential quantification (count-safe
  /// for any projection excluding the variable); the clause-growth cap
  /// keeps the formula from blowing up.  Returns the reconstruction
  /// entries for every variable it eliminated.
  bool bve_pass(std::vector<std::pair<Var, std::vector<std::vector<Lit>>>>& out) {
    bool changed = false;
    std::vector<std::optional<std::vector<Lit>>> resolvents;
    for (Var v = 0; v < n && !unsat; ++v) {
      const auto sv = static_cast<std::size_t>(v);
      if (frozen[sv] || eliminated[sv] || fixed[sv] != lbool::Undef) continue;
      // Copies: commit below mutates the occurrence lists.
      const std::vector<std::uint32_t> pos = live_occs(Lit(v, false));
      const std::vector<std::uint32_t> neg = live_occs(Lit(v, true));
      if (pos.empty() && neg.empty()) continue;  // free already
      if (pos.size() > kBveMaxOccurrences && neg.size() > kBveMaxOccurrences)
        continue;
      const std::size_t budget = pos.size() + neg.size() + kBveGrowth;
      resolvents.clear();
      bool within_budget = true;
      for (const std::uint32_t p : pos) {
        for (const std::uint32_t q : neg) {
          auto r = resolve(cls[p], cls[q], v);
          if (!r) continue;  // tautological resolvent: nothing to add
          resolvents.push_back(std::move(r));
          if (resolvents.size() > budget) {
            within_budget = false;
            break;
          }
        }
        if (!within_budget) break;
      }
      if (!within_budget) continue;
      // Commit: save v's clauses for reconstruction, then swap them for
      // the resolvents.
      std::vector<std::vector<Lit>> saved;
      saved.reserve(pos.size() + neg.size());
      for (const std::uint32_t p : pos) {
        saved.push_back(cls[p]);
        kill(p);
      }
      for (const std::uint32_t q : neg) {
        saved.push_back(cls[q]);
        kill(q);
      }
      out.emplace_back(v, std::move(saved));
      for (auto& r : resolvents) add_clause(std::move(*r), false);
      eliminated[sv] = 1;
      ++stats.eliminated_vars;
      changed = true;
      // Resolvents can be units; renormalize before scoring the next var.
      propagate();
    }
    return changed;
  }
};

}  // namespace

Simplifier::Simplifier(const Cnf& input, SimplifyOptions options,
                       std::optional<std::vector<Var>> frozen) {
  if (!options.enabled) {
    // Honor the master switch even when constructed directly: result() is
    // a verbatim copy and stats().ran stays false.  (Consumers normally
    // gate construction and never pay this copy.)
    result_ = input;
    return;
  }
  const std::vector<Var> frozen_vars =
      frozen ? std::move(*frozen) : input.sampling_set_or_all();
  run(input, frozen_vars);
}

void Simplifier::run(const Cnf& input, const std::vector<Var>& frozen_vars) {
  const Stopwatch watch;
  stats_.ran = true;
  stats_.original_clauses = input.num_clauses();
  for (const auto& c : input.clauses()) stats_.original_literals += c.size();

  Pipeline p(stats_);
  p.n = input.num_vars();
  p.cls.reserve(input.num_clauses());
  p.occs.resize(static_cast<std::size_t>(2 * p.n));
  p.fixed.assign(static_cast<std::size_t>(p.n), lbool::Undef);
  p.frozen.assign(static_cast<std::size_t>(p.n), 0);
  p.eliminated.assign(static_cast<std::size_t>(p.n), 0);
  for (const Var v : frozen_vars) p.frozen[static_cast<std::size_t>(v)] = 1;
  // The pipeline reasons over OR-clauses only; anything an XOR constrains
  // must survive verbatim.
  for (const auto& x : input.xors())
    for (const Var v : x.vars) p.frozen[static_cast<std::size_t>(v)] = 1;

  for (const auto& c : input.clauses()) p.add_clause(c, /*from_input=*/true);
  p.propagate();

  std::vector<std::pair<Var, std::vector<std::vector<Lit>>>> elims;
  for (int round = 1; round <= kMaxRounds && !p.unsat; ++round) {
    bool changed = p.pure_pass();
    changed = p.subsume_pass() || changed;
    changed = p.bve_pass(elims) || changed;
    stats_.rounds = round;
    if (!changed) break;
  }
  elim_stack_.reserve(elims.size());
  for (auto& [v, clauses] : elims)
    elim_stack_.push_back(EliminatedVar{v, std::move(clauses)});

  // Emit the result formula.
  result_ = Cnf(input.num_vars());
  result_.name = input.name;
  stats_.unsat = p.unsat;
  if (p.unsat) {
    result_.add_clause({});
    if (input.sampling_set()) result_.set_sampling_set(*input.sampling_set());
    stats_.result_clauses = result_.num_clauses();
    stats_.seconds = watch.seconds();
    return;
  }
  for (Var v = 0; v < p.n; ++v) {
    const lbool val = p.fixed[static_cast<std::size_t>(v)];
    if (val != lbool::Undef) result_.add_unit(Lit(v, val == lbool::False));
  }
  for (std::uint32_t ci = 0; ci < p.cls.size(); ++ci)
    if (!p.dead[ci]) result_.add_clause(p.cls[ci]);
  for (const auto& x : input.xors()) result_.add_xor(x);
  if (input.sampling_set()) result_.set_sampling_set(*input.sampling_set());
  stats_.result_clauses = result_.num_clauses();
  for (const auto& c : result_.clauses()) stats_.result_literals += c.size();
  stats_.seconds = watch.seconds();
}

void Simplifier::extend_model(Model& m) const {
  // Reverse elimination order: when v was eliminated its saved clauses
  // mentioned only variables still live at that point, i.e. variables the
  // solver assigned or variables eliminated later — which this sweep has
  // already reconstructed.
  for (auto it = elim_stack_.rbegin(); it != elim_stack_.rend(); ++it) {
    lbool value = lbool::False;  // either value works unless some clause forces
    for (const auto& clause : it->clauses) {
      Lit pivot = kUndefLit;
      bool satisfied_without_pivot = false;
      for (const Lit l : clause) {
        if (l.var() == it->v) {
          pivot = l;
          continue;
        }
        if (eval(m, l) == lbool::True) {
          satisfied_without_pivot = true;
          break;
        }
      }
      if (!satisfied_without_pivot) {
        // The pivot literal must hold; clauses cannot disagree because m
        // satisfies every resolvent of the saved set.
        value = pivot.sign() ? lbool::False : lbool::True;
        break;
      }
    }
    m[static_cast<std::size_t>(it->v)] = value;
  }
}

std::vector<Model> Simplifier::extend_models(std::vector<Model> models) const {
  if (!elim_stack_.empty())
    for (Model& m : models) extend_model(m);
  return models;
}

void Simplifier::fold_reconstruction(FingerprintBuilder& fb) const {
  // The stack's order is meaning (reconstruction sweeps it in reverse), so
  // everything goes through the order-sensitive chain.
  fb.add_scalar(elim_stack_.size());
  for (const EliminatedVar& ev : elim_stack_) {
    fb.add_scalar(static_cast<std::uint64_t>(static_cast<std::uint32_t>(ev.v)));
    fb.add_scalar(ev.clauses.size());
    for (const auto& clause : ev.clauses) fb.add_ordered_clause(clause);
  }
}

}  // namespace unigen
