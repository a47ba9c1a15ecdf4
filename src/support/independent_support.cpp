#include "support/independent_support.hpp"

#include <algorithm>

#include "sat/solver.hpp"

namespace unigen {
namespace {

/// Builds the Padoa query: F(X) ∧ F(X') ∧ (candidate vars equal) ∧
/// (some non-candidate var differs).  SAT ⟺ candidate is NOT independent.
Cnf build_padoa_query(const Cnf& cnf, const std::vector<Var>& candidate) {
  const Var n = cnf.num_vars();
  Cnf query(2 * n);
  const auto shift = [n](Lit l) { return Lit(l.var() + n, l.sign()); };

  for (const auto& clause : cnf.clauses()) {
    query.add_clause(clause);
    std::vector<Lit> copy;
    copy.reserve(clause.size());
    for (const Lit l : clause) copy.push_back(shift(l));
    query.add_clause(std::move(copy));
  }
  for (const auto& x : cnf.xors()) {
    query.add_xor(x);
    XorConstraint copy;
    copy.rhs = x.rhs;
    for (const Var v : x.vars) copy.vars.push_back(v + n);
    query.add_xor(std::move(copy));
  }

  std::vector<bool> in_candidate(static_cast<std::size_t>(n), false);
  for (const Var v : candidate) in_candidate[static_cast<std::size_t>(v)] = true;

  std::vector<Lit> some_diff;
  for (Var v = 0; v < n; ++v) {
    if (in_candidate[static_cast<std::size_t>(v)]) {
      query.add_xor({v, v + n}, false);  // equality on the candidate set
    } else {
      const Var t = query.new_var();  // t ⇔ (x_v ≠ x'_v)
      query.add_xor({t, v, v + n}, false);
      some_diff.emplace_back(t, false);
    }
  }
  if (some_diff.empty()) {
    // Candidate covers the whole support: trivially independent; emit an
    // unsatisfiable query to keep the UNSAT ⟺ independent convention.
    query.add_clause({});
  } else {
    query.add_clause(std::move(some_diff));
  }
  return query;
}

}  // namespace

std::optional<bool> is_independent_support(const Cnf& cnf,
                                           const std::vector<Var>& candidate,
                                           const SupportCheckOptions& options) {
  const Cnf query = build_padoa_query(cnf, candidate);
  Solver solver;
  if (!solver.load(query)) return true;  // query UNSAT at load: independent
  const lbool verdict = solver.solve_limited({}, options.deadline);
  if (verdict == lbool::Undef) return std::nullopt;
  return verdict == lbool::False;
}

std::optional<std::vector<Var>> minimize_independent_support(
    const Cnf& cnf, std::vector<Var> start, const SupportCheckOptions& options,
    Rng* rng) {
  const auto initial = is_independent_support(cnf, start, options);
  if (!initial.has_value() || !*initial) return std::nullopt;

  std::vector<Var> order = start;
  if (rng != nullptr)
    rng->shuffle(order);
  else
    std::reverse(order.begin(), order.end());

  std::vector<Var> current = std::move(start);
  for (const Var v : order) {
    if (options.deadline.expired()) break;
    std::vector<Var> trial;
    trial.reserve(current.size() - 1);
    for (const Var w : current) {
      if (w != v) trial.push_back(w);
    }
    const auto still = is_independent_support(cnf, trial, options);
    if (still.has_value() && *still) current = std::move(trial);
    // unknown or dependent: keep v
  }
  std::sort(current.begin(), current.end());
  return current;
}

}  // namespace unigen
