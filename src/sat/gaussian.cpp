// Level-0 Gaussian elimination over the XOR system (CryptoMiniSAT-style
// preprocessing), in two steps that solve() runs before searching:
//
//   * gauss_preprocess, the whole-formula elimination, over the formula's
//     own rows (every row without an absorber).  It runs once per change
//     of those rows or of the priority set, which in an incremental engine
//     is once per solver build.  Its columns come non-priority first, so
//     besides detecting inconsistency and enqueueing forced constants it
//     projects the formula's parities onto the priority (sampling) set:
//     each reduced row that pivots on a priority column is such a parity,
//     typically one the Tseitin XOR gates hide behind auxiliary variables
//     and the search would otherwise rediscover through conflicts.  Those
//     rows and the short ones (length <= kGaussMaxRowLen) are added as
//     ordinary rows — each follows from the formula alone, so no epoch
//     retirement ever has to drop them.
//   * reduce_priority_local_xors, the priority-local reduction, after
//     every XOR change (a hash level pushed, an epoch retired): the rows
//     over the priority set and live absorbers — the parities above plus
//     the live hash rows — are replaced by their reduced basis.  Without
//     a priority set (a full-support projection) nothing is reduced, and
//     the hash rows stay as added.

#include <algorithm>
#include <set>

#include "sat/solver.hpp"
#include "util/gf2.hpp"

namespace unigen {
namespace {

/// Max length of derived XOR rows re-injected by the elimination.
constexpr std::size_t kGaussMaxRowLen = 3;

}  // namespace

bool Solver::reduce_priority_local_xors() {
  assert(decision_level() == 0);
  if (priority_vars_.empty() || xors_.empty()) return true;

  const std::size_t p = priority_vars_.size();
  std::vector<char> in_priority(static_cast<std::size_t>(num_vars()), 0);
  std::vector<std::uint32_t> col_of(static_cast<std::size_t>(num_vars()), 0);
  for (std::size_t c = 0; c < p; ++c) {
    in_priority[static_cast<std::size_t>(priority_vars_[c])] = 1;
    col_of[static_cast<std::size_t>(priority_vars_[c])] =
        static_cast<std::uint32_t>(c);
  }

  // Pass 1 — classify.  A row joins the local system when every unassigned
  // variable is either in the priority set or a *live* absorber (hash rows
  // carry one absorber each; since every such row is a true constraint of
  // the formula — active or not — any linear combination of them is
  // globally valid, so not-yet-assumed rows are safe to mix into the
  // basis).  Rows whose absorber has been retired are left verbatim: they
  // can never imply anything on their own (the free absorber soaks up any
  // parity) and folding an unbounded tail of them made elimination
  // quadratic in the number of past hash epochs.  Absorber columns come
  // after the priority columns: Gf2System pivots on the lowest column, so
  // a row with any priority variable pivots on one.
  std::vector<char> local(xors_.size(), 0);
  std::vector<char> has_col(static_cast<std::size_t>(num_vars()), 0);
  for (const Var v : priority_vars_) has_col[static_cast<std::size_t>(v)] = 1;
  std::vector<Var> absorber_cols;  // column p + i  ->  absorber_cols[i]
  bool any_local = false;
  for (std::size_t i = 0; i < xors_.size(); ++i) {
    bool is_local = true;
    for (const Var v : xors_[i].vars) {
      if (value(v) == lbool::Undef &&
          !in_priority[static_cast<std::size_t>(v)] && !is_live_absorber(v)) {
        is_local = false;
        break;
      }
    }
    if (!is_local) continue;
    local[i] = 1;
    any_local = true;
    for (const Var v : xors_[i].vars) {
      if (value(v) == lbool::Undef && !has_col[static_cast<std::size_t>(v)]) {
        has_col[static_cast<std::size_t>(v)] = 1;
        col_of[static_cast<std::size_t>(v)] =
            static_cast<std::uint32_t>(p + absorber_cols.size());
        absorber_cols.push_back(v);
      }
    }
  }
  if (!any_local) return true;

  // Pass 2 — eliminate.  Level-0 facts fold into each row's rhs.
  Gf2System system(p + absorber_cols.size());
  std::vector<std::uint32_t> row;
  for (std::size_t i = 0; i < xors_.size(); ++i) {
    if (!local[i]) continue;
    row.clear();
    bool rhs = xors_[i].rhs;
    for (const Var v : xors_[i].vars) {
      if (value(v) == lbool::Undef)
        row.push_back(col_of[static_cast<std::size_t>(v)]);
      else
        rhs ^= (value(v) == lbool::True);
    }
    if (!system.add_constraint(row, rhs)) {
      ok_ = false;   // 0 = 1 over globally valid rows: truly UNSAT
      return false;
    }
  }

  // Reduced basis replaces the local rows; priority pivots leave the
  // priority set (each is forced by watch propagation once the remaining
  // free variables and the row's absorbers are assigned).
  auto col_var = [&](std::uint32_t col) {
    return col < p ? priority_vars_[col] : absorber_cols[col - p];
  };
  std::vector<XorCls> kept;
  for (std::size_t i = 0; i < xors_.size(); ++i)
    if (!local[i]) kept.push_back(std::move(xors_[i]));
  std::vector<char> is_pivot(p, 0);
  bool enqueue_failed = false;
  // Streamed word-packed extraction: no intermediate row vector, set bits
  // peeled per uint64_t block.
  system.for_each_reduced_row([&](const Gf2System::Row& reduced) {
    if (enqueue_failed) return;
    if (reduced.vars[0] < p)
      is_pivot[reduced.vars[0]] = 1;  // pivot column first, by contract
    if (reduced.vars.size() == 1) {
      // Forced constant — possibly an absorber whose row's base variables
      // are all fixed (then the constraint itself decides the absorber).
      if (!enqueue(Lit(col_var(reduced.vars[0]), !reduced.rhs), Reason{}))
        enqueue_failed = true;
      return;
    }
    XorCls replacement;
    replacement.rhs = reduced.rhs;
    replacement.vars.reserve(reduced.vars.size());
    for (const auto col : reduced.vars)
      replacement.vars.push_back(col_var(col));
    kept.push_back(std::move(replacement));
  });
  if (enqueue_failed) {
    ok_ = false;
    return false;
  }

  // Swap in the new XOR set (rows may have picked up level-0 assignments
  // since they were first attached; replace_xors re-normalizes them).
  if (!replace_xors(std::move(kept))) return false;

  std::vector<Var> free_vars;
  free_vars.reserve(priority_vars_.size());
  for (std::size_t c = 0; c < priority_vars_.size(); ++c) {
    if (!is_pivot[c]) free_vars.push_back(priority_vars_[c]);
  }
  priority_vars_ = std::move(free_vars);
  return propagate() == nullptr;
}

bool Solver::gauss_preprocess() {
  assert(decision_level() == 0);
  // Hash rows are left to the priority-local reduction.  Dense column
  // indices: non-priority columns first (in variable order), then the
  // priority columns in priority order.  Gf2System pivots on the lowest
  // column, so a reduced row that pivots on a priority column has no
  // non-priority variable left: it is a parity of the formula over the
  // priority set alone.
  std::vector<char> in_priority(static_cast<std::size_t>(num_vars()), 0);
  for (const Var v : priority_vars_)
    in_priority[static_cast<std::size_t>(v)] = 1;
  std::vector<char> occurs(static_cast<std::size_t>(num_vars()), 0);
  for (const auto& x : xors_) {
    if (is_hash_row(x.vars)) continue;
    for (const Var v : x.vars)
      if (value(v) == lbool::Undef) occurs[static_cast<std::size_t>(v)] = 1;
  }
  std::vector<Var> columns;
  for (Var v = 0; v < num_vars(); ++v)
    if (occurs[static_cast<std::size_t>(v)] &&
        !in_priority[static_cast<std::size_t>(v)])
      columns.push_back(v);
  const std::size_t first_priority_col = columns.size();
  for (const Var v : priority_vars_)
    if (occurs[static_cast<std::size_t>(v)]) columns.push_back(v);
  if (columns.empty()) return true;
  std::vector<std::uint32_t> col_of(static_cast<std::size_t>(num_vars()), 0);
  for (std::size_t c = 0; c < columns.size(); ++c)
    col_of[static_cast<std::size_t>(columns[c])] = static_cast<std::uint32_t>(c);

  Gf2System system(columns.size());
  std::vector<std::uint32_t> row;
  for (const auto& x : xors_) {
    if (is_hash_row(x.vars)) continue;
    row.clear();
    bool rhs = x.rhs;
    for (const Var v : x.vars) {
      const lbool val = value(v);
      if (val == lbool::Undef)
        row.push_back(col_of[static_cast<std::size_t>(v)]);
      else
        rhs ^= (val == lbool::True);
    }
    if (!system.add_constraint(row, rhs)) return false;  // 0 = 1
  }
  stats_.gauss_rows = system.rank();

  for (const auto& [col, val] : system.implied_units()) {
    const Var v = columns[col];
    if (!enqueue(Lit(v, !val), Reason{})) return false;
    ++stats_.gauss_units;
  }
  if (propagate() != nullptr) return false;

  // Keep the parities over the priority set and the short rows that are
  // not already present.  Each is a linear combination of the formula's
  // rows and level-0 facts, so it stays valid for the solver's lifetime.
  std::set<std::pair<std::vector<Var>, bool>> existing;
  for (const auto& x : xors_) {
    auto key = x.vars;
    std::sort(key.begin(), key.end());
    existing.emplace(std::move(key), x.rhs);
  }
  bool add_failed = false;
  system.for_each_reduced_row([&](const Gf2System::Row& reduced) {
    if (add_failed || reduced.vars.size() < 2) return;
    if (reduced.vars[0] < first_priority_col &&
        reduced.vars.size() > kGaussMaxRowLen)
      return;
    std::vector<Var> vars;
    vars.reserve(reduced.vars.size());
    for (const auto col : reduced.vars) vars.push_back(columns[col]);
    std::sort(vars.begin(), vars.end());
    if (existing.count({vars, reduced.rhs}) > 0) return;
    if (!add_xor(vars, reduced.rhs)) add_failed = true;
  });
  return !add_failed && ok_;
}

}  // namespace unigen
