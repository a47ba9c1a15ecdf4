#pragma once
// Independent-support utilities (paper Section 2/4).
//
// S ⊆ X is an independent support of F iff no two witnesses differ only
// outside S; equivalently, every variable in X \ S is functionally defined
// by S in F.  The paper notes that *finding* a small independent support is
// beyond its scope and relies on benchmark authors supplying one; this
// module implements the missing piece as an extension:
//
//   * is_independent_support: one Padoa-style SAT query.  Build
//     F(X) ∧ F(X') ∧ (S = S') ∧ (∨_{d ∈ X\S} x_d ≠ x'_d); UNSAT iff S is
//     an independent support.  The disequality uses native XOR constraints.
//   * minimize_independent_support: greedy deflation — try dropping each
//     variable and keep the drop when the Padoa query still says UNSAT.
//     The result is a minimal (not necessarily minimum) independent
//     support.

#include <optional>
#include <vector>

#include "cnf/cnf.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace unigen {

struct SupportCheckOptions {
  /// Wall-clock deadline for the whole check.  A query it cuts counts as
  /// "unknown" (nullopt / keep var).
  Deadline deadline = Deadline::never();
};

/// True/false when decided; nullopt when the deadline expired first.
std::optional<bool> is_independent_support(
    const Cnf& cnf, const std::vector<Var>& candidate,
    const SupportCheckOptions& options = {});

/// Greedily shrinks `start` (which must itself be an independent support —
/// verified first) into a minimal one.  Variables are tried in random order
/// when `rng` is given, else in reverse index order.  Returns nullopt when
/// `start` is not an independent support or the deadline expired during
/// the initial verification; otherwise returns the (possibly partially)
/// minimized set — a query the deadline cuts mid-way conservatively keeps
/// its variable.
std::optional<std::vector<Var>> minimize_independent_support(
    const Cnf& cnf, std::vector<Var> start,
    const SupportCheckOptions& options = {}, Rng* rng = nullptr);

}  // namespace unigen
