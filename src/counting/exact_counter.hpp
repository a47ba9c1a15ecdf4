#pragma once
// Exact model counting (#SAT) — the substrate the paper's US baseline gets
// from sharpSAT.  A DPLL#-style counter with:
//   * iterated unit propagation,
//   * connected-component decomposition with per-component counting,
//   * component caching keyed on the canonicalized residual formula,
//   * free-variable factors (2^k for variables with no remaining
//     occurrence).
//
// XOR constraints are supported by CNF-expanding them first (model count is
// preserved: the chunking auxiliaries are functionally defined).  Counts are
// BigUint since 2^n overflows any machine word.

#include <cstdint>
#include <optional>

#include "cnf/cnf.hpp"
#include "util/bigint.hpp"
#include "util/timer.hpp"

namespace unigen {

struct ExactCounterOptions {
  Deadline deadline = Deadline::never();
};

struct ExactCounterStats {
  std::uint64_t branch_decisions = 0;
  std::uint64_t cache_lookups = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t component_splits = 0;
};

class ExactCounter {
 public:
  explicit ExactCounter(ExactCounterOptions options = {})
      : options_(options) {}

  /// Number of total assignments over cnf.num_vars() variables satisfying
  /// every clause and XOR; nullopt iff the deadline expired.
  std::optional<BigUint> count(const Cnf& cnf);

  const ExactCounterStats& stats() const { return stats_; }

 private:
  ExactCounterOptions options_;
  ExactCounterStats stats_;
};

/// Projected model count over `projection`, computed by blocking-clause
/// enumeration (up to `bound` projections).  Returns nullopt if the bound or
/// the deadline was hit before exhausting the space.  This is the simple
/// reference used in tests and by samplers that need |R_F| restricted to the
/// sampling set.
std::optional<std::uint64_t> count_projected_by_enumeration(
    const Cnf& cnf, const std::vector<Var>& projection, std::uint64_t bound,
    const Deadline& deadline = Deadline::never());

}  // namespace unigen
