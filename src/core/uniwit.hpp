#pragma once
// UniWit (Chakraborty, Meel, Vardi, CAV 2013) — the near-uniform baseline
// the paper compares against in Tables 1 and 2.
//
// Reconstruction notes (documented in DESIGN.md §4): we implement UniWit
// with exactly the characteristics the DAC-14 paper attributes to it when
// motivating UniGen:
//   * hashing over the FULL support X, so XOR rows average |X|/2 variables
//     (the scalability bottleneck; paper Section 4);
//   * blocking clauses over the full support as well;
//   * NO approximate counter: for every single witness the algorithm scans
//     m = 1, 2, ... afresh until a cell of acceptable size appears (the
//     cost UniGen amortizes away; paper Section 5's "no way to amortize");
//   * "leapfrogging" disabled, as in the paper's experiments, because it
//     voids the near-uniformity guarantee;
//   * success probability lower-bounded by a constant (0.125 in the paper)
//     rather than UniGen's 0.62.
// Cell-size thresholds reuse ComputeKappaPivot so that both algorithms
// target comparable cell sizes for a given ε.

#include <optional>

#include "cnf/cnf.hpp"
#include "core/kappa_pivot.hpp"
#include "core/sampler.hpp"
#include "simplify/simplify.hpp"
#include "util/rng.hpp"

namespace unigen {

struct UniWitOptions {
  double epsilon = 6.0;
  /// Per-BSAT-invocation timeout in seconds (paper: 2500 s).
  double bsat_timeout_s = 2500.0;
  /// Budget for one sample() call (paper: 20 h per invocation).
  double sample_timeout_s = 72000.0;
  /// Count-safe simplification of the input formula.  UniWit hashes and
  /// blocks over the FULL support, so the frozen set is the full support:
  /// only the model-set-preserving passes (UP, tautologies, subsumption)
  /// ever fire — |R_F| and the per-witness distribution are untouched.
  SimplifyOptions simplify;
};

struct UniWitStats {
  std::uint64_t samples_requested = 0;
  std::uint64_t samples_ok = 0;
  std::uint64_t samples_failed = 0;
  std::uint64_t samples_timed_out = 0;
  std::uint64_t bsat_calls = 0;
  double sample_seconds = 0.0;
  /// What the prepare-time simplification did (ran == false when off).
  SimplifyStats simplify;
  double total_xor_row_length = 0.0;
  std::uint64_t total_xor_rows = 0;
  double average_xor_length() const {
    return total_xor_rows == 0 ? 0.0
                               : total_xor_row_length /
                                     static_cast<double>(total_xor_rows);
  }
  double success_rate() const {
    return samples_requested == 0
               ? 0.0
               : static_cast<double>(samples_ok) /
                     static_cast<double>(samples_requested);
  }
};

class UniWit final {
 public:
  UniWit(Cnf cnf, UniWitOptions options, Rng& rng);

  /// UniWit has no amortizable preparation; prepare() only computes the
  /// thresholds.
  bool prepare();
  SampleResult sample();

  const UniWitStats& stats() const { return stats_; }

 private:
  Cnf cnf_;
  std::vector<Var> full_support_;
  UniWitOptions options_;
  Rng& rng_;
  KappaPivot kp_;
  bool prepared_ = false;
  /// Prepare-time preprocessing (frozen = full support, so purely
  /// model-set-preserving); every per-sample engine loads its result.
  std::optional<Simplifier> simplifier_;
  UniWitStats stats_;
};

}  // namespace unigen
