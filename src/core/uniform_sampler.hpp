#pragma once
// US — the ideal uniform sampler of paper Section 5 (Figure 1's reference).
//
// Exactly as in the paper: US first determines |R_F| with an exact model
// counter (our DPLL# counter standing in for sharpSAT), then "to mimic
// generating a random witness, US simply generates a random number i in
// {1 ... |R_F|}".  For small solution spaces we additionally materialize the
// witness list by enumeration, so sample() can return real witnesses; for
// large spaces only sample_index() is available (which is all the
// uniformity experiment needs).

#include <cstdint>
#include <optional>
#include <vector>

#include "cnf/cnf.hpp"
#include "core/sampler.hpp"
#include "counting/exact_counter.hpp"
#include "util/bigint.hpp"
#include "util/rng.hpp"

namespace unigen {

struct UniformSamplerOptions {
  /// Materialize witnesses when |R_F| (projected on S) is at most this.
  std::uint64_t materialize_bound = 1u << 17;
  double timeout_s = 72000.0;
};

class UniformSampler final {
 public:
  UniformSampler(Cnf cnf, UniformSamplerOptions options, Rng& rng);

  /// Runs the exact counter (and the enumeration when small enough).
  bool prepare();
  /// Returns a real witness in materialized mode; kFail otherwise (use
  /// sample_index() for index-only mode).
  SampleResult sample();

  /// |R_F| projected onto the sampling set (== |R_F| when S is an
  /// independent support).  Valid after prepare().
  const BigUint& count() const { return count_; }

  /// Uniform index in [0, count) — the paper's "random number i".
  BigUint sample_index();

  bool materialized() const { return materialized_; }

 private:
  Cnf cnf_;
  std::vector<Var> sampling_set_;
  UniformSamplerOptions options_;
  Rng& rng_;
  bool prepared_ = false;
  bool timed_out_ = false;
  bool materialized_ = false;
  BigUint count_;
  std::vector<Model> models_;
};

}  // namespace unigen
