#pragma once
// XORSample' (Gomes, Sabharwal, Selman, NIPS 2007) — the earlier
// hashing-based near-uniform generator, included for ablations.
//
// Unlike UniGen/UniWit it requires the user to supply the number of XOR
// constraints `s` (the "difficult-to-estimate input parameter" the paper
// criticizes): the guarantee and the success probability both degrade when
// s is far from log2 |R_F|.  The variant knob `q` (probability that a
// variable joins an XOR row) reproduces the short-XOR trade-off of
// [Gomes et al., SAT 2007]: q < 0.5 shortens rows and speeds up solving but
// voids the 3-independence the guarantees rest on.

#include "cnf/cnf.hpp"
#include "core/sampler.hpp"
#include "util/rng.hpp"

namespace unigen {

struct XorSampleOptions {
  /// Number of XOR constraints (user-supplied; ideally ≈ log2 |R_F|).
  std::size_t s = 10;
  /// Per-variable inclusion probability for each row (0.5 = H_xor).
  double q = 0.5;
  /// The surviving cell is enumerated exhaustively; abort when it exceeds
  /// this bound (s was chosen too small).
  std::uint64_t cell_bound = 4096;
  double sample_timeout_s = 72000.0;
};

struct XorSampleStats {
  std::uint64_t samples_requested = 0;
  std::uint64_t samples_ok = 0;
  std::uint64_t samples_failed = 0;
  std::uint64_t samples_timed_out = 0;
  std::uint64_t bsat_calls = 0;
  double total_xor_row_length = 0.0;
  std::uint64_t total_xor_rows = 0;
  double average_xor_length() const {
    return total_xor_rows == 0 ? 0.0
                               : total_xor_row_length /
                                     static_cast<double>(total_xor_rows);
  }
};

class XorSamplePrime final {
 public:
  XorSamplePrime(Cnf cnf, XorSampleOptions options, Rng& rng);

  bool prepare() { return true; }  // nothing to amortize
  SampleResult sample();

  const XorSampleStats& stats() const { return stats_; }

 private:
  Cnf cnf_;
  std::vector<Var> full_support_;
  XorSampleOptions options_;
  Rng& rng_;
  XorSampleStats stats_;
};

}  // namespace unigen
