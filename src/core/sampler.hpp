#pragma once
// Common interface for probabilistic witness generators (paper Section 2).
// All samplers in src/core/ — UniGen, UniWit, XORSample', and the ideal US —
// implement it, which is what lets the benchmark harnesses compare them
// uniformly.

#include <string>
#include <vector>

#include "cnf/types.hpp"

namespace unigen {

struct SampleResult {
  enum class Status {
    kOk,         ///< `witness` holds a satisfying assignment
    kFail,       ///< the generator returned ⊥ (allowed; bounded probability)
    kTimeout,    ///< a resource budget expired
    kUnsat,      ///< the formula has no witnesses
    kCancelled,  ///< the caller's cancellation token fired
  };
  Status status = Status::kFail;
  Model witness;

  bool ok() const { return status == Status::kOk; }

  static SampleResult failure() { return {}; }
  static SampleResult timeout() {
    SampleResult r;
    r.status = Status::kTimeout;
    return r;
  }
  static SampleResult cancelled() {
    SampleResult r;
    r.status = Status::kCancelled;
    return r;
  }
  static SampleResult unsat() {
    SampleResult r;
    r.status = Status::kUnsat;
    return r;
  }
  static SampleResult success(Model witness) {
    SampleResult r;
    r.status = Status::kOk;
    r.witness = std::move(witness);
    return r;
  }
};

/// Outcome of one UniGen request: a batched request (one accepted cell)
/// carries up to max_batch witnesses, a single request at most one — the
/// sample task's one outcome type, shipped unchanged between processes.
/// Timeout, cancellation and ⊥ stay distinct.
struct BatchResult {
  SampleResult::Status status = SampleResult::Status::kFail;
  std::vector<Model> models;

  bool ok() const { return status == SampleResult::Status::kOk; }
};

class WitnessSampler {
 public:
  virtual ~WitnessSampler() = default;

  /// One-time per-formula work (UniGen lines 1–11).  Returns false when the
  /// sampler could not get ready within its budgets; sample() then reports
  /// kTimeout.  Idempotent.
  virtual bool prepare() = 0;

  /// Draws one witness (UniGen lines 12–22).
  virtual SampleResult sample() = 0;

  virtual std::string name() const = 0;
};

}  // namespace unigen
