#pragma once
// Result types shared by the probabilistic witness generators (paper
// Section 2) in src/core/ — UniGen, UniWit, XORSample', and the ideal US —
// and by the sampling service's wire format.

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

}  // namespace unigen
