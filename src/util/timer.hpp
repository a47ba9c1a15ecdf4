#pragma once
// Wall-clock stopwatch and deadline helpers.  Deadlines are threaded
// through the SAT solver and every algorithm that the paper runs with
// timeouts (BSAT calls: 2500 s; whole runs: 20 h).

#include <chrono>
#include <limits>

namespace unigen {

class Stopwatch {
 public:
  Stopwatch() : start_(Clock::now()) {}

  void reset() { start_ = Clock::now(); }

  double seconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

/// A point in time after which work must stop.  A default-constructed
/// Deadline never expires.
class Deadline {
 public:
  Deadline() = default;

  static Deadline in_seconds(double s) {
    Deadline d;
    d.armed_ = true;
    d.at_ = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(s));
    return d;
  }

  static Deadline never() { return Deadline{}; }

  bool expired() const { return armed_ && Clock::now() >= at_; }

  bool armed() const { return armed_; }

  /// Seconds remaining; +inf when unarmed, 0 when expired.
  double remaining_seconds() const;

 private:
  using Clock = std::chrono::steady_clock;
  bool armed_ = false;
  Clock::time_point at_{};
};

inline double Deadline::remaining_seconds() const {
  if (!armed_) return std::numeric_limits<double>::infinity();
  const double r = std::chrono::duration<double>(at_ - Clock::now()).count();
  return r > 0 ? r : 0.0;
}

}  // namespace unigen
