#pragma once
// MetricsRegistry — named counters and fixed-bucket latency histograms,
// recorded lock-free on the hot paths and folded/exported the same way
// `SolverStats::merge` folds solver counters: snapshots merge by name, so
// per-run or per-process snapshots aggregate into one report.
//
// Recording is gated on obs::enabled() (one relaxed load when off), and the
// instrumentation sites cache their `Counter&`/`Histogram&` in a
// function-local static so the name lookup's mutex is paid once per site.
//
// Metric catalog (see README "Observability"):
//   bsat.solves / bsat.solve_seconds        every Solver::solve_limited
//   bsat.cells  / cell.enumeration_seconds  every IncrementalBsat cell walk
//   pool.tasks  / pool.queue_wait_seconds   WorkerPool task pull latency
//   session.hits / session.misses / session.evictions
//   fleet.crashes / fleet.hang_kills / fleet.respawns / fleet.redispatches
//     / fleet.poisoned_tasks / fleet.crash_recovery_seconds

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/trace.hpp"  // enabled(), now_ns()

namespace unigen::obs {

class Counter {
 public:
  void add(std::uint64_t d = 1) {
    if (enabled()) v_.fetch_add(d, std::memory_order_relaxed);
  }
  std::uint64_t value() const { return v_.load(std::memory_order_relaxed); }
  void reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// Fixed log2 buckets over nanoseconds: bucket i counts latencies in
/// [2^i, 2^{i+1}) ns, i = 0 … kBuckets-1 (last bucket open-ended ≈ 3.9 h).
class Histogram {
 public:
  static constexpr int kBuckets = 44;

  void record_ns(std::uint64_t ns);
  void record_seconds(double s) {
    record_ns(s <= 0.0 ? 0 : static_cast<std::uint64_t>(s * 1e9));
  }

  std::uint64_t count() const {
    return count_.load(std::memory_order_relaxed);
  }
  std::uint64_t sum_ns() const {
    return sum_ns_.load(std::memory_order_relaxed);
  }
  std::uint64_t max_ns() const {
    return max_ns_.load(std::memory_order_relaxed);
  }
  std::uint64_t bucket(int i) const {
    return buckets_[static_cast<std::size_t>(i)].load(
        std::memory_order_relaxed);
  }
  void reset();

 private:
  std::array<std::atomic<std::uint64_t>, kBuckets> buckets_{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_ns_{0};
  std::atomic<std::uint64_t> max_ns_{0};
};

/// Times a scope into a Histogram; free when tracing is disabled.
class ScopedTimer {
 public:
  explicit ScopedTimer(Histogram& h) {
    if (enabled()) {
      h_ = &h;
      start_ = now_ns();
    }
  }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;
  ~ScopedTimer() {
    if (h_ != nullptr) h_->record_ns(now_ns() - start_);
  }

 private:
  Histogram* h_ = nullptr;
  std::uint64_t start_ = 0;
};

/// A point-in-time copy of the registry, exportable as one versioned JSON
/// document.
struct MetricsSnapshot {
  struct CounterRow {
    std::string name;
    std::uint64_t value = 0;
  };
  struct HistogramRow {
    std::string name;
    std::uint64_t count = 0;
    std::uint64_t sum_ns = 0;
    std::uint64_t max_ns = 0;
    std::array<std::uint64_t, Histogram::kBuckets> buckets{};
    double mean_seconds() const {
      return count == 0 ? 0.0
                        : static_cast<double>(sum_ns) / 1e9 /
                              static_cast<double>(count);
    }
  };
  std::vector<CounterRow> counters;      // name-sorted
  std::vector<HistogramRow> histograms;  // name-sorted

  /// {"schema_version":1,"counters":{…},"histograms":{…}} — buckets are
  /// emitted sparse as [bucket_index, count] pairs.
  std::string to_json() const;
};

class MetricsRegistry {
 public:
  /// Returns the named metric, creating it on first use.  The reference is
  /// stable for the registry's lifetime — cache it in a static at the
  /// recording site.
  Counter& counter(const std::string& name);
  Histogram& histogram(const std::string& name);

  MetricsSnapshot snapshot() const;
  /// Zeroes every metric (registrations survive).
  void reset();

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

/// The process-wide registry every instrumentation site records into.
MetricsRegistry& metrics();

/// Global snapshot → versioned JSON / file.
std::string metrics_json();
bool write_metrics_json(const std::string& path);

}  // namespace unigen::obs
