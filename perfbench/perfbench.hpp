#pragma once
// Shared declarations of the repo benchmark (perfbench.cpp): workload
// inputs, the trace fold that turns one request's spans into per-layer
// time, and the width-1 replay that produces schedule-free work counters.

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "cnf/cnf.hpp"
#include "obs/trace.hpp"
#include "service/sampler_pool.hpp"

namespace perfbench {

using unigen::Cnf;
using unigen::Model;

/// One generated input formula.  `known_log2` is log2 |R_F| when the
/// generator knows the count by construction (the sketch family).
struct Instance {
  std::string row;
  Cnf cnf;
  std::optional<double> known_log2;
};

// --- trace fold ----------------------------------------------------------

/// Layers a request's wall time is attributed to.  The names are the
/// suffixes of the `share.*` metrics.
enum Layer : std::size_t {
  kHarness,      // bench.request outside every program span
  kRegistry,     // server.request self: lookup, session build, eviction
  kCnf,          // fingerprint_cnf, carved out of kRegistry
  kSimplify,     // the simplifier a miss runs, carved out of kRegistry
  kCorePrepare,  // pool.prepare outside the nested count (easy-case check)
  kCounting,     // count.request / count.iteration / counting hash.probe
  kSat,          // bsat.call (cell enumeration on the solver)
  kCoreSample,   // sample.request / sampling hash.probe
  kPool,         // pool.request self on the in-process pool
  kFleet,        // pool.request self + fleet.attempt/worker.task on a fleet
  kLayerCount,
};
extern const std::array<const char*, kLayerCount> kLayerNames;

struct SpanStat {
  std::uint64_t n = 0;
  double total_s = 0.0;
  void add(double s) {
    ++n;
    total_s += s;
  }
  double mean() const { return n == 0 ? 0.0 : total_s / static_cast<double>(n); }
};

/// Per-layer totals folded over many requests.
struct LayerTotals {
  std::array<double, kLayerCount> layer_s{};
  double wall_s = 0.0;  ///< summed root-span (request) wall time
  std::uint64_t roots = 0;
  SpanStat prepare, prepare_self, count, iteration, accept_cell, cell_enum;
  SpanStat dispatch_overhead;  ///< fleet.attempt minus its worker.task
  double count_incl_s = 0.0;   ///< wall inside count.request
  double fanout_incl_s = 0.0;  ///< wall inside pool.request
  /// Busy vs capacity (width × wall) of the count and sample fan-outs.
  double count_busy_s = 0.0, count_cap_s = 0.0;
  double fan_busy_s = 0.0, fan_cap_s = 0.0;
  /// Durations of the benchmark's own direct-call spans, by name.
  SpanStat fingerprint, simplify, session_key;
};

/// Folds the drained events of one request: the tree under the span named
/// `root` is swept in time, and every instant goes, in equal parts, to the
/// spans active at that instant that have no active child — so the layer
/// times of a request sum to its wall time even when workers overlap.
/// `width` is the fan-out width, `fleet` whether pool.request dispatches to
/// worker processes.  Events outside the root's tree are ignored; a drain
/// without a root adds nothing.
void fold_request(const std::vector<unigen::obs::TraceEvent>& events,
                  const char* root, std::size_t width, bool fleet,
                  LayerTotals& out);

/// Adds the durations of the benchmark's direct-call spans
/// (bench.fingerprint / bench.simplify / bench.session_key).
void fold_direct(const std::vector<unigen::obs::TraceEvent>& events,
                 LayerTotals& out);

// --- width-1 replay --------------------------------------------------------

/// Work counters of the replay.
struct ReplayCounters {
  // Outcome work: fixed by the model counts of the cells probed, so a pure
  // function of the inputs, identical on every run of one commit.
  std::uint64_t counts = 0;            ///< count replays
  std::uint64_t count_bsat_calls = 0;  ///< prologue + iteration probes
  std::uint64_t iterations = 0;        ///< iterations started
  std::uint64_t iterations_warm = 0;   ///< ... from a leapfrog hint
  std::uint64_t cells = 0;             ///< accept-cell requests replayed
  std::uint64_t sample_bsat_calls = 0;
  std::uint64_t timeout_retries = 0;
  /// Solver calls, enumerated cells and models of the workload's request
  /// phase (the counts on cold_count, the accept cells otherwise).
  std::uint64_t solves = 0, bsat_cells = 0, models = 0;
  // Search work of the same phase.  Width 1 removes the thread schedule,
  // but learnt-clause reduction detaches clauses in pointer-hash order, so
  // these can differ slightly between processes.
  std::uint64_t propagations = 0, conflicts = 0, decisions = 0;

  bool same_outcome_work(const ReplayCounters& o) const {
    return counts == o.counts && count_bsat_calls == o.count_bsat_calls &&
           iterations == o.iterations &&
           iterations_warm == o.iterations_warm && cells == o.cells &&
           sample_bsat_calls == o.sample_bsat_calls &&
           timeout_retries == o.timeout_retries && solves == o.solves &&
           bsat_cells == o.bsat_cells && models == o.models;
  }
};

struct ReplayResult {
  ReplayCounters c;
  /// Count replay: the log2 estimate per instance (valid flag beside it),
  /// for the comparison against the server's answer.
  std::vector<double> count_log2;
  std::vector<bool> count_valid;
  /// Sample replay: the first request's witnesses per instance, in slot
  /// order (singles: one model per slot; batches: concatenated).
  std::vector<std::vector<Model>> outputs;
};

/// One replayed formula; `prep` is its live session's prepared state (the
/// sample replay needs it, the count replay does not).
struct ReplayInput {
  const Instance* inst = nullptr;
  const unigen::UniGenPrepared* prep = nullptr;
};

/// Replays every input at width 1 under `options` (the server's session
/// template): each formula's count, then, when `cells` > 0, the first
/// `cells` cells of each session's first request (streams 1..cells),
/// singles when `max_batch` is 0, batches otherwise.  The solver work
/// counted is the request phase's: the counts when `cells` is 0, the cells
/// otherwise.
ReplayResult replay(const std::vector<ReplayInput>& inputs,
                    const unigen::SamplerPoolOptions& options,
                    std::size_t cells, std::size_t max_batch);

}  // namespace perfbench
