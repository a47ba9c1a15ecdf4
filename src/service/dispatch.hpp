#pragma once
// run_tasks — the one fan-out seam.  ApproxMC's median iterations and
// UniGen's requests are the same shape: independent tasks, each a pure
// function of (task id, keyed RNG stream), run against one formula.  Both
// services hand their tasks to this one function, which is the only place
// that chooses between the execution backends:
//
//   * the in-process WorkerPool (the caller's own thread is worker 0, and
//     a width-1 pool is that thread alone), which calls the service's task
//     function on a worker's engine;
//   * the ProcessFleet, whose unigen_workerd processes call the same task
//     function on their own engine and ship its outcome back unchanged
//     (ipc::ResultMsg::Outcome).
//
// Task `id` draws from streams.fork_stream(id) on either backend — the
// fleet receives the raw state — and `id` doubles as the task's fault-plan
// key, so where and on which attempt a task runs cannot reach its bytes.
// Nor can it reach what a unit grant admits: both backends ask the one
// UnitGrant rule before a task starts, a fleet retry included.

#include <atomic>
#include <cassert>
#include <cstdint>
#include <functional>
#include <optional>
#include <variant>
#include <vector>

#include "obs/trace.hpp"
#include "service/budget.hpp"
#include "service/process_fleet.hpp"
#include "service/worker_pool.hpp"
#include "util/rng.hpp"

namespace unigen {

/// Runs one task per entry of `ids` on `fleet` when it is non-null, else on
/// `pool` (started), and returns the outcomes in `ids` order.  nullopt
/// marks a task that never produced an outcome: not started because the
/// budget's token fired, its wall deadline passed or the `grant` refused
/// it, or — on the fleet — poisoned or stranded by worker loss.
///
/// `task(engine, worker, id, rng)` is the in-process body; it returns
/// `Outcome` (ApproxMcCoreOutcome or BatchResult) and may touch only its
/// own state plus per-worker state indexed by `worker`.  `max_batch` rides
/// the fleet's task frames (0 for counts and single witnesses).  `grant`
/// (null = no call-level unit grant) is asked before each task starts, on
/// both backends, over the ipc::units_of of the outcomes in so far
/// (UnitGrant, service/budget.hpp); the caller's fold decides what the
/// grant actually bought.
///
/// `lead` (null = none; pool only, so `fleet` must be null) runs as task 0
/// of the same fan-out, ahead of the ids: on the caller's thread and worker
/// 0's engine, while the other workers start on the ids.  When it returns
/// false, tasks that have not started yet are skipped (their slots stay
/// nullopt); tasks already running finish.  Like every task, it does not
/// start once the budget's token has fired or its wall deadline passed.
template <class Outcome, class Task>
std::vector<std::optional<Outcome>> run_tasks(
    WorkerPool& pool, ProcessFleet* fleet,
    const std::vector<std::uint64_t>& ids, const Rng& streams,
    std::uint64_t max_batch, const Budget& budget,
    const UnitGrant* grant, const Task& task,
    const std::function<bool(IncrementalBsat&)>* lead = nullptr) {
  std::vector<std::optional<Outcome>> out(ids.size());
  if (fleet != nullptr) {
    assert(lead == nullptr);
    // Trace propagation (observability only): worker spans land under the
    // caller's current span, in its trace.
    const obs::TraceContext trace = obs::current_context();
    std::vector<ProcessFleet::TaskSpec> specs(ids.size());
    for (std::size_t j = 0; j < ids.size(); ++j)
      specs[j] = {ids[j], streams.fork_stream(ids[j]).state(), max_batch,
                  trace.trace_id, trace.span_id};
    std::vector<ProcessFleet::TaskOutcome> served =
        fleet->run(specs, budget, grant);
    for (std::size_t j = 0; j < ids.size(); ++j) {
      Outcome* o = served[j].served
                       ? std::get_if<Outcome>(&served[j].result.outcome)
                       : nullptr;
      if (o != nullptr) out[j] = std::move(*o);
    }
    return out;
  }
  // Units each task spent, 0 until its outcome is in.
  std::vector<std::atomic<std::uint64_t>> spent(ids.size());
  const std::size_t first = lead != nullptr ? 1 : 0;
  std::atomic<bool> led_away{false};  // the lead said: skip the rest
  pool.run(
      first + ids.size(),
      [&](IncrementalBsat& engine, std::size_t worker, std::size_t k) {
        if (budget.cancelled() || budget.wall_expired()) return;
        if (k < first) {
          if (!(*lead)(engine)) led_away = true;
          return;
        }
        if (led_away) return;
        const std::size_t j = k - first;
        if (grant != nullptr && !grant->admits(j, [&](std::size_t i) {
              return spent[i].load(std::memory_order_relaxed);
            }))
          return;
        Rng rng = streams.fork_stream(ids[j]);
        out[j] = task(engine, worker, ids[j], rng);
        spent[j].store(ipc::units_of(*out[j]), std::memory_order_relaxed);
      },
      budget.cancel_flag());
  return out;
}

}  // namespace unigen
