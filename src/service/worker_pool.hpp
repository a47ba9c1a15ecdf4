#pragma once
// WorkerPool — the in-process execution backend of the fan-out seam
// (service/dispatch.hpp).
//
// Both parallel layers of this repository have the same shape: a one-time
// phase fixes shared immutable state, then t independent work items (UniGen
// requests, ApproxMC median iterations) run against one formula.  This
// class is the thread/engine half of that shape:
//
//   * N workers.  Worker 0 is the thread that calls run(); workers
//     1..N−1 are persistent threads started once via start() and joined
//     by release() or the destructor, so a width-N pool starts N − 1
//     threads and a width-1 pool is the inline executor (a serial count is
//     a width-1 pool, not a separate loop).  Every width takes the same
//     path.
//   * One lazily-built IncrementalBsat per worker over a single shared
//     immutable Cnf (the engine keeps a reference — no formula copies);
//     a worker builds its engine on its first task and reuses it for the
//     pool lifetime, so engine_stats(w).solver_rebuilds stays at 1 for
//     every worker that ever served.
//   * run() claims task 0 for the caller before it wakes the others, so
//     task 0 always runs on worker 0's engine, and is the caller's first
//     task; the rest are pulled from an atomic cursor, so load balances
//     itself.  run() is
//     synchronous and returns only when every item is done and every
//     worker has detached from the job, which is what makes the
//     per-worker accessors race-free between calls.
//
// Task randomness is not the pool's business: run_tasks (dispatch.hpp)
// forks each task's keyed stream, identically for this pool and for the
// process fleet.
//
// Threading contract: one dispatcher thread drives the pool (start / run /
// the accessors are not reentrant) and serves as worker 0 inside run(); the
// rest of the fan-out is the pool's own.  The callback runs concurrently on
// distinct tasks and must only touch its own task's slot plus per-worker
// state indexed by the worker id it is given.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "cnf/cnf.hpp"
#include "sat/incremental_bsat.hpp"

namespace unigen {

class WorkerPool {
 public:
  /// One work item: `engine` is the serving worker's private persistent
  /// solver, `worker` its index (for per-worker aggregation on the caller's
  /// side), `task` the item index within the run.
  using TaskFn = std::function<void(IncrementalBsat& engine,
                                    std::size_t worker, std::size_t task)>;

  /// `num_threads` 0 = std::thread::hardware_concurrency() (min 1).
  explicit WorkerPool(std::size_t num_threads);
  ~WorkerPool();
  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  /// Starts workers 1..N−1 over `formula` (which must outlive the pool;
  /// engines reference it, they do not copy it).  `projection` is the set
  /// cells are counted/blocked over.  Idempotent: only the first call
  /// starts anything.
  void start(const Cnf& formula, std::vector<Var> projection);
  bool started() const { return formula_ != nullptr; }

  /// Fans `count` tasks across the workers; task k runs
  /// fn(engine, worker, k).  The calling thread is worker 0: it claims
  /// task 0 before any other worker can see the job, runs it, and then
  /// pulls tasks like the rest.  Synchronous: on return every task is
  /// accounted for and every worker has quiesced.  Requires start().
  ///
  /// `cancel` (a CancelToken's raw atomic; null = not cancellable) is the
  /// pool-level cancellation seam: once it trips, workers keep pulling
  /// the remaining tasks but skip `fn` and mark them done — the job drains
  /// at memory speed, run() still returns normally, and the pool is
  /// immediately reusable for the next run.  The task *currently inside*
  /// fn is interrupted at the solver's periodic conflict check only if fn
  /// threads the same flag into its solver calls (the Budget plumbing
  /// does).  Returns the number of tasks whose fn actually ran — == count
  /// iff no cancellation fired.
  std::size_t run(std::size_t count, const TaskFn& fn,
                  const std::atomic<bool>* cancel = nullptr);

  /// Joins workers 1..N−1 and destroys every engine, for a pool that will
  /// fan out no more: it then holds no thread and no solver.  tasks_served
  /// stays; engine_stats reads zero.  A later run() serves every task on
  /// the caller's thread alone.
  void release();

  /// The pool's width N: the caller plus N − 1 threads.
  std::size_t num_threads() const { return workers_.size(); }
  /// Tasks served by worker `w` across all runs.
  std::uint64_t tasks_served(std::size_t w) const {
    return workers_[w].served;
  }
  /// Engine counters of worker `w` (zero-valued when it never built one).
  SolverStats engine_stats(std::size_t w) const;

 private:
  struct Job;
  struct Worker {
    /// Built lazily on the worker's first task, then reused for the pool
    /// lifetime.
    std::unique_ptr<IncrementalBsat> engine;
    std::uint64_t served = 0;
  };

  void worker_main(std::size_t worker_index);
  /// Runs task `k` of `job` (already claimed; k >= count means none) as
  /// worker `worker_index`, then pulls and runs tasks until the cursor
  /// passes the end.
  void drain(Job& job, std::size_t worker_index, std::size_t k);

  const Cnf* formula_ = nullptr;  // set by start(); caller guarantees lifetime
  std::vector<Var> projection_;

  std::vector<Worker> workers_;
  std::vector<std::thread> threads_;  // workers 1..N−1
  std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  Job* job_ = nullptr;         // guarded by mu_
  std::uint64_t job_seq_ = 0;  // guarded by mu_; bumped per submission
  bool stop_ = false;          // guarded by mu_
};

}  // namespace unigen
