#include "service/worker_pool.hpp"

#include <algorithm>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace unigen {

// One fan-out: `count` tasks pulled from an atomic cursor.  Lives on the
// dispatcher's stack for the duration of run(); `active` (mutex-guarded)
// counts workers still attached, so run() never returns — and the Job never
// dies — while a worker could still touch it.
struct WorkerPool::Job {
  std::size_t count = 0;
  const TaskFn* fn = nullptr;
  const std::atomic<bool>* cancel = nullptr;  ///< skip fn once tripped
  /// Dispatcher's trace context at submission, re-installed around every
  /// task's fn so worker-thread spans parent to the dispatcher's span.
  /// Observability only (invalid when tracing is off).
  obs::TraceContext trace_ctx;
  std::uint64_t submit_ns = 0;  ///< queue-wait metric baseline; 0 = off
  std::atomic<std::size_t> next{1};  ///< task 0 is run()'s caller's
  std::atomic<std::size_t> done{0};
  std::atomic<std::size_t> executed{0};  ///< tasks whose fn actually ran
  std::size_t active = 0;  // guarded by WorkerPool::mu_
};

WorkerPool::WorkerPool(std::size_t num_threads) {
  if (num_threads == 0)
    num_threads =
        std::max<std::size_t>(1, std::thread::hardware_concurrency());
  workers_.resize(num_threads);
}

WorkerPool::~WorkerPool() { release(); }

void WorkerPool::release() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : threads_) t.join();
  threads_.clear();
  for (Worker& w : workers_) w.engine.reset();
}

void WorkerPool::start(const Cnf& formula, std::vector<Var> projection) {
  if (started()) return;
  formula_ = &formula;
  projection_ = std::move(projection);
  // Worker 0 is whichever thread calls run().
  threads_.reserve(workers_.size() - 1);
  for (std::size_t i = 1; i < workers_.size(); ++i)
    threads_.emplace_back([this, i] { worker_main(i); });
}

void WorkerPool::worker_main(std::size_t worker_index) {
  std::uint64_t seen_seq = 0;
  for (;;) {
    Job* job = nullptr;
    {
      std::unique_lock<std::mutex> lk(mu_);
      work_cv_.wait(lk, [&] { return stop_ || job_seq_ != seen_seq; });
      if (stop_) return;
      seen_seq = job_seq_;
      job = job_;  // null when the job already finished without us
      if (job != nullptr) ++job->active;
    }
    if (job == nullptr) continue;
    drain(*job, worker_index,
          job->next.fetch_add(1, std::memory_order_relaxed));
    {
      std::lock_guard<std::mutex> lk(mu_);
      --job->active;
    }
    done_cv_.notify_all();
  }
}

void WorkerPool::drain(Job& job, std::size_t worker_index, std::size_t k) {
  Worker& worker = workers_[worker_index];
  for (; k < job.count;
       k = job.next.fetch_add(1, std::memory_order_relaxed)) {
    // Cooperative cancellation: a tripped token turns the remaining
    // tasks into no-ops, but they are still pulled and counted done —
    // run() keeps its "every task accounted for" exit condition and the
    // job drains fast instead of wedging.
    const bool skip = job.cancel != nullptr &&
                      job.cancel->load(std::memory_order_acquire);
    if (!skip) {
      if (!worker.engine)
        worker.engine =
            std::make_unique<IncrementalBsat>(*formula_, projection_);
      // Observability only: first pull of a task after submission is the
      // queue wait; the dispatcher's context makes this thread's spans
      // children of the submitting span.
      if (job.submit_ns != 0 && obs::enabled()) {
        static obs::Counter& tasks = obs::metrics().counter("pool.tasks");
        static obs::Histogram& queue_wait =
            obs::metrics().histogram("pool.queue_wait_seconds");
        tasks.add();
        queue_wait.record_ns(obs::now_ns() - job.submit_ns);
      }
      obs::ContextScope trace_scope(job.trace_ctx);
      (*job.fn)(*worker.engine, worker_index, k);
      ++worker.served;
      job.executed.fetch_add(1, std::memory_order_relaxed);
    }
    job.done.fetch_add(1, std::memory_order_acq_rel);
  }
}

std::size_t WorkerPool::run(std::size_t count, const TaskFn& fn,
                            const std::atomic<bool>* cancel) {
  if (count == 0) return 0;
  Job job;
  job.count = count;
  job.fn = &fn;
  job.cancel = cancel;
  if (obs::enabled()) {
    job.trace_ctx = obs::current_context();
    job.submit_ns = obs::now_ns();
  }
  // The caller claimed task 0 (`next` starts at 1) before any worker can
  // see the job; it runs that task first, then pulls like the others.
  {
    std::lock_guard<std::mutex> lk(mu_);
    job_ = &job;
    ++job_seq_;
  }
  work_cv_.notify_all();
  drain(job, 0, 0);
  std::unique_lock<std::mutex> lk(mu_);
  done_cv_.wait(lk, [&] {
    return job.done.load(std::memory_order_acquire) == job.count &&
           job.active == 0;
  });
  // Cleared under the lock: a worker waking late sees job_ == nullptr and
  // goes back to sleep instead of touching the dead job.
  job_ = nullptr;
  return job.executed.load(std::memory_order_relaxed);
}

SolverStats WorkerPool::engine_stats(std::size_t w) const {
  return workers_[w].engine ? workers_[w].engine->stats() : SolverStats{};
}

}  // namespace unigen
