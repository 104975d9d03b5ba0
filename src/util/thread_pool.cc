#include "util/thread_pool.h"

#include <algorithm>
#include <string>

#include "obs/context.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/check.h"

namespace mde {
namespace {

/// Identifies the pool (and worker slot) owning the current thread so that
/// Submit/WaitAll/ParallelFor can detect reentrant calls from pool tasks.
thread_local ThreadPool* tls_pool = nullptr;
thread_local size_t tls_worker = 0;
/// Number of pool tasks currently on this thread's call stack. WaitAll
/// called from depth d cannot wait for in_flight_ to reach 0 — the d
/// enclosing tasks are themselves in flight — so it waits for
/// in_flight_ <= d instead.
thread_local size_t tls_depth = 0;

}  // namespace

ThreadPool::ThreadPool(size_t num_threads)
    : worker_counters_(num_threads) {
  MDE_CHECK_GE(num_threads, 1u);
  queues_.resize(num_threads);
  queue_mus_ = std::make_unique<std::mutex[]>(num_threads);
  threads_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    threads_.emplace_back([this, i] { WorkerLoop(i); });
  }
  // Publish each worker's WorkerStats at sample time: the INSTANT queue
  // depth (the cumulative counters cannot show backlog) plus the cumulative
  // execution counters, so /statusz and /metrics see the same
  // WorkerStatsSnapshot the API returns. Gauge handles are resolved once
  // here; the hook itself only reads the snapshot and stores.
  struct WorkerGauges {
    obs::Gauge* queue_depth;
    obs::Gauge* tasks_executed;
    obs::Gauge* steals;
    obs::Gauge* help_runs;
  };
  std::vector<WorkerGauges> gauges;
  gauges.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    const std::string prefix = "pool.worker." + std::to_string(i);
    gauges.push_back(
        {obs::Registry::Global().gauge(prefix + ".queue_depth"),
         obs::Registry::Global().gauge(prefix + ".tasks_executed"),
         obs::Registry::Global().gauge(prefix + ".steals"),
         obs::Registry::Global().gauge(prefix + ".help_runs")});
  }
  sample_hook_id_ =
      obs::RegisterSampleHook([this, gauges = std::move(gauges)] {
        const std::vector<WorkerStats> stats = WorkerStatsSnapshot();
        for (size_t i = 0; i < stats.size() && i < gauges.size(); ++i) {
          gauges[i].queue_depth->Set(
              static_cast<double>(stats[i].queue_depth));
          gauges[i].tasks_executed->Set(
              static_cast<double>(stats[i].tasks_executed));
          gauges[i].steals->Set(static_cast<double>(stats[i].steals));
          gauges[i].help_runs->Set(static_cast<double>(stats[i].help_runs));
        }
      });
}

ThreadPool::~ThreadPool() {
  // Before anything else: the hook captures `this`, and UnregisterSampleHook
  // blocks until any in-flight hook run completes.
  if (sample_hook_id_ != 0) obs::UnregisterSampleHook(sample_hook_id_);
  shutdown_.store(true, std::memory_order_seq_cst);
  {
    std::lock_guard<std::mutex> lock(sleep_mu_);
  }
  task_ready_.notify_all();
  for (auto& t : threads_) t.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  // Causal context propagation: capture the submitter's query context and
  // restore it in whichever thread executes the task — the chosen worker, a
  // thief, or a help-running waiter. Write-only side-band state, so this
  // cannot affect task results or scheduling.
  if (const obs::Context& ctx = obs::CurrentContext(); ctx.active()) {
    task = [ctx, inner = std::move(task)] {
      obs::ContextGuard guard(ctx);
      inner();
    };
  }
  in_flight_.fetch_add(1, std::memory_order_relaxed);
  // A worker submitting work keeps it on its own deque (front = hot end);
  // external submitters round-robin across workers.
  const size_t target = (tls_pool == this)
                            ? tls_worker
                            : next_queue_.fetch_add(
                                  1, std::memory_order_relaxed) %
                                  queues_.size();
  {
    std::lock_guard<std::mutex> lock(queue_mus_[target]);
    queues_[target].push_front(std::move(task));
  }
  const size_t depth = pending_.fetch_add(1, std::memory_order_seq_cst) + 1;
  MDE_OBS_COUNT("pool.submitted", 1);
  MDE_OBS_OBSERVE("pool.queue_depth", depth);
  {
    // Empty critical section: serializes with a worker's checked wait so
    // the notify below cannot be lost between its predicate check and
    // going to sleep.
    std::lock_guard<std::mutex> lock(sleep_mu_);
  }
  task_ready_.notify_one();
}

bool ThreadPool::TryGetTask(size_t self, std::function<void()>* out) {
  const size_t n = queues_.size();
  // Own deque first (front), then steal from siblings (back).
  {
    std::lock_guard<std::mutex> lock(queue_mus_[self]);
    if (!queues_[self].empty()) {
      *out = std::move(queues_[self].front());
      queues_[self].pop_front();
      pending_.fetch_sub(1, std::memory_order_relaxed);
      return true;
    }
  }
  for (size_t k = 1; k < n; ++k) {
    const size_t victim = (self + k) % n;
    std::lock_guard<std::mutex> lock(queue_mus_[victim]);
    if (!queues_[victim].empty()) {
      *out = std::move(queues_[victim].back());
      queues_[victim].pop_back();
      pending_.fetch_sub(1, std::memory_order_relaxed);
      worker_counters_[self].steals.fetch_add(1, std::memory_order_relaxed);
      MDE_OBS_COUNT("pool.steals", 1);
      return true;
    }
  }
  return false;
}

std::vector<ThreadPool::WorkerStats> ThreadPool::WorkerStatsSnapshot() const {
  std::vector<WorkerStats> out(worker_counters_.size());
  for (size_t i = 0; i < worker_counters_.size(); ++i) {
    out[i].tasks_executed =
        worker_counters_[i].tasks_executed.load(std::memory_order_relaxed);
    out[i].steals =
        worker_counters_[i].steals.load(std::memory_order_relaxed);
    out[i].help_runs =
        worker_counters_[i].help_runs.load(std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(queue_mus_[i]);
    out[i].queue_depth = queues_[i].size();
  }
  return out;
}

void ThreadPool::Execute(std::function<void()>& task) {
  MDE_OBS_COUNT("pool.tasks_executed", 1);
  if (tls_pool == this) {
    worker_counters_[tls_worker].tasks_executed.fetch_add(
        1, std::memory_order_relaxed);
  }
  ++tls_depth;
  task();
  --tls_depth;
  if (in_flight_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    {
      std::lock_guard<std::mutex> lock(wait_mu_);
    }
    all_done_.notify_all();
  }
}

void ThreadPool::WorkerLoop(size_t index) {
  tls_pool = this;
  tls_worker = index;
  obs::SetCurrentThreadName("worker-" + std::to_string(index));
  std::function<void()> task;
  while (true) {
    if (TryGetTask(index, &task)) {
      Execute(task);
      task = nullptr;
      continue;
    }
    std::unique_lock<std::mutex> lock(sleep_mu_);
    task_ready_.wait(lock, [this] {
      return shutdown_.load(std::memory_order_seq_cst) ||
             pending_.load(std::memory_order_seq_cst) > 0;
    });
    if (shutdown_.load(std::memory_order_seq_cst) &&
        pending_.load(std::memory_order_seq_cst) == 0) {
      return;
    }
  }
}

void ThreadPool::WaitAll() {
  if (tls_pool == this) {
    // Called from inside a pool task: help-run instead of blocking so the
    // pool cannot deadlock on its own workers. "Every task finished"
    // necessarily excludes the tls_depth enclosing tasks paused under this
    // frame. (Two tasks that each WaitAll on the other still cannot
    // terminate — use ParallelFor, which waits on its own chunk group, for
    // composable nesting.)
    std::function<void()> task;
    while (in_flight_.load(std::memory_order_acquire) > tls_depth) {
      if (TryGetTask(tls_worker, &task)) {
        worker_counters_[tls_worker].help_runs.fetch_add(
            1, std::memory_order_relaxed);
        MDE_OBS_COUNT("pool.help_runs", 1);
        Execute(task);
        task = nullptr;
      } else {
        std::this_thread::yield();
      }
    }
    return;
  }
  std::unique_lock<std::mutex> lock(wait_mu_);
  all_done_.wait(lock, [this] {
    return in_flight_.load(std::memory_order_acquire) == 0;
  });
}

size_t ThreadPool::ResolveGrain(size_t n, size_t grain) const {
  if (grain > 0) return grain;
  // Default: ~8 chunks per worker for steal-friendly load balance, but
  // never chunks smaller than 1 index.
  const size_t target_chunks = 8 * threads_.size();
  return std::max<size_t>(1, n / std::max<size_t>(1, target_chunks));
}

size_t ThreadPool::NumChunks(size_t n, size_t grain) const {
  if (n == 0) return 0;
  const size_t g = ResolveGrain(n, grain);
  return (n + g - 1) / g;
}

void ThreadPool::ParallelFor(size_t n,
                             const std::function<void(size_t)>& fn) {
  ParallelFor(n, 0, fn);
}

void ThreadPool::ParallelFor(size_t n, size_t grain,
                             const std::function<void(size_t)>& fn) {
  ParallelForChunks(n, grain,
                    [&fn](size_t /*chunk*/, size_t begin, size_t end) {
                      for (size_t i = begin; i < end; ++i) fn(i);
                    });
}

void ThreadPool::ParallelForChunks(
    size_t n, size_t grain,
    const std::function<void(size_t, size_t, size_t)>& fn) {
  if (n == 0) return;
  MDE_TRACE_SPAN("pool.parallel_for");
  const size_t g = ResolveGrain(n, grain);
  const size_t chunks = (n + g - 1) / g;
  MDE_OBS_COUNT("pool.parallel_for.calls", 1);
  MDE_OBS_COUNT("pool.parallel_for.chunks", chunks);
  if (chunks == 1) {
    fn(0, 0, n);
    return;
  }

  auto state = std::make_shared<ForState>();
  state->num_chunks = chunks;
  // Claims chunks until none remain. `fn` is only dereferenced under a
  // successful claim, which can happen only while the caller is still
  // blocked in this frame — so capturing it by pointer is safe even though
  // helper tasks may run (and immediately no-op) after we return.
  const auto* fn_ptr = &fn;
  auto run_chunks = [state, fn_ptr, n, g] {
    while (true) {
      const size_t c =
          state->next_chunk.fetch_add(1, std::memory_order_relaxed);
      if (c >= state->num_chunks) return;
      const size_t begin = c * g;
      const size_t end = std::min(n, begin + g);
      (*fn_ptr)(c, begin, end);
      if (state->completed.fetch_add(1, std::memory_order_acq_rel) + 1 ==
          state->num_chunks) {
        {
          std::lock_guard<std::mutex> lock(state->mu);
        }
        state->done.notify_all();
      }
    }
  };

  const size_t helpers = std::min(threads_.size(), chunks - 1);
  for (size_t i = 0; i < helpers; ++i) Submit(run_chunks);
  // The caller participates: even if every worker is busy (e.g. this is a
  // nested ParallelFor issued from inside a pool task), all chunks get
  // executed right here.
  run_chunks();
  std::unique_lock<std::mutex> lock(state->mu);
  state->done.wait(lock, [&state] {
    return state->completed.load(std::memory_order_acquire) ==
           state->num_chunks;
  });
}

}  // namespace mde
