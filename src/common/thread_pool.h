// common::ThreadPool — a bounded, shared worker pool for the proving host.
//
// The prover and the sharded aggregation service previously spawned one
// std::thread per segment / per shard, so a large trace or a wide shard
// fan-out could momentarily create hundreds of kernel threads. This pool
// replaces that with a fixed set of workers and a *bounded* task queue:
// submit() applies backpressure (blocks) when the queue is full, and
// try_submit() lets latency-sensitive callers fall back to running work
// inline instead of waiting.
//
// parallel_for() is the primary interface for the hot paths (segment
// commitment, Merkle level hashing, per-shard proving). It is safe to call
// from *inside* a pool task: the caller always participates in the loop and,
// while waiting for helper chunks, drains other queued tasks instead of
// blocking — so nested parallelism (a pooled segment build whose Merkle
// rebuild is itself level-parallel) cannot deadlock, even on a single-worker
// pool.
//
// Host-side only: guests never see this type (determinism — see
// .zkt-lint.toml guest-determinism excludes).
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <type_traits>
#include <vector>

#include "common/bytes.h"

namespace zkt::common {

class ThreadPool {
 public:
  struct Options {
    /// Worker thread count; 0 means std::thread::hardware_concurrency().
    size_t threads = 0;
    /// Maximum queued (not yet running) tasks before submit() blocks.
    size_t max_queue = 1024;
  };

  explicit ThreadPool(Options options);
  ThreadPool() : ThreadPool(Options{}) {}
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t thread_count() const { return workers_.size(); }
  size_t max_queue() const { return max_queue_; }

  /// Tasks currently waiting in the queue (excludes running tasks).
  size_t queue_depth() const;
  /// Tasks executed by pool workers or drained by help-waiting callers.
  u64 tasks_executed() const {
    return executed_.load(std::memory_order_relaxed);
  }
  /// parallel_for chunks that ran on the calling thread.
  u64 chunks_inline() const { return inlined_.load(std::memory_order_relaxed); }

  /// Enqueue `fn`; blocks while the queue is full (bounded backpressure).
  /// The returned future carries fn's result or its exception.
  template <typename F>
  auto submit(F&& fn) -> std::future<std::invoke_result_t<std::decay_t<F>>> {
    using R = std::invoke_result_t<std::decay_t<F>>;
    auto task =
        std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
    std::future<R> future = task->get_future();
    enqueue([task] { (*task)(); }, /*block=*/true);
    return future;
  }

  /// Non-blocking submit: returns an empty optional (and runs nothing) when
  /// the queue is full, so the caller can execute the work inline instead.
  template <typename F>
  auto try_submit(F&& fn)
      -> std::optional<std::future<std::invoke_result_t<std::decay_t<F>>>> {
    using R = std::invoke_result_t<std::decay_t<F>>;
    auto task =
        std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
    std::future<R> future = task->get_future();
    if (!enqueue([task] { (*task)(); }, /*block=*/false)) {
      return std::nullopt;
    }
    return future;
  }

  /// Wait until `future` is ready, running other queued tasks meanwhile
  /// instead of sleeping, so a wait issued from inside a pool task cannot
  /// deadlock on work queued behind it. Does not call get().
  template <typename T>
  void help_wait(const std::future<T>& future) {
    while (future.wait_for(std::chrono::seconds(0)) !=
           std::future_status::ready) {
      if (!run_one()) future.wait_for(std::chrono::microseconds(200));
    }
  }

  /// Run body(begin, end) over subranges covering [0, n). Chunks are claimed
  /// dynamically; the caller participates and, while waiting for helpers,
  /// executes other queued tasks (deadlock-free under nesting). Rethrows the
  /// first chunk exception after all chunks finish. `grain` is the smallest
  /// chunk worth shipping to another thread.
  void parallel_for(size_t n, size_t grain,
                    const std::function<void(size_t, size_t)>& body);

  /// Process-wide pool shared by the prover, Merkle builds, and the sharded
  /// aggregation service. Sized from the ZKT_POOL_THREADS environment
  /// variable when set, else hardware concurrency.
  static ThreadPool& shared();

 private:
  bool enqueue(std::function<void()> task, bool block);
  /// Pop and run one queued task; false if the queue was empty.
  bool run_one();
  void worker_loop();

  mutable std::mutex mu_;
  std::condition_variable not_empty_;
  std::condition_variable not_full_;
  // zkt-lint: guarded_by(mu_) workers and submitters pop/push concurrently
  std::deque<std::function<void()>> queue_;
  std::vector<std::thread> workers_;
  size_t max_queue_;
  // zkt-lint: guarded_by(mu_) checked by every wait predicate
  bool stop_ = false;
  std::atomic<u64> executed_{0};
  std::atomic<u64> inlined_{0};
};

}  // namespace zkt::common
