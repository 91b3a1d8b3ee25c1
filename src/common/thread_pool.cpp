#include "common/thread_pool.h"

#include <algorithm>
#include <cstdlib>
#include <exception>
#include <string>

namespace zkt::common {

ThreadPool::ThreadPool(Options options)
    : max_queue_(std::max<size_t>(options.max_queue, 1)) {
  size_t threads = options.threads;
  if (threads == 0) {
    threads = std::max<unsigned>(std::thread::hardware_concurrency(), 1);
  }
  workers_.reserve(threads);
  for (size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  not_empty_.notify_all();
  not_full_.notify_all();
  for (std::thread& w : workers_) w.join();
  // Drain anything still queued so every submitted task's future resolves
  // (packaged_task destruction without invocation would leave callers
  // blocked on a broken promise only in the std::future::get sense; running
  // them keeps shutdown semantics simple: destruction completes all work).
  while (run_one()) {
  }
}

size_t ThreadPool::queue_depth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queue_.size();
}

bool ThreadPool::enqueue(std::function<void()> task, bool block) {
  {
    std::unique_lock<std::mutex> lock(mu_);
    if (block) {
      not_full_.wait(lock,
                     [this] { return stop_ || queue_.size() < max_queue_; });
    } else if (queue_.size() >= max_queue_ && !stop_) {
      return false;
    }
    if (stop_) {
      // After shutdown begins, run the task on the caller: the pool's
      // guarantee is that accepted work always completes.
      lock.unlock();
      task();
      executed_.fetch_add(1, std::memory_order_relaxed);
      return true;
    }
    queue_.push_back(std::move(task));
  }
  not_empty_.notify_one();
  return true;
}

bool ThreadPool::run_one() {
  std::function<void()> task;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (queue_.empty()) return false;
    task = std::move(queue_.front());
    queue_.pop_front();
  }
  not_full_.notify_one();
  task();
  executed_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      not_empty_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ and nothing left to do
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    not_full_.notify_one();
    task();
    executed_.fetch_add(1, std::memory_order_relaxed);
  }
}

void ThreadPool::parallel_for(size_t n, size_t grain,
                              const std::function<void(size_t, size_t)>& body) {
  if (n == 0) return;
  grain = std::max<size_t>(grain, 1);
  if (thread_count() == 0 || n <= grain) {
    body(0, n);
    inlined_.fetch_add(1, std::memory_order_relaxed);
    return;
  }

  // Dynamic chunk claiming: helpers and the caller race on a shared cursor,
  // so stragglers self-balance without a static partition.
  const size_t chunk =
      std::max(grain, (n + (thread_count() + 1) * 4 - 1) /
                          ((thread_count() + 1) * 4));
  auto cursor = std::make_shared<std::atomic<size_t>>(0);
  auto work = [cursor, chunk, n, &body] {
    for (;;) {
      const size_t begin = cursor->fetch_add(chunk, std::memory_order_relaxed);
      if (begin >= n) return;
      body(begin, std::min(n, begin + chunk));
    }
  };

  const size_t helper_count =
      std::min(thread_count(), (n + chunk - 1) / chunk - 1);
  std::vector<std::future<void>> helpers;
  helpers.reserve(helper_count);
  for (size_t i = 0; i < helper_count; ++i) {
    // Queue full? Skip the helper — the caller will claim its chunks.
    auto f = try_submit(work);
    if (!f.has_value()) break;
    helpers.push_back(std::move(*f));
  }

  std::exception_ptr first_error;
  try {
    work();
    inlined_.fetch_add(1, std::memory_order_relaxed);
  } catch (...) {
    first_error = std::current_exception();
  }

  // Help-wait: drain other queued tasks instead of blocking, so a
  // parallel_for issued from inside a pool task cannot deadlock waiting for
  // helpers stuck behind the very task that is waiting.
  for (std::future<void>& f : helpers) {
    help_wait(f);
    try {
      f.get();
    } catch (...) {
      if (!first_error) first_error = std::current_exception();
    }
  }
  if (first_error) std::rethrow_exception(first_error);
}

ThreadPool& ThreadPool::shared() {
  static ThreadPool* pool = [] {
    Options options;
    if (const char* env = std::getenv("ZKT_POOL_THREADS")) {
      const long v = std::strtol(env, nullptr, 10);
      if (v > 0) options.threads = static_cast<size_t>(v);
    }
    return new ThreadPool(options);  // leaked: outlives all static users
  }();
  return *pool;
}

}  // namespace zkt::common
