#include "common/thread_pool.h"

#include <algorithm>
#include <exception>

namespace mlake {

ThreadPool::ThreadPool(int num_threads) {
  if (num_threads <= 0) {
    num_threads = static_cast<int>(std::thread::hardware_concurrency());
    if (num_threads <= 0) num_threads = 1;
  }
  workers_.reserve(static_cast<size_t>(num_threads));
  for (int i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void ThreadPool::Submit(std::function<void()> fn) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(std::move(fn));
  }
  cv_.notify_one();
}

bool ThreadPool::RunOneTask() {
  std::function<void()> task;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (queue_.empty()) return false;
    task = std::move(queue_.front());
    queue_.pop_front();
  }
  task();
  return true;
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return shutdown_ || !queue_.empty(); });
      if (queue_.empty()) return;  // shutdown and drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

void TaskGroup::Add(std::function<Status()> fn) {
  size_t index = added_++;
  waited_ = false;
  auto state = state_;
  {
    std::lock_guard<std::mutex> lock(state->mu);
    ++state->pending;
    if (state->statuses.size() <= index) state->statuses.resize(index + 1);
  }
  auto run = [state, index, fn = std::move(fn)] {
    Status st;
    try {
      st = fn();
    } catch (const std::exception& e) {
      st = Status::Internal(std::string("task threw: ") + e.what());
    } catch (...) {
      st = Status::Internal("task threw a non-std exception");
    }
    std::lock_guard<std::mutex> lock(state->mu);
    state->statuses[index] = std::move(st);
    if (--state->pending == 0) state->done_cv.notify_all();
  };
  if (pool_ == nullptr) {
    run();
  } else {
    pool_->Submit(std::move(run));
  }
}

Status TaskGroup::Wait() {
  if (waited_) return Status::OK();
  // Help drain the pool while our tasks are outstanding, so a TaskGroup
  // joined from inside a pool task cannot deadlock the pool.
  if (pool_ != nullptr) {
    for (;;) {
      {
        std::lock_guard<std::mutex> lock(state_->mu);
        if (state_->pending == 0) break;
      }
      if (!pool_->RunOneTask()) break;  // queue empty: just block below
    }
  }
  std::unique_lock<std::mutex> lock(state_->mu);
  state_->done_cv.wait(lock, [this] { return state_->pending == 0; });
  waited_ = true;
  for (const Status& st : state_->statuses) {
    if (!st.ok()) return st;
  }
  return Status::OK();
}

ExecutionContext ExecutionContext::Shared() {
  // Leaked on purpose (see the declaration): destroying it at exit
  // would join workers that lakes destroyed later may still need, and
  // a forked child has no workers to join.
  static const auto* const pool =
      new std::shared_ptr<ThreadPool>(std::make_shared<ThreadPool>(0));
  ExecutionContext ctx;
  ctx.pool = *pool;
  return ctx;
}

namespace internal {

Status ParallelForImpl(const ExecutionContext& ctx, size_t begin, size_t end,
                       const std::function<Status(size_t)>& fn) {
  if (begin >= end) return Status::OK();
  size_t n = end - begin;
  size_t shards = static_cast<size_t>(std::max(1, ctx.parallelism()));
  shards = std::min(shards, n);

  auto run_range = [&fn](size_t lo, size_t hi) -> Status {
    for (size_t i = lo; i < hi; ++i) {
      // Stop this shard at the first error; other shards still run to
      // completion (they own disjoint indices, so that is safe), and
      // Wait() reports the lowest-shard error deterministically.
      MLAKE_RETURN_NOT_OK(fn(i));
    }
    return Status::OK();
  };

  if (shards == 1) return run_range(begin, end);

  // Static partition: shard s covers a contiguous range whose bounds
  // depend only on (n, shards) — never on scheduling.
  TaskGroup group(ctx.pool.get());
  size_t chunk = n / shards;
  size_t rem = n % shards;
  size_t lo = begin;
  for (size_t s = 0; s < shards; ++s) {
    size_t len = chunk + (s < rem ? 1 : 0);
    size_t hi = lo + len;
    group.Add([run_range, lo, hi] { return run_range(lo, hi); });
    lo = hi;
  }
  return group.Wait();
}

}  // namespace internal

}  // namespace mlake
