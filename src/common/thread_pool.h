#ifndef MLAKE_COMMON_THREAD_POOL_H_
#define MLAKE_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

#include "common/status.h"

namespace mlake {

/// Fixed-size worker pool — the lake's shared execution substrate.
///
/// Everything parallel in mlake (lake generation, batched embedding,
/// HNSW bulk build, heritage distance matrices, index rebuild) runs on
/// one of these via `ParallelFor` / `TaskGroup`. The pool itself is a
/// plain task queue; determinism is a property of how work is
/// partitioned (statically, by index) and reduced (in index order), not
/// of the pool — see DESIGN.md "Threading model & determinism".
///
/// Thread-safety: `Submit` may be called from any thread, including
/// from inside a pool task (tasks never block on other tasks here, so
/// no deadlock by construction — ParallelFor/TaskGroup have the calling
/// thread steal queued work while it waits).
class ThreadPool {
 public:
  /// Spawns `num_threads` workers; num_threads <= 0 means
  /// hardware_concurrency.
  explicit ThreadPool(int num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const { return static_cast<int>(workers_.size()); }

  /// Enqueues a task. Tasks must not throw (wrap exceptions yourself;
  /// TaskGroup below does).
  void Submit(std::function<void()> fn);

  /// Runs one queued task on the calling thread if any is available.
  /// Returns false when the queue is empty. Used by waiters to make
  /// progress instead of blocking (work-stealing join).
  bool RunOneTask();

 private:
  void WorkerLoop();

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  bool shutdown_ = false;
  std::vector<std::thread> workers_;
};

/// A batch of heterogeneous jobs with a deterministic error contract:
/// `Wait()` blocks until every added task finished and returns the
/// first non-OK status in *submission order* (not completion order), so
/// the reported error is identical at any thread count. Exceptions
/// escaping a task are captured as Status::Internal.
///
/// One TaskGroup is used by one "owner" thread (Add/Wait are not
/// thread-safe against each other); the tasks themselves run anywhere.
class TaskGroup {
 public:
  /// `pool` may be null: tasks then run inline in `Add` (serial mode).
  explicit TaskGroup(ThreadPool* pool) : pool_(pool) {}
  ~TaskGroup() { Wait(); }

  TaskGroup(const TaskGroup&) = delete;
  TaskGroup& operator=(const TaskGroup&) = delete;

  void Add(std::function<Status()> fn);

  /// Joins all tasks; the calling thread helps drain the pool queue
  /// while it waits. Idempotent.
  Status Wait();

 private:
  struct State {
    std::mutex mu;
    std::condition_variable done_cv;
    size_t pending = 0;
    std::vector<Status> statuses;  // by submission index
  };

  ThreadPool* pool_;
  std::shared_ptr<State> state_ = std::make_shared<State>();
  size_t added_ = 0;
  bool waited_ = false;
};

/// Execution policy handed down through LakeOptions and config structs.
/// A default-constructed context is serial (no pool); `Shared()` hands
/// out the process-wide pool and `WithThreads(n)` owns a private one.
/// Copies share the same pool, so one context can fan out through every
/// lake layer.
struct ExecutionContext {
  std::shared_ptr<ThreadPool> pool;

  /// Serial execution (ParallelFor degenerates to a plain loop).
  static ExecutionContext Serial() { return ExecutionContext{}; }

  /// The process-wide pool (hardware-concurrency workers), created on
  /// first use and shared by every caller: the LakeOptions default, so
  /// all lakes in one process draw on one set of cores. It is never
  /// destroyed, so a lake that outlives static destruction still has
  /// it; a forked child inherits it without workers, and its waiters
  /// then drain their own tasks (see TaskGroup::Wait).
  static ExecutionContext Shared();

  /// A context backed by a pool of `n` workers (n <= 0: hardware
  /// concurrency). n == 1 still builds a pool — useful for exercising
  /// the parallel code path deterministically in tests.
  static ExecutionContext WithThreads(int n) {
    ExecutionContext ctx;
    ctx.pool = std::make_shared<ThreadPool>(n);
    return ctx;
  }

  /// Degree of parallelism this context offers (1 when serial).
  int parallelism() const { return pool ? pool->num_threads() : 1; }
};

namespace internal {
Status ParallelForImpl(const ExecutionContext& ctx, size_t begin, size_t end,
                       const std::function<Status(size_t)>& fn);
}  // namespace internal

/// Statically partitioned parallel loop over [begin, end).
///
/// `fn` is invoked exactly once per index and must only write state
/// owned by that index (e.g. its slot of a pre-sized output vector);
/// under that contract the result is identical at any thread count.
/// `fn` may return Status or void. The returned Status is the first
/// non-OK by index (deterministic); exceptions become Status::Internal.
template <typename Fn>
Status ParallelFor(const ExecutionContext& ctx, size_t begin, size_t end,
                   Fn&& fn) {
  if constexpr (std::is_same_v<std::invoke_result_t<Fn, size_t>, Status>) {
    return internal::ParallelForImpl(ctx, begin, end, std::function<Status(size_t)>(std::forward<Fn>(fn)));
  } else {
    auto wrapped = [f = std::forward<Fn>(fn)](size_t i) -> Status {
      f(i);
      return Status::OK();
    };
    return internal::ParallelForImpl(ctx, begin, end,
                                     std::function<Status(size_t)>(wrapped));
  }
}

}  // namespace mlake

#endif  // MLAKE_COMMON_THREAD_POOL_H_
