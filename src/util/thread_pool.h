#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace sparqlsim::util {

/// A fixed-size pool of worker threads draining a FIFO task queue.
///
/// This is the execution substrate of the SimEngine: one pool is shared by
/// the per-round parallel inequality evaluation of the SOI solver and by the
/// branch batching of the pruning pipeline. There is deliberately no work
/// stealing and no priority machinery — SOI rounds produce coarse,
/// similar-sized tasks (one bit-vector kernel per inequality), so a single
/// locked deque is contention-free at the scales that matter and keeps the
/// implementation auditable.
///
/// Tasks must not throw; an escaping exception terminates the process.
class ThreadPool {
 public:
  /// Spawns `num_threads` workers; 0 means std::thread::hardware_concurrency
  /// (at least 1).
  explicit ThreadPool(size_t num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t NumThreads() const { return workers_.size(); }

  /// Enqueues a task for execution on some worker thread.
  void Submit(std::function<void()> task);

  /// Resolves the `num_threads = 0 means hardware` convention used by
  /// SolverOptions and the CLI.
  static size_t ResolveThreadCount(size_t requested);

 private:
  void WorkerLoop();

  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_ = false;
};

/// Executes fn(i) for every i in [0, n), distributing iterations over the
/// pool. Blocks until all n calls completed.
///
/// Properties the SOI solver relies on:
///  * The *calling thread participates*: it claims iterations from the same
///    shared counter as the workers. This makes nesting deadlock-free — a
///    pool task may itself call ParallelFor on the same pool
///    (SimEngine::Prune's branch tasks do exactly that for their fixpoint
///    rounds) because the nested call makes progress even if every helper
///    task sits behind blocked queue entries.
///  * Iterations are claimed dynamically, so the *assignment* of i to
///    threads is nondeterministic; callers must write results into
///    per-iteration slots and merge them on the calling thread afterwards
///    to keep outcomes deterministic.
///
/// With a null pool (or n <= 1) the loop runs inline on the caller.
void ParallelFor(ThreadPool* pool, size_t n,
                 const std::function<void(size_t)>& fn);

}  // namespace sparqlsim::util
