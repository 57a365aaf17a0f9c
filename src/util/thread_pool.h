/**
 * @file
 * Fixed-size worker pool for the parallel experiments: record-level
 * parallelism over small records (Figure 12), and the baselines'
 * chunked index construction / tokenization of one large record
 * (Figure 10's JPStream(16) / Pison(16) bars).
 */
#ifndef JSONSKI_UTIL_THREAD_POOL_H
#define JSONSKI_UTIL_THREAD_POOL_H

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace jsonski {

/**
 * A minimal task-queue thread pool.
 *
 * Tasks are void() callables.  waitIdle() blocks until every submitted
 * task has finished, which is the synchronization shape all the parallel
 * benchmarks need (fork-join over a batch of records or chunks).
 */
class ThreadPool
{
  public:
    /** Spawn @p threads workers (>= 1). */
    explicit ThreadPool(size_t threads);
    ~ThreadPool();

    ThreadPool(const ThreadPool&) = delete;
    ThreadPool& operator=(const ThreadPool&) = delete;

    /** Enqueue a task for execution on some worker. */
    void submit(std::function<void()> task);

    /** Block until the queue is empty and no task is running. */
    void waitIdle();

    /** Number of worker threads. */
    size_t size() const { return workers_.size(); }

    /**
     * Fork-join helper: run f(i) for i in [0, n) across the pool and
     * wait for completion.  Work is pulled dynamically from a shared
     * counter so uneven task costs balance out.  An exception thrown by
     * f is rethrown here, after the join: the one of the lowest failing
     * index (indices above it may be skipped).  The pool stays usable.
     */
    void parallelFor(size_t n, const std::function<void(size_t)>& f);

  private:
    void workerLoop();

    std::vector<std::thread> workers_;
    std::queue<std::function<void()>> queue_;
    std::mutex mutex_;
    std::condition_variable cv_task_;
    std::condition_variable cv_idle_;
    size_t active_ = 0;
    bool stopping_ = false;
};

} // namespace jsonski

#endif // JSONSKI_UTIL_THREAD_POOL_H
