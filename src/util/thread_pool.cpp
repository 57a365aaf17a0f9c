#include "util/thread_pool.h"

#include <cassert>
#include <exception>

namespace jsonski {

ThreadPool::ThreadPool(size_t threads)
{
    assert(threads >= 1);
    workers_.reserve(threads);
    for (size_t i = 0; i < threads; ++i)
        workers_.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stopping_ = true;
    }
    cv_task_.notify_all();
    for (auto& w : workers_)
        w.join();
}

void
ThreadPool::submit(std::function<void()> task)
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        queue_.push(std::move(task));
    }
    cv_task_.notify_one();
}

void
ThreadPool::waitIdle()
{
    std::unique_lock<std::mutex> lock(mutex_);
    cv_idle_.wait(lock, [this] { return queue_.empty() && active_ == 0; });
}

void
ThreadPool::parallelFor(size_t n, const std::function<void(size_t)>& f)
{
    if (n == 0)
        return;
    struct Batch
    {
        std::atomic<size_t> next{0};
        std::atomic<size_t> failed; ///< lowest failing index, or n
        std::mutex mutex;           ///< guards error
        std::exception_ptr error;
    };
    auto batch = std::make_shared<Batch>();
    batch->failed = n;
    size_t spawn = std::min(n, workers_.size());
    for (size_t t = 0; t < spawn; ++t) {
        submit([batch, n, &f] {
            for (size_t i = batch->next++; i < n; i = batch->next++) {
                // Indices past a failure are not wanted by the caller.
                if (i > batch->failed)
                    continue;
                try {
                    f(i);
                } catch (...) {
                    std::lock_guard<std::mutex> lock(batch->mutex);
                    if (i < batch->failed) {
                        batch->failed = i;
                        batch->error = std::current_exception();
                    }
                }
            }
        });
    }
    waitIdle();
    if (batch->error)
        std::rethrow_exception(batch->error);
}

void
ThreadPool::workerLoop()
{
    for (;;) {
        std::function<void()> task;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            cv_task_.wait(lock,
                          [this] { return stopping_ || !queue_.empty(); });
            if (stopping_ && queue_.empty())
                return;
            task = std::move(queue_.front());
            queue_.pop();
            ++active_;
        }
        task();
        {
            std::lock_guard<std::mutex> lock(mutex_);
            --active_;
            if (queue_.empty() && active_ == 0)
                cv_idle_.notify_all();
        }
    }
}

} // namespace jsonski
