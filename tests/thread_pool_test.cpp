/** @file Tests for the fork-join thread pool. */
#include "util/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

using jsonski::ThreadPool;

TEST(ThreadPool, RunsSubmittedTasks)
{
    ThreadPool pool(4);
    std::atomic<int> count{0};
    for (int i = 0; i < 100; ++i)
        pool.submit([&] { count.fetch_add(1); });
    pool.waitIdle();
    EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, WaitIdleOnEmptyPoolReturns)
{
    ThreadPool pool(2);
    pool.waitIdle(); // must not hang
    SUCCEED();
}

TEST(ThreadPool, ParallelForCoversAllIndices)
{
    ThreadPool pool(4);
    std::vector<std::atomic<int>> hits(1000);
    pool.parallelFor(hits.size(),
                     [&](size_t i) { hits[i].fetch_add(1); });
    for (auto& h : hits)
        EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForZeroItems)
{
    ThreadPool pool(2);
    pool.parallelFor(0, [](size_t) { FAIL(); });
    SUCCEED();
}

TEST(ThreadPool, ParallelForFewerItemsThanThreads)
{
    ThreadPool pool(8);
    std::atomic<int> count{0};
    pool.parallelFor(3, [&](size_t) { count.fetch_add(1); });
    EXPECT_EQ(count.load(), 3);
}

TEST(ThreadPool, ParallelForComputesSum)
{
    ThreadPool pool(4);
    std::vector<long> squares(500);
    pool.parallelFor(squares.size(), [&](size_t i) {
        squares[i] = static_cast<long>(i) * static_cast<long>(i);
    });
    long total = std::accumulate(squares.begin(), squares.end(), 0L);
    long expected = 0;
    for (long i = 0; i < 500; ++i)
        expected += i * i;
    EXPECT_EQ(total, expected);
}

TEST(ThreadPool, ReusableAcrossBatches)
{
    ThreadPool pool(3);
    std::atomic<int> count{0};
    for (int round = 0; round < 5; ++round)
        pool.parallelFor(50, [&](size_t) { count.fetch_add(1); });
    EXPECT_EQ(count.load(), 250);
}

TEST(ThreadPool, ParallelForRethrowsLowestFailureOnCaller)
{
    ThreadPool pool(4);
    try {
        pool.parallelFor(100, [](size_t i) {
            if (i == 17 || i == 60)
                throw std::runtime_error(std::to_string(i));
        });
        FAIL() << "parallelFor swallowed the exception";
    } catch (const std::runtime_error& e) {
        EXPECT_STREQ(e.what(), "17");
    }
    // The pool survives and runs the next batch in full.
    std::atomic<int> count{0};
    pool.parallelFor(50, [&](size_t) { count.fetch_add(1); });
    EXPECT_EQ(count.load(), 50);
}

TEST(ThreadPool, SizeReportsWorkerCount)
{
    ThreadPool pool(5);
    EXPECT_EQ(pool.size(), 5u);
}
