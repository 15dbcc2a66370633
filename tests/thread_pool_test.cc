// The ThreadPool multi-exception contract (ISSUE 5 satellite): when
// several iterations throw — including genuinely concurrently — exactly
// one exception is rethrown from parallelFor (the one from the chunk
// with the lowest starting index), no std::terminate fires, chunks that
// did not throw run to completion, and the pool remains usable.
#include "exp/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <string>
#include <vector>

namespace mpcp::exp {
namespace {

TEST(ThreadPoolExceptions, EveryIterationThrowsLowestChunkWins) {
  ThreadPool pool(4);
  const std::int64_t n = 1000;
  try {
    pool.parallelFor(n, [](std::int64_t i) {
      throw std::runtime_error("i=" + std::to_string(i));
    });
    FAIL() << "parallelFor swallowed every exception";
  } catch (const std::runtime_error& e) {
    // The chunk starting at 0 loses its first iteration to the throw, so
    // the deterministic winner is iteration 0 at any thread count.
    EXPECT_STREQ(e.what(), "i=0");
  }
}

TEST(ThreadPoolExceptions, ConcurrentThrowsKeepLowestChunk) {
  ThreadPool pool(4);
  const std::int64_t n = 1000;
  // Two iterations in distant chunks rendezvous (bounded spin, so a
  // single-threaded schedule cannot deadlock) and then throw as close to
  // simultaneously as the scheduler allows.
  std::atomic<int> arrivals{0};
  const auto maybe_throw = [&](std::int64_t i) {
    if (i != 0 && i != n / 2) return;
    arrivals.fetch_add(1);
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(1);
    while (arrivals.load() < 2 &&
           std::chrono::steady_clock::now() < deadline) {
    }
    throw std::runtime_error("i=" + std::to_string(i));
  };
  try {
    pool.parallelFor(n, maybe_throw);
    FAIL() << "parallelFor swallowed every exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "i=0");
  }
}

TEST(ThreadPoolExceptions, NonThrowingChunksStillRun) {
  const int threads = 4;
  ThreadPool pool(threads);
  const std::int64_t n = 1000;
  std::vector<std::atomic<int>> ran(static_cast<std::size_t>(n));
  EXPECT_THROW(pool.parallelFor(n,
                                [&](std::int64_t i) {
                                  if (i == 0) throw std::runtime_error("boom");
                                  ran[static_cast<std::size_t>(i)].fetch_add(1);
                                }),
               std::runtime_error);
  // Only the throwing chunk's tail may be skipped; its size is bounded by
  // the pool's chunking rule (~n / (8 * threads)).
  const std::int64_t chunk_bound = std::max<std::int64_t>(1, n / (8 * threads));
  std::int64_t executed = 0;
  for (std::int64_t i = 1; i < n; ++i) {
    const int count = ran[static_cast<std::size_t>(i)].load();
    EXPECT_LE(count, 1) << "iteration " << i << " ran twice";
    executed += count;
  }
  EXPECT_GE(executed, n - chunk_bound);
}

TEST(ThreadPoolExceptions, PoolReusableAfterThrow) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.parallelFor(100,
                       [](std::int64_t) { throw std::runtime_error("x"); }),
      std::runtime_error);
  // The pool must come back clean: no stale task_error_, no lost workers.
  std::atomic<std::int64_t> sum{0};
  pool.parallelFor(100, [&](std::int64_t i) { sum.fetch_add(i); });
  EXPECT_EQ(sum.load(), 100 * 99 / 2);
}

TEST(ThreadPoolExceptions, SerialPoolPropagatesDirectly) {
  ThreadPool pool(1);
  try {
    pool.parallelFor(10, [](std::int64_t i) {
      if (i == 3) throw std::runtime_error("i=" + std::to_string(i));
    });
    FAIL() << "exception did not propagate";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "i=3");
  }
  std::atomic<std::int64_t> sum{0};
  pool.parallelFor(10, [&](std::int64_t i) { sum.fetch_add(i); });
  EXPECT_EQ(sum.load(), 45);
}

TEST(ThreadPool, WorkerExceptionPropagatesAndPoolSurvives) {
  ThreadPool pool(3);
  std::atomic<int> ran{0};
  try {
    pool.parallelFor(16, [&](std::int64_t i) {
      ++ran;
      if (i == 5) throw std::runtime_error("task failed");
    });
    FAIL() << "expected the worker exception to propagate";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "task failed");
  }
  // Every iteration still ran (the pool drains before rethrowing) and the
  // pool is reusable — a dead worker would hang this second call.
  EXPECT_EQ(ran.load(), 16);
  std::atomic<int> again{0};
  pool.parallelFor(8, [&](std::int64_t) { ++again; });
  EXPECT_EQ(again.load(), 8);
}

TEST(ThreadPool, FirstExceptionWinsAcrossManyThrowers) {
  ThreadPool pool(4);
  try {
    pool.parallelFor(64, [&](std::int64_t i) {
      if (i % 2 == 0) throw std::runtime_error("even failed");
    });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "even failed");
  }
  std::atomic<int> ok{0};
  pool.parallelFor(4, [&](std::int64_t) { ++ok; });
  EXPECT_EQ(ok.load(), 4);
}

}  // namespace
}  // namespace mpcp::exp
