// exp::ThreadPool / exp::SweepRunner — the parallel experiment runner.
//
// The load-bearing property: every sweep is bit-identical at any thread
// count, because per-seed RNG streams derive from the seed index alone
// and rows land in seed-indexed slots. These tests pin that contract at
// 1, 2, and 8 threads, including through the real bench pipeline
// (acceptanceSweep: generate -> analyze -> simulate).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <stdexcept>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "exp/sweep_runner.h"
#include "exp/thread_pool.h"

namespace mpcp {
namespace {

using bench::AcceptanceResult;
using bench::acceptanceSweep;
using exp::SweepRunner;
using exp::ThreadPool;

TEST(ThreadPool, RunsEveryIndexExactlyOnce) {
  for (int threads : {1, 2, 8}) {
    ThreadPool pool(threads);
    constexpr std::int64_t n = 1000;
    std::vector<std::atomic<int>> hits(n);
    pool.parallelFor(n, [&](std::int64_t i) {
      hits[static_cast<std::size_t>(i)].fetch_add(1);
    });
    for (std::int64_t i = 0; i < n; ++i) {
      EXPECT_EQ(hits[static_cast<std::size_t>(i)].load(), 1)
          << "index " << i << " at " << threads << " threads";
    }
  }
}

TEST(ThreadPool, ZeroAndNegativeIterationCountsAreNoOps) {
  ThreadPool pool(4);
  int calls = 0;
  pool.parallelFor(0, [&](std::int64_t) { ++calls; });
  pool.parallelFor(-5, [&](std::int64_t) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(ThreadPool, SingleThreadPoolRunsInline) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.threadCount(), 1);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::thread::id> seen(3);
  pool.parallelFor(3, [&](std::int64_t i) {
    seen[static_cast<std::size_t>(i)] = std::this_thread::get_id();
  });
  for (const std::thread::id& id : seen) EXPECT_EQ(id, caller);
}

TEST(ThreadPool, ClampsNonPositiveThreadCountToOne) {
  EXPECT_EQ(ThreadPool(0).threadCount(), 1);
  EXPECT_EQ(ThreadPool(-3).threadCount(), 1);
}

TEST(ThreadPool, ExceptionPropagatesAndPoolStaysUsable) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.parallelFor(100,
                                [](std::int64_t i) {
                                  if (i == 57) {
                                    throw std::runtime_error("boom");
                                  }
                                }),
               std::runtime_error);

  // The pool must survive a throwing batch.
  std::atomic<int> count{0};
  pool.parallelFor(50, [&](std::int64_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 50);
}

TEST(ThreadPool, LowestChunkStartExceptionWins) {
  ThreadPool pool(4);
  // Two iterations throw; the rethrown exception must be the one from the
  // chunk with the lowest start — deterministically the one containing
  // i == 3 (its chunk starts at 0, far below i == 700's).
  try {
    pool.parallelFor(1000, [](std::int64_t i) {
      if (i == 3) throw std::runtime_error("low");
      if (i == 700) throw std::runtime_error("high");
    });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "low");
  }
}

TEST(ThreadPool, DefaultThreadCountReadsEnvironment) {
  setenv("MPCP_THREADS", "3", /*overwrite=*/1);
  EXPECT_EQ(ThreadPool::defaultThreadCount(), 3);
  setenv("MPCP_THREADS", "not-a-number", 1);
  const int fallback = ThreadPool::defaultThreadCount();
  EXPECT_GE(fallback, 1);  // falls back to hardware concurrency
  unsetenv("MPCP_THREADS");
}

TEST(SweepRunner, RngMatchesSerialSeedConvention) {
  // Benches always wrote `Rng rng(base + s)`; rngFor must reproduce that
  // stream exactly.
  for (int s : {0, 1, 17}) {
    Rng expected(12'345 + static_cast<std::uint64_t>(s));
    Rng got = SweepRunner::rngFor(12'345, s);
    for (int draw = 0; draw < 4; ++draw) {
      EXPECT_EQ(got.next(), expected.next());
    }
  }
}

TEST(SweepRunner, MapRowsLandInSeedOrderAtAnyThreadCount) {
  auto fn = [](int s, Rng& rng) {
    return rng.next() ^ static_cast<std::uint64_t>(s);
  };
  SweepRunner one(1);
  const std::vector<std::uint64_t> expected = one.map(257, 99, fn);
  ASSERT_EQ(expected.size(), 257u);
  for (int threads : {2, 8}) {
    SweepRunner runner(threads);
    EXPECT_EQ(runner.map(257, 99, fn), expected)
        << "at " << threads << " threads";
  }
}

TEST(SweepRunner, MapWithZeroSeedsReturnsEmpty) {
  SweepRunner runner(2);
  const auto rows =
      runner.map(0, 7, [](int, Rng& rng) { return rng.next(); });
  EXPECT_TRUE(rows.empty());
}

// SweepRunner::stream: the ordered streaming map behind the fuzz loop.

std::uint64_t seedRow(int s, Rng& rng) {
  return rng.next() ^ static_cast<std::uint64_t>(s);
}

/// Streams `seeds` seedRow()s, collecting what fold sees, in order.
std::vector<std::uint64_t> streamed(SweepRunner& runner, int seeds) {
  std::vector<std::uint64_t> folded;
  runner.stream(
      seeds, 99, [] { return true; }, seedRow,
      [&](int s, std::uint64_t&& row) {
        EXPECT_EQ(s, static_cast<int>(folded.size()));
        folded.push_back(row);
        return true;
      });
  return folded;
}

TEST(SweepRunnerStream, FoldsEverySeedInOrderAtAnyThreadCount) {
  SweepRunner one(1);
  const std::vector<std::uint64_t> expected = one.map(1000, 99, seedRow);
  for (int threads : {1, 2, 8}) {
    SweepRunner runner(threads);
    EXPECT_EQ(streamed(runner, 1000), expected) << threads << " threads";
  }
  SweepRunner runner(4);
  EXPECT_TRUE(streamed(runner, 0).empty());
}

TEST(SweepRunnerStream, FoldsOnTheCallingThreadOnly) {
  SweepRunner runner(4);
  const std::thread::id caller = std::this_thread::get_id();
  int folds = 0;
  runner.stream(
      300, 1, [] { return true; }, [](int s, Rng&) { return s; },
      [&](int, int&&) {
        EXPECT_EQ(std::this_thread::get_id(), caller);
        ++folds;
        return true;
      });
  EXPECT_EQ(folds, 300);
}

TEST(SweepRunnerStream, ClaimsStayWithinTheReorderWindow) {
  SweepRunner runner(4);
  const int window = runner.streamWindow();
  std::atomic<int> folded{0};
  std::atomic<int> beyond{0};
  runner.stream(
      window * 6, 1, [] { return true; },
      [&](int s, Rng&) {
        // Seed 0 is slow, so the others pile up behind it. A claim needs
        // s < next_fold + window, and the fold under way may not have
        // counted itself yet.
        if (s == 0) std::this_thread::sleep_for(std::chrono::milliseconds(50));
        if (s >= folded.load() + window + 1) beyond.fetch_add(1);
        return s;
      },
      [&](int, int&&) {
        folded.fetch_add(1);
        return true;
      });
  EXPECT_EQ(folded.load(), window * 6);
  EXPECT_EQ(beyond.load(), 0);
}

TEST(SweepRunnerStream, RefusedClaimStillFoldsAContiguousPrefix) {
  for (int threads : {1, 4}) {
    SweepRunner runner(threads);
    int claims = 0;  // may_claim calls are serialized
    std::vector<int> folded;
    runner.stream(
        500, 1, [&] { return ++claims <= 137; },
        [](int s, Rng&) { return s; },
        [&](int s, int&& row) {
          EXPECT_EQ(s, row);
          folded.push_back(s);
          return true;
        });
    ASSERT_EQ(folded.size(), 137u) << threads << " threads";
    for (int i = 0; i < 137; ++i) {
      EXPECT_EQ(folded[static_cast<std::size_t>(i)], i);
    }
  }
}

TEST(SweepRunnerStream, FoldReturningFalseEndsTheStream) {
  SweepRunner runner(4);
  std::atomic<int> ran{0};
  int last = -1;
  runner.stream(
      10'000, 1, [] { return true; },
      [&](int s, Rng&) {
        ran.fetch_add(1);
        return s;
      },
      [&](int s, int&&) {
        last = s;
        return s < 20;
      });
  EXPECT_EQ(last, 20);
  EXPECT_LE(ran.load(), 21 + runner.streamWindow());
}

TEST(SweepRunnerStream, LowestThrowingSeedIsRethrownAfterItsPrefix) {
  for (int threads : {1, 4}) {
    SweepRunner runner(threads);
    std::vector<int> folded;
    try {
      runner.stream(
          400, 1, [] { return true; },
          [](int s, Rng&) {
            if (s == 37) throw std::runtime_error("low");
            if (s == 300) throw std::runtime_error("high");
            return s;
          },
          [&](int s, int&&) {
            folded.push_back(s);
            return true;
          });
      ADD_FAILURE() << "expected an exception at " << threads << " threads";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "low");
    }
    EXPECT_EQ(folded.size(), 37u) << threads << " threads";
    // The runner stays usable.
    EXPECT_EQ(streamed(runner, 50).size(), 50u);
  }
}

TEST(SweepRunnerStream, ExceptionFromFoldPropagates) {
  SweepRunner runner(4);
  EXPECT_THROW(runner.stream(
                   200, 1, [] { return true; }, [](int s, Rng&) { return s; },
                   [](int s, int&&) -> bool {
                     if (s == 5) throw std::runtime_error("fold");
                     return true;
                   }),
               std::runtime_error);
}

/// End-to-end through the bench pipeline: generate a workload, run the
/// schedulability analyses, simulate accepted systems — identical
/// aggregates at 1, 2, and 8 threads.
TEST(SweepRunner, AcceptanceSweepIsBitIdenticalAcrossThreadCounts) {
  WorkloadParams p;
  p.processors = 4;
  p.tasks_per_processor = 3;
  p.global_resources = 2;
  p.cs_max = 25;
  p.utilization_per_processor = 0.55;
  constexpr int kSeeds = 12;

  SweepRunner serial(1);
  const AcceptanceResult base = acceptanceSweep(
      ProtocolKind::kMpcp, p, kSeeds, 31'000, /*simulate_accepted=*/true,
      &serial);
  EXPECT_EQ(base.runs, kSeeds);

  for (int threads : {2, 8}) {
    SweepRunner runner(threads);
    const AcceptanceResult r = acceptanceSweep(
        ProtocolKind::kMpcp, p, kSeeds, 31'000, true, &runner);
    EXPECT_EQ(r.accepted_rta, base.accepted_rta) << threads << " threads";
    EXPECT_EQ(r.accepted_ll, base.accepted_ll) << threads << " threads";
    EXPECT_EQ(r.sim_miss_given_accept, base.sim_miss_given_accept)
        << threads << " threads";
  }
}

}  // namespace
}  // namespace mpcp
