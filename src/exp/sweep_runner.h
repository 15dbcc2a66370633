// SweepRunner — deterministic fan-out of independent experiment seeds.
//
// Every bench in this repo runs the same loop: for each seed s, derive
// Rng(seed_base + s), generate a workload, analyze/simulate it, and fold
// the per-seed row into an aggregate. The rows are independent, so the
// runner fans them across a ThreadPool; determinism is preserved because
//   * each seed's RNG is derived from (seed_base, s) alone — identical to
//     the serial convention the benches always used, and
//   * map() lands rows in a results vector indexed by s, and stream()
//     folds them in seed order, so any reduction sees exactly the
//     serial order.
// Hence results are bit-identical at any thread count (the property
// tests/parallel_sweep_test.cc asserts).
//
// Thread count: explicit constructor argument, or the MPCP_THREADS
// environment variable, defaulting to hardware_concurrency().
#pragma once

#include <algorithm>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "exp/thread_pool.h"

namespace mpcp::exp {

/// One campaign run that did not produce a row (threw, or — under a
/// subprocess executor — crashed or was killed). Campaigns carry these
/// alongside the surviving rows instead of aborting the whole batch.
struct RunFailure {
  int seed = -1;
  std::string error;
  bool timed_out = false;  ///< killed by a wall-clock limit
  // Filled by the crash-isolated executor path (src/exec): how the
  // worker process died and what it last wrote to stderr. All zero/empty
  // for in-thread failures.
  int signal = 0;            ///< terminating signal (SIGSEGV, SIGKILL, …)
  int exit_code = 0;         ///< worker exit status when it exited
  std::string stderr_tail;   ///< last bytes of worker stderr
  int attempts = 1;          ///< attempts spent before giving up
};

class SweepRunner {
 public:
  explicit SweepRunner(int threads = ThreadPool::defaultThreadCount())
      : pool_(threads) {}

  [[nodiscard]] int threadCount() const { return pool_.threadCount(); }

  /// The per-seed RNG stream: the serial benches' `Rng(seed_base + s)`.
  [[nodiscard]] static Rng rngFor(std::uint64_t seed_base, int s) {
    return Rng(seed_base + static_cast<std::uint64_t>(s));
  }

  /// Runs fn(s, rng) for every seed s in [0, seeds) and returns the rows
  /// in seed order. R must be default-constructible and movable.
  template <typename Fn>
  auto map(int seeds, std::uint64_t seed_base, Fn&& fn)
      -> std::vector<std::invoke_result_t<Fn&, int, Rng&>> {
    using R = std::invoke_result_t<Fn&, int, Rng&>;
    static_assert(std::is_default_constructible_v<R>,
                  "SweepRunner::map rows must be default-constructible");
    std::vector<R> rows(static_cast<std::size_t>(std::max(0, seeds)));
    pool_.parallelFor(seeds, [&](std::int64_t s) {
      Rng rng = rngFor(seed_base, static_cast<int>(s));
      rows[static_cast<std::size_t>(s)] = fn(static_cast<int>(s), rng);
    });
    return rows;
  }

  /// Rows a stream() may hold claimed but not yet folded.
  [[nodiscard]] int streamWindow() const { return 64 * threadCount(); }

  /// Ordered streaming map: pool threads (the caller included) claim seed
  /// indices one at a time from a shared cursor and run fn(s, rng);
  /// finished rows wait in a reorder window of streamWindow() slots, and
  /// the calling thread hands the contiguous finished prefix to
  /// fold(s, R&&) in seed order. No barrier: a slow seed delays only the
  /// folds behind it, while the other threads keep claiming up to the
  /// window's edge.
  ///
  /// may_claim() is asked before every claim (serialized, on whichever
  /// thread claims; it must not throw). Once it returns false, or fold
  /// returns false, no further seed is claimed. Every seed claimed before
  /// a may_claim() refusal is still folded, so the folded seeds are
  /// always a prefix [0, k). A seed whose fn threw ends the stream there:
  /// the rows before it are folded and its exception is rethrown, the
  /// same one at any thread count; so is an exception thrown by fold.
  template <typename Claim, typename Fn, typename Fold>
  void stream(int seeds, std::uint64_t seed_base, Claim&& may_claim, Fn&& fn,
              Fold&& fold) {
    using R = std::invoke_result_t<Fn&, int, Rng&>;
    struct Slot {
      std::optional<R> row;
      std::exception_ptr error;
      bool ready = false;
    };
    const int window = streamWindow();
    std::vector<Slot> slots(static_cast<std::size_t>(window));
    std::mutex mu;
    std::condition_variable cv;
    int next_claim = 0;
    int next_fold = 0;
    bool claiming = true;  // false once may_claim or fold said stop
    bool folding = true;   // false once fold said stop or failed
    std::exception_ptr error;
    const std::thread::id caller = std::this_thread::get_id();
    const auto slotOf = [&](int s) -> Slot& {
      return slots[static_cast<std::size_t>(s % window)];
    };

    // Folds the finished prefix; called by the caller with `lock` held.
    const auto foldReady = [&](std::unique_lock<std::mutex>& lock) {
      while (folding && next_fold < next_claim && slotOf(next_fold).ready) {
        Slot slot = std::exchange(slotOf(next_fold), Slot{});
        const int s = next_fold++;
        cv.notify_all();  // a window slot opened
        lock.unlock();
        bool more = false;
        std::exception_ptr failure = slot.error;
        if (failure == nullptr) {
          try {
            more = fold(s, std::move(*slot.row));
          } catch (...) {
            failure = std::current_exception();
          }
        }
        lock.lock();
        if (!more) {
          error = failure;
          claiming = false;
          folding = false;
          cv.notify_all();
        }
      }
    };

    const auto lane = [&](std::int64_t) {
      const bool is_caller = std::this_thread::get_id() == caller;
      std::unique_lock<std::mutex> lock(mu);
      for (;;) {
        if (is_caller) foldReady(lock);
        if (claiming && next_claim < seeds &&
            next_claim < next_fold + window) {
          if (!may_claim()) {
            claiming = false;
            cv.notify_all();
            continue;
          }
          const int s = next_claim++;
          lock.unlock();
          Slot done;
          try {
            Rng rng = rngFor(seed_base, s);
            done.row.emplace(fn(s, rng));
          } catch (...) {
            done.error = std::current_exception();
          }
          done.ready = true;
          lock.lock();
          slotOf(s) = std::move(done);
          cv.notify_all();
          continue;
        }
        const bool claims_over = !claiming || next_claim >= seeds;
        if (claims_over &&
            (!is_caller || !folding || next_fold == next_claim)) {
          return;
        }
        cv.wait(lock);
      }
    };
    // One lane per pool thread. While seeds remain claimable no lane can
    // return, so the caller always holds one; rows still unfolded when
    // the lanes return (claims ran out while the caller had none) are
    // folded below.
    pool_.parallelFor(threadCount(), lane);
    {
      std::unique_lock<std::mutex> lock(mu);
      foldReady(lock);
    }
    if (error != nullptr) std::rethrow_exception(error);
  }

  /// Process-wide runner for the benches: sized by MPCP_THREADS /
  /// hardware_concurrency at first use.
  static SweepRunner& global();

 private:
  ThreadPool pool_;
};

}  // namespace mpcp::exp
