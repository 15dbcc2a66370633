// Runtime observability counters for the simulation engine.
//
// A Counters registry travels inside every SimResult: plain uint64_t
// bumps on paths the engine already takes (no atomics — each run is
// single-threaded internally; cross-run aggregation merges finished
// registries). Counting never perturbs scheduling: the engine-vs-
// reference bit-parity oracle in src/fuzz/ is the regression gate.
//
// What is counted, and where the bump lives:
//   * per-resource lock acquisitions        — Engine grant path / handoff
//   * per-resource contended waits          — Engine::parkWaiting episodes
//     (a PCP wake-retry that re-parks counts again: each episode is one
//     observable wait)
//   * per-resource handoffs                 — the protocols' V()-to-waiter
//     grant sites (MPCP rule 7, DPCP, hybrid, PIP, none)
//   * preemptions / gcs preemptions         — Engine::settle dispatch
//     changes where the loser stays ready; "gcs" when the winner runs at
//     an elevated (global-band) priority
//   * agent migrations                      — Engine::migrate (DPCP/hybrid
//     critical sections moving to and from a synchronization processor)
//   * inheritance updates                   — PIP / local-PCP kInherit
//     emission sites
//   * ready-queue depth high-water marks    — per processor, sampled on
//     every push (release / wake / migrate)
//   * per-task blocking-time histograms     — log2-spaced buckets over
//     each finished job's measured priority-inversion time
//
// Merging is associative and commutative (sums, or max for high-water
// marks), so any fold order yields the same aggregate; SweepRunner folds
// rows in seed order anyway, making aggregates byte-identical at any
// MPCP_THREADS.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/types.h"

namespace mpcp::obs {

/// Histogram of per-job blocking durations with fixed log2-spaced
/// buckets: bucket 0 holds exactly 0; bucket k (1 <= k < kBuckets-1)
/// holds [2^(k-1), 2^k); the last bucket is open-ended.
struct BlockingHistogram {
  static constexpr int kBuckets = 20;

  std::array<std::uint64_t, kBuckets> buckets{};
  std::uint64_t samples = 0;
  Duration max_blocked = 0;
  std::uint64_t total_blocked = 0;

  [[nodiscard]] static int bucketOf(Duration d);
  /// [lo, hi) of bucket b; hi = -1 for the open-ended last bucket.
  [[nodiscard]] static std::pair<Duration, Duration> bucketRange(int b);

  void record(Duration d);
  void merge(const BlockingHistogram& other);
};

/// Per-semaphore lock-path counters.
struct ResourceCounters {
  std::uint64_t acquisitions = 0;     ///< every successful P(), incl. handoff
  std::uint64_t contended_waits = 0;  ///< park episodes behind this semaphore
  std::uint64_t handoffs = 0;         ///< direct V()-to-head-waiter grants

  void merge(const ResourceCounters& other);
};

/// The registry. Sized once per run (init), bumped inline, merged across
/// runs for aggregate reports.
struct Counters {
  // Indexed by ResourceId / ProcessorId / TaskId value.
  std::vector<ResourceCounters> resources;
  std::vector<std::uint64_t> ready_hwm;       ///< merge takes the max
  std::vector<BlockingHistogram> task_blocking;

  std::uint64_t jobs_released = 0;
  std::uint64_t jobs_finished = 0;
  std::uint64_t deadline_misses = 0;
  std::uint64_t preemptions = 0;
  std::uint64_t gcs_preemptions = 0;  ///< preemptor ran in the global band
  std::uint64_t migrations = 0;       ///< DPCP/hybrid agent moves (each hop)
  std::uint64_t inheritance_updates = 0;

  // Fault-injection / containment path (src/fault). Zero in any run
  // without a FaultPlan or containment policy.
  std::uint64_t faults_injected = 0;   ///< plan specs that took effect
  std::uint64_t faults_contained = 0;  ///< containment actions, total
  std::uint64_t forced_releases = 0;   ///< watchdog semaphore revocations
  std::uint64_t budget_kills = 0;      ///< gcs budget-enforce aborts
  std::uint64_t jobs_aborted = 0;      ///< job-abort retirements
  std::uint64_t releases_skipped = 0;  ///< skip-next-release suppressions
  std::uint64_t misses_while_degraded = 0;  ///< misses after any injection

  Counters() = default;
  Counters(std::size_t n_resources, std::size_t n_processors,
           std::size_t n_tasks) {
    init(n_resources, n_processors, n_tasks);
  }

  void init(std::size_t n_resources, std::size_t n_processors,
            std::size_t n_tasks);

  [[nodiscard]] ResourceCounters& res(ResourceId r) {
    return resources[static_cast<std::size_t>(r.value())];
  }
  [[nodiscard]] const ResourceCounters& res(ResourceId r) const {
    return resources[static_cast<std::size_t>(r.value())];
  }

  /// Updates the per-processor ready-queue high-water mark.
  void noteReadyDepth(ProcessorId p, std::size_t depth) {
    auto& hwm = ready_hwm[static_cast<std::size_t>(p.value())];
    if (depth > hwm) hwm = depth;
  }

  /// Folds one finished job's blocking time into its task's histogram.
  void recordBlocking(TaskId t, Duration blocked) {
    task_blocking[static_cast<std::size_t>(t.value())].record(blocked);
  }

  [[nodiscard]] std::uint64_t totalAcquisitions() const;
  [[nodiscard]] std::uint64_t totalContendedWaits() const;
  [[nodiscard]] std::uint64_t totalHandoffs() const;

  /// Folds `other` in. Dimensions may differ (e.g. sweeps over generated
  /// workloads); vectors grow to the larger size. Sums everywhere except
  /// ready_hwm (max), so merge order never changes the aggregate.
  void merge(const Counters& other);
};

/// Driver-side run-execution counters (filled by the src/exec campaign
/// runner, never by a simulation): how many
/// runs were dispatched/completed, how many worker crashes and wall-limit
/// kills the subprocess executor absorbed, how many retries the
/// RetryPolicy spent, and how much work a --resume skipped.
struct ExecutorCounters {
  std::uint64_t dispatched = 0;     ///< runs handed to an executor
  std::uint64_t completed = 0;      ///< runs that produced a payload
  std::uint64_t retries = 0;        ///< extra attempts after a failure
  std::uint64_t crashes = 0;        ///< workers that died on a signal
  std::uint64_t timeouts = 0;       ///< wall-limit SIGKILLs
  std::uint64_t failed = 0;         ///< permanent RunFailure records
  std::uint64_t resumed_skips = 0;  ///< keys satisfied from the journal
  std::uint64_t journal_corrupt_lines = 0;  ///< CRC-bad lines skipped
};

/// One-line "executor: dispatched=.. completed=.. ..." summary.
[[nodiscard]] std::string renderExecutorCounters(const ExecutorCounters& c);

/// One-line histogram summary: "samples=.. max=.. total=..  [lo,hi):n ...".
[[nodiscard]] std::string renderHistogram(const BlockingHistogram& h);

/// Deterministic plain-text stats table keyed by raw ids (S0, P0, tau0).
/// For a table with workload names, see renderCountersReport() in
/// analysis/report.h.
[[nodiscard]] std::string renderCounters(const Counters& c);

}  // namespace mpcp::obs
