// runCampaign — the journaled, crash-isolated sweep loop.
//
// Layers the exec/ pieces under exp::SweepRunner::stream:
//
//   SweepRunner::stream (pool lanes, seed-derived RNG streams, folds
//   │                    finished runs in seed order on the caller)
//     └─ runCampaign: per-seed canonical key "s<derived-seed>"
//          ├─ CampaignJournal  start+done/fail per seed, fsync'd,
//          │                   appended by the folding thread only
//          ├─ RetryingExecutor capped backoff, deterministic jitter
//          └─ RunExecutor      in-thread, or SubprocessExecutor for
//                              crash isolation / wall+RSS ceilings
//
// Journal order: seeds are folded in key order, and each fold appends
// its `start` and `done`/`fail` back to back, so the journal is the same
// bytes at any MPCP_THREADS and equal to the fleet's canonical merge
// (exec/fabric/fleet_campaign.h).
//
// Resume contract: payloads recorded as `done` are reused *verbatim* —
// the run body is not re-executed — so any aggregate assembled from
// CampaignOutcome::payloads in seed order is byte-identical to an
// uninterrupted sweep. A `fail` (possibly environmental) is re-run.
// The journal is opened under openCampaignJournal's rule
// (exec/journal.h): resuming needs --resume and the same fingerprint.
//
// Interruption and durability: once exec::interrupted() is raised, no
// new seed is claimed; seeds already claimed finish (or their workers
// are SIGKILLed by the handler) and are folded. A row becomes durable
// when it is folded; a row that finished but was never folded (the
// driver died first) is re-run on resume.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "exec/retry.h"
#include "exp/run_executor.h"
#include "exp/sweep_runner.h"
#include "obs/counters.h"

namespace mpcp::exec {

struct CampaignOptions {
  /// Journal file; empty = no journal (plain guarded sweep).
  std::string journal_path;
  /// Reuse an existing journal. Without it, a non-empty journal file is
  /// a ConfigError (never silently double-append two campaigns).
  bool resume = false;
  /// Caller's config fingerprint, stored as the journal `meta` record
  /// and compared on resume.
  std::string config_fingerprint;
  /// Execution strategy; nullptr = in-thread on the pool workers.
  exp::RunExecutor* executor = nullptr;
  RetryPolicy retry;
};

struct CampaignOutcome {
  /// payloads[s] is empty exactly when seed s failed permanently, was
  /// never started (interrupt), or is still pending.
  std::vector<std::optional<std::string>> payloads;
  std::vector<exp::RunFailure> failures;  ///< in seed order
  obs::ExecutorCounters exec;
  bool interrupted = false;

  [[nodiscard]] bool complete() const {
    for (const auto& p : payloads) {
      if (!p.has_value()) return false;
    }
    return true;
  }
};

/// Canonical run key for seed index `s` under `seed_base`.
[[nodiscard]] std::string runKey(std::uint64_t seed_base, int s);

/// Runs fn(s, rng) for every seed in [0, seeds) through the executor on
/// the runner's pool, journaling and resuming as configured. fn must
/// serialize its row to a string (see exp/run_executor.h for why); with
/// a subprocess executor it runs in the forked child.
[[nodiscard]] CampaignOutcome runCampaign(
    exp::SweepRunner& runner, int seeds, std::uint64_t seed_base,
    const CampaignOptions& options,
    const std::function<std::string(int, Rng&)>& fn);

}  // namespace mpcp::exec
