// Aggregated runtime counters over a sweep of generated workloads — the
// engine behind `mpcp_cli stats`.
//
// For each seed s in [0, seeds) the sweep derives Rng(seed_base + s),
// generates a workload, simulates it with tracing off (counters are
// always on), and folds the run's obs::Counters into one aggregate.
// Rows come back from SweepRunner::map in seed order and the fold walks
// them front-to-back, so the aggregate is byte-identical at any
// MPCP_THREADS setting (obs::Counters::merge is commutative and
// associative on top of that — sums, max for high-water marks).
#pragma once

#include <cstdint>

#include "core/protocol_registry.h"
#include "exp/sweep_runner.h"
#include "obs/counters.h"
#include "taskgen/generator.h"

namespace mpcp::exp {

struct CounterSweepOptions {
  ProtocolKind protocol = ProtocolKind::kMpcp;
  WorkloadParams params;
  int seeds = 16;
  std::uint64_t seed_base = 1;
  Time horizon = 20'000;
};

/// Runs the sweep on `runner` (SweepRunner::global() when null) and
/// returns the merged counters for all `seeds` runs.
[[nodiscard]] obs::Counters counterSweep(const CounterSweepOptions& options,
                                         SweepRunner* runner = nullptr);

}  // namespace mpcp::exp
