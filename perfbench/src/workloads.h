// The benchmark's three workloads and their traced replay.
//
// End to end, each workload drives the entry point its tool calls:
//   fuzz   — fuzz::runFuzz, the mpcp_fuzz loop, on the fuzzer's own
//            parameter draw (MPCP_THREADS=4);
//   faults — fuzz::runFuzz in --faults mode (MPCP_THREADS=1);
//   sweep  — exec::runCampaign with mpcp_cli sweep's row body, journaled
//            with an fsync per record (MPCP_THREADS=4).
// Every run then replays operations serially from the benchmark's own
// code, calling each layer's public function inside a span. With
// tracing off the replay covers only the first few operations and is
// used for the output checks and the digest; with tracing on it runs
// for half the budget and yields the per-layer metrics.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "spans.h"

namespace perfbench {

struct RunOptions {
  Workload workload = Workload::kFuzz;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Scratch directory for repro files and journals; must exist.
  std::string work_dir;
  /// Chrome trace-event file written when `trace` is set.
  std::string trace_path;
  /// Stop right after the first operation is dispatched (set-up timing).
  bool setup_probe = false;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct RunOutcome {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  /// One line per failed output check; empty when every check passed.
  std::vector<std::string> check_failures;
  std::vector<Metric> metrics;
  /// FNV-1a over per-job finish, blocked and missed of the first
  /// replayed operations; identical across speed-only changes.
  std::uint64_t digest = 0;
  /// steady_clock reading, in seconds, when the first operation was
  /// dispatched.
  double dispatch_clock_s = 0;
};

[[nodiscard]] Workload parseWorkload(const std::string& name);

/// Runs one workload; throws on a usage or environment error.
[[nodiscard]] RunOutcome runWorkload(const RunOptions& options);

}  // namespace perfbench
