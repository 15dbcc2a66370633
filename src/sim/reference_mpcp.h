// Independent tick-stepped reference implementation of the shared-memory
// protocol — the differential-testing oracle for the event-driven engine.
//
// Deliberately structured as differently as possible from Engine +
// MpcpProtocol so mechanical bugs cannot hide in both:
//   * advances one tick at a time (no event queue, no settle cascade);
//   * recomputes PCP inheritance declaratively from scratch every tick
//     instead of maintaining it incrementally on events;
//   * evaluates the ceiling test at selection time rather than parking
//     and waking blocked jobs.
// Only the *rules* (Section 5's protocol) are shared, which is exactly
// what a differential test should hold constant.
//
// Costs O(horizon x live jobs), not the engine's event-driven complexity:
// every tick is visited, but each tick scans only the unfinished jobs.
#pragma once

#include <vector>

#include "common/types.h"
#include "fault/plan.h"
#include "model/task_system.h"
#include "obs/counters.h"

namespace mpcp {

struct ReferenceJobResult {
  JobId id;
  Time release = 0;
  Time finish = -1;  ///< -1: unfinished at the horizon
};

struct ReferenceResult {
  std::vector<ReferenceJobResult> jobs;  ///< release order per task
  bool any_deadline_miss = false;
  /// Lock-path counters bumped at the same semantic sites as the engine
  /// (grant, park, handoff), so acquisition/wait/handoff totals are
  /// directly comparable across the two implementations.
  obs::Counters counters;
};

/// Simulates `system` under MPCP rules for `horizon` ticks.
/// Supports the full op set (compute/lock/unlock/suspend); requires
/// non-nested global sections like MpcpProtocol.
///
/// `plan` (optional, not owned) mirrors the engine's fault injection for
/// the mirrorable fault classes (WCET/cs overrun, stuck holder, release
/// jitter — NOT processor stalls; see FaultPlan::mirrorable()), so
/// differential oracles stay meaningful under injected faults.
/// `holder_watchdog` > 0 force-releases a global semaphore whose holder
/// has kept it that long, handing off to the highest-priority waiter —
/// the reference half of the engine's watchdog containment policy.
[[nodiscard]] ReferenceResult simulateMpcpReference(
    const TaskSystem& system, Time horizon,
    const fault::FaultPlan* plan = nullptr, Duration holder_watchdog = 0);

}  // namespace mpcp
