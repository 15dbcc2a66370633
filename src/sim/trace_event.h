// Trace records emitted by the simulation engine and protocols.
//
// Every scheduling-relevant transition is recorded so that (a) the trace
// renderer can reproduce Figure 5-1-style timelines and (b) invariant
// checkers can audit protocol rules after the fact (mutual exclusion,
// priority-ordered handoff, "gcs never preempted by non-cs code", ...).
#pragma once

#include <optional>
#include <ostream>
#include <vector>

#include "common/priority.h"
#include "common/types.h"

namespace mpcp {

enum class Ev {
  kRelease,     ///< job released (arrival)
  kStart,       ///< job dispatched on a processor
  kPreempt,     ///< job lost the processor while still ready
  kLockGrant,   ///< semaphore acquired (P succeeded)
  kLockWait,    ///< P failed: job blocked (local) or suspended (global)
  kUnlock,      ///< semaphore released (V), no waiter handoff
  kHandoff,     ///< V passed the semaphore directly to the head waiter
  kInherit,     ///< holder's inherited priority changed
  kGcsEnter,    ///< job's execution priority raised into the global band
  kGcsExit,     ///< job returned to its normal band
  kMigrate,     ///< DPCP: critical section moved to/from a sync processor
  kSelfSuspend, ///< job began a voluntary timed suspension
  kSelfResume,  ///< a voluntary suspension elapsed
  kFinish,      ///< job completed
  kDeadlineMiss,///< completion (or horizon) after the absolute deadline
  kFaultInjected,  ///< a FaultPlan spec first took effect (fault layer)
  kForcedRelease,  ///< watchdog revoked a stuck holder's semaphore
  kBudgetKill,     ///< budget-enforce aborted an overrunning gcs
  kJobAbort,       ///< job retired after a deadline miss (job-abort policy)
  kReleaseSkipped  ///< release suppressed (skip-next-release policy)
};

const char* toString(Ev ev);

/// One trace record. Unused fields stay invalid/empty.
struct TraceEvent {
  Time t = 0;
  Ev kind = Ev::kRelease;
  JobId job;
  ProcessorId processor;          ///< processor involved, if any
  ResourceId resource;            ///< semaphore involved, if any
  Priority priority;              ///< new priority for kInherit/kGcsEnter
  JobId other;                    ///< peer job (handoff target, blocker, ...)
};

std::ostream& operator<<(std::ostream& os, const TraceEvent& e);

/// Execution mode of a Gantt segment, for rendering and invariants.
enum class ExecMode {
  kNormal,   ///< outside any critical section
  kLocalCs,  ///< inside a local critical section
  kGcs,      ///< inside a global critical section (elevated band)
};

const char* toString(ExecMode m);

/// Maximal contiguous run of one job in one mode on one processor — the
/// raw material of a Figure 5-1-style Gantt chart.
struct ExecSegment {
  ProcessorId processor;
  JobId job;
  Time begin = 0;
  Time end = 0;
  ExecMode mode = ExecMode::kNormal;
};

}  // namespace mpcp
