#include "sim/reference_spin.h"

#include <algorithm>
#include <deque>
#include <map>

#include "common/check.h"
#include "common/strf.h"

namespace mpcp {

namespace {

struct SJob {
  JobId id;
  const Task* task = nullptr;
  Time release = 0;
  Time deadline = 0;
  std::size_t op = 0;       // index into body ops
  Duration done_in_op = 0;  // progress inside the current ComputeOp
  Time wake_at = -1;        // voluntary suspension end, -1 if none
  bool spinning = false;    // enqueued on a semaphore, burning its CPU
  bool finished = false;
  std::vector<ResourceId> held;
  std::uint64_t eligible_seq = 0;  // FCFS tie-break, stamped on eligibility
};

struct SpinSem {
  SJob* holder = nullptr;
  std::deque<SJob*> queue;  // arrival order; spin-prio scans by base prio
};

}  // namespace

ReferenceResult simulateSpinReference(const TaskSystem& sys, Time horizon,
                                      bool priority_ordered) {
  const int procs = sys.processorCount();

  // Same front-door contract as SpinProtocol: flat sections only.
  for (const Task& t : sys.tasks()) {
    for (const CriticalSection& cs : t.sections) {
      if (cs.parent < 0) continue;
      throw ConfigError(strf("spin reference: nested critical section in ",
                             t.name, " (", cs.resource, ")"));
    }
  }

  std::vector<Time> next_release(sys.tasks().size());
  std::vector<std::int64_t> instance(sys.tasks().size(), 0);
  for (const Task& t : sys.tasks()) {
    next_release[static_cast<std::size_t>(t.id.value())] = t.phase;
  }

  std::deque<SJob> jobs;  // stable addresses
  // Unfinished jobs in release order, compacted once per tick so every
  // per-tick scan costs O(live jobs); see reference_mpcp.
  std::vector<SJob*> live;
  std::map<std::int32_t, SpinSem> sems;
  std::uint64_t seq = 0;

  ReferenceResult result;
  result.counters.init(sys.resources().size(),
                       static_cast<std::size_t>(procs), sys.tasks().size());

  const auto opsOf = [&](const SJob& j) -> const std::vector<Op>& {
    return j.task->body.ops();
  };

  // The non-preemptive band sits above every task priority; any distinct
  // value above them all orders identically, so the band base itself works
  // (the engine uses globalBase + max urgency + 1 — same order).
  const Priority np = Priority(1).inGlobalBand(sys.globalBase());
  const auto effective = [&](const SJob& j) {
    return (j.spinning || !j.held.empty()) ? np : j.task->priority;
  };

  // Grant to `next` consumes its pending P() right here, the way the
  // engine's handoff + re-run onLock lands within the same settle.
  const auto handoff = [&](SpinSem& g, ResourceId r, SJob* next) {
    g.holder = next;
    next->spinning = false;
    next->held.push_back(r);
    next->op++;
    result.counters.res(r).handoffs++;
    result.counters.res(r).acquisitions++;
    // No eligible_seq restamp: the engine never parked the spinner.
  };
  const auto popNext = [&](SpinSem& g) {
    auto best = g.queue.begin();
    if (priority_ordered) {
      for (auto it = g.queue.begin(); it != g.queue.end(); ++it) {
        if ((*it)->task->priority > (*best)->task->priority) best = it;
      }
    }
    SJob* next = *best;
    g.queue.erase(best);
    return next;
  };

  // Per-tick scratch, hoisted out of the tick loop.
  std::vector<SJob*> runner(static_cast<std::size_t>(procs), nullptr);
  std::vector<SJob*> candidates;

  // Runs through `horizon` inclusive: the final iteration performs the
  // zero-time fixpoint only, mirroring the engine's final settle().
  for (Time now = 0; now <= horizon; ++now) {
    const bool final_instant = now == horizon;
    std::erase_if(live, [](const SJob* j) { return j->finished; });
    // 1. Releases.
    for (const Task& t : sys.tasks()) {
      const auto ti = static_cast<std::size_t>(t.id.value());
      auto& nr = next_release[ti];
      while (nr <= now && nr < horizon) {
        SJob j;
        j.id = JobId{t.id, instance[ti]++};
        j.task = &t;
        j.release = nr;
        j.deadline = nr + t.relative_deadline;
        j.eligible_seq = ++seq;
        jobs.push_back(j);
        live.push_back(&jobs.back());
        nr += t.period;
      }
    }
    // 2. Voluntary wakes.
    for (SJob* j : live) {
      if (j->wake_at >= 0 && j->wake_at <= now) {
        j->wake_at = -1;
        j->eligible_seq = ++seq;
      }
    }

    // 3. Scheduling fixpoint: pick per-processor runners, draining
    //    zero-time ops until nothing changes — same pass structure as
    //    reference_mpcp (one pick + drain per processor per pass).
    std::fill(runner.begin(), runner.end(), nullptr);
    bool pass_changed = true;
    while (pass_changed) {
      pass_changed = false;
      for (int p = 0; p < procs; ++p) {
        candidates.clear();
        for (SJob* j : live) {
          if (j->finished || j->wake_at >= 0) continue;
          if (j->task->processor.value() != p) continue;
          candidates.push_back(j);  // spinners included: they burn the CPU
        }
        std::sort(candidates.begin(), candidates.end(),
                  [&](SJob* a, SJob* b) {
                    const Priority pa = effective(*a), pb = effective(*b);
                    if (pa != pb) return pa > pb;
                    return a->eligible_seq < b->eligible_seq;
                  });

        SJob* chosen = nullptr;
        bool mutated = false;
        for (SJob* j : candidates) {
          bool progressed = false;
          bool stop_candidate_scan = false;
          while (true) {
            const auto& ops = opsOf(*j);
            if (j->op >= ops.size()) {
              j->finished = true;
              result.jobs.push_back({j->id, j->release, now});
              if (now > j->deadline) result.any_deadline_miss = true;
              progressed = true;
              stop_candidate_scan = true;
              break;
            }
            if (std::get_if<ComputeOp>(&ops[j->op]) != nullptr) {
              if (!progressed) chosen = j;  // runnable as-is
              stop_candidate_scan = true;
              break;
            }
            if (const auto* susp = std::get_if<SuspendOp>(&ops[j->op])) {
              j->op++;
              j->wake_at = now + susp->duration;
              progressed = true;
              stop_candidate_scan = true;
              break;
            }
            if (const auto* l = std::get_if<LockOp>(&ops[j->op])) {
              if (j->spinning) {
                // Burning the processor while it waits, like the mpcp
                // reference's stuck holder: runnable-as-is, no progress.
                if (!progressed) chosen = j;
                stop_candidate_scan = true;
                break;
              }
              // Mirror the engine's V() scheduling point: if an earlier
              // op in this drain dropped our elevation, a higher-priority
              // job preempts before the next P().
              if (progressed) {
                bool preempted = false;
                for (const SJob* o : live) {
                  if (o == j || o->finished || o->wake_at >= 0) continue;
                  if (o->task->processor.value() != p) continue;
                  if (effective(*o) > effective(*j)) {
                    preempted = true;
                    break;
                  }
                }
                if (preempted) {
                  stop_candidate_scan = true;
                  break;  // j stays eligible; the re-run pass dispatches
                }
              }
              SpinSem& g = sems[l->resource.value()];
              if (g.holder == nullptr) {
                g.holder = j;
                result.counters.res(l->resource).acquisitions++;
                j->held.push_back(l->resource);
                j->op++;
                progressed = true;
                continue;
              }
              g.queue.push_back(j);
              result.counters.res(l->resource).contended_waits++;
              j->spinning = true;  // now elevated; burns from next pass on
              progressed = true;
              stop_candidate_scan = true;
              break;
            }
            if (const auto* u = std::get_if<UnlockOp>(&ops[j->op])) {
              MPCP_CHECK(!j->held.empty() && j->held.back() == u->resource,
                         "spin reference: unlock order violated");
              SpinSem& g = sems[u->resource.value()];
              MPCP_CHECK(g.holder == j, "spin reference: non-holder unlock");
              j->held.pop_back();
              j->op++;
              if (g.queue.empty()) {
                g.holder = nullptr;
              } else {
                handoff(g, u->resource, popNext(g));
              }
              progressed = true;
              continue;
            }
          }
          if (progressed) mutated = true;
          if (stop_candidate_scan || mutated) break;
        }
        if (mutated) {
          pass_changed = true;
          runner[static_cast<std::size_t>(p)] = nullptr;  // re-pick later
        } else {
          runner[static_cast<std::size_t>(p)] = chosen;
        }
      }
    }

    // 4. Deadline overrun visibility (parity with the engine's policy).
    for (const SJob* j : live) {
      if (!j->finished && now > j->deadline) result.any_deadline_miss = true;
    }

    // 5. Execute one tick per processor. A chosen spinner sits at its
    //    LockOp and makes no progress — the tick burns, as intended.
    if (final_instant) break;
    for (int p = 0; p < procs; ++p) {
      SJob* j = runner[static_cast<std::size_t>(p)];
      if (j == nullptr) continue;
      const auto& ops = opsOf(*j);
      if (const auto* c = std::get_if<ComputeOp>(&ops[j->op])) {
        if (++j->done_in_op >= c->duration) {
          j->op++;
          j->done_in_op = 0;
        }
      }
    }
  }

  // Jobs still unfinished after the final fixpoint are censored.
  for (const SJob* j : live) {
    if (j->finished) continue;
    result.jobs.push_back({j->id, j->release, -1});
    if (j->deadline <= horizon) result.any_deadline_miss = true;
  }

  std::sort(result.jobs.begin(), result.jobs.end(),
            [](const ReferenceJobResult& a, const ReferenceJobResult& b) {
              if (a.id.task != b.id.task) return a.id.task < b.id.task;
              return a.id.instance < b.id.instance;
            });
  return result;
}

}  // namespace mpcp
