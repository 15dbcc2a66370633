#include "sim/reference_mpcp.h"

#include <algorithm>
#include <deque>
#include <map>

#include "analysis/ceilings.h"
#include "common/check.h"

namespace mpcp {

namespace {

struct RJob {
  JobId id;
  const Task* task = nullptr;
  Time release = 0;
  Time deadline = 0;
  std::size_t op = 0;           // index into body ops
  Duration done_in_op = 0;      // progress inside the current ComputeOp
  Time wake_at = -1;            // voluntary suspension end, -1 if none
  bool waiting_global = false;  // parked in some global semaphore queue
  bool parked_local = false;    // ceiling-blocked on a local semaphore
  bool finished = false;
  std::vector<ResourceId> held;
  std::uint64_t eligible_seq = 0;  // FCFS tie-break, stamped on eligibility
  // Fault mirroring (inert without a plan/watchdog):
  Duration cur_len = -1;             // injected length of the current compute
  bool wcet_delta_applied = false;   // one-shot WCET delta consumed
  std::uint32_t faults_noted = 0;    // fault::bitOf mask already counted
  std::vector<ResourceId> force_released;  // revoked; pending V()s are no-ops
};

struct GlobalSem {
  RJob* holder = nullptr;
  std::deque<RJob*> queue;  // arrival order; selection scans by priority
  Time since = -1;          // last holder transition (watchdog clock)
};

}  // namespace

ReferenceResult simulateMpcpReference(const TaskSystem& sys, Time horizon,
                                      const fault::FaultPlan* plan,
                                      Duration holder_watchdog) {
  const PriorityTables tables(sys);
  const int procs = sys.processorCount();
  if (plan != nullptr && plan->empty()) plan = nullptr;
  if (plan != nullptr) plan->validate(sys);

  std::vector<Time> next_release(sys.tasks().size());
  std::vector<std::int64_t> instance(sys.tasks().size(), 0);
  // Deferred (jittered) releases: at most one outstanding per task since
  // jitter is clamped below the period.
  std::vector<Time> jit_at(sys.tasks().size(), -1);
  std::vector<Time> jit_nominal(sys.tasks().size(), 0);
  for (const Task& t : sys.tasks()) {
    next_release[static_cast<std::size_t>(t.id.value())] = t.phase;
  }

  std::deque<RJob> jobs;  // stable addresses
  // Unfinished jobs in release order, compacted once per tick: every
  // per-tick scan walks this instead of every job ever released, so a
  // tick costs O(live jobs). Jobs finishing mid-tick stay until the next
  // compaction; every scan already skips `finished`.
  std::vector<RJob*> live;
  std::map<std::int32_t, GlobalSem> globals;
  std::uint64_t seq = 0;
  // Jobs whose local lock attempt was ceiling-blocked, per processor, in
  // attempt order. The engine parks these out of the ready queue and
  // re-wakes them (with a *fresh* arrival stamp) on the next local unlock
  // on that processor; mirroring both halves keeps same-priority FIFO
  // tie-breaks — a woken waiter vs a job released at the same instant —
  // bit-identical to the engine.
  std::vector<std::vector<RJob*>> parked_local_q(
      static_cast<std::size_t>(procs));

  ReferenceResult result;
  result.counters.init(sys.resources().size(),
                       static_cast<std::size_t>(procs), sys.tasks().size());

  // ---- helpers over the mutable state ---------------------------------
  const auto opsOf = [&](const RJob& j) -> const std::vector<Op>& {
    return j.task->body.ops();
  };
  // Effective priority: base, PCP inheritance (computed by caller via the
  // blocked-map), gcs elevation from held globals.
  const auto elevationOf = [&](const RJob& j) {
    Priority e = kPriorityFloor;
    for (ResourceId r : j.held) {
      if (sys.isGlobal(r)) {
        e = std::max(e, tables.gcsPriority(r, j.task->processor));
      }
    }
    return e;
  };

  // Counts one injection per fault kind per job, like the engine.
  const auto noteFault = [&](RJob& j, fault::FaultKind kind) {
    const std::uint32_t bit = fault::bitOf(kind);
    if ((j.faults_noted & bit) != 0) return;
    j.faults_noted |= bit;
    result.counters.faults_injected++;
  };
  // Applies the plan to a compute op about to start.
  const auto refComputeLen = [&](RJob& j, Duration base) {
    const ResourceId inner = j.held.empty() ? ResourceId{} : j.held.back();
    const fault::ComputeEffect eff = plan->computeEffect(
        j.id.task, j.id.instance, base, inner, !j.wcet_delta_applied);
    if (eff.delta_used) j.wcet_delta_applied = true;
    if ((eff.kinds & fault::bitOf(fault::FaultKind::kWcetOverrun)) != 0) {
      noteFault(j, fault::FaultKind::kWcetOverrun);
    }
    if ((eff.kinds & fault::bitOf(fault::FaultKind::kCsOverrun)) != 0) {
      noteFault(j, fault::FaultKind::kCsOverrun);
    }
    return eff.duration;
  };

  // Per-tick scratch, hoisted out of the tick loop.
  std::vector<RJob*> runner(static_cast<std::size_t>(procs), nullptr);
  std::vector<RJob*> candidates;

  // Declarative PCP inheritance, recomputed from scratch on demand: a
  // job whose pending local lock fails the ceiling test donates its
  // priority to the blocking holder, transitively.
  std::map<const RJob*, Priority> inherited;
  const auto effective = [&](const RJob& j) {
    Priority pr = j.task->priority;
    const auto it = inherited.find(&j);
    if (it != inherited.end()) pr = std::max(pr, it->second);
    return std::max(pr, elevationOf(j));
  };
  // Highest-ceiling local semaphore held by someone other than j on
  // processor p, derived fresh from the live jobs' held sets; returns
  // the holder (nullptr if no such semaphore).
  const auto blockerFor = [&](int p, const RJob& j,
                              Priority* ceiling) -> RJob* {
    RJob* blocker = nullptr;
    *ceiling = kPriorityFloor;
    for (RJob* h : live) {
      if (h == &j || h->finished || h->task->processor.value() != p) {
        continue;
      }
      for (ResourceId r : h->held) {
        if (sys.isGlobal(r)) continue;
        const Priority c = tables.ceiling(r);
        if (blocker == nullptr || c > *ceiling) {
          blocker = h;
          *ceiling = c;
        }
      }
    }
    return blocker;
  };
  const auto recomputeInheritance = [&] {
    inherited.clear();
    // Only parked jobs donate, and a job is parked exactly while it sits
    // in its processor's parked queue: with every queue empty there is
    // nothing to derive.
    if (std::all_of(parked_local_q.begin(), parked_local_q.end(),
                    [](const std::vector<RJob*>& q) { return q.empty(); })) {
      return;
    }
    bool inh_changed = true;
    while (inh_changed) {
      inh_changed = false;
      for (RJob* jp : live) {
        RJob& j = *jp;
        if (j.finished || j.waiting_global || j.wake_at >= 0) continue;
        // Only a job that actually attempted the lock and parked donates
        // its priority (the engine's LocalPcp sets inheritance when the
        // attempt blocks, not when a lock op is merely pending) — eager
        // donation would boost the holder before the waiter's attempt
        // and reorder same-priority FIFO tie-breaks.
        if (!j.parked_local) continue;
        const auto& ops = opsOf(j);
        if (j.op >= ops.size()) continue;
        const auto* l = std::get_if<LockOp>(&ops[j.op]);
        if (l == nullptr || sys.isGlobal(l->resource)) continue;
        Priority top_ceiling = kPriorityFloor;
        RJob* blocker =
            blockerFor(j.task->processor.value(), j, &top_ceiling);
        if (blocker != nullptr && effective(j) <= top_ceiling) {
          const Priority donated = effective(j);
          Priority& slot = inherited[blocker];
          if (donated > slot && donated > blocker->task->priority) {
            slot = donated;
            inh_changed = true;
          }
        }
      }
    }
  };

  // Runs through `horizon` inclusive: the final iteration performs the
  // zero-time fixpoint only (no execution), mirroring the engine's
  // final settle() so completions landing exactly on the horizon count.
  for (Time now = 0; now <= horizon; ++now) {
    const bool final_instant = now == horizon;
    std::erase_if(live, [](const RJob* j) { return j->finished; });
    // 1. Releases.
    for (const Task& t : sys.tasks()) {
      const auto ti = static_cast<std::size_t>(t.id.value());
      auto& nr = next_release[ti];
      const auto makeJob = [&](Time actual, Time nominal) {
        RJob j;
        j.id = JobId{t.id, instance[ti]++};
        j.task = &t;
        j.release = actual;
        j.deadline = nominal + t.relative_deadline;
        j.eligible_seq = ++seq;
        jobs.push_back(j);
        live.push_back(&jobs.back());
      };
      // A jitter-deferred release comes due independently of nr; its
      // deadline stays tied to the nominal release time.
      if (jit_at[ti] >= 0 && jit_at[ti] <= now && jit_at[ti] < horizon) {
        makeJob(jit_at[ti], jit_nominal[ti]);
        jit_at[ti] = -1;
      }
      while (nr <= now && nr < horizon) {
        if (plan != nullptr) {
          Duration jd = plan->releaseJitter(t.id, instance[ti]);
          jd = std::min<Duration>(jd, t.period - 1);
          if (jd > 0) {
            jit_at[ti] = nr + jd;
            jit_nominal[ti] = nr;
            result.counters.faults_injected++;
            nr += t.period;
            continue;
          }
        }
        makeJob(nr, nr);
        nr += t.period;
      }
    }
    // 2. Voluntary wakes.
    for (RJob* j : live) {
      if (j->wake_at >= 0 && j->wake_at <= now) {
        j->wake_at = -1;
        j->eligible_seq = ++seq;
      }
    }

    // 2b. Stuck-holder watchdog: revoke any global semaphore whose holder
    //     has kept it for `holder_watchdog` ticks and hand it to the
    //     highest-priority waiter — the reference half of the engine's
    //     watchdog containment policy. Deferred while the holder is not
    //     schedulable (parity with the engine's ready-state guard).
    if (holder_watchdog > 0) {
      for (auto& [rv, g] : globals) {
        if (g.holder == nullptr || g.since < 0 ||
            now - g.since < holder_watchdog) {
          continue;
        }
        RJob* h = g.holder;
        if (h->finished || h->waiting_global || h->wake_at >= 0 ||
            h->parked_local) {
          continue;
        }
        const ResourceId r(rv);
        result.counters.forced_releases++;
        result.counters.faults_contained++;
        MPCP_CHECK(!h->held.empty() && h->held.back() == r,
                   "reference: forced release of non-innermost semaphore");
        h->held.pop_back();
        const auto& hops = opsOf(*h);
        const auto* u = h->op < hops.size()
                            ? std::get_if<UnlockOp>(&hops[h->op])
                            : nullptr;
        if (u != nullptr && u->resource == r) {
          // The holder sits right at this V() (stuck, burning time):
          // consume it so the rest of the body runs.
          h->op++;
          h->done_in_op = 0;
          h->cur_len = -1;
        } else {
          h->force_released.push_back(r);
        }
        g.holder = nullptr;
        g.since = -1;
        if (!g.queue.empty()) {
          auto best = g.queue.begin();
          for (auto it = g.queue.begin(); it != g.queue.end(); ++it) {
            if ((*it)->task->priority > (*best)->task->priority) best = it;
          }
          RJob* next = *best;
          g.queue.erase(best);
          g.holder = next;
          g.since = now;
          result.counters.res(r).handoffs++;
          result.counters.res(r).acquisitions++;
          next->held.push_back(r);
          next->op++;  // consume the pending LockOp
          next->waiting_global = false;
          next->eligible_seq = ++seq;
        }
      }
    }

    // 3. Scheduling fixpoint: pick per-processor runners, processing
    //    zero-duration ops (locks, unlocks, suspends, completions) until
    //    nothing changes. Processor visit order mirrors the engine's
    //    settle(): each processor drains its top candidate's zero-time
    //    ops before moving on; the pass repeats until stable.
    std::fill(runner.begin(), runner.end(), nullptr);
    bool pass_changed = true;
    while (pass_changed) {
      pass_changed = false;
      // One pick + drain per processor per pass, exactly like settle():
      // a mutation moves on to the NEXT processor with the new state; the
      // re-pick on this processor happens in the following pass.
      for (int p = 0; p < procs; ++p) {
        {
          recomputeInheritance();
          // Candidates on p, best-first by effective priority then FCFS.
          candidates.clear();
          for (RJob* j : live) {
            if (j->finished || j->waiting_global || j->wake_at >= 0) continue;
            if (j->parked_local) continue;  // out of the ready set until woken
            if (j->task->processor.value() != p) continue;
            candidates.push_back(j);
          }
          std::sort(candidates.begin(), candidates.end(),
                    [&](RJob* a, RJob* b) {
                      const Priority pa = effective(*a), pb = effective(*b);
                      if (pa != pb) return pa > pb;
                      return a->eligible_seq < b->eligible_seq;
                    });

          RJob* chosen = nullptr;
          bool mutated = false;
          for (RJob* j : candidates) {
            // Drain this candidate's zero-time ops exactly like the
            // engine's processRunnableOps: once dispatched, a job keeps
            // issuing operations until it needs time, blocks, suspends
            // or finishes — even if an unlock lowered its priority
            // mid-drain (completion after the final V() is instantaneous).
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
                // Mirror the engine's V() scheduling point: if an earlier
                // op in this drain left a strictly higher-priority job
                // eligible on p, that job preempts before j's next P().
                // Back-to-back critical sections must not run atomically —
                // the F5 blocking bound's once-per-resume argument depends
                // on this preemption opportunity.
                if (progressed) {
                  recomputeInheritance();
                  bool preempted = false;
                  for (const RJob* o : live) {
                    if (o == j || o->finished || o->waiting_global ||
                        o->wake_at >= 0 || o->parked_local) {
                      continue;
                    }
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
                if (sys.isGlobal(l->resource)) {
                  GlobalSem& g = globals[l->resource.value()];
                  if (g.holder == nullptr || g.holder == j) {
                    if (g.holder == nullptr) g.since = now;
                    g.holder = j;
                    result.counters.res(l->resource).acquisitions++;
                    j->held.push_back(l->resource);
                    j->op++;
                    progressed = true;
                    continue;
                  }
                  g.queue.push_back(j);
                  result.counters.res(l->resource).contended_waits++;
                  j->waiting_global = true;
                  progressed = true;
                  stop_candidate_scan = true;
                  break;
                }
                Priority top_ceiling = kPriorityFloor;
                RJob* blocker = blockerFor(p, *j, &top_ceiling);
                // The drain may have changed priorities (e.g. an unlock
                // dropped the elevation), so re-evaluate effective()
                // against a freshly derived inheritance picture: the
                // outer loop recomputes it, so be conservative here and
                // use the current map (matches the engine, which also
                // tests with the state as-of the attempt).
                if (blocker == nullptr || effective(*j) > top_ceiling) {
                  result.counters.res(l->resource).acquisitions++;
                  j->held.push_back(l->resource);
                  j->op++;
                  progressed = true;
                  continue;
                }
                // Ceiling-blocked: park like the engine's LocalPcp (the
                // job leaves the ready set until a local unlock on this
                // processor wakes it for a retry). If nothing was
                // consumed, fall through to the next candidate; else
                // re-run the pass.
                j->parked_local = true;
                result.counters.res(l->resource).contended_waits++;
                parked_local_q[static_cast<std::size_t>(p)].push_back(j);
                stop_candidate_scan = progressed;
                progressed = true;  // parking mutated scheduler state
                break;
              }
              if (const auto* u = std::get_if<UnlockOp>(&ops[j->op])) {
                // Watchdog already revoked this semaphore: the V() is a
                // no-op.
                const auto fr = std::find(j->force_released.begin(),
                                          j->force_released.end(),
                                          u->resource);
                if (fr != j->force_released.end()) {
                  j->force_released.erase(fr);
                  j->op++;
                  progressed = true;
                  continue;
                }
                if (plan != nullptr && !j->held.empty() &&
                    j->held.back() == u->resource &&
                    plan->stuckAt(j->id.task, j->id.instance, u->resource)) {
                  // Stuck holder: never executes this V(); burns clock
                  // time at the unlock site like a compute op.
                  noteFault(*j, fault::FaultKind::kStuckHolder);
                  if (!progressed) chosen = j;  // runnable-as-is (burning)
                  stop_candidate_scan = true;
                  break;
                }
                MPCP_CHECK(!j->held.empty() && j->held.back() == u->resource,
                           "reference: unlock order violated");
                j->held.pop_back();
                j->op++;
                if (!sys.isGlobal(u->resource)) {
                  // Blocking conditions changed: wake every parked job
                  // for a retry, re-stamping arrival order exactly like
                  // the engine's wake() (losers re-park on the retry).
                  auto& parked = parked_local_q[static_cast<std::size_t>(p)];
                  for (RJob* w : parked) {
                    w->parked_local = false;
                    w->eligible_seq = ++seq;
                  }
                  parked.clear();
                }
                if (sys.isGlobal(u->resource)) {
                  GlobalSem& g = globals[u->resource.value()];
                  MPCP_CHECK(g.holder == j, "reference: non-holder unlock");
                  g.holder = nullptr;
                  g.since = -1;
                  if (!g.queue.empty()) {
                    auto best = g.queue.begin();
                    for (auto it = g.queue.begin(); it != g.queue.end();
                         ++it) {
                      if ((*it)->task->priority > (*best)->task->priority) {
                        best = it;
                      }
                    }
                    RJob* next = *best;
                    g.queue.erase(best);
                    g.holder = next;
                    g.since = now;
                    result.counters.res(u->resource).handoffs++;
                    result.counters.res(u->resource).acquisitions++;
                    next->held.push_back(u->resource);
                    next->op++;  // consume the pending LockOp
                    next->waiting_global = false;
                    next->eligible_seq = ++seq;
                  }
                }
                progressed = true;
                continue;
              }
            }
            if (progressed) mutated = true;
            if (stop_candidate_scan || mutated) break;
            // else: candidate immediately ceiling-blocked; try the next.
          }
          if (mutated) {
            pass_changed = true;
            runner[static_cast<std::size_t>(p)] = nullptr;  // re-pick later
          } else {
            runner[static_cast<std::size_t>(p)] = chosen;
          }
        }
      }
    }

    // 4. Deadline overrun visibility (parity with the engine's policy).
    for (const RJob* j : live) {
      if (!j->finished && now > j->deadline) result.any_deadline_miss = true;
    }

    // 5. Execute one tick per processor.
    if (final_instant) break;
    for (int p = 0; p < procs; ++p) {
      RJob* j = runner[static_cast<std::size_t>(p)];
      if (j == nullptr) continue;
      const auto& ops = opsOf(*j);
      if (const auto* c = std::get_if<ComputeOp>(&ops[j->op])) {
        if (j->cur_len < 0) {
          j->cur_len = plan != nullptr ? refComputeLen(*j, c->duration)
                                       : c->duration;
        }
        if (++j->done_in_op >= j->cur_len) {
          j->op++;
          j->done_in_op = 0;
          j->cur_len = -1;
        }
      }
      // else: a stuck holder burning time at its V() — no progress.
    }
  }

  // Jobs still unfinished after the final fixpoint are censored.
  for (const RJob* j : live) {
    if (j->finished) continue;
    result.jobs.push_back({j->id, j->release, -1});
    if (j->deadline <= horizon) result.any_deadline_miss = true;
  }

  // Deterministic output order.
  std::sort(result.jobs.begin(), result.jobs.end(),
            [](const ReferenceJobResult& a, const ReferenceJobResult& b) {
              if (a.id.task != b.id.task) return a.id.task < b.id.task;
              return a.id.instance < b.id.instance;
            });
  return result;
}

}  // namespace mpcp
