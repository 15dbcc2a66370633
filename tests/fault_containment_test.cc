// Containment-semantics tests: what the engine actually *does* with a
// FaultPlan under each policy. The headline golden trace pins the paper
// contract the watchdog must preserve: a force-released semaphore is
// handed to the highest-priority waiter (rule 7), unblocking it.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "core/simulate.h"
#include "fault/plan.h"
#include "model/task_system.h"
#include "obs/counters.h"
#include "sim/reference_mpcp.h"
#include "taskgen/generator.h"

namespace mpcp {
namespace {

using fault::ContainmentConfig;
using fault::FaultPlan;
using fault::MissAction;
using fault::parsePlan;

/// Three processors around one global semaphore. t_stuck (P0) grabs G at
/// t=1 and — under the stuck plan — never issues the V(). t_hi (P1) and
/// t_lo (P2) both request G at t=2; the period tie is broken by insertion
/// order, so the waiter priority order is t_hi > t_lo.
TaskSystem stuckHolderSystem() {
  TaskSystemBuilder b(3);
  const ResourceId g = b.addResource("G");
  b.addTask({.name = "t_stuck", .period = 1000, .processor = 0,
             .body = Body{}.compute(1).lock(g).compute(2).unlock(g)
                         .compute(1)});
  b.addTask({.name = "t_hi", .period = 1000, .processor = 1,
             .body = Body{}.compute(2).section(g, 1)});
  b.addTask({.name = "t_lo", .period = 1000, .processor = 2,
             .body = Body{}.compute(2).section(g, 1)});
  return std::move(b).build();
}

/// finish time per job, keyed (task, instance); -1 = unfinished.
std::map<std::pair<std::int32_t, std::int64_t>, Time> finishMap(
    const SimResult& r) {
  std::map<std::pair<std::int32_t, std::int64_t>, Time> m;
  for (const JobRecord& j : r.jobs) {
    m[{j.id.task.value(), j.id.instance}] = j.finish;
  }
  return m;
}

TEST(Containment, WatchdogUnblocksHighestPriorityWaiter) {
  const TaskSystem sys = stuckHolderSystem();
  const FaultPlan plan = parsePlan("stuck:t_stuck:0:G", sys);

  SimConfig config{.horizon = 100};
  config.fault_plan = &plan;
  config.containment.holder_watchdog = 10;
  const SimResult r = simulate(ProtocolKind::kMpcp, sys, config);

  // The golden sequence: G acquired at t=1, watchdog fires after 10
  // ticks of residence, and the forced release hands off to t_hi's job
  // (the highest-priority waiter — paper rule 7), then t_lo's.
  const TraceEvent* forced = nullptr;
  const TraceEvent* first_handoff = nullptr;
  for (const TraceEvent& e : r.trace) {
    if (e.kind == Ev::kForcedRelease && forced == nullptr) forced = &e;
    if (e.kind == Ev::kHandoff && forced != nullptr &&
        first_handoff == nullptr) {
      first_handoff = &e;
    }
  }
  ASSERT_NE(forced, nullptr);
  EXPECT_EQ(forced->t, 11);
  EXPECT_EQ(forced->job.task, TaskId(0));
  EXPECT_EQ(forced->resource, ResourceId(0));
  ASSERT_NE(first_handoff, nullptr);
  EXPECT_EQ(first_handoff->other.task, TaskId(1)) << "watchdog handoff must "
      "go to the highest-priority waiter";

  const auto finish = finishMap(r);
  EXPECT_GT(finish.at({1, 0}), 0) << "t_hi unblocked";
  EXPECT_GT(finish.at({2, 0}), 0) << "t_lo unblocked";
  EXPECT_GT(finish.at({2, 0}), finish.at({1, 0}));
  EXPECT_EQ(r.counters.forced_releases, 1u);
  EXPECT_EQ(r.counters.faults_contained, 1u);
  EXPECT_GE(r.counters.faults_injected, 1u);
}

TEST(Containment, StuckHolderWithoutWatchdogStarvesWaiters) {
  const TaskSystem sys = stuckHolderSystem();
  const FaultPlan plan = parsePlan("stuck:t_stuck:0:G", sys);
  SimConfig config{.horizon = 100};
  config.fault_plan = &plan;
  const SimResult r = simulate(ProtocolKind::kMpcp, sys, config);
  const auto finish = finishMap(r);
  EXPECT_EQ(finish.at({1, 0}), -1);
  EXPECT_EQ(finish.at({2, 0}), -1);
  EXPECT_EQ(r.counters.forced_releases, 0u);
}

TEST(Containment, BudgetEnforceKillsOverrunningGcs) {
  const TaskSystem sys = stuckHolderSystem();
  // t_stuck's section on G is declared as 2 ticks; stretch it 10x.
  const FaultPlan plan = parsePlan("cs:t_stuck:0:G:x10", sys);
  SimConfig config{.horizon = 100};
  config.fault_plan = &plan;
  config.containment.budget_enforce = true;
  config.containment.grace = 1.0;
  const SimResult r = simulate(ProtocolKind::kMpcp, sys, config);
  EXPECT_EQ(r.counters.budget_kills, 1u);
  EXPECT_GE(r.counters.faults_contained, 1u);
  // The kill releases G: both waiters complete well before the overrun
  // would have let them (t=1+20 at the earliest without enforcement).
  const auto finish = finishMap(r);
  EXPECT_GT(finish.at({1, 0}), 0);
  EXPECT_GT(finish.at({2, 0}), 0);
  EXPECT_LT(finish.at({1, 0}), 21);
  // The overrunning job escapes its section and still finishes.
  EXPECT_GT(finish.at({0, 0}), 0);
}

TEST(Containment, JobAbortRetiresMissedJob) {
  TaskSystemBuilder b(1);
  b.addTask({.name = "t", .period = 10, .processor = 0,
             .body = Body{}.compute(4)});
  const TaskSystem sys = std::move(b).build();

  const FaultPlan plan = parsePlan("wcet:t:0:x10", sys);  // 4 -> 40 > D=10
  SimConfig config{.horizon = 60};
  config.fault_plan = &plan;
  config.containment.on_miss = MissAction::kAbortJob;
  const SimResult r = simulate(ProtocolKind::kMpcp, sys, config);

  EXPECT_EQ(r.counters.jobs_aborted, 1u);
  bool saw_aborted = false;
  for (const JobRecord& j : r.jobs) {
    if (j.id.instance == 0) {
      EXPECT_TRUE(j.missed);
      EXPECT_TRUE(j.aborted);
      EXPECT_EQ(j.finish, -1);
      saw_aborted = true;
    }
  }
  EXPECT_TRUE(saw_aborted);
  // Later (un-faulted) instances run normally after the abort frees P0.
  const auto finish = finishMap(r);
  EXPECT_GT(finish.at({0, 1}), 0);
}

TEST(Containment, SkipNextReleaseShedsLoad) {
  TaskSystemBuilder b(1);
  b.addTask({.name = "t", .period = 10, .processor = 0,
             .body = Body{}.compute(4)});
  const TaskSystem sys = std::move(b).build();

  const FaultPlan plan = parsePlan("wcet:t:0:x4", sys);  // 4 -> 16 > D=10
  SimConfig config{.horizon = 60};
  config.fault_plan = &plan;
  config.containment.on_miss = MissAction::kSkipNextRelease;
  const SimResult r = simulate(ProtocolKind::kMpcp, sys, config);

  EXPECT_GE(r.counters.releases_skipped, 1u);
  bool saw_skip_event = false;
  for (const TraceEvent& e : r.trace) {
    saw_skip_event |= e.kind == Ev::kReleaseSkipped;
  }
  EXPECT_TRUE(saw_skip_event);
  EXPECT_GE(r.counters.misses_while_degraded, 1u);
}

TEST(Containment, InertPoliciesAreScheduleNeutral) {
  // budget-enforce with grace 1.0 and no fault plan must replay the
  // exact un-contained schedule: the budget equals the declared section
  // length, which a fault-free run never exceeds (V() fires the tick the
  // budget would).
  WorkloadParams params;
  params.processors = 3;
  params.tasks_per_processor = 3;
  params.global_resources = 2;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    Rng rng(seed);
    const TaskSystem sys = generateWorkload(params, rng);

    const SimResult plain =
        simulate(ProtocolKind::kMpcp, sys, {.horizon = 3000});

    SimConfig inert{.horizon = 3000};
    inert.containment.budget_enforce = true;
    inert.containment.grace = 1.0;
    const SimResult budget = simulate(ProtocolKind::kMpcp, sys, inert);

    SimConfig none{.horizon = 3000};
    FaultPlan empty;
    none.fault_plan = &empty;
    const SimResult empty_plan = simulate(ProtocolKind::kMpcp, sys, none);

    EXPECT_EQ(finishMap(plain), finishMap(budget)) << "seed " << seed;
    EXPECT_EQ(finishMap(plain), finishMap(empty_plan)) << "seed " << seed;
    EXPECT_EQ(budget.counters.budget_kills, 0u);
    EXPECT_EQ(budget.counters.faults_contained, 0u);
  }
}

TEST(Containment, EngineMatchesReferenceUnderMirrorablePlan) {
  const TaskSystem sys = stuckHolderSystem();
  const FaultPlan plan =
      parsePlan("wcet:t_lo:*:x2,jitter:t_hi:0:+3,cs:t_stuck:*:G:x2", sys);
  ASSERT_TRUE(plan.mirrorable());

  const Time horizon = 800;
  SimConfig config{.horizon = horizon, .record_trace = false};
  config.fault_plan = &plan;
  const SimResult engine = simulate(ProtocolKind::kMpcp, sys, config);
  const ReferenceResult ref = simulateMpcpReference(sys, horizon, &plan);

  std::map<std::pair<std::int32_t, std::int64_t>, Time> ref_finish;
  for (const ReferenceJobResult& j : ref.jobs) {
    ref_finish[{j.id.task.value(), j.id.instance}] = j.finish;
  }
  EXPECT_EQ(finishMap(engine), ref_finish);
  EXPECT_EQ(engine.any_deadline_miss, ref.any_deadline_miss);
  EXPECT_EQ(engine.counters.totalAcquisitions(),
            ref.counters.totalAcquisitions());
}

TEST(Containment, StallWindowCutsTheRunningJobAtBothEdges) {
  // One job of 10 ticks on P0; P0 stalls over [3, 7). The job runs
  // [0, 3), waits out the stall ready but undispatched (blocking: its
  // processor idles while it is ready), and runs [7, 14).
  TaskSystemBuilder b(1);
  b.addTask({.name = "t", .period = 100, .processor = 0,
             .body = Body{}.compute(10)});
  const TaskSystem sys = std::move(b).build();
  const FaultPlan plan = parsePlan("stall:P0:3:4", sys);
  SimConfig config{.horizon = 50};
  config.fault_plan = &plan;
  const SimResult r = simulate(ProtocolKind::kMpcp, sys, config);

  ASSERT_EQ(r.jobs.size(), 1u);
  const JobRecord& j = r.jobs.front();
  EXPECT_EQ(j.finish, 14);
  EXPECT_EQ(j.executed, 10);
  EXPECT_EQ(j.blocked, 4);
  EXPECT_EQ(j.preempted, 0);
  ASSERT_EQ(r.segments.size(), 2u);
  EXPECT_EQ(r.segments[0].begin, 0);
  EXPECT_EQ(r.segments[0].end, 3);
  EXPECT_EQ(r.segments[1].begin, 7);
  EXPECT_EQ(r.segments[1].end, 14);
  EXPECT_EQ(r.counters.faults_injected, 1u);
  EXPECT_EQ(r.processor_busy.at(0), 10);
}

/// Every JobRecord field, for whole-run equality.
std::vector<std::vector<std::int64_t>> jobRows(const SimResult& r) {
  std::vector<std::vector<std::int64_t>> rows;
  for (const JobRecord& j : r.jobs) {
    rows.push_back({j.id.task.value(), j.id.instance, j.release,
                    j.abs_deadline, j.finish, j.executed, j.blocked,
                    j.preempted, j.suspended, j.missed, j.aborted});
  }
  return rows;
}

TEST(Containment, TracingIsScheduleNeutralUnderEveryPolicy) {
  // Recording the trace must not move the schedule, and the segments it
  // records must account for every executed tick exactly once, as
  // maximal runs: with and without a fault plan, under every policy.
  WorkloadParams params;
  params.processors = 3;
  params.tasks_per_processor = 3;
  params.global_resources = 2;
  params.utilization_per_processor = 0.75;
  params.period_min = 20;
  params.period_max = 400;
  params.period_granularity = 5;
  const std::pair<const char*, ContainmentConfig> policies[] = {
      {"none", {}},
      {"budget", {.budget_enforce = true}},
      {"watchdog", {.holder_watchdog = 40}},
      {"abort", {.on_miss = MissAction::kAbortJob}},
      {"skip", {.on_miss = MissAction::kSkipNextRelease}},
  };

  int aborted = 0;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    Rng rng(seed);
    const TaskSystem sys = generateWorkload(params, rng);
    const FaultPlan plan = FaultPlan::random(rng, sys, 2);
    std::vector<std::pair<std::string, SimConfig>> configs;
    configs.push_back({"no plan", SimConfig{.horizon = 4000}});
    for (const auto& [name, cc] : policies) {
      SimConfig config{.horizon = 4000};
      config.fault_plan = &plan;
      config.containment = cc;
      configs.push_back({std::string("plan, ") + name, config});
    }
    for (const ProtocolSpec& spec : protocolRegistry()) {
      for (auto [name, config] : configs) {
        const std::string where = std::string(toString(spec.kind)) +
                                  " seed " + std::to_string(seed) + " " +
                                  name;
        SimResult traced;
        try {
          traced = simulate(spec.kind, sys, config);
        } catch (const ConfigError&) {
          continue;  // protocol does not apply to this system
        }
        config.record_trace = false;
        const SimResult plain = simulate(spec.kind, sys, config);
        EXPECT_EQ(jobRows(traced), jobRows(plain)) << where;
        EXPECT_EQ(obs::renderCounters(traced.counters),
                  obs::renderCounters(plain.counters))
            << where;
        EXPECT_EQ(traced.processor_busy, plain.processor_busy) << where;

        std::map<std::pair<std::int32_t, std::int64_t>, Duration> run;
        std::vector<Duration> busy(traced.processor_busy.size(), 0);
        std::map<std::int32_t, const ExecSegment*> last;
        for (const ExecSegment& s : traced.segments) {
          ASSERT_LT(s.begin, s.end) << where;
          run[{s.job.task.value(), s.job.instance}] += s.end - s.begin;
          busy.at(static_cast<std::size_t>(s.processor.value())) +=
              s.end - s.begin;
          // Recorded per processor in time order: disjoint, and never
          // continued by the same (job, mode) without a gap.
          const ExecSegment* prev = last[s.processor.value()];
          if (prev != nullptr) {
            ASSERT_LE(prev->end, s.begin) << where;
            EXPECT_FALSE(prev->end == s.begin && prev->job == s.job &&
                         prev->mode == s.mode)
                << where << ": segment at " << s.begin << " not maximal";
          }
          last[s.processor.value()] = &s;
        }
        EXPECT_EQ(busy, traced.processor_busy) << where;
        for (const JobRecord& j : traced.jobs) {
          aborted += j.aborted ? 1 : 0;
          const auto it = run.find({j.id.task.value(), j.id.instance});
          EXPECT_EQ(it == run.end() ? 0 : it->second, j.executed)
              << where << ": " << j.id << (j.aborted ? " (aborted)" : "");
        }
      }
    }
  }
  EXPECT_GT(aborted, 0) << "no run exercised the abort path";
}

}  // namespace
}  // namespace mpcp
