#include "fuzz/oracles.h"

#include <algorithm>
#include <map>
#include <optional>
#include <string_view>
#include <tuple>
#include <utility>

#include "common/check.h"
#include "common/strf.h"
#include "core/simulate.h"
#include "fuzz/protocols.h"
#include "sim/reference_mpcp.h"
#include "sim/reference_spin.h"
#include "trace/invariants.h"

namespace mpcp::fuzz {

namespace {

/// Job finish times keyed by (task, instance), sorted by key.
struct Finish {
  std::int32_t task;
  std::int64_t instance;
  Time finish;
};
using FinishList = std::vector<Finish>;

bool keyLess(const Finish& a, const Finish& b) {
  return std::tie(a.task, a.instance) < std::tie(b.task, b.instance);
}

/// Works for engine JobRecords and reference ReferenceJobResults alike;
/// both hold one record per released job, so keys are unique.
template <typename Jobs>
FinishList finishesOf(const Jobs& jobs) {
  FinishList out;
  out.reserve(jobs.size());
  for (const auto& j : jobs) {
    out.push_back({j.id.task.value(), j.id.instance, j.finish});
  }
  std::sort(out.begin(), out.end(), keyLess);
  return out;
}

/// First divergence between two finish lists; nullopt when identical.
std::optional<std::string> diffFinishes(const TaskSystem& sys,
                                        const FinishList& a, const char* la,
                                        const FinishList& b, const char* lb) {
  if (a.size() != b.size()) {
    return strf(la, " released ", a.size(), " jobs, ", lb, " released ",
                b.size());
  }
  for (const Finish& fa : a) {
    const auto it = std::lower_bound(b.begin(), b.end(), fa, keyLess);
    if (it == b.end() || keyLess(fa, *it)) {
      return strf(sys.task(TaskId(fa.task)).name, "#", fa.instance,
                  " missing under ", lb);
    }
    if (it->finish != fa.finish) {
      return strf(sys.task(TaskId(fa.task)).name, "#", fa.instance,
                  " finishes at t=", fa.finish, " under ", la, " but t=",
                  it->finish, " under ", lb);
    }
  }
  return std::nullopt;
}

/// Worst blocking per task over every job record, unfinished ones too.
std::vector<Duration> maxBlockedPerTask(const TaskSystem& sys,
                                        const SimResult& r) {
  std::vector<Duration> worst(sys.tasks().size(), 0);
  for (const JobRecord& jr : r.jobs) {
    Duration& w = worst[static_cast<std::size_t>(jr.id.task.value())];
    w = std::max(w, jr.blocked);
  }
  return worst;
}

void addReport(std::vector<OracleFailure>& out, const std::string& protocol,
               const char* oracle, const InvariantReport& report) {
  if (report.ok()) return;
  out.push_back({protocol, strf("invariant:", oracle),
                 strf(report.violations.front(), " (+",
                      report.violations.size() - 1, " more)")});
}

/// Spin protocols never suspend on a lock: between a job's kLockWait and
/// the matching kLockGrant it busy-waits non-preemptively, so NO other
/// job may execute on that processor. Audited against the Gantt segments
/// (per processor the spin windows are disjoint and close in time order,
/// so each window list stays sorted and binary-searchable).
std::optional<std::string> spinYieldViolation(const TaskSystem& sys,
                                              const SimResult& sim) {
  struct Window {
    Time begin, end;
    JobId job;
    ResourceId resource;
  };
  std::vector<std::vector<Window>> per_proc(
      static_cast<std::size_t>(sys.processorCount()));
  std::map<std::pair<std::int32_t, std::int64_t>, Window> open;
  for (const TraceEvent& e : sim.trace) {
    const auto key = std::make_pair(e.job.task.value(), e.job.instance);
    if (e.kind == Ev::kLockWait) {
      open[key] = {e.t, -1, e.job, e.resource};
    } else if (e.kind == Ev::kLockGrant) {
      const auto it = open.find(key);
      if (it == open.end() || it->second.resource != e.resource) continue;
      it->second.end = e.t;
      per_proc[static_cast<std::size_t>(e.processor.value())].push_back(
          it->second);
      open.erase(it);
    }
  }
  for (auto& [key, w] : open) {  // spinning at the horizon: still a window
    w.end = sim.horizon;
    // The spinner kept its processor the whole time; look it up via the
    // task binding (the job never migrates while spinning).
    per_proc[static_cast<std::size_t>(
                 sys.task(TaskId(key.first)).processor.value())]
        .push_back(w);
  }
  for (const ExecSegment& seg : sim.segments) {
    const auto& windows =
        per_proc[static_cast<std::size_t>(seg.processor.value())];
    // First window ending after this segment starts (sorted, disjoint).
    auto it = std::partition_point(
        windows.begin(), windows.end(),
        [&](const Window& w) { return w.end <= seg.begin; });
    for (; it != windows.end() && it->begin < seg.end; ++it) {
      if (it->job == seg.job) continue;
      return strf(seg.job, " executed on ", seg.processor, " at [",
                  std::max(seg.begin, it->begin), ", ",
                  std::min(seg.end, it->end), ") while ", it->job,
                  " was spinning for ", it->resource,
                  " — spinners must never yield");
    }
  }
  return std::nullopt;
}

}  // namespace

std::vector<OracleFailure> checkSystem(const TaskSystem& system,
                                       const OracleOptions& options) {
  std::vector<OracleFailure> failures;
  const std::vector<std::string>& selected =
      options.protocols.empty() ? protocolNames() : options.protocols;
  const auto wants = [&](const std::string& name) {
    return std::find(selected.begin(), selected.end(), name) != selected.end();
  };

  const SimConfig config{.horizon_cap = options.horizon_cap};
  const PriorityTables tables(system);
  // All the cross-checks (c) read once each traced run is dropped: which
  // protocols ran, and the finish records of the ceiling protocols. So at
  // most one traced SimResult is alive at a time.
  std::vector<std::string> ran;
  std::map<std::string, FinishList> finishes;  // pcp, mpcp, dpcp
  const auto didRun = [&](const std::string& name) {
    return std::find(ran.begin(), ran.end(), name) != ran.end();
  };

  // Per-protocol runs: invariants (a) + soundness (b).
  for (const std::string& name : protocolNames()) {
    if (!wants(name)) continue;
    std::optional<SimResult> sim;
    try {
      sim = tryRunProtocol(name, system, config, options.mutation);
    } catch (const InvariantError& e) {
      failures.push_back({name, "crash:invariant", e.what()});
      continue;
    }
    if (!sim.has_value()) continue;  // protocol rejects this system shape

    // (a) trace invariants.
    addReport(failures, name, "mutual-exclusion",
              checkMutualExclusion(system, *sim));
    if (name != "none" && name != "pip" && name != "spin-fifo") {
      // FIFO queues ("none", "spin-fifo") order by arrival; PIP waiters
      // can be boosted above their assigned priority, so the
      // assigned-priority handoff audit applies to none of them.
      addReport(failures, name, "priority-handoff",
                checkPriorityOrderedHandoff(system, *sim));
    }
    if (name == "spin-fifo" || name == "spin-prio") {
      if (const auto v = spinYieldViolation(system, *sim)) {
        failures.push_back({name, "invariant:spin-never-yields", *v});
      }
    }
    if (name == "mpcp") {
      addReport(failures, name, "gcs-preemption",
                checkGcsPreemptionRule(system, *sim));
      addReport(failures, name, "gcs-priority",
                checkGcsPriorityAssignment(system, *sim, tables,
                                           GcsPriorityRule::kSharedMemory));
    }
    if (name == "dpcp") {
      addReport(failures, name, "gcs-priority",
                checkGcsPriorityAssignment(system, *sim, tables,
                                           GcsPriorityRule::kMessageBased));
    }

    // (b) soundness: the *correct* protocol's analysis vs this run.
    if (const auto analysis = tryAnalyzeProtocol(name, system)) {
      const bool accepted =
          analysis->report.rta_all || analysis->report.ll_all;
      if (accepted && sim->any_deadline_miss) {
        failures.push_back(
            {name, "soundness:accepted-but-missed",
             "analysis declared the system schedulable but the simulation "
             "missed a deadline"});
      }
      if (!sim->any_deadline_miss) {
        const std::vector<Duration> worst = maxBlockedPerTask(system, *sim);
        for (const Task& t : system.tasks()) {
          const auto ti = static_cast<std::size_t>(t.id.value());
          const Duration bound = analysis->blocking[ti];
          const Duration observed = worst[ti];
          if (observed > bound) {
            failures.push_back(
                {name, "soundness:blocking-bound",
                 strf(t.name, " observed blocking ", observed,
                      " exceeds the analytical bound ", bound)});
            break;  // one exceedance identifies the run; keep output small
          }
        }
      }
    }

    ran.push_back(name);
    if (name == "pcp" || name == "mpcp" || name == "dpcp") {
      finishes.emplace(name, finishesOf(sim->jobs));
    }
  }

  if (!options.cross_checks) return failures;

  // (c) cross-implementation differentials.
  if (didRun("mpcp")) {
    // Engine vs the independent tick-stepped reference, same short horizon.
    try {
      const auto engine_small =
          tryRunProtocol("mpcp", system,
                         SimConfig{.horizon = options.differential_horizon,
                                   .record_trace = false},
                         options.mutation);
      if (engine_small.has_value()) {
        const ReferenceResult ref =
            simulateMpcpReference(system, options.differential_horizon);
        if (const auto diff =
                diffFinishes(system, finishesOf(engine_small->jobs), "engine",
                             finishesOf(ref.jobs), "reference")) {
          failures.push_back({"mpcp", "cross:reference-mpcp", *diff});
        }
      }
    } catch (const InvariantError& e) {
      failures.push_back({"mpcp", "crash:invariant", e.what()});
    }

    // hybrid(all-shared) must equal MPCP job-for-job.
    try {
      const SimResult hyb =
          simulateHybrid(system, HybridPolicy::allShared(system), config);
      if (const auto diff =
              diffFinishes(system, finishes.at("mpcp"), "mpcp",
                           finishesOf(hyb.jobs), "hybrid(all-shared)")) {
        failures.push_back({"mpcp", "cross:hybrid-shared", *diff});
      }
    } catch (const ConfigError&) {
    } catch (const InvariantError& e) {
      failures.push_back({"hybrid", "crash:invariant", e.what()});
    }
  }

  // Engine vs the independent tick-stepped spin reference. The small
  // engine run repeats any mutation, so a mis-granting spin variant shows
  // up here as a schedule divergence.
  for (const char* sname : {"spin-fifo", "spin-prio"}) {
    if (!didRun(sname)) continue;
    try {
      const auto engine_small =
          tryRunProtocol(sname, system,
                         SimConfig{.horizon = options.differential_horizon,
                                   .record_trace = false},
                         options.mutation);
      if (engine_small.has_value()) {
        const ReferenceResult ref = simulateSpinReference(
            system, options.differential_horizon,
            std::string_view(sname) == "spin-prio");
        if (const auto diff =
                diffFinishes(system, finishesOf(engine_small->jobs), "engine",
                             finishesOf(ref.jobs), "reference")) {
          failures.push_back({sname, "cross:reference-spin", *diff});
        }
      }
    } catch (const InvariantError& e) {
      failures.push_back({sname, "crash:invariant", e.what()});
    }
  }

  if (didRun("dpcp")) {
    // hybrid(all-message) must equal DPCP job-for-job.
    try {
      const SimResult hyb =
          simulateHybrid(system, HybridPolicy::allMessage(system), config);
      if (const auto diff =
              diffFinishes(system, finishes.at("dpcp"), "dpcp",
                           finishesOf(hyb.jobs), "hybrid(all-message)")) {
        failures.push_back({"dpcp", "cross:hybrid-message", *diff});
      }
    } catch (const ConfigError&) {
    } catch (const InvariantError& e) {
      failures.push_back({"hybrid", "crash:invariant", e.what()});
    }
  }

  if (!system.hasGlobalResources()) {
    // With no globals every ceiling protocol degenerates to local PCP, so
    // PCP / MPCP / DPCP must produce the identical schedule.
    const char* kAgree[] = {"pcp", "mpcp", "dpcp"};
    for (int i = 0; i + 1 < 3; ++i) {
      const auto a = finishes.find(kAgree[i]);
      const auto b = finishes.find(kAgree[i + 1]);
      if (a == finishes.end() || b == finishes.end()) continue;
      if (const auto diff = diffFinishes(system, a->second, kAgree[i],
                                         b->second, kAgree[i + 1])) {
        failures.push_back({strf(kAgree[i], "+", kAgree[i + 1]),
                            "cross:no-global-agreement", *diff});
      }
    }
  }

  return failures;
}

std::vector<FaultPolicy> faultPolicies(const FaultOracleOptions& options) {
  using fault::ContainmentConfig;
  using fault::MissAction;
  std::vector<FaultPolicy> out;
  out.push_back({"none", ContainmentConfig{}});
  ContainmentConfig watchdog;
  watchdog.holder_watchdog = options.watchdog_timeout;
  out.push_back({"watchdog", watchdog});
  ContainmentConfig budget;
  budget.budget_enforce = true;
  budget.grace = options.grace;
  out.push_back({"budget-enforce", budget});
  ContainmentConfig abort_job;
  abort_job.on_miss = MissAction::kAbortJob;
  out.push_back({"job-abort", abort_job});
  ContainmentConfig skip;
  skip.on_miss = MissAction::kSkipNextRelease;
  out.push_back({"skip-next-release", skip});
  return out;
}

std::vector<OracleFailure> checkSystemFaults(const TaskSystem& system,
                                             const fault::FaultPlan& plan,
                                             const FaultOracleOptions& options) {
  std::vector<OracleFailure> failures;

  // Policy sweep: MPCP + plan under each containment policy. Whatever the
  // faults do, semaphore state must stay coherent (mutual exclusion) and
  // every handoff — including forced releases and budget kills — must go
  // to the highest-priority waiter.
  for (const FaultPolicy& policy : faultPolicies(options)) {
    SimConfig config{.horizon_cap = options.horizon_cap};
    config.fault_plan = &plan;
    config.containment = policy.config;
    std::optional<SimResult> sim;
    try {
      sim = tryRunProtocol("mpcp", system, config);
    } catch (const InvariantError& e) {
      failures.push_back(
          {"mpcp", "fault:crash", strf("policy ", policy.name, ": ", e.what())});
      continue;
    }
    if (!sim.has_value()) return failures;  // MPCP rejects this system shape

    const InvariantReport mutex = checkMutualExclusion(system, *sim);
    if (!mutex.ok()) {
      failures.push_back({"mpcp", "fault:mutual-exclusion",
                          strf("policy ", policy.name, ": ",
                               mutex.violations.front())});
    }
    const InvariantReport handoff = checkPriorityOrderedHandoff(system, *sim);
    if (!handoff.ok()) {
      failures.push_back({"mpcp", "fault:priority-handoff",
                          strf("policy ", policy.name, ": ",
                               handoff.violations.front())});
    }
  }

  // Neutrality: with NO plan, containment machinery that cannot trigger
  // (budget at grace 1.0, a watchdog that never times out) must leave the
  // schedule byte-identical to a plain run.
  try {
    const auto plain = tryRunProtocol(
        "mpcp", system,
        SimConfig{.horizon_cap = options.horizon_cap, .record_trace = false});
    if (plain.has_value()) {
      const FinishList plain_finishes = finishesOf(plain->jobs);
      fault::ContainmentConfig inert_budget;
      inert_budget.budget_enforce = true;
      inert_budget.grace = 1.0;
      fault::ContainmentConfig inert_watchdog;
      inert_watchdog.holder_watchdog = kTimeInfinity;
      const std::pair<const char*, fault::ContainmentConfig> inert[] = {
          {"budget(grace=1)", inert_budget}, {"watchdog(inf)", inert_watchdog}};
      for (const auto& [label, cc] : inert) {
        SimConfig config{.horizon_cap = options.horizon_cap,
                         .record_trace = false};
        config.containment = cc;
        const auto guarded = tryRunProtocol("mpcp", system, config);
        if (!guarded.has_value()) continue;
        if (const auto diff = diffFinishes(system, plain_finishes, "plain",
                                           finishesOf(guarded->jobs), label)) {
          failures.push_back({"mpcp", "fault:neutral-containment",
                              strf(label, ": ", *diff)});
        }
      }
    }
  } catch (const InvariantError& e) {
    failures.push_back({"mpcp", "fault:crash", e.what()});
  }

  // Differential under faults: the reference simulator mirrors every
  // fault class except processor stalls, so for mirrorable plans the
  // engine under policy "none" must still agree with it tick for tick.
  if (plan.mirrorable()) {
    try {
      SimConfig config{.horizon = options.differential_horizon,
                       .record_trace = false};
      config.fault_plan = &plan;
      const auto engine_small = tryRunProtocol("mpcp", system, config);
      if (engine_small.has_value()) {
        const ReferenceResult ref =
            simulateMpcpReference(system, options.differential_horizon, &plan);
        if (const auto diff =
                diffFinishes(system, finishesOf(engine_small->jobs), "engine",
                             finishesOf(ref.jobs), "reference")) {
          failures.push_back({"mpcp", "fault:cross-reference", *diff});
        }
      }
    } catch (const ConfigError&) {
    } catch (const InvariantError& e) {
      failures.push_back({"mpcp", "fault:crash", e.what()});
    }
  }

  return failures;
}

}  // namespace mpcp::fuzz
