#include "workloads.h"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <filesystem>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "analysis/ceilings.h"
#include "common/check.h"
#include "common/strf.h"
#include "core/analyzer.h"
#include "core/simulate.h"
#include "exec/campaign.h"
#include "exec/journal.h"
#include "exp/sweep_runner.h"
#include "fault/plan.h"
#include "fuzz/fuzzer.h"
#include "fuzz/oracles.h"
#include "fuzz/protocols.h"
#include "fuzz/shrink.h"
#include "sim/reference_mpcp.h"
#include "sim/reference_spin.h"
#include "taskgen/generator.h"
#include "trace/invariants.h"

namespace perfbench {

namespace {

using namespace mpcp;

// Horizon caps of the fuzz and faults workloads. The fuzzer's default
// (200,000) makes one overloaded system cost up to ~35 s, so a 30-s run
// would hold zero to three of them and throughput would swing several-
// fold between seeds. At these caps overloaded, deadline-missing systems
// still take most of the engine time (overload.busy_share: about 0.5 on
// fuzz, 0.7 on faults) while a run holds thousands of operations. The
// single-threaded faults workload gets the lower cap so that it, too,
// runs enough operations for its throughput to repeat across seeds.
constexpr Time kFuzzHorizonCap = 20'000;
constexpr Time kFaultsHorizonCap = 10'000;

// mpcp_cli sweep's defaults (feasible systems at utilisation 0.4 per
// processor, MPCP), except a 400,000-tick horizon instead of 20,000. At
// the default the journal's fsyncs take five times as long as the engine
// in the serial replay, and the four-thread campaign is bound by fsync
// latency alone, which on a shared 4-core VM drifted by 2x within a
// minute. At 400,000 computing a seed on one of four threads takes about
// as long as journaling it, and the replay shows both layers.
constexpr Time kSweepHorizon = 400'000;
constexpr ProtocolKind kSweepProtocol = ProtocolKind::kMpcp;
/// Seeds per campaign; every campaign gets a fresh journal.
constexpr int kSweepCampaignSeeds = 2000;

/// Operations whose engine results make up the output digest; the
/// untraced run replays exactly these.
int digestOps(Workload w) { return w == Workload::kSweep ? 256 : 8; }

int threadsFor(Workload w) { return w == Workload::kFaults ? 1 : 4; }

double clockSeconds(Clock::time_point t) {
  return std::chrono::duration<double>(t.time_since_epoch()).count();
}

double cpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto sec = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           1e-6 * static_cast<double>(tv.tv_usec);
  };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

/// Peak resident memory of the process so far, in MiB.
double peakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

WorkloadParams sweepParams() {
  WorkloadParams p;
  p.processors = 4;
  p.tasks_per_processor = 3;
  p.utilization_per_processor = 0.4;
  p.global_resources = 2;
  p.cs_max = 20;
  p.suspension_prob = 0;
  return p;
}

/// mpcp_cli sweep's row body after generation.
std::string sweepRow(std::uint64_t seed, const ProtocolAnalysis& analysis,
                     const SimResult& r) {
  const obs::Counters& c = r.counters;
  return strf(seed, ',', analysis.report.rta_all ? 1 : 0, ',',
              c.deadline_misses, ',', c.jobs_released, ',', c.jobs_finished,
              ',', c.totalAcquisitions(), ',', c.totalContendedWaits(), ',',
              c.totalHandoffs(), ',', c.preemptions, ',', c.migrations);
}

SimConfig sweepSimConfig() {
  SimConfig config;
  config.horizon = kSweepHorizon;
  config.record_trace = false;
  return config;
}

std::string sweepFingerprint(std::uint64_t seed_base) {
  const WorkloadParams p = sweepParams();
  return strf("sweep-v1 protocol=", toString(kSweepProtocol),
              " seeds=", kSweepCampaignSeeds, " seed=", seed_base,
              " horizon=", kSweepHorizon, " processors=", p.processors,
              " tasks-per-proc=", p.tasks_per_processor,
              " util=", p.utilization_per_processor,
              " resources=", p.global_resources, " cs-max=", p.cs_max,
              " suspend-prob=", p.suspension_prob);
}

/// FNV-1a over per-job finish, blocked and missed, as in
/// bench/engine_throughput's digestOf.
struct Digest {
  std::uint64_t h = 1469598103934665603ull;
  void mix(std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ull;
  }
  void add(const SimResult& r) {
    mix(static_cast<std::uint64_t>(r.jobs.size()));
    for (const JobRecord& jr : r.jobs) {
      mix(static_cast<std::uint64_t>(jr.id.task.value()));
      mix(static_cast<std::uint64_t>(jr.id.instance));
      mix(static_cast<std::uint64_t>(jr.finish));
      mix(static_cast<std::uint64_t>(jr.blocked));
      mix(jr.missed ? 1 : 0);
    }
  }
};

struct EngineTally {
  double busy_s = 0;
  std::uint64_t jobs = 0;
  std::uint64_t trace_events = 0;
};

/// Counts and per-call facts the replay gathers besides the spans.
struct Tally {
  std::map<std::string, EngineTally> engine;  ///< by span name
  double engine_busy_s = 0;
  double engine_overload_busy_s = 0;
  std::int64_t ops = 0;
  std::int64_t overload_ops = 0;
  std::uint64_t analysis_calls = 0;
  std::uint64_t journal_appends = 0;
  std::uint64_t shrink_evaluations = 0;
  std::uint64_t containment_actions = 0;
};

/// One replayed operation: the recorder, the tallies, and whether its
/// engine results feed the digest.
struct OpContext {
  SpanRecorder& rec;
  Tally& tally;
  Digest* digest;  ///< null past the digest operations
  std::int64_t op;
  bool overload = false;
};

/// Runs `f` inside span `name` of the current operation.
template <typename F>
auto inSpan(OpContext& c, const std::string& name, F&& f) -> decltype(f()) {
  Scope scope(c.rec, name, c.op);
  return f();
}

/// Runs one engine call inside span `layer` and tallies its result.
template <typename F>
std::optional<SimResult> engineRun(OpContext& c, const std::string& layer,
                                   F&& f) {
  const int id = c.rec.begin(layer, c.op);
  std::optional<SimResult> r;
  try {
    r = f();
  } catch (...) {
    c.rec.end(id);
    throw;
  }
  c.rec.end(id);
  if (id < 0) return r;  // not recording: no duration to tally
  const Span& s = c.rec.spans()[static_cast<std::size_t>(id)];
  const double d = s.end_s - s.start_s;
  if (!r.has_value()) return r;
  EngineTally& t = c.tally.engine[layer];
  t.busy_s += d;
  t.jobs += r->counters.jobs_released;
  t.trace_events += r->trace.size();
  c.tally.engine_busy_s += d;
  if (r->any_deadline_miss) {
    c.tally.engine_overload_busy_s += d;
    c.overload = true;
  }
  if (c.digest != nullptr) c.digest->add(*r);
  return r;
}

// ---------------------------------------------------------------------
// Replays of the oracle suites. Each mirrors the calls fuzz/oracles.cc
// makes, in the same order and with the same configurations, but keeps
// none of the verdict logic: the verdicts come from the untraced real
// oracle run beside it, and whatever the oracle does that no span covers
// (finish-map diffs, the private spin-yield audit) shows as
// fuzz.oracle_self_s.

void replayCheckSystem(OpContext& c, const TaskSystem& sys,
                       const fuzz::OracleOptions& o) {
  const SimConfig config{.horizon_cap = o.horizon_cap};
  const PriorityTables tables(sys);
  std::map<std::string, bool> ran;
  for (const std::string& name : fuzz::protocolNames()) {
    std::optional<SimResult> sim;
    try {
      sim = engineRun(c, "sim." + name,
                      [&] { return fuzz::tryRunProtocol(name, sys, config); });
    } catch (const InvariantError&) {
      continue;
    }
    if (!sim.has_value()) continue;
    inSpan(c, "trace.invariants", [&] {
      (void)checkMutualExclusion(sys, *sim);
      if (name != "none" && name != "pip" && name != "spin-fifo") {
        (void)checkPriorityOrderedHandoff(sys, *sim);
      }
      if (name == "mpcp") {
        (void)checkGcsPreemptionRule(sys, *sim);
        (void)checkGcsPriorityAssignment(sys, *sim, tables,
                                         GcsPriorityRule::kSharedMemory);
      }
      if (name == "dpcp") {
        (void)checkGcsPriorityAssignment(sys, *sim, tables,
                                         GcsPriorityRule::kMessageBased);
      }
    });
    inSpan(c, "analysis", [&] {
      ++c.tally.analysis_calls;
      (void)fuzz::tryAnalyzeProtocol(name, sys);
    });
    ran[name] = true;
  }

  const SimConfig small{.horizon = o.differential_horizon,
                        .record_trace = false};
  if (ran.count("mpcp") != 0) {
    try {
      const auto engine_small = engineRun(c, "sim.mpcp", [&] {
        return fuzz::tryRunProtocol("mpcp", sys, small);
      });
      if (engine_small.has_value()) {
        inSpan(c, "sim.reference", [&] {
          (void)simulateMpcpReference(sys, o.differential_horizon);
        });
      }
    } catch (const InvariantError&) {
    }
    try {
      engineRun(c, "core.hybrid_cross", [&]() -> std::optional<SimResult> {
        return simulateHybrid(sys, HybridPolicy::allShared(sys), config);
      });
    } catch (const ConfigError&) {
    } catch (const InvariantError&) {
    }
  }
  for (const char* sname : {"spin-fifo", "spin-prio"}) {
    if (ran.count(sname) == 0) continue;
    try {
      const auto engine_small = engineRun(c, strf("sim.", sname), [&] {
        return fuzz::tryRunProtocol(sname, sys, small);
      });
      if (engine_small.has_value()) {
        inSpan(c, "sim.reference", [&] {
          (void)simulateSpinReference(sys, o.differential_horizon,
                                      std::string_view(sname) == "spin-prio");
        });
      }
    } catch (const InvariantError&) {
    }
  }
  if (ran.count("dpcp") != 0) {
    try {
      engineRun(c, "core.hybrid_cross", [&]() -> std::optional<SimResult> {
        return simulateHybrid(sys, HybridPolicy::allMessage(sys), config);
      });
    } catch (const ConfigError&) {
    } catch (const InvariantError&) {
    }
  }
}

void replayCheckSystemFaults(OpContext& c, const TaskSystem& sys,
                             const fault::FaultPlan& plan,
                             const fuzz::FaultOracleOptions& o) {
  for (const fuzz::FaultPolicy& policy : fuzz::faultPolicies(o)) {
    SimConfig config{.horizon_cap = o.horizon_cap};
    config.fault_plan = &plan;
    config.containment = policy.config;
    std::optional<SimResult> sim;
    try {
      sim = engineRun(c, "sim.armed",
                      [&] { return fuzz::tryRunProtocol("mpcp", sys, config); });
    } catch (const InvariantError&) {
      continue;
    }
    if (!sim.has_value()) return;
    c.tally.containment_actions += sim->counters.faults_contained;
    inSpan(c, "trace.invariants", [&] {
      (void)checkMutualExclusion(sys, *sim);
      (void)checkPriorityOrderedHandoff(sys, *sim);
    });
  }

  try {
    const auto plain = engineRun(c, "sim.inert", [&] {
      return fuzz::tryRunProtocol(
          "mpcp", sys,
          SimConfig{.horizon_cap = o.horizon_cap, .record_trace = false});
    });
    if (plain.has_value()) {
      fault::ContainmentConfig inert_budget;
      inert_budget.budget_enforce = true;
      inert_budget.grace = 1.0;
      fault::ContainmentConfig inert_watchdog;
      inert_watchdog.holder_watchdog = kTimeInfinity;
      for (const fault::ContainmentConfig& cc :
           {inert_budget, inert_watchdog}) {
        SimConfig config{.horizon_cap = o.horizon_cap, .record_trace = false};
        config.containment = cc;
        engineRun(c, "sim.inert",
                  [&] { return fuzz::tryRunProtocol("mpcp", sys, config); });
      }
    }
  } catch (const InvariantError&) {
  }

  if (plan.mirrorable()) {
    try {
      SimConfig config{.horizon = o.differential_horizon,
                       .record_trace = false};
      config.fault_plan = &plan;
      const auto engine_small = engineRun(
          c, "sim.armed",
          [&] { return fuzz::tryRunProtocol("mpcp", sys, config); });
      if (engine_small.has_value()) {
        inSpan(c, "sim.reference_plan", [&] {
          (void)simulateMpcpReference(sys, o.differential_horizon, &plan);
        });
      }
    } catch (const ConfigError&) {
    } catch (const InvariantError&) {
    }
  }
}

bool isCrash(const std::string& oracle) {
  return oracle.rfind("crash:", 0) == 0 || oracle == "fault:crash";
}

/// What the end-to-end phase produced, for the metrics and for the
/// replay to check against. The phase runs in chunks (fuzz: runFuzz
/// calls over consecutive run ranges; sweep: campaigns); ops_per_s is
/// the median over chunks, so a burst of load from outside the benchmark
/// or one unusually heavy chunk moves it little.
struct EndToEnd {
  std::int64_t ops = 0;
  double wall_s = 0;
  double cpu_s = 0;
  std::vector<double> chunk_ops_per_s;
  double peak_rss_mb = 0;
  std::int64_t failed = 0;
  std::vector<std::string> check_failures;
  // fuzz / faults: the first failure of each run that became a finding,
  // by global run index, and the run ranges [lo, hi) over which that map
  // is complete (a runFuzz call stops recording after max_findings).
  std::map<std::int64_t, std::pair<std::string, std::string>> findings;
  std::vector<std::pair<std::int64_t, std::int64_t>> findings_complete;
  // sweep: every journaled row, in global seed order.
  std::vector<std::string> rows;

  [[nodiscard]] bool findingsKnown(std::int64_t run) const {
    for (const auto& [lo, hi] : findings_complete) {
      if (lo <= run && run < hi) return true;
    }
    return false;
  }
};

/// Chunks of the fuzz and faults end-to-end phase.
constexpr int kFuzzChunks = 10;

/// Set-up shared by every workload: the pool (MPCP_THREADS) and the
/// protocol registry. The journal is opened by the first campaign.
void setUp(const RunOptions& o) {
  (void)exp::SweepRunner::global();
  (void)fuzz::protocolNames();
  std::filesystem::create_directories(o.work_dir + "/corpus");
}

fuzz::FuzzOptions fuzzOptions(const RunOptions& o, double budget_s) {
  fuzz::FuzzOptions f;
  f.runs = static_cast<int>(kOpsPerBase);
  f.seed = seedBase(o.workload, o.seed);
  f.time_budget_s = budget_s;
  f.corpus_dir = o.work_dir + "/corpus";
  f.faults = o.workload == Workload::kFaults;
  f.horizon_cap = f.faults ? kFaultsHorizonCap : kFuzzHorizonCap;
  return f;
}

EndToEnd runFuzzEndToEnd(const RunOptions& o, double budget_s,
                         RunOutcome& out) {
  EndToEnd e;
  const std::uint64_t base = seedBase(o.workload, o.seed);
  for (int k = 0; k < kFuzzChunks; ++k) {
    fuzz::FuzzOptions f = fuzzOptions(o, budget_s / kFuzzChunks);
    f.seed = base + static_cast<std::uint64_t>(e.ops);
    f.runs -= static_cast<int>(e.ops);  // stay inside this seed's range
    std::ostringstream log;
    const double cpu0 = cpuSeconds();
    if (k == 0) out.dispatch_clock_s = clockSeconds(Clock::now());
    const fuzz::FuzzReport report = fuzz::runFuzz(f, log);
    e.cpu_s += cpuSeconds() - cpu0;
    e.wall_s += report.elapsed_s;
    e.chunk_ops_per_s.push_back(
        report.runs_executed / std::max(report.elapsed_s, 1e-9));
    std::cerr << log.str();
    std::int64_t complete = report.runs_executed;
    for (const fuzz::FuzzFinding& finding : report.findings) {
      const std::int64_t run = e.ops + finding.run_index;
      e.findings[run] = {finding.failure.protocol, finding.failure.oracle};
      if (isCrash(finding.failure.oracle)) {
        ++e.failed;
        e.check_failures.push_back(strf("run ", run, ": ",
                                        finding.failure.oracle, " [",
                                        finding.failure.protocol, "]"));
      }
    }
    if (static_cast<int>(report.findings.size()) >= f.max_findings) {
      complete = report.findings.back().run_index + 1;
    }
    e.findings_complete.emplace_back(e.ops, e.ops + complete);
    e.ops += report.runs_executed;
  }
  e.peak_rss_mb = peakRssMb();
  return e;
}

EndToEnd runSweepEndToEnd(const RunOptions& o, double budget_s,
                          RunOutcome& out) {
  EndToEnd e;
  const std::uint64_t base = seedBase(o.workload, o.seed);
  const WorkloadParams params = sweepParams();
  std::atomic<bool> dispatched{false};
  std::uint64_t campaign_base = base;
  const auto body = [&](int s, Rng& rng) -> std::string {
    if (!dispatched.exchange(true)) {
      out.dispatch_clock_s = clockSeconds(Clock::now());
    }
    const TaskSystem sys = generateWorkload(params, rng);
    const ProtocolAnalysis analysis = analyzeUnder(kSweepProtocol, sys);
    const SimResult r = simulate(kSweepProtocol, sys, sweepSimConfig());
    return sweepRow(campaign_base + static_cast<std::uint64_t>(s), analysis,
                    r);
  };

  const Clock::time_point start = Clock::now();
  const int campaigns_max = static_cast<int>(kOpsPerBase / kSweepCampaignSeeds);
  for (int k = 0; k < campaigns_max; ++k) {
    const int seeds = o.setup_probe ? 1 : kSweepCampaignSeeds;
    campaign_base = base + static_cast<std::uint64_t>(e.rows.size());
    exec::CampaignOptions copt;
    copt.journal_path = strf(o.work_dir, "/sweep-", k, ".journal");
    copt.config_fingerprint = sweepFingerprint(campaign_base);
    std::filesystem::remove(copt.journal_path);

    const Clock::time_point t0 = Clock::now();
    const double cpu0 = cpuSeconds();
    const exec::CampaignOutcome outcome = exec::runCampaign(
        exp::SweepRunner::global(), seeds, campaign_base, copt, body);
    e.cpu_s += cpuSeconds() - cpu0;
    const double wall = std::chrono::duration<double>(Clock::now() - t0).count();
    e.chunk_ops_per_s.push_back(seeds / wall);
    e.wall_s += wall;
    e.ops += seeds;
    if (o.setup_probe) {
      std::filesystem::remove(copt.journal_path);
      return e;
    }

    // Output checks: the journal reloads clean and holds every seed as
    // done, byte-equal to the payload the campaign returned.
    const exec::JournalLoad load = exec::loadJournalFile(copt.journal_path);
    const auto done = load.completed();
    if (load.corrupt_lines != 0 || load.torn_tail ||
        load.meta != copt.config_fingerprint) {
      e.check_failures.push_back(
          strf("campaign ", k, ": journal reload found ", load.corrupt_lines,
               " corrupt lines, torn tail ", load.torn_tail ? 1 : 0,
               ", meta ", load.meta == copt.config_fingerprint ? "ok" : "bad"));
    }
    for (int s = 0; s < seeds; ++s) {
      const auto& payload = outcome.payloads[static_cast<std::size_t>(s)];
      const auto it = done.find(exec::runKey(campaign_base, s));
      const bool ok = payload.has_value() && it != done.end() &&
                      it->second == *payload;
      if (!ok) {
        ++e.failed;
        if (e.check_failures.size() < 20) {
          e.check_failures.push_back(
              strf("seed ", campaign_base + static_cast<std::uint64_t>(s),
                   ": not journaled as done with its row"));
        }
      }
      e.rows.push_back(payload.value_or(""));
    }
    std::filesystem::remove(copt.journal_path);
    if (std::chrono::duration<double>(Clock::now() - start).count() >=
        budget_s) {
      break;
    }
  }
  e.peak_rss_mb = peakRssMb();
  return e;
}

/// What one operation replays: its system, its fault plan (faults), and
/// the oracle settings the tools use.
struct OpInput {
  Workload workload;
  const TaskSystem* sys;
  const fault::FaultPlan* plan;
  const fuzz::OracleOptions* oracle;
  const fuzz::FaultOracleOptions* fault_oracle;
  std::uint64_t seed;  ///< sweep: the seed written into the row
};

/// The layer calls of one operation's body, each in its own span of
/// `c`. Returns the sweep row ("" for fuzz and faults).
std::string replayLayers(OpContext& c, const OpInput& in) {
  switch (in.workload) {
    case Workload::kFuzz:
      replayCheckSystem(c, *in.sys, *in.oracle);
      return "";
    case Workload::kFaults:
      replayCheckSystemFaults(c, *in.sys, *in.plan, *in.fault_oracle);
      return "";
    case Workload::kSweep: {
      const ProtocolAnalysis analysis = inSpan(c, "analysis", [&] {
        ++c.tally.analysis_calls;
        return analyzeUnder(kSweepProtocol, *in.sys);
      });
      const auto r = engineRun(c, "sim.clean", [&] {
        return std::optional<SimResult>(
            simulate(kSweepProtocol, *in.sys, sweepSimConfig()));
      });
      return sweepRow(in.seed, analysis, *r);
    }
  }
  return "";
}

/// Replays operations 0, 1, ... serially until `min_ops` are done and
/// `budget_s` has passed (or the end-to-end phase's operations run out),
/// checking each against the end-to-end outputs.
struct ReplayResult {
  Tally tally;
  std::int64_t failed = 0;
  std::vector<std::string> check_failures;
};

ReplayResult replay(const RunOptions& o, const EndToEnd& e,
                    SpanRecorder& rec, std::int64_t min_ops,
                    double budget_s, Digest& digest) {
  ReplayResult rr;
  const Clock::time_point start = Clock::now();
  const fuzz::FuzzOptions f = fuzzOptions(o, 0);
  fuzz::OracleOptions oracle;
  oracle.horizon_cap = f.horizon_cap;
  oracle.differential_horizon = f.differential_horizon;
  fuzz::FaultOracleOptions fault_oracle;
  fault_oracle.horizon_cap = f.horizon_cap;
  fault_oracle.differential_horizon = f.differential_horizon;
  fault_oracle.grace = f.fault_grace;
  fault_oracle.watchdog_timeout = f.fault_watchdog;
  const bool sweep = o.workload == Workload::kSweep;
  const bool faults = o.workload == Workload::kFaults;

  std::unique_ptr<exec::CampaignJournal> journal;
  const std::string journal_path = o.work_dir + "/replay.journal";
  if (sweep) {
    std::filesystem::remove(journal_path);
    journal = std::make_unique<exec::CampaignJournal>(journal_path);
    journal->append(exec::RecordKind::kMeta, "config",
                    sweepFingerprint(f.seed));
  }

  const auto fail = [&rr](std::string what) {
    ++rr.failed;
    if (rr.check_failures.size() < 20) {
      rr.check_failures.push_back(std::move(what));
    }
  };

  // The untraced twin of each replay records nothing and tallies into a
  // scratch Tally; only its span's duration counts (trace.overhead).
  SpanRecorder quiet(false);
  Tally scratch;

  for (std::int64_t i = 0; i < e.ops; ++i) {
    if (i >= min_ops &&
        std::chrono::duration<double>(Clock::now() - start).count() >=
            budget_s) {
      break;
    }
    OpContext c{rec, rr.tally, i < digestOps(o.workload) ? &digest : nullptr,
                i};
    Scope op(rec, "op", i);
    const std::uint64_t seed = f.seed + static_cast<std::uint64_t>(i);
    const std::string key = exec::runKey(f.seed, static_cast<int>(i));
    const auto append = [&](exec::RecordKind kind, const std::string& payload) {
      ++rr.tally.journal_appends;
      inSpan(c, "exec.journal.append",
             [&] { journal->append(kind, key, payload); });
    };
    if (sweep) append(exec::RecordKind::kStart, "");

    // The fuzzer's and the sweep's per-run stream: Rng(seed base + i).
    std::optional<fault::FaultPlan> plan;
    const TaskSystem sys = inSpan(c, "taskgen.generate", [&] {
      Rng rng(seed);
      if (sweep) return generateWorkload(sweepParams(), rng);
      const WorkloadParams params = fuzz::drawWorkloadParams(rng);
      TaskSystem s = generateWorkload(params, rng);
      if (faults) plan = fault::FaultPlan::random(rng, s, f.fault_count);
      return s;
    });
    std::vector<fuzz::OracleFailure> failures;
    if (!sweep) {
      failures = inSpan(
          c, faults ? "fuzz.checkSystemFaults" : "fuzz.checkSystem", [&] {
            return faults ? fuzz::checkSystemFaults(sys, *plan, fault_oracle)
                          : fuzz::checkSystem(sys, oracle);
          });
    }

    // Traced and untraced replays alternate which goes first, so neither
    // is favoured by the caches the other warmed.
    const OpInput in{o.workload, &sys, plan ? &*plan : nullptr, &oracle,
                     &fault_oracle, seed};
    std::string row;
    std::string untraced_row;
    for (int pass = 0; pass < 2; ++pass) {
      if ((pass == 0) == (i % 2 == 0)) {
        Scope traced(rec, "replay", i);
        row = replayLayers(c, in);
      } else {
        Scope untraced(rec, "replay.untraced", i);
        OpContext q{quiet, scratch, nullptr, i};
        untraced_row = replayLayers(q, in);
      }
    }

    if (sweep) {
      append(exec::RecordKind::kDone, row);
      const std::string& journaled = e.rows[static_cast<std::size_t>(i)];
      if (row != untraced_row || row != journaled) {
        fail(strf("seed ", seed, ": replayed row '", row,
                  "' differs from the journaled row '", journaled, "'"));
      }
    }

    const auto found = e.findings.find(i);
    if (!sweep && !faults && found != e.findings.end() && f.shrink) {
      // The fold's shrink: narrowed to the finding's protocol.
      inSpan(c, "fuzz.shrink", [&] {
        fuzz::OracleOptions narrowed = oracle;
        narrowed.protocols = {found->second.first};
        const std::string target = found->second.second;
        const auto still_violates = [&](const TaskSystem& candidate) {
          for (const fuzz::OracleFailure& x :
               fuzz::checkSystem(candidate, narrowed)) {
            if (x.oracle == target) return true;
          }
          return false;
        };
        if (still_violates(sys)) {
          rr.tally.shrink_evaluations += static_cast<std::uint64_t>(
              fuzz::shrinkSystem(sys, still_violates,
                                 f.max_shrink_evaluations)
                  .evaluations);
        }
      });
    }
    for (const fuzz::OracleFailure& x : failures) {
      if (isCrash(x.oracle)) {
        fail(strf("run ", i, ": ", x.oracle, " [", x.protocol, "]"));
      }
    }
    if (!sweep && e.findingsKnown(i)) {
      const bool e2e_found = found != e.findings.end();
      if (e2e_found != !failures.empty() ||
          (e2e_found && (found->second.first != failures.front().protocol ||
                         found->second.second != failures.front().oracle))) {
        fail(strf("run ", i,
                  ": the end-to-end findings and the serial replay disagree"));
      }
    }
    ++rr.tally.ops;
    if (c.overload) ++rr.tally.overload_ops;
  }
  if (journal) {
    journal.reset();
    const exec::JournalLoad load = exec::loadJournalFile(journal_path);
    if (load.corrupt_lines != 0 || load.torn_tail ||
        static_cast<std::int64_t>(load.completed().size()) != rr.tally.ops) {
      fail("the replay journal does not reload clean");
    }
    std::filesystem::remove(journal_path);
  }
  return rr;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// The per-layer metrics of a traced run, from the replay's spans.
std::vector<Metric> perLayer(const EndToEnd& e, const ReplayResult& rr,
                             const SpanRecorder& rec, int threads) {
  const std::vector<Span>& spans = rec.spans();
  const std::map<std::string, double> self = selfTimeByName(spans, "op");
  const auto selfOf = [&self](const std::string& name) {
    const auto it = self.find(name);
    return it == self.end() ? 0.0 : it->second;
  };
  const Tally& t = rr.tally;
  std::vector<Metric> m;
  const auto add = [&m](std::string name, double v, const char* unit) {
    m.push_back({std::move(name), v, unit});
  };
  const auto engine = [&](const std::string& layer, bool with_counts) {
    const auto it = t.engine.find(layer);
    const EngineTally et = it == t.engine.end() ? EngineTally{} : it->second;
    add(layer + ".busy_s", et.busy_s, "s");
    add(layer + ".ns_per_job",
        et.jobs > 0 ? 1e9 * et.busy_s / static_cast<double>(et.jobs) : 0,
        "ns/job");
    if (with_counts) {
      add(layer + ".jobs", static_cast<double>(et.jobs), "count");
      add(layer + ".trace_events", static_cast<double>(et.trace_events),
          "count");
    }
  };
  for (const std::string& name : fuzz::protocolNames()) {
    engine("sim." + name, true);
  }
  add("overload.ops_share",
      ratio(static_cast<double>(t.overload_ops), static_cast<double>(t.ops)),
      "ratio");
  add("overload.busy_share", ratio(t.engine_overload_busy_s, t.engine_busy_s),
      "ratio");

  // Totals by span kind; per op, the time outside its two replays.
  double op_total = 0;
  double oracle = 0;
  double untraced = 0;
  double replayed = 0;
  double replay_children = 0;
  std::vector<double> append_ms;
  std::map<std::int64_t, double> op_outside_replays;
  for (const Span& s : spans) {
    const double d = s.end_s - s.start_s;
    if (s.name == "op") {
      op_total += d;
      op_outside_replays[s.op] += d;
    } else if (s.name == "replay" || s.name == "replay.untraced") {
      (s.name == "replay" ? replayed : untraced) += d;
      op_outside_replays[s.op] -= d;
    } else if (s.name == "fuzz.checkSystem" ||
               s.name == "fuzz.checkSystemFaults") {
      oracle += d;
    } else if (s.name == "exec.journal.append") {
      append_ms.push_back(1e3 * d);
    }
    if (s.parent >= 0 &&
        spans[static_cast<std::size_t>(s.parent)].name == "replay") {
      replay_children += d;
    }
  }
  std::vector<double> op_ms;
  for (const auto& [op, seconds] : op_outside_replays) {
    op_ms.push_back(1e3 * seconds);
  }

  add("trace.invariants.busy_s", selfOf("trace.invariants"), "s");
  add("core.hybrid_cross.busy_s", selfOf("core.hybrid_cross"), "s");
  add("sim.reference.busy_s", selfOf("sim.reference"), "s");
  add("fuzz.oracle_self_s", oracle > 0 ? oracle - replay_children : 0, "s");
  add("fuzz.shrink.busy_s", selfOf("fuzz.shrink"), "s");
  add("fuzz.shrink.evaluations", static_cast<double>(t.shrink_evaluations),
      "count");
  engine("sim.armed", false);
  add("sim.inert.busy_s", selfOf("sim.inert"), "s");
  add("sim.reference_plan.busy_s", selfOf("sim.reference_plan"), "s");
  add("fault.containment_actions",
      static_cast<double>(t.containment_actions), "count");
  engine("sim.clean", false);
  add("analysis.busy_s", selfOf("analysis"), "s");
  add("analysis.calls", static_cast<double>(t.analysis_calls), "count");
  add("taskgen.busy_s", selfOf("taskgen.generate"), "s");
  add("exec.journal.appends", static_cast<double>(t.journal_appends), "count");
  add("exec.journal.append_busy_s", selfOf("exec.journal.append"), "s");
  const Summary appends = summarize(append_ms);
  add("exec.journal.append_ms.p50", appends.p50, "ms");
  add("exec.journal.append_ms.tail", appends.tail, "ms");
  add("exec.journal.append_ms.tail_pct", appends.tail_pct, "pct");
  add("exec.journal.append_ms.samples", static_cast<double>(appends.samples),
      "count");
  add("exp.pool_utilization",
      ratio(e.cpu_s, static_cast<double>(threads) * e.wall_s), "ratio");
  const Summary ops = summarize(op_ms);
  add("exp.op_ms.p50", ops.p50, "ms");
  add("exp.op_ms.max", ops.max, "ms");
  add("exp.op_ms.tail", ops.tail, "ms");
  add("exp.op_ms.tail_pct", ops.tail_pct, "pct");
  add("exp.op_ms.samples", static_cast<double>(ops.samples), "count");
  add("trace.overhead", ratio(replayed, untraced), "ratio");

  // Self times partition the op trees: every layer's self time plus the
  // unattributed residual (self time of "op" and "replay") is the total.
  double attributed = 0;
  for (const auto& [name, v] : self) {
    if (name != "op" && name != "replay") attributed += v;
  }
  const double residual = selfOf("op") + selfOf("replay");
  add("trace.op_s", op_total, "s");
  add("trace.residual_s", residual, "s");
  add("trace.ops", static_cast<double>(t.ops), "count");
  if (std::abs(attributed + residual - op_total) >
      1e-6 * std::max(1.0, op_total)) {
    throw std::logic_error(strf("self times sum to ", attributed + residual,
                                " s but the ops took ", op_total, " s"));
  }
  return m;
}

}  // namespace

Workload parseWorkload(const std::string& name) {
  if (name == "fuzz") return Workload::kFuzz;
  if (name == "faults") return Workload::kFaults;
  if (name == "sweep") return Workload::kSweep;
  throw std::invalid_argument("unknown workload '" + name +
                              "' (fuzz, faults, sweep)");
}

RunOutcome runWorkload(const RunOptions& o) {
  if (exp::SweepRunner::global().threadCount() != threadsFor(o.workload)) {
    throw std::invalid_argument(
        strf("workload needs MPCP_THREADS=", threadsFor(o.workload)));
  }
  RunOutcome out;
  setUp(o);
  if (o.setup_probe && o.workload != Workload::kSweep) {
    out.dispatch_clock_s = clockSeconds(Clock::now());
    return out;
  }
  const double e2e_budget = o.trace ? o.seconds / 2 : o.seconds;
  const EndToEnd e = o.workload == Workload::kSweep
                         ? runSweepEndToEnd(o, e2e_budget, out)
                         : runFuzzEndToEnd(o, e2e_budget, out);
  if (o.setup_probe) return out;

  SpanRecorder rec;
  Digest digest;
  const ReplayResult rr =
      replay(o, e, rec, std::min<std::int64_t>(digestOps(o.workload), e.ops),
             o.trace ? o.seconds / 2 : 0, digest);
  out.digest = digest.h;
  out.attempted = e.ops;
  out.failed = std::min(e.ops, e.failed + rr.failed);
  out.check_failures = e.check_failures;
  out.check_failures.insert(out.check_failures.end(), rr.check_failures.begin(),
                            rr.check_failures.end());
  if (e.ops < digestOps(o.workload)) {
    out.check_failures.push_back(
        strf("only ", e.ops, " operations ran; the digest needs ",
             digestOps(o.workload)));
  }

  if (!o.trace) {
    out.metrics = {
        {"ops_per_s", median(e.chunk_ops_per_s), "1/s"},
        {"peak_rss_mb", e.peak_rss_mb, "MB"},
    };
    return out;
  }
  out.metrics = perLayer(e, rr, rec, threadsFor(o.workload));
  if (!writeChromeTrace(o.trace_path, rec.spans())) {
    out.check_failures.push_back("could not write " + o.trace_path);
  }
  return out;
}

}  // namespace perfbench
