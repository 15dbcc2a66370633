// mpcp_cli — drive the library from the shell.
//
//   mpcp_cli tables   <file>
//   mpcp_cli analyze  <file> [--protocol PROTO] [--no-deferred]
//                            [--paper-literal-f5]
//   mpcp_cli simulate <file> [--protocol PROTO]
//                            [--horizon N] [--gantt [END]] [--narrative]
//                            [--csv PREFIX] [--perfetto FILE]
//
// PROTO names come from the protocol registry
// (core/protocol_registry.h): none, none-prio, pip, pcp, mpcp, dpcp,
// hybrid, spin-fifo, spin-prio.
//   mpcp_cli stats    <file> [--protocol ...] [--horizon N] [--out FILE]
//   mpcp_cli stats    --sweep [--protocol ...] [--seeds N] [--seed N]
//                     [--horizon N] [generator knobs as for generate]
//   mpcp_cli sweep    [--protocol ...] [--seeds N] [--seed N] [--horizon N]
//                     [--out FILE.csv] [--journal FILE] [--resume]
//                     [--isolate] [--wall-limit S] [--rss-limit-mb N]
//                     [--retries N] [--retry-base-ms N] [--jitter-seed N]
//
// A flag the subcommand does not read is a usage error (exit 2).
//   mpcp_cli generate [--seed N] [--processors N] [--tasks-per-proc N]
//                     [--util X] [--resources N] [--cs-max N]
//                     [--suspend-prob X]
//   mpcp_cli faults   <file> [--plan SPEC | --random N [--seed S]]
//                            [--policy none|csv] [--grace X]
//                            [--watchdog-timeout N] [--protocol ...]
//                            [--horizon N] [--counters] [--perfetto FILE]
//
// Task-system files use the format documented in model/serialize.h.
// `generate` writes one to stdout, so the commands compose:
//   mpcp_cli generate --seed 7 > w.mpcp && mpcp_cli analyze w.mpcp
#include <array>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "analysis/report.h"
#include "analysis/sensitivity.h"
#include "common/rng.h"
#include "common/strf.h"
#include "core/analyzer.h"
#include "core/protocol_registry.h"
#include "core/simulate.h"
#include "exec/campaign.h"
#include "exec/interrupt.h"
#include "exec/subprocess.h"
#include "exp/counter_sweep.h"
#include "fault/plan.h"
#include "model/serialize.h"
#include "taskgen/generator.h"
#include "cli_util.h"
#include "trace/export.h"
#include "trace/gantt.h"
#include "trace/invariants.h"
#include "trace/perfetto.h"

using namespace mpcp;

namespace {

int usage() {
  std::cerr <<
      "usage: mpcp_cli <tables|analyze|simulate|stats|sweep|generate|"
      "sensitivity|faults> [args]\n"
      "  (--protocol PROTO is one of: none|none-prio|pip|pcp|mpcp|dpcp|\n"
      "   hybrid|spin-fifo|spin-prio)\n"
      "  tables   <file>\n"
      "  analyze  <file> [--protocol PROTO] [--no-deferred]\n"
      "                  [--paper-literal-f5]\n"
      "  simulate <file> [--protocol PROTO] [--horizon N]\n"
      "                  [--gantt [END]] [--narrative] [--csv PREFIX]\n"
      "                  [--perfetto FILE]\n"
      "  stats    <file> [--protocol PROTO] [--horizon N]\n"
      "           [--out FILE]\n"
      "  stats    --sweep [--protocol ...] [--seeds N] [--seed N]\n"
      "           [--horizon N] [--out FILE]\n"
      "           [generator knobs as for generate]\n"
      "  sweep    [--protocol ...] [--seeds N] [--seed N] [--horizon N]\n"
      "           [generator knobs as for generate] [--out FILE.csv]\n"
      "           [--journal FILE] [--resume] [--isolate]\n"
      "           [--wall-limit SECONDS] [--rss-limit-mb N]\n"
      "           [--retries N] [--retry-base-ms N] [--jitter-seed N]\n"
      "           (testing aids: [--per-run-sleep-ms N] [--crash-seed K])\n"
      "  generate [--seed N] [--processors N] [--tasks-per-proc N]\n"
      "           [--util X] [--resources N] [--cs-max N] [--suspend-prob X]\n"
      "  sensitivity <file> [--protocol PROTO]\n"
      "  faults   <file> [--plan SPEC | --random N [--seed S]]\n"
      "           [--policy none|budget-enforce,job-abort,skip-next-release,\n"
      "            watchdog] [--grace X] [--watchdog-timeout N]\n"
      "           [--protocol ...] [--horizon N] [--counters]\n"
      "           [--perfetto FILE]\n";
  return 2;
}

TaskSystem load(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw ConfigError("cannot open '" + path + "'");
  return parseTaskSystem(in);
}

ProtocolKind protocolFromName(const std::string& name) {
  // Registry lookup: an unknown name throws ConfigError listing every
  // known protocol (main prints it and exits 2, no usage reprint — the
  // invocation shape was fine, the name was not).
  return protocolKindFromName(name);
}

/// Pull "--flag value" / "--flag" options out of argv.
struct Args {
  std::vector<std::string> positional;
  std::map<std::string, std::string> options;  // value "" = bare flag

  bool has(const std::string& key) const { return options.count(key) != 0; }
  std::string get(const std::string& key, const std::string& fallback) const {
    const auto it = options.find(key);
    return it == options.end() || it->second.empty() ? fallback : it->second;
  }
};

Args parseArgs(int argc, char** argv, int first) {
  Args args;
  for (int i = first; i < argc; ++i) {
    const std::string a = argv[i];
    if (a.rfind("--", 0) == 0) {
      std::string value;
      if (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0) {
        value = argv[++i];
      }
      args.options[a.substr(2)] = value;
    } else {
      args.positional.push_back(a);
    }
  }
  return args;
}

int cmdTables(const Args& args) {
  if (args.positional.empty()) return usage();
  const TaskSystem sys = load(args.positional[0]);
  const PriorityTables tables(sys);
  std::cout << "=== priority ceilings ===\n"
            << renderCeilingTable(sys, tables)
            << "\n=== gcs execution priorities ===\n"
            << renderGcsPriorityTable(sys, tables);
  return 0;
}

int cmdAnalyze(const Args& args) {
  if (args.positional.empty()) return usage();
  const TaskSystem sys = load(args.positional[0]);
  const ProtocolKind kind = protocolFromName(args.get("protocol", "mpcp"));
  AnalyzerOptions options;
  options.mpcp.include_deferred_execution = !args.has("no-deferred");
  options.dpcp.include_deferred_execution = !args.has("no-deferred");
  options.mpcp.paper_literal_factor5 = args.has("paper-literal-f5");
  const ProtocolAnalysis analysis = analyzeUnder(kind, sys, options);
  std::cout << "protocol: " << toString(kind) << "\n"
            << renderScheduleReport(sys, analysis.report);
  return analysis.report.rta_all ? 0 : 1;
}

int cmdSimulate(const Args& args) {
  if (args.positional.empty()) return usage();
  const TaskSystem sys = load(args.positional[0]);
  const ProtocolKind kind = protocolFromName(args.get("protocol", "mpcp"));
  // Probe output paths before simulating, so a typo'd path fails in
  // milliseconds instead of after the run.
  const std::string csv_prefix = args.get("csv", "out");
  if (args.has("csv")) {
    for (const char* suffix : {"_jobs.csv", "_trace.csv", "_segments.csv"}) {
      cli::probeWritableFile("--csv", csv_prefix + suffix);
    }
  }
  const std::string perfetto_path = args.get("perfetto", "trace.perfetto.json");
  if (args.has("perfetto")) {
    cli::probeWritableFile("--perfetto", perfetto_path);
  }
  SimConfig config;
  config.horizon =
      cli::parseInt("--horizon", args.get("horizon", "0"), 0, kTimeInfinity);
  const SimResult r = simulate(kind, sys, config);

  std::cout << "protocol " << toString(kind) << ", horizon " << r.horizon
            << ": " << (r.any_deadline_miss ? "DEADLINE MISS" : "no misses")
            << "\n";
  for (const TaskStats& st : r.per_task) {
    const Task& t = sys.task(st.task);
    std::cout << "  " << t.name << ": jobs=" << st.jobs_finished
              << " max-response=" << st.max_response
              << " max-blocking=" << st.max_blocked
              << " misses=" << st.deadline_misses << "\n";
  }
  const InvariantReport rep = checkMutualExclusion(sys, r);
  if (!rep.ok()) {
    std::cout << "INVARIANT VIOLATION: " << rep.violations.front() << "\n";
  }

  if (args.has("gantt")) {
    GanttOptions g;
    const std::string end = args.get("gantt", "");
    if (!end.empty()) g.end = cli::parseInt("--gantt", end, 1, kTimeInfinity);
    std::cout << "\n" << renderGantt(sys, r, g);
  }
  if (args.has("narrative")) {
    std::cout << "\n" << renderNarrative(sys, r);
  }
  if (args.has("csv")) {
    std::ofstream jobs(csv_prefix + "_jobs.csv");
    writeJobsCsv(jobs, sys, r);
    std::ofstream trace(csv_prefix + "_trace.csv");
    writeTraceCsv(trace, sys, r);
    std::ofstream segs(csv_prefix + "_segments.csv");
    writeSegmentsCsv(segs, sys, r);
    std::cout << "wrote " << csv_prefix << "_{jobs,trace,segments}.csv\n";
  }
  if (args.has("perfetto")) {
    std::ofstream out(perfetto_path);
    if (!out) throw ConfigError("cannot write '" + perfetto_path + "'");
    writePerfettoTrace(out, sys, r);
    std::cout << "wrote " << perfetto_path << " (load in ui.perfetto.dev)\n";
  }
  return r.any_deadline_miss ? 1 : 0;
}

int cmdSensitivity(const Args& args) {
  if (args.positional.empty()) return usage();
  const TaskSystem sys = load(args.positional[0]);
  const ProtocolKind kind = protocolFromName(args.get("protocol", "mpcp"));
  const auto result = sensitivityPerTask(sys, [kind](const TaskSystem& s) {
    return analyzeUnder(kind, s).report.rta_all;
  });
  std::cout << "per-task demand headroom under " << toString(kind)
            << " (RTA):\n";
  for (const TaskSensitivity& s : result) {
    const Task& t = sys.task(s.task);
    std::cout << "  " << t.name << ": C=" << t.wcet << " can scale x"
              << s.max_scale << " (to C=" << s.wcet_at_max << ")";
    if (s.max_scale < 1.0) std::cout << "  <-- BOTTLENECK";
    std::cout << "\n";
  }
  return 0;
}

/// Generator knobs shared by `generate` and `stats --sweep`. Counts
/// that make no sense non-positive (processors, tasks) are rejected
/// here rather than deep inside the generator.
WorkloadParams workloadParamsFromArgs(const Args& args) {
  WorkloadParams p;
  p.processors = static_cast<int>(
      cli::parseInt("--processors", args.get("processors", "4"), 1, 4096));
  p.tasks_per_processor = static_cast<int>(cli::parseInt(
      "--tasks-per-proc", args.get("tasks-per-proc", "3"), 1, 4096));
  p.utilization_per_processor =
      cli::parseDouble("--util", args.get("util", "0.4"), 0.0, 8.0);
  p.global_resources = static_cast<int>(
      cli::parseInt("--resources", args.get("resources", "2"), 0, 4096));
  p.cs_max = cli::parseInt("--cs-max", args.get("cs-max", "20"), 1, 1'000'000);
  p.suspension_prob = cli::parseDouble("--suspend-prob",
                                       args.get("suspend-prob", "0"), 0.0, 1.0);
  return p;
}

/// Writes `text` to `path`, or stdout when `path` is empty.
void emitText(const std::string& path, const std::string& text) {
  if (path.empty()) {
    std::cout << text;
    return;
  }
  std::ofstream out(path, std::ios::trunc);
  if (!out) throw ConfigError("cannot write '" + path + "'");
  out << text;
}

int cmdStats(const Args& args) {
  const ProtocolKind kind = protocolFromName(args.get("protocol", "mpcp"));
  const std::string out_path = args.get("out", "");
  if (args.has("out")) {
    if (out_path.empty()) throw cli::UsageError("--out needs a file path");
    cli::probeWritableFile("--out", out_path);
  }
  if (args.has("sweep")) {
    exp::CounterSweepOptions o;
    o.protocol = kind;
    o.params = workloadParamsFromArgs(args);
    o.seeds = static_cast<int>(
        cli::parseInt("--seeds", args.get("seeds", "16"), 1, 1'000'000));
    o.seed_base = cli::parseUint("--seed", args.get("seed", "1"));
    o.horizon =
        cli::parseInt("--horizon", args.get("horizon", "20000"), 1,
                      kTimeInfinity);
    const obs::Counters total = exp::counterSweep(o);
    emitText(out_path,
             strf("protocol ", toString(kind), ", seeds ", o.seeds, " (base ",
                  o.seed_base, "), horizon ", o.horizon, " per run:\n",
                  obs::renderCounters(total)));
    return 0;
  }
  if (args.positional.empty()) {
    throw cli::UsageError("stats needs a task-system file or --sweep");
  }
  const TaskSystem sys = load(args.positional[0]);
  SimConfig config;
  config.horizon =
      cli::parseInt("--horizon", args.get("horizon", "0"), 0, kTimeInfinity);
  config.record_trace = false;  // counters are always on; skip the trace
  const SimResult r = simulate(kind, sys, config);
  emitText(out_path, strf("protocol ", toString(kind), ", horizon ", r.horizon,
                          ":\n", renderCountersReport(sys, r.counters)));
  return 0;
}

/// One sweep seed as its CSV row: generate under Rng(derived_seed) (the
/// SweepRunner convention), run RTA and a traceless simulation, format
/// the counters. These bytes are what sweep journals store, so they must
/// not change: a journal written by an older build still resumes.
std::string sweepRow(ProtocolKind kind, const WorkloadParams& params,
                     Time horizon, std::uint64_t derived_seed) {
  Rng rng(derived_seed);
  const TaskSystem sys = generateWorkload(params, rng);
  const ProtocolAnalysis analysis = analyzeUnder(kind, sys);
  SimConfig config;
  config.horizon = horizon;
  config.record_trace = false;
  const SimResult r = simulate(kind, sys, config);
  const obs::Counters& c = r.counters;
  return strf(derived_seed, ',', analysis.report.rta_all ? 1 : 0, ',',
              c.deadline_misses, ',', c.jobs_released, ',', c.jobs_finished,
              ',', c.totalAcquisitions(), ',', c.totalContendedWaits(), ',',
              c.totalHandoffs(), ',', c.preemptions, ',', c.migrations);
}

/// The journaled, crash-isolated seed sweep (the ISSUE 5 campaign loop).
/// Each seed generates a workload under the shared per-seed RNG
/// convention, runs RTA plus a traceless simulation, and serializes one
/// CSV row; rows cross the executor boundary as strings so the body can
/// run in a forked worker under --isolate. `done` rows from a resumed
/// journal are reused verbatim, which is what makes the aggregate CSV
/// byte-identical to an uninterrupted sweep.
///
/// Testing aids --per-run-sleep-ms / --crash-seed exist for the
/// kill-and-resume and crash-isolation smoke tests; they never affect row
/// bytes, so they are excluded from the config fingerprint.
int cmdSweep(const Args& args) {
  const ProtocolKind kind = protocolFromName(args.get("protocol", "mpcp"));
  const WorkloadParams params = workloadParamsFromArgs(args);
  const int seeds = static_cast<int>(
      cli::parseInt("--seeds", args.get("seeds", "16"), 1, 1'000'000));
  const std::uint64_t seed_base =
      cli::parseUint("--seed", args.get("seed", "1"));
  const Time horizon = cli::parseInt("--horizon", args.get("horizon", "20000"),
                                     1, kTimeInfinity);

  // Fail fast on unwritable outputs: probe both files before any run.
  const std::string out_path = args.get("out", "");
  if (args.has("out")) {
    if (out_path.empty()) throw cli::UsageError("--out needs a file path");
    cli::probeWritableFile("--out", out_path);
  }

  exec::CampaignOptions copt;
  copt.journal_path = args.get("journal", "");
  copt.resume = args.has("resume");
  if (args.has("journal")) {
    if (copt.journal_path.empty()) {
      throw cli::UsageError("--journal needs a file path");
    }
    cli::probeWritableFile("--journal", copt.journal_path);
  }
  // Everything that shapes row bytes goes into the fingerprint; execution
  // strategy (journal, isolate, retries, testing aids) deliberately not.
  copt.config_fingerprint = strf(
      "sweep-v1 protocol=", toString(kind), " seeds=", seeds,
      " seed=", seed_base, " horizon=", horizon,
      " processors=", params.processors,
      " tasks-per-proc=", params.tasks_per_processor,
      " util=", params.utilization_per_processor,
      " resources=", params.global_resources, " cs-max=", params.cs_max,
      " suspend-prob=", params.suspension_prob);

  copt.retry.max_attempts =
      1 + static_cast<int>(
              cli::parseInt("--retries", args.get("retries", "0"), 0, 16));
  copt.retry.base_delay = std::chrono::milliseconds(
      cli::parseInt("--retry-base-ms", args.get("retry-base-ms", "0"), 0,
                    60'000));
  copt.retry.jitter_seed =
      cli::parseUint("--jitter-seed", args.get("jitter-seed", "1"));

  exec::SubprocessLimits limits;
  limits.wall_limit_s = cli::parseDouble(
      "--wall-limit", args.get("wall-limit", "0"), 0.0, 86'400.0);
  limits.rss_limit_mb = cli::parseUint("--rss-limit-mb",
                                       args.get("rss-limit-mb", "0"), 0,
                                       1'048'576);
  const bool isolate = args.has("isolate") || limits.wall_limit_s > 0 ||
                       limits.rss_limit_mb > 0;
  exec::SubprocessExecutor subprocess(limits);
  if (isolate) copt.executor = &subprocess;

  const int sleep_ms = static_cast<int>(cli::parseInt(
      "--per-run-sleep-ms", args.get("per-run-sleep-ms", "0"), 0, 60'000));
  const std::int64_t crash_seed = cli::parseInt(
      "--crash-seed", args.get("crash-seed", "-1"), -1, 1'000'000);

  const auto body = [=](int s, Rng&) -> std::string {
    if (sleep_ms > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(sleep_ms));
    }
    if (crash_seed >= 0 && s == crash_seed) std::raise(SIGKILL);
    return sweepRow(kind, params, horizon,
                    seed_base + static_cast<std::uint64_t>(s));
  };
  const exec::CampaignOutcome outcome = exec::runCampaign(
      exp::SweepRunner::global(), seeds, seed_base, copt, body);

  // Assemble the CSV in seed order. On interrupt the completed rows are
  // still flushed (the journal has them too), but the totals row is held
  // back so a partial file is never mistaken for a finished sweep.
  std::ostringstream csv;
  csv << "seed,rta_ok,deadline_misses,jobs_released,jobs_finished,"
         "acquisitions,contended_waits,handoffs,preemptions,migrations\n";
  std::array<std::uint64_t, 9> totals{};
  for (const std::optional<std::string>& payload : outcome.payloads) {
    if (!payload.has_value()) continue;
    csv << *payload << "\n";
    // Resumed journal payloads are untrusted bytes (a truncated flush or
    // a corrupted journal reaches here); checked parsing turns them into
    // a diagnosis instead of a bare std::stoull abort.
    cli::accumulateSweepTotals(*payload, totals.data(), totals.size());
  }
  if (!outcome.interrupted) {
    csv << "total";
    for (const std::uint64_t t : totals) csv << ',' << t;
    csv << "\n";
  }
  emitText(out_path, csv.str());

  for (const exp::RunFailure& f : outcome.failures) {
    std::cerr << "run failed: seed=" << seed_base + static_cast<std::uint64_t>(f.seed)
              << " attempts=" << f.attempts;
    if (f.signal != 0) std::cerr << " signal=" << f.signal;
    if (f.exit_code != 0) std::cerr << " exit=" << f.exit_code;
    if (f.timed_out) std::cerr << " timed-out";
    std::cerr << ": " << f.error << "\n";
    if (!f.stderr_tail.empty()) {
      std::cerr << "  stderr tail: " << f.stderr_tail << "\n";
    }
  }
  std::cerr << obs::renderExecutorCounters(outcome.exec) << "\n";

  if (outcome.interrupted) return exec::interruptExitCode();
  return outcome.failures.empty() ? 0 : 1;
}

// Run one system under an injected fault plan and a containment policy.
// `--plan` takes the fault/plan.h grammar; `--random N` draws N specs
// from `--seed`. `--policy` is "none" or a comma list (budget-enforce,
// job-abort, skip-next-release, watchdog).
int cmdFaults(const Args& args) {
  if (args.positional.empty()) return usage();
  const TaskSystem sys = load(args.positional[0]);
  const ProtocolKind kind = protocolFromName(args.get("protocol", "mpcp"));
  if (args.has("plan") && args.has("random")) {
    throw cli::UsageError("--plan and --random are mutually exclusive");
  }
  const std::string perfetto_path = args.get("perfetto", "trace.perfetto.json");
  if (args.has("perfetto")) {
    cli::probeWritableFile("--perfetto", perfetto_path);
  }

  fault::FaultPlan plan;
  if (args.has("plan")) {
    plan = fault::parsePlan(args.get("plan", ""), sys);
  } else if (args.has("random")) {
    const int count = static_cast<int>(
        cli::parseInt("--random", args.get("random", "2"), 1, 64));
    Rng rng(cli::parseUint("--seed", args.get("seed", "1")));
    plan = fault::FaultPlan::random(rng, sys, count);
  }
  const double grace =
      cli::parseDouble("--grace", args.get("grace", "1"), 1.0, 100.0);
  const Duration watchdog =
      cli::parseInt("--watchdog-timeout", args.get("watchdog-timeout", "500"),
                    1, kTimeInfinity);
  const std::string policy = args.get("policy", "none");
  const fault::ContainmentConfig containment =
      fault::containmentFromNames(policy, grace, watchdog);

  SimConfig config;
  config.horizon =
      cli::parseInt("--horizon", args.get("horizon", "0"), 0, kTimeInfinity);
  config.fault_plan = plan.empty() ? nullptr : &plan;
  config.containment = containment;
  const SimResult r = simulate(kind, sys, config);

  std::cout << "protocol " << toString(kind) << ", horizon " << r.horizon
            << ", policy " << policy << "\n";
  std::cout << "plan: " << (plan.empty() ? "(none)" : fault::formatPlan(plan, sys))
            << "\n";
  std::cout << (r.any_deadline_miss ? "DEADLINE MISS" : "no misses") << "\n";
  for (const TaskStats& st : r.per_task) {
    const Task& t = sys.task(st.task);
    std::cout << "  " << t.name << ": jobs=" << st.jobs_finished
              << " max-response=" << st.max_response
              << " max-blocking=" << st.max_blocked
              << " misses=" << st.deadline_misses << "\n";
  }
  const InvariantReport rep = checkMutualExclusion(sys, r);
  if (!rep.ok()) {
    std::cout << "INVARIANT VIOLATION: " << rep.violations.front() << "\n";
  }
  if (args.has("counters")) {
    std::cout << "\n" << renderCountersReport(sys, r.counters);
  }
  if (args.has("perfetto")) {
    std::ofstream out(perfetto_path);
    if (!out) throw ConfigError("cannot write '" + perfetto_path + "'");
    writePerfettoTrace(out, sys, r);
    std::cout << "wrote " << perfetto_path << " (load in ui.perfetto.dev)\n";
  }
  return r.any_deadline_miss ? 1 : 0;
}

int cmdGenerate(const Args& args) {
  const WorkloadParams p = workloadParamsFromArgs(args);
  Rng rng(cli::parseUint("--seed", args.get("seed", "1")));
  const TaskSystem sys = generateWorkload(p, rng);
  serializeTaskSystem(std::cout, sys);
  return 0;
}

/// Every flag each subcommand reads; main rejects any other flag before
/// dispatching, so a typo never silently falls back to a default.
const std::map<std::string, std::vector<std::string>>& commandFlags() {
  const auto withGeneratorKnobs = [](std::vector<std::string> flags) {
    for (const char* knob : {"processors", "tasks-per-proc", "util",
                             "resources", "cs-max", "suspend-prob"}) {
      flags.emplace_back(knob);
    }
    return flags;
  };
  static const std::map<std::string, std::vector<std::string>> kFlags = {
      {"tables", {}},
      {"analyze", {"protocol", "no-deferred", "paper-literal-f5"}},
      {"simulate",
       {"protocol", "horizon", "gantt", "narrative", "csv", "perfetto"}},
      {"stats", withGeneratorKnobs({"protocol", "horizon", "out", "sweep",
                                    "seeds", "seed"})},
      {"sweep",
       withGeneratorKnobs({"protocol", "seeds", "seed", "horizon", "out",
                           "journal", "resume", "isolate", "wall-limit",
                           "rss-limit-mb", "retries", "retry-base-ms",
                           "jitter-seed", "per-run-sleep-ms", "crash-seed"})},
      {"generate", withGeneratorKnobs({"seed"})},
      {"sensitivity", {"protocol"}},
      {"faults",
       {"protocol", "plan", "random", "seed", "policy", "grace",
        "watchdog-timeout", "horizon", "counters", "perfetto"}},
  };
  return kFlags;
}

int dispatch(const std::string& cmd, const Args& args) {
  if (cmd == "tables") return cmdTables(args);
  if (cmd == "analyze") return cmdAnalyze(args);
  if (cmd == "simulate") return cmdSimulate(args);
  if (cmd == "stats") return cmdStats(args);
  if (cmd == "sweep") return cmdSweep(args);
  if (cmd == "generate") return cmdGenerate(args);
  if (cmd == "sensitivity") return cmdSensitivity(args);
  if (cmd == "faults") return cmdFaults(args);
  std::cerr << "error: unknown command '" << cmd << "'\n";
  return usage();
}

}  // namespace

int main(int argc, char** argv) {
  // Ctrl-C / SIGTERM raise a flag the sweep loop polls (and SIGKILL any
  // live workers); commands finish flushing and exit 128+signo.
  exec::installInterruptHandlers();
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  const Args args = parseArgs(argc, argv, 2);
  try {
    const auto flags = commandFlags().find(cmd);
    if (flags != commandFlags().end()) {
      cli::rejectUnknownFlags(args.options, flags->second);
    }
    const int rc = dispatch(cmd, args);
    return exec::interrupted() ? exec::interruptExitCode() : rc;
  } catch (const cli::UsageError& e) {
    std::cerr << "error: " << e.what() << "\n";
    return usage();
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
}
