#include "fuzz/fuzzer.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <optional>
#include <ostream>
#include <set>
#include <system_error>

#include <charconv>

#include "common/check.h"
#include "common/strf.h"
#include "exec/fabric/coordinator.h"
#include "exec/interrupt.h"
#include "exec/journal.h"
#include "exp/sweep_runner.h"
#include "fuzz/fleet.h"
#include "fuzz/repro.h"
#include "fuzz/shrink.h"
#include "model/serialize.h"

namespace mpcp::fuzz {

namespace {

std::string sanitizeForFilename(std::string s) {
  for (char& c : s) {
    if (!std::isalnum(static_cast<unsigned char>(c)) && c != '-') c = '_';
  }
  return s;
}

/// Canonical campaign journal key for run index i.
std::string fuzzRunKey(int index) { return strf("r", index); }

/// Everything that shapes what a run index produces goes into the
/// fingerprint; --runs, the time budget, and output paths deliberately
/// not (extending a campaign with more runs is the point of resuming).
std::string campaignFingerprint(const FuzzOptions& o) {
  std::string protocols;
  for (const std::string& p : o.protocols) {
    protocols += p;
    protocols += ',';
  }
  return strf("fuzz-v1 seed=", o.seed, " protocols=", protocols,
              " mutation=", toString(o.mutation),
              " horizon-cap=", o.horizon_cap,
              " differential-horizon=", o.differential_horizon,
              " shrink=", o.shrink ? 1 : 0,
              " max-shrink=", o.max_shrink_evaluations,
              " faults=", o.faults ? 1 : 0, " fault-count=", o.fault_count,
              " fault-grace=", o.fault_grace,
              " fault-watchdog=", o.fault_watchdog);
}

OracleOptions oracleOptionsFor(const FuzzOptions& o) {
  OracleOptions oracle;
  oracle.protocols = o.protocols;
  oracle.mutation = o.mutation;
  oracle.horizon_cap = o.horizon_cap;
  oracle.differential_horizon = o.differential_horizon;
  return oracle;
}

}  // namespace

FuzzRunOutcome fuzzRun(const FuzzOptions& options, int run_index) {
  // Rng(seed + i): the SweepRunner convention, so a run index draws the
  // same system in the stream, in a fleet worker and on replay.
  Rng rng = exp::SweepRunner::rngFor(options.seed, run_index);
  const WorkloadParams params = drawWorkloadParams(rng);
  const TaskSystem sys = generateWorkload(params, rng);
  FuzzRunOutcome out;
  if (options.faults) {
    const fault::FaultPlan plan =
        fault::FaultPlan::random(rng, sys, options.fault_count);
    FaultOracleOptions fault_options;
    fault_options.horizon_cap = options.horizon_cap;
    fault_options.differential_horizon = options.differential_horizon;
    fault_options.grace = options.fault_grace;
    fault_options.watchdog_timeout = options.fault_watchdog;
    out.failures = checkSystemFaults(sys, plan, fault_options);
    if (!out.failures.empty()) {
      out.system_text = serializeTaskSystemToString(sys);
      out.fault_plan_text = fault::formatPlan(plan, sys);
    }
  } else {
    out.failures = checkSystem(sys, oracleOptionsFor(options));
    if (!out.failures.empty()) {
      out.system_text = serializeTaskSystemToString(sys);
    }
  }
  return out;
}

std::string findingSignature(const std::string& protocol,
                             const std::string& oracle,
                             const std::string& system_text) {
  // FNV-1a 64-bit over the (shrunk) system text.
  std::uint64_t h = 1469598103934665603ull;
  for (const char c : system_text) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx",
                static_cast<unsigned long long>(h));
  return strf(protocol, ':', oracle, '@', hex);
}

WorkloadParams drawWorkloadParams(Rng& rng) {
  WorkloadParams p;
  p.processors = 2 + static_cast<int>(rng.uniformInt(0, 2));
  p.tasks_per_processor = 2 + static_cast<int>(rng.uniformInt(0, 2));
  p.utilization_per_processor = rng.uniformReal(0.25, 0.7);
  p.global_resources = 1 + static_cast<int>(rng.uniformInt(0, 2));
  p.max_gcs_per_task = 1 + static_cast<int>(rng.uniformInt(0, 2));
  p.global_sharing_prob = rng.uniformReal(0.4, 0.95);
  p.local_resources_per_processor = static_cast<int>(rng.uniformInt(0, 2));
  p.max_lcs_per_task = 1;
  p.local_sharing_prob = rng.uniformReal(0.0, 0.8);
  p.cs_min = 1;
  p.cs_max = 2 + rng.uniformInt(0, 28);
  p.suspension_prob = rng.chance(0.4) ? rng.uniformReal(0.1, 0.5) : 0.0;
  if (rng.chance(0.35)) {
    // "Differential profile": short periods so the tick-stepped reference
    // oracle's horizon covers several hyperperiods of real contention.
    p.period_min = 20;
    p.period_max = 200;
    p.period_granularity = 5;
  } else {
    p.period_min = 1'000;
    p.period_max = 20'000;
    p.period_granularity = 1'000;  // keeps auto horizons simulable
  }
  return p;
}

FuzzReport runFuzz(const FuzzOptions& options, std::ostream& log) {
  const auto t0 = std::chrono::steady_clock::now();
  const auto elapsed = [&t0] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
  };

  exp::SweepRunner& runner = exp::SweepRunner::global();
  FuzzReport report;

  // Campaign mode: open the journal under the shared rule and seed the
  // crash-signature set from findings recorded by previous runs.
  const bool campaign = !options.campaign_path.empty();
  const exec::OpenedJournal opened = exec::openCampaignJournal(
      options.campaign_path, options.resume, campaignFingerprint(options));
  exec::CampaignJournal* journal = opened.journal.get();
  report.journal_corrupt_lines = opened.corrupt_lines;
  std::set<std::string> seen_signatures;
  for (const auto& [key, payload] : opened.completed) {
    // Payloads: "clean", "overflow", "finding <sig>[ dup]".
    if (payload.rfind("finding ", 0) == 0) {
      std::string sig = payload.substr(8);
      const bool dup = sig.size() > 4 && sig.ends_with(" dup");
      if (dup) sig.resize(sig.size() - 4);
      seen_signatures.insert(sig);
      if (!dup) ++report.previous_findings;
    }
  }

  // Folds one executed run into the report: journal it, shrink, dedupe
  // by signature, write the repro. Shared between the ordered stream
  // (run order) and the fleet path (arrival order).
  const auto foldRow = [&](int run_index, const FuzzRunOutcome& row) {
    const std::string key = fuzzRunKey(run_index);
    ++report.runs_executed;
    if (row.failures.empty()) {
      if (journal) journal->append(exec::RecordKind::kDone, key, "clean");
      return;
    }
    ++report.systems_with_findings;
    if (static_cast<int>(report.findings.size()) >= options.max_findings) {
      // Keep counting, stop shrinking/writing. "overflow" (not "clean")
      // so the journal never claims a finding-bearing run was clean.
      if (journal) journal->append(exec::RecordKind::kDone, key, "overflow");
      return;
    }

    FuzzFinding finding;
    finding.run_index = run_index;
    finding.derived_seed =
        options.seed + static_cast<std::uint64_t>(run_index);
    finding.failure = row.failures.front();
    log << "FINDING run=" << finding.run_index
        << " seed=" << finding.derived_seed << " ["
        << finding.failure.protocol << "] " << finding.failure.oracle
        << ": " << finding.failure.details << "\n";

    TaskSystem sys = parseTaskSystemFromString(row.system_text);
    finding.tasks_before = static_cast<int>(sys.tasks().size());

    if (options.shrink && row.fault_plan_text.empty()) {
      OracleOptions shrink_options = oracleOptionsFor(options);
      shrink_options.protocols = {finding.failure.protocol};
      const std::string target_oracle = finding.failure.oracle;
      const auto still_violates = [&](const TaskSystem& candidate) {
        for (const OracleFailure& f :
             checkSystem(candidate, shrink_options)) {
          if (f.oracle == target_oracle) return true;
        }
        return false;
      };
      // The recorded failure came from the full-oracle pass; re-check
      // under the narrowed protocol set before shrinking against it.
      if (still_violates(sys)) {
        const ShrinkResult shrunk = shrinkSystem(
            sys, still_violates, options.max_shrink_evaluations);
        finding.shrink_evaluations = shrunk.evaluations;
        sys = shrunk.system;
        log << "  shrunk " << finding.tasks_before << " -> "
            << sys.tasks().size() << " tasks in " << shrunk.evaluations
            << " evaluations" << (shrunk.hit_budget ? " (budget hit)" : "")
            << "\n";
      }
    }
    finding.tasks_after = static_cast<int>(sys.tasks().size());

    // Campaign dedupe: a signature seen earlier in this campaign (or in
    // a previous run of it) is the same bug rediscovered — count it,
    // journal it, but don't write another repro file.
    std::string signature;
    if (campaign) {
      signature =
          findingSignature(finding.failure.protocol, finding.failure.oracle,
                           serializeTaskSystemToString(sys));
      if (!seen_signatures.insert(signature).second) {
        ++report.duplicate_findings;
        log << "  duplicate of known finding " << signature
            << " (repro not re-written)\n";
        journal->append(exec::RecordKind::kDone, key,
                        "finding " + signature + " dup");
        return;
      }
    }

    ReproCase repro;
    repro.protocol = finding.failure.protocol;
    repro.oracle = finding.failure.oracle;
    repro.mutation = options.mutation;
    repro.seed = finding.derived_seed;
    repro.horizon_cap = options.horizon_cap;
    repro.differential_horizon = options.differential_horizon;
    repro.fault_plan = row.fault_plan_text;
    repro.fault_grace = options.fault_grace;
    repro.fault_watchdog = options.fault_watchdog;
    repro.system = sys;
    finding.repro_text = writeRepro(repro);

    const std::string dir =
        options.corpus_dir.empty() ? "." : options.corpus_dir;
    std::error_code ec;  // best-effort; the open below reports failure
    std::filesystem::create_directories(dir, ec);
    const std::string path =
        strf(dir, "/repro-seed", finding.derived_seed, "-",
             sanitizeForFilename(finding.failure.protocol), "-",
             sanitizeForFilename(finding.failure.oracle), ".repro");
    std::ofstream out(path);
    out << finding.repro_text;
    out.flush();
    if (out) {
      finding.repro_path = path;
      log << "  wrote " << path << "\n";
    } else {
      log << "  warning: could not write " << path << "\n";
    }
    if (journal) {
      journal->append(exec::RecordKind::kDone, key, "finding " + signature);
    }
    report.findings.push_back(std::move(finding));
  };

  // Fleet mode: hand the pending run indices to the campaign fabric.
  // Workers execute generate+oracles; every result folds here, so the
  // journal/dedupe/repro behavior matches the serial path.
  if (options.fleet_workers > 0 || !options.fleet_listen.empty()) {
    registerFuzzFleetBody();
    std::vector<std::string> keys;
    for (int i = 0; i < options.runs; ++i) {
      const std::string key = fuzzRunKey(i);
      if (opened.completed.count(key) != 0) {
        ++report.resumed_skips;
        continue;
      }
      keys.push_back(key);
    }

    exec::fabric::FleetConfig fc;
    fc.listen = options.fleet_listen;
    fc.spawn_workers = options.fleet_workers;
    fc.worker_bin = options.fleet_worker_bin;
    fc.shard_dir = options.fleet_shard_dir;
    fc.body_spec = makeFuzzBodySpec(options);
    fc.fingerprint = campaignFingerprint(options);
    fc.timing.heartbeat_ms = options.fleet_heartbeat_ms;
    fc.timing.lease_deadline_ms = options.fleet_lease_deadline_ms;
    fc.timing.degrade_after_ms = options.fleet_grace_ms;
    if (!options.fleet_chaos.empty()) {
      fc.chaos = exec::fabric::parseChaosSchedule(options.fleet_chaos);
    }
    fc.log = &log;
    fc.local_fn =
        (*exec::fabric::findFleetBodyKind("fuzz-v1"))(fc.body_spec);
    fc.on_result = [&](const exec::fabric::FleetResult& r) {
      int index = 0;
      const char* begin = r.key.data() + 1;
      const char* end = r.key.data() + r.key.size();
      const auto [ptr, ec] = std::from_chars(begin, end, index);
      FuzzRunOutcome outcome;
      if (r.key.empty() || r.key[0] != 'r' || ec != std::errc() ||
          ptr != end || !decodeFuzzRunOutcome(r.payload, outcome)) {
        // Undecodable result: leave the key un-journaled so a resume
        // simply re-runs it.
        log << "fleet: discarding undecodable result for key '" << r.key
            << "'\n";
        return;
      }
      foldRow(index, outcome);
    };
    fc.on_fail = [&](const std::string& key, const std::string& error) {
      if (journal) journal->append(exec::RecordKind::kFail, key, error);
      log << "fleet: run " << key << " failed permanently: " << error
          << "\n";
    };

    const exec::fabric::FleetOutcome fo = exec::fabric::runFleet(keys, fc);
    report.fleet = fo.counters;
    report.interrupted = fo.interrupted || exec::interrupted();
    report.elapsed_s = elapsed();
    return report;
  }

  // Ordered stream: runs are claimed one at a time (the budget and the
  // interrupt flag are checked per claim) and folded here in run order,
  // so reported findings are deterministic for a given (--runs, --seed)
  // at any MPCP_THREADS, and a cut-short loop has journaled a contiguous
  // prefix of run indices.
  bool budget_hit = false;                  // set under the stream's lock
  std::atomic<bool> interrupt_seen{false};  // by a claim or by the fold
  runner.stream(
      options.runs, options.seed,
      [&] {
        if (options.time_budget_s > 0 && elapsed() >= options.time_budget_s) {
          budget_hit = true;
          return false;
        }
        if (exec::interrupted()) {
          interrupt_seen = true;
          return false;
        }
        return true;
      },
      [&](int i, Rng&) -> std::optional<FuzzRunOutcome> {
        if (opened.completed.count(fuzzRunKey(i)) != 0) return std::nullopt;
        return fuzzRun(options, i);
      },
      [&](int i, std::optional<FuzzRunOutcome>&& row) {
        if (!row.has_value()) {
          ++report.resumed_skips;
          return true;
        }
        if (exec::interrupted()) {
          interrupt_seen = true;
          return false;  // un-journaled runs simply re-run on resume
        }
        foldRow(i, *row);
        return true;
      });
  report.budget_exhausted = budget_hit;
  report.interrupted = interrupt_seen.load();

  report.elapsed_s = elapsed();
  return report;
}

}  // namespace mpcp::fuzz
