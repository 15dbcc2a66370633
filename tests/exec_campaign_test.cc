// runCampaign resume semantics (ISSUE 5 tentpole): a journal cut short
// mid-campaign resumes into payloads identical to an uninterrupted run,
// `done` rows are reused verbatim (never recomputed), and config
// mismatches or missing --resume are refused up front.
#include "exec/campaign.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/check.h"
#include "exec/journal.h"
#include "exp/sweep_runner.h"

namespace mpcp::exec {
namespace {

std::string tempPath(const std::string& name) {
  return testing::TempDir() + "/mpcp_campaign_" + name + "_" +
         std::to_string(::getpid());
}

std::string readFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

std::string rowFor(int s, Rng& rng) {
  return std::to_string(s) + "," + std::to_string(rng.uniformInt(0, 1 << 20));
}

TEST(Campaign, RunKeyIsDerivedSeed) {
  EXPECT_EQ(runKey(100, 0), "s100");
  EXPECT_EQ(runKey(100, 7), "s107");
}

TEST(Campaign, JournalThenFullResumeSkipsEverything) {
  const std::string path = tempPath("full_resume");
  std::remove(path.c_str());
  exp::SweepRunner runner(2);
  CampaignOptions options;
  options.journal_path = path;
  options.config_fingerprint = "test-v1 seeds=5";

  const CampaignOutcome first = runCampaign(runner, 5, 100, options, rowFor);
  ASSERT_TRUE(first.complete());
  EXPECT_EQ(first.exec.resumed_skips, 0u);

  options.resume = true;
  std::atomic<int> executions{0};
  const CampaignOutcome second =
      runCampaign(runner, 5, 100, options, [&](int s, Rng& rng) {
        executions.fetch_add(1);
        return rowFor(s, rng);
      });
  ASSERT_TRUE(second.complete());
  EXPECT_EQ(executions.load(), 0) << "resume must not re-execute done runs";
  EXPECT_EQ(second.exec.resumed_skips, 5u);
  for (int s = 0; s < 5; ++s) {
    EXPECT_EQ(*second.payloads[static_cast<std::size_t>(s)],
              *first.payloads[static_cast<std::size_t>(s)]);
  }
  std::remove(path.c_str());
}

TEST(Campaign, PartialJournalResumesToIdenticalPayloads) {
  const std::string path = tempPath("partial");
  std::remove(path.c_str());
  exp::SweepRunner runner(2);

  // Golden: uninterrupted, journal-free run.
  const CampaignOutcome golden =
      runCampaign(runner, 6, 100, CampaignOptions{}, rowFor);
  ASSERT_TRUE(golden.complete());

  // First attempt: seeds 3..5 fail (as if the machine was sick); their
  // `fail` records leave them pending.
  CampaignOptions options;
  options.journal_path = path;
  options.config_fingerprint = "test-v1 seeds=6";
  const CampaignOutcome crippled =
      runCampaign(runner, 6, 100, options, [](int s, Rng& rng) {
        if (s >= 3) throw std::runtime_error("transient failure");
        return rowFor(s, rng);
      });
  EXPECT_FALSE(crippled.complete());
  EXPECT_EQ(crippled.failures.size(), 3u);
  EXPECT_EQ(crippled.exec.failed, 3u);

  // Resume with a healthy body: only the failed seeds re-run, and the
  // payload vector matches the golden run byte for byte.
  options.resume = true;
  std::atomic<int> executions{0};
  const CampaignOutcome resumed =
      runCampaign(runner, 6, 100, options, [&](int s, Rng& rng) {
        executions.fetch_add(1);
        return rowFor(s, rng);
      });
  ASSERT_TRUE(resumed.complete());
  EXPECT_EQ(executions.load(), 3);
  EXPECT_EQ(resumed.exec.resumed_skips, 3u);
  for (int s = 0; s < 6; ++s) {
    EXPECT_EQ(*resumed.payloads[static_cast<std::size_t>(s)],
              *golden.payloads[static_cast<std::size_t>(s)]);
  }
  std::remove(path.c_str());
}

TEST(Campaign, StartWithoutDoneIsReRun) {
  // Simulate a driver SIGKILLed mid-run: the journal holds done records
  // for seeds 0-1 and a bare start for seed 2.
  const std::string path = tempPath("torn_run");
  std::remove(path.c_str());
  exp::SweepRunner runner(1);
  {
    CampaignJournal journal(path);
    journal.append(RecordKind::kMeta, "config", "test-v1");
    Rng rng0 = exp::SweepRunner::rngFor(100, 0);
    journal.append(RecordKind::kDone, runKey(100, 0), rowFor(0, rng0));
    Rng rng1 = exp::SweepRunner::rngFor(100, 1);
    journal.append(RecordKind::kDone, runKey(100, 1), rowFor(1, rng1));
    journal.append(RecordKind::kStart, runKey(100, 2), "");
  }
  CampaignOptions options;
  options.journal_path = path;
  options.config_fingerprint = "test-v1";
  options.resume = true;
  std::atomic<int> executions{0};
  const CampaignOutcome outcome =
      runCampaign(runner, 3, 100, options, [&](int s, Rng& rng) {
        executions.fetch_add(1);
        return rowFor(s, rng);
      });
  ASSERT_TRUE(outcome.complete());
  EXPECT_EQ(executions.load(), 1);  // only the torn seed 2 re-ran
  EXPECT_EQ(outcome.exec.resumed_skips, 2u);
  std::remove(path.c_str());
}

TEST(Campaign, NonEmptyJournalWithoutResumeRefused) {
  const std::string path = tempPath("no_resume");
  std::remove(path.c_str());
  exp::SweepRunner runner(1);
  CampaignOptions options;
  options.journal_path = path;
  options.config_fingerprint = "test-v1";
  const CampaignOutcome first = runCampaign(runner, 2, 100, options, rowFor);
  ASSERT_TRUE(first.complete());
  EXPECT_THROW(
      { (void)runCampaign(runner, 2, 100, options, rowFor); }, ConfigError);
  std::remove(path.c_str());
}

TEST(Campaign, FingerprintMismatchRefused) {
  const std::string path = tempPath("mismatch");
  std::remove(path.c_str());
  exp::SweepRunner runner(1);
  CampaignOptions options;
  options.journal_path = path;
  options.config_fingerprint = "test-v1 horizon=5000";
  const CampaignOutcome first = runCampaign(runner, 2, 100, options, rowFor);
  ASSERT_TRUE(first.complete());
  options.resume = true;
  options.config_fingerprint = "test-v1 horizon=9999";
  EXPECT_THROW(
      { (void)runCampaign(runner, 2, 100, options, rowFor); }, ConfigError);
  std::remove(path.c_str());
}

TEST(Campaign, JournalBytesIdenticalAtAnyThreadCount) {
  // Only the folding thread appends, start+done back to back in seed
  // order, so the journal does not depend on the pool width.
  std::string reference;
  for (const int threads : {1, 2, 4}) {
    const std::string path = tempPath("threads");
    std::remove(path.c_str());
    exp::SweepRunner runner(threads);
    CampaignOptions options;
    options.journal_path = path;
    options.config_fingerprint = "test-v1 seeds=40";
    ASSERT_TRUE(runCampaign(runner, 40, 100, options, rowFor).complete());
    const std::string bytes = readFile(path);
    if (threads == 1) {
      reference = bytes;
      EXPECT_EQ(loadJournalFile(path).records.size(), 1u + 2u * 40u);
    } else {
      EXPECT_EQ(bytes, reference) << "threads=" << threads;
    }
    std::remove(path.c_str());
  }
}

TEST(Campaign, MetalessJournalWithRecordsRefused) {
  // Records without a meta record cannot prove which configuration wrote
  // them, so resuming under a fingerprint is refused.
  const std::string path = tempPath("metaless");
  std::remove(path.c_str());
  {
    CampaignJournal journal(path);
    Rng rng = exp::SweepRunner::rngFor(100, 0);
    journal.append(RecordKind::kDone, runKey(100, 0), rowFor(0, rng));
  }
  exp::SweepRunner runner(1);
  CampaignOptions options;
  options.journal_path = path;
  options.config_fingerprint = "test-v1";
  options.resume = true;
  try {
    (void)runCampaign(runner, 2, 100, options, rowFor);
    FAIL() << "a meta-less journal with records must be refused";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("resume"), std::string::npos)
        << e.what();
  }
  std::remove(path.c_str());
}

TEST(Campaign, TornOnlyJournalOpensFresh) {
  // A journal whose only content is a torn record holds nothing to
  // resume: it opens as fresh (no --resume needed), the torn line is
  // ended before the meta record, and the result resumes cleanly.
  const std::string path = tempPath("torn_only");
  std::remove(path.c_str());
  {
    const std::string line = formatRecord(RecordKind::kMeta, "config", "x");
    std::ofstream out(path, std::ios::binary);
    out << line.substr(0, line.size() / 2);
  }
  exp::SweepRunner runner(2);
  CampaignOptions options;
  options.journal_path = path;
  options.config_fingerprint = "test-v1";
  const CampaignOutcome first = runCampaign(runner, 3, 100, options, rowFor);
  ASSERT_TRUE(first.complete());

  const JournalLoad load = loadJournalFile(path);
  EXPECT_EQ(load.meta, "test-v1");
  EXPECT_EQ(load.corrupt_lines, 1u);  // the ended torn line
  EXPECT_FALSE(load.torn_tail);
  EXPECT_EQ(load.completed().size(), 3u);

  options.resume = true;
  const CampaignOutcome resumed = runCampaign(runner, 3, 100, options, rowFor);
  ASSERT_TRUE(resumed.complete());
  EXPECT_EQ(resumed.exec.resumed_skips, 3u);
  EXPECT_EQ(resumed.exec.journal_corrupt_lines, 1u);
  std::remove(path.c_str());
}

TEST(Campaign, NoJournalIsPlainSweep) {
  exp::SweepRunner runner(2);
  const CampaignOutcome outcome =
      runCampaign(runner, 4, 7, CampaignOptions{}, rowFor);
  ASSERT_TRUE(outcome.complete());
  EXPECT_EQ(outcome.exec.dispatched, 4u);
  EXPECT_EQ(outcome.exec.completed, 4u);
  for (int s = 0; s < 4; ++s) {
    Rng rng = exp::SweepRunner::rngFor(7, s);
    EXPECT_EQ(*outcome.payloads[static_cast<std::size_t>(s)], rowFor(s, rng));
  }
}

// --- campaign contract formerly shared with the distributed path ---------
//
// Sweep and fuzz campaigns once also ran across a coordinator/worker
// fleet that promised the same bytes and refusals as runCampaign. The
// fleet is gone; these cases keep its suite name and pin that contract
// on the one in-process path.

// The exact byte stream a journaled campaign writes: meta, then start
// and done per seed in seed order.
std::string serialJournalBytes(const std::string& fingerprint, int seeds,
                               std::uint64_t base) {
  std::string bytes = formatRecord(RecordKind::kMeta, "config", fingerprint);
  for (int s = 0; s < seeds; ++s) {
    Rng rng = exp::SweepRunner::rngFor(base, s);
    bytes += formatRecord(RecordKind::kStart, runKey(base, s), "");
    bytes += formatRecord(RecordKind::kDone, runKey(base, s), rowFor(s, rng));
  }
  return bytes;
}

TEST(FleetCampaign, DegradedRunCompletesAndMergesCanonicalBytes) {
  const std::string path = tempPath("fleet_canonical");
  std::remove(path.c_str());
  exp::SweepRunner runner(4);
  CampaignOptions options;
  options.journal_path = path;
  options.config_fingerprint = "fleet-test-v1";
  std::atomic<int> executions{0};
  const CampaignOutcome out =
      runCampaign(runner, 4, 100, options, [&](int s, Rng& rng) {
        executions.fetch_add(1);
        return rowFor(s, rng);
      });
  ASSERT_TRUE(out.complete());
  EXPECT_FALSE(out.interrupted);
  EXPECT_EQ(executions.load(), 4);
  // Byte-identical to the hand-built serial journal, not merely
  // equivalent, even with four pool lanes.
  EXPECT_EQ(readFile(path), serialJournalBytes("fleet-test-v1", 4, 100));
  std::remove(path.c_str());
}

TEST(FleetCampaign, ResumeReusesDoneRowsWithoutReExecuting) {
  const std::string path = tempPath("fleet_resume");
  std::remove(path.c_str());
  exp::SweepRunner runner(2);
  CampaignOptions options;
  options.journal_path = path;
  options.config_fingerprint = "fleet-test-v1";
  ASSERT_TRUE(runCampaign(runner, 3, 100, options, rowFor).complete());

  options.resume = true;
  std::atomic<int> executions{0};
  const CampaignOutcome second =
      runCampaign(runner, 3, 100, options, [&](int s, Rng& rng) {
        executions.fetch_add(1);
        return rowFor(s, rng);
      });
  ASSERT_TRUE(second.complete());
  EXPECT_EQ(executions.load(), 0) << "resume must not re-execute done runs";
  EXPECT_EQ(second.exec.resumed_skips, 3u);
  // A full resume appends nothing.
  EXPECT_EQ(readFile(path), serialJournalBytes("fleet-test-v1", 3, 100));
  std::remove(path.c_str());
}

TEST(FleetCampaign, RefusesPopulatedJournalWithoutResume) {
  const std::string path = tempPath("fleet_no_resume");
  std::remove(path.c_str());
  exp::SweepRunner runner(2);
  CampaignOptions options;
  options.journal_path = path;
  options.config_fingerprint = "fleet-test-v1";
  ASSERT_TRUE(runCampaign(runner, 2, 100, options, rowFor).complete());
  const std::string before = readFile(path);
  EXPECT_THROW(
      { (void)runCampaign(runner, 2, 100, options, rowFor); }, ConfigError);
  EXPECT_EQ(readFile(path), before) << "a refused run must not append";
  std::remove(path.c_str());
}

TEST(FleetCampaign, RefusesFingerprintMismatchOnResume) {
  const std::string path = tempPath("fleet_fp_mismatch");
  std::remove(path.c_str());
  exp::SweepRunner runner(2);
  CampaignOptions options;
  options.journal_path = path;
  options.config_fingerprint = "fleet-test-v1";
  ASSERT_TRUE(runCampaign(runner, 2, 100, options, rowFor).complete());
  const std::string before = readFile(path);
  options.resume = true;
  options.config_fingerprint = "fleet-test-v2";
  EXPECT_THROW(
      { (void)runCampaign(runner, 2, 100, options, rowFor); }, ConfigError);
  EXPECT_EQ(readFile(path), before) << "a refused resume must not append";
  std::remove(path.c_str());
}

TEST(FleetCampaign, PermanentFailureIsJournaledAndSorted) {
  const std::string path = tempPath("fleet_perma_fail");
  std::remove(path.c_str());
  exp::SweepRunner runner(4);
  CampaignOptions options;
  options.journal_path = path;
  options.config_fingerprint = "fleet-test-v1";
  const CampaignOutcome out =
      runCampaign(runner, 3, 100, options, [](int s, Rng& rng) {
        if (s == 1) throw std::runtime_error("body exploded");
        return rowFor(s, rng);
      });
  EXPECT_FALSE(out.complete());
  ASSERT_EQ(out.failures.size(), 1u);
  EXPECT_EQ(out.failures[0].seed, 1);  // the index s, not the derived seed
  EXPECT_NE(out.failures[0].error.find("body exploded"), std::string::npos)
      << out.failures[0].error;
  EXPECT_FALSE(out.payloads[1].has_value());

  // The fail record sits in seed order between its neighbours' rows,
  // so a later resume sees it and re-runs only that seed.
  const JournalLoad load = loadJournalFile(path);
  std::vector<std::pair<RecordKind, std::string>> seen;
  for (const auto& rec : load.records) seen.emplace_back(rec.kind, rec.key);
  const std::vector<std::pair<RecordKind, std::string>> expected = {
      {RecordKind::kMeta, "config"}, {RecordKind::kStart, "s100"},
      {RecordKind::kDone, "s100"},   {RecordKind::kStart, "s101"},
      {RecordKind::kFail, "s101"},   {RecordKind::kStart, "s102"},
      {RecordKind::kDone, "s102"}};
  EXPECT_EQ(seen, expected);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace mpcp::exec
