// CampaignJournal durability (ISSUE 5 satellite): torn-tail truncation
// at EVERY byte offset of the final record parses cleanly, CRC-corrupt
// interior lines are skipped with a counter, escaping round-trips
// arbitrary payloads, and completed() implements the resume semantics
// (done sets, fail erases, stale start records are ignored).
#include "exec/journal.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <string>

#include "common/check.h"

namespace mpcp::exec {
namespace {

std::string tempPath(const std::string& name) {
  return testing::TempDir() + "/mpcp_journal_" + name + "_" +
         std::to_string(::getpid());
}

std::string makeLine(RecordKind kind, const std::string& key,
                     const std::string& payload) {
  const std::string body =
      std::string(toString(kind)) + " " + key + " " + escapeLine(payload);
  char hex[9];
  std::snprintf(hex, sizeof hex, "%08x", crc32(body));
  return std::string(hex) + " " + body + "\n";
}

TEST(JournalCrc, MatchesIeeeCheckValue) {
  // The canonical CRC-32 check value (zlib, PNG, IEEE 802.3).
  EXPECT_EQ(crc32("123456789"), 0xcbf43926u);
  EXPECT_EQ(crc32(""), 0u);
}

TEST(JournalEscape, RoundTripsControlBytes) {
  const std::string nasty = "a,b\nline2\r\\back\\slash\n\n\r\r";
  const std::string escaped = escapeLine(nasty);
  EXPECT_EQ(escaped.find('\n'), std::string::npos);
  EXPECT_EQ(escaped.find('\r'), std::string::npos);
  EXPECT_EQ(unescapeLine(escaped), nasty);
  EXPECT_EQ(unescapeLine(escapeLine("")), "");
  EXPECT_EQ(unescapeLine(escapeLine("plain")), "plain");
}

TEST(Journal, AppendLoadRoundTrip) {
  const std::string path = tempPath("roundtrip");
  std::remove(path.c_str());
  {
    CampaignJournal journal(path);
    journal.append(RecordKind::kMeta, "config", "sweep-v1 seeds=3");
    journal.append(RecordKind::kStart, "s1", "");
    journal.append(RecordKind::kDone, "s1", "1,2,3\nwith,newline");
    journal.append(RecordKind::kStart, "s2", "");
    journal.append(RecordKind::kFail, "s2", "worker killed by signal 9");
  }
  const JournalLoad load = loadJournalFile(path);
  EXPECT_EQ(load.corrupt_lines, 0u);
  EXPECT_FALSE(load.torn_tail);
  ASSERT_EQ(load.records.size(), 5u);
  EXPECT_EQ(load.meta, "sweep-v1 seeds=3");
  EXPECT_EQ(load.records[2].kind, RecordKind::kDone);
  EXPECT_EQ(load.records[2].key, "s1");
  EXPECT_EQ(load.records[2].payload, "1,2,3\nwith,newline");

  const auto completed = load.completed();
  ASSERT_EQ(completed.size(), 1u);  // s2 failed -> must re-run
  EXPECT_EQ(completed.at("s1"), "1,2,3\nwith,newline");
  std::remove(path.c_str());
}

TEST(Journal, MissingFileIsEmpty) {
  const JournalLoad load = loadJournalFile(tempPath("never_created"));
  EXPECT_TRUE(load.records.empty());
  EXPECT_EQ(load.corrupt_lines, 0u);
  EXPECT_FALSE(load.torn_tail);
}

TEST(Journal, TornTailAtEveryByteOffset) {
  // A journal whose final record is truncated at ANY byte offset must
  // keep every earlier record, report torn_tail, and count no corruption
  // (a torn tail is the expected SIGKILL-mid-append signature, not rot).
  const std::string first = makeLine(RecordKind::kDone, "s1", "1,2,3");
  const std::string second =
      makeLine(RecordKind::kDone, "s2", "payload with spaces\nand newline");
  const std::string full = first + second;
  for (std::size_t cut = first.size(); cut < full.size(); ++cut) {
    const JournalLoad load = parseJournal(full.substr(0, cut));
    ASSERT_EQ(load.records.size(), 1u) << "cut at " << cut;
    EXPECT_EQ(load.records[0].key, "s1") << "cut at " << cut;
    EXPECT_EQ(load.records[0].payload, "1,2,3") << "cut at " << cut;
    EXPECT_EQ(load.corrupt_lines, 0u) << "cut at " << cut;
    if (cut > first.size()) {
      EXPECT_TRUE(load.torn_tail) << "cut at " << cut;
    }
  }
  // The untruncated text parses both records.
  const JournalLoad whole = parseJournal(full);
  EXPECT_EQ(whole.records.size(), 2u);
  EXPECT_FALSE(whole.torn_tail);
}

TEST(Journal, CorruptInteriorLineSkippedAndCounted) {
  const std::string first = makeLine(RecordKind::kDone, "s1", "1,2,3");
  const std::string second = makeLine(RecordKind::kDone, "s2", "4,5,6");
  std::string damaged = first;
  damaged[12] ^= 0x01;  // flip a bit inside the first record's body
  const JournalLoad load = parseJournal(damaged + second);
  EXPECT_EQ(load.corrupt_lines, 1u);
  ASSERT_EQ(load.records.size(), 1u);
  EXPECT_EQ(load.records[0].key, "s2");
}

TEST(Journal, GarbageLinesCounted) {
  const std::string good = makeLine(RecordKind::kDone, "s7", "row");
  const JournalLoad load =
      parseJournal("not a journal line\n" + good + "deadbeef nokind\n");
  EXPECT_EQ(load.corrupt_lines, 2u);
  ASSERT_EQ(load.records.size(), 1u);
  EXPECT_EQ(load.records[0].key, "s7");
}

TEST(Journal, CompletedSemantics) {
  // done sets; a later fail erases (re-run); a stale start after done is
  // ignored; the last done wins.
  const std::string text =
      makeLine(RecordKind::kStart, "a", "") +
      makeLine(RecordKind::kDone, "a", "v1") +
      makeLine(RecordKind::kStart, "a", "") +       // stale, ignored
      makeLine(RecordKind::kStart, "b", "") +       // started, never done
      makeLine(RecordKind::kDone, "c", "old") +
      makeLine(RecordKind::kDone, "c", "new") +
      makeLine(RecordKind::kDone, "d", "gone") +
      makeLine(RecordKind::kFail, "d", "crashed");  // erased -> re-run
  const auto completed = parseJournal(text).completed();
  ASSERT_EQ(completed.size(), 2u);
  EXPECT_EQ(completed.at("a"), "v1");
  EXPECT_EQ(completed.at("c"), "new");
  EXPECT_EQ(completed.count("b"), 0u);
  EXPECT_EQ(completed.count("d"), 0u);
}

TEST(Journal, AppendRejectsWhitespaceKeys) {
  const std::string path = tempPath("badkey");
  std::remove(path.c_str());
  CampaignJournal journal(path);
  EXPECT_THROW(journal.append(RecordKind::kDone, "bad key", "x"),
               InvariantError);
  std::remove(path.c_str());
}

TEST(Journal, UnopenablePathThrowsConfigError) {
  EXPECT_THROW(CampaignJournal("/nonexistent-dir/sub/j.journal"), ConfigError);
}

// --- JournalIo fault injection (ISSUE 10 satellite) ----------------------
//
// The seam simulates a hostile disk: ENOSPC and short writes at every
// byte offset of a record, failing fsync, and torn renames. The
// invariant under all of them: append() throws ConfigError (callers
// contain it), and whatever DID land on disk is parseable — a torn
// record is at most a torn tail, never a poisoned journal.

TEST(JournalFaults, EnospcAtEveryByteOffset) {
  const std::string record = formatRecord(RecordKind::kDone, "k1", "row");
  for (std::size_t budget = 0; budget < record.size(); ++budget) {
    for (const bool short_writes : {false, true}) {
      const std::string path = tempPath("enospc");
      std::remove(path.c_str());
      FaultyJournalIo io;
      io.budget_bytes = static_cast<std::int64_t>(budget);
      io.short_writes = short_writes;
      CampaignJournal j(path, &io);
      EXPECT_THROW(j.append(RecordKind::kDone, "k1", "row"), ConfigError)
          << "budget=" << budget << " short=" << short_writes;
      EXPECT_GE(io.write_errors, 1u);

      // Whatever landed must parse: with short writes a prefix of the
      // record is on disk (a torn tail); without, nothing is.
      const JournalLoad load = loadJournalFile(path);
      EXPECT_TRUE(load.records.empty());
      EXPECT_EQ(load.corrupt_lines, 0u);
      if (!short_writes) {
        EXPECT_FALSE(load.torn_tail);
      } else if (budget > 0) {
        EXPECT_TRUE(load.torn_tail) << "budget=" << budget;
      }
      std::remove(path.c_str());
    }
  }
}

TEST(JournalFaults, TornRecordAfterHealthyOnesIsJustATornTail) {
  const std::string r1 = formatRecord(RecordKind::kDone, "k1", "a");
  // Budget covers record one plus half of record two.
  const std::string path = tempPath("torn_after");
  std::remove(path.c_str());
  FaultyJournalIo io;
  io.short_writes = true;
  io.budget_bytes = static_cast<std::int64_t>(r1.size() + 7);
  CampaignJournal j(path, &io);
  j.append(RecordKind::kDone, "k1", "a");
  EXPECT_THROW(j.append(RecordKind::kDone, "k2", "b"), ConfigError);

  const JournalLoad load = loadJournalFile(path);
  ASSERT_EQ(load.records.size(), 1u);
  EXPECT_EQ(load.records[0].key, "k1");
  EXPECT_TRUE(load.torn_tail);
  EXPECT_EQ(load.corrupt_lines, 0u);
  std::remove(path.c_str());
}

TEST(JournalFaults, FsyncFailureSurfacesAsConfigError) {
  const std::string path = tempPath("fsync");
  std::remove(path.c_str());
  FaultyJournalIo io;
  io.fsync_failures_after = 1;
  CampaignJournal j(path, &io);
  j.append(RecordKind::kDone, "k1", "a");  // first fsync succeeds
  EXPECT_THROW(j.append(RecordKind::kDone, "k2", "b"), ConfigError);
  EXPECT_EQ(io.fsync_errors, 1u);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace mpcp::exec
