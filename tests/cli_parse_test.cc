// Checked parsing of journaled sweep rows (ISSUE 8 bugfix). Resumed
// journal payloads are untrusted bytes — a kill -9 mid-flush or a
// corrupted journal hands cmdSweep arbitrary text — and the old bare
// std::stoull aborted with a context-free "stoull: invalid_argument".
// accumulateSweepTotals must instead diagnose the row, the column, and
// the offending field, and must reject wrong column counts outright.
// ParseArgs pins the command-line splitter both tools share.
#include <gtest/gtest.h>

#include <array>
#include <string>
#include <vector>

#include "cli_util.h"

namespace mpcp::cli {
namespace {

constexpr std::size_t kColumns = 9;  // cmdSweep's totals width

std::array<std::uint64_t, kColumns> zeros() { return {}; }

std::string messageOf(const std::string& payload) {
  auto totals = zeros();
  try {
    accumulateSweepTotals(payload, totals.data(), totals.size());
  } catch (const UsageError&) {
    ADD_FAILURE() << "journal corruption is not a usage error (usage "
                     "reprint would bury the diagnosis)";
    return "";
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  ADD_FAILURE() << "expected std::runtime_error for '" << payload << "'";
  return "";
}

TEST(AccumulateSweepTotals, AccumulatesWellFormedRows) {
  auto totals = zeros();
  accumulateSweepTotals("7,1,0,20,20,5,2,1,3,0", totals.data(),
                        totals.size());
  accumulateSweepTotals("8,0,2,10,8,4,1,0,2,1", totals.data(), totals.size());
  // The seed column (7, 8) is never summed; the rest accumulate.
  const std::array<std::uint64_t, kColumns> want = {1,  2, 30, 28, 9,
                                                    3, 1, 5,  1};
  EXPECT_EQ(totals, want);
}

TEST(AccumulateSweepTotals, DiagnosesNonNumericField) {
  const std::string msg = messageOf("7,1,0,garbage,20,5,2,1,3,0");
  EXPECT_NE(msg.find("malformed sweep row"), std::string::npos) << msg;
  EXPECT_NE(msg.find("column 3"), std::string::npos) << msg;
  EXPECT_NE(msg.find("'garbage'"), std::string::npos) << msg;
}

TEST(AccumulateSweepTotals, DiagnosesNegativeAndEmptyFields) {
  // stoull would have wrapped "-1" to 2^64-1 silently.
  EXPECT_NE(messageOf("7,1,0,-1,20,5,2,1,3,0").find("'-1'"),
            std::string::npos);
  EXPECT_NE(messageOf("7,1,,20,20,5,2,1,3,0").find("column 2"),
            std::string::npos);
}

TEST(AccumulateSweepTotals, DiagnosesTruncatedRow) {
  // A partial flush cut the row short; stoull would have silently
  // under-accumulated.
  const std::string msg = messageOf("7,1,0,20");
  EXPECT_NE(msg.find("expected 10"), std::string::npos) << msg;
  EXPECT_NE(msg.find("got 4"), std::string::npos) << msg;
}

TEST(AccumulateSweepTotals, DiagnosesExtraColumns) {
  const std::string msg = messageOf("7,1,0,20,20,5,2,1,3,0,99");
  EXPECT_NE(msg.find("got 11"), std::string::npos) << msg;
}

TEST(AccumulateSweepTotals, MalformedRowLeavesNoPartialSums) {
  // Field validation completes before any accumulation, so a bad row
  // never half-updates the totals it failed on.
  auto totals = zeros();
  EXPECT_THROW(accumulateSweepTotals("7,1,0,20,20,bad,2,1,3,0",
                                     totals.data(), totals.size()),
               std::runtime_error);
  EXPECT_EQ(totals, zeros());
}

TEST(ParseArgs, BareFlagsNeverTakeTheNextToken) {
  std::vector<std::string> tokens = {"tool",   "simulate", "--narrative",
                                     "w.mpcp", "--horizon", "100",
                                     "--gantt", "--resume"};
  std::vector<char*> argv;
  for (std::string& t : tokens) argv.push_back(t.data());
  const Args args = parseArgs(static_cast<int>(argv.size()), argv.data(), 2,
                              {"narrative", "resume"});
  EXPECT_EQ(args.positional, std::vector<std::string>{"w.mpcp"});
  EXPECT_TRUE(args.has("narrative"));
  EXPECT_EQ(args.get("narrative", "none"), "none");
  EXPECT_EQ(args.get("horizon", ""), "100");
  // A flag followed by another flag gets no value.
  EXPECT_TRUE(args.has("gantt"));
  EXPECT_EQ(args.get("gantt", "none"), "none");
  EXPECT_TRUE(args.has("resume"));
}

}  // namespace
}  // namespace mpcp::cli
