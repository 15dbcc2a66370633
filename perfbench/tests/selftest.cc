// Self-tests for the benchmark's own arithmetic and output format.
#include <gtest/gtest.h>

#include <cmath>
#include <numeric>
#include <set>
#include <string>
#include <vector>

#include "json.h"
#include "spans.h"

namespace perfbench {
namespace {

Span at(const char* name, double a, double b, int parent) {
  Span s;
  s.name = name;
  s.start_s = a;
  s.end_s = b;
  s.parent = parent;
  return s;
}

double sum(const std::vector<double>& v) {
  return std::accumulate(v.begin(), v.end(), 0.0);
}

TEST(SelfTime, NestedSpansChargeOnlyDirectChildren) {
  // op [0,10) > replay [1,9) > sim [2,6) > invariants [3,4)
  const std::vector<Span> spans = {at("op", 0, 10, -1), at("replay", 1, 9, 0),
                                   at("sim", 2, 6, 1),
                                   at("invariants", 3, 4, 2)};
  const std::vector<double> self = selfTimes(spans);
  EXPECT_DOUBLE_EQ(self[0], 2);
  EXPECT_DOUBLE_EQ(self[1], 4);
  EXPECT_DOUBLE_EQ(self[2], 3);
  EXPECT_DOUBLE_EQ(self[3], 1);
  EXPECT_DOUBLE_EQ(sum(self), 10);  // self times partition the root
}

TEST(SelfTime, SiblingsAreSubtractedOnceEvenWhenTheyOverlap) {
  const std::vector<Span> spans = {at("op", 0, 10, -1), at("a", 1, 3, 0),
                                   at("b", 5, 8, 0), at("c", 6, 9, 0)};
  const std::vector<double> self = selfTimes(spans);
  EXPECT_DOUBLE_EQ(self[0], 10 - 2 - 4);  // union of [5,8) and [6,9) is 4
}

TEST(SelfTime, ZeroLengthSpansContributeNothing) {
  const std::vector<Span> spans = {at("op", 0, 4, -1), at("empty", 2, 2, 0),
                                   at("child", 1, 3, 0), at("leaf", 3, 3, 2)};
  const std::vector<double> self = selfTimes(spans);
  EXPECT_DOUBLE_EQ(self[0], 2);
  EXPECT_DOUBLE_EQ(self[1], 0);
  EXPECT_DOUBLE_EQ(self[2], 2);
  EXPECT_DOUBLE_EQ(self[3], 0);
  EXPECT_DOUBLE_EQ(sum(self), 4);
}

TEST(SelfTime, ByNameSumsOnlyTheRequestedTrees) {
  const std::vector<Span> spans = {
      at("op", 0, 10, -1),  at("sim", 1, 4, 0),  at("sim", 5, 7, 0),
      at("other", 20, 30, -1), at("sim", 21, 29, 3)};
  const auto by_name = selfTimeByName(spans, "op");
  EXPECT_DOUBLE_EQ(by_name.at("sim"), 5);
  EXPECT_DOUBLE_EQ(by_name.at("op"), 5);
  EXPECT_EQ(by_name.count("other"), 0u);
}

TEST(SelfTime, RecorderNestsAndClosesInOrder) {
  SpanRecorder rec;
  {
    Scope op(rec, "op", 7);
    { Scope child(rec, "child", 7); }
  }
  ASSERT_EQ(rec.spans().size(), 2u);
  EXPECT_EQ(rec.spans()[1].parent, 0);
  EXPECT_EQ(rec.spans()[1].op, 7);
  EXPECT_LE(rec.spans()[0].start_s, rec.spans()[1].start_s);
  EXPECT_GE(rec.spans()[0].end_s, rec.spans()[1].end_s);
  const int outer = rec.begin("outer", 1);
  rec.begin("inner", 1);
  EXPECT_THROW(rec.end(outer), std::logic_error);
}

std::vector<double> oneTo(int n) {
  std::vector<double> v(static_cast<std::size_t>(n));
  std::iota(v.begin(), v.end(), 1.0);
  return v;
}

TEST(Percentile, HighestRungWithTenSamplesBeyond) {
  // 100 samples: p90 (rank 90) leaves exactly 10 beyond; p99 leaves 1.
  Summary s = summarize(oneTo(100));
  EXPECT_EQ(s.samples, 100u);
  EXPECT_DOUBLE_EQ(s.tail_pct, 90);
  EXPECT_DOUBLE_EQ(s.tail, 90);
  EXPECT_DOUBLE_EQ(s.p50, 50);
  EXPECT_DOUBLE_EQ(s.max, 100);

  // 99 samples: p90 would leave 9 beyond, so the median is the tail.
  s = summarize(oneTo(99));
  EXPECT_DOUBLE_EQ(s.tail_pct, 50);
  EXPECT_DOUBLE_EQ(s.tail, 50);

  s = summarize(oneTo(1000));
  EXPECT_DOUBLE_EQ(s.tail_pct, 99);
  EXPECT_DOUBLE_EQ(s.tail, 990);

  s = summarize(oneTo(10000));
  EXPECT_DOUBLE_EQ(s.tail_pct, 99.9);
  EXPECT_DOUBLE_EQ(s.tail, 9990);
}

TEST(Percentile, TooFewSamplesHaveNoTail) {
  const Summary s = summarize(oneTo(19));
  EXPECT_EQ(s.samples, 19u);
  EXPECT_DOUBLE_EQ(s.tail_pct, 0);
  EXPECT_DOUBLE_EQ(s.p50, 10);
  EXPECT_DOUBLE_EQ(s.max, 19);
  EXPECT_DOUBLE_EQ(summarize(oneTo(20)).tail_pct, 50);
  EXPECT_EQ(summarize({}).samples, 0u);
}

TEST(Percentile, OrderOfSamplesDoesNotMatter) {
  const Summary s = summarize({5, 1, 4, 2, 3});
  EXPECT_DOUBLE_EQ(s.p50, 3);
  EXPECT_DOUBLE_EQ(s.max, 5);
}

TEST(SeedBases, NoTwoSeedsOrWorkloadsShareAnOperation) {
  // Each (workload, seed) owns [base, base + kOpsPerBase); check that the
  // ranges of neighbouring and extreme seeds never intersect.
  struct Range {
    std::uint64_t lo, hi;
  };
  std::vector<Range> ranges;
  for (const std::uint64_t n :
       {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{2},
        std::uint64_t{3}, std::uint64_t{1000}, kMaxSeed - 1, kMaxSeed}) {
    for (const Workload w :
         {Workload::kFuzz, Workload::kFaults, Workload::kSweep}) {
      const std::uint64_t lo = seedBase(w, n);
      ASSERT_LE(lo, ~std::uint64_t{0} - kOpsPerBase) << "range overflows";
      ranges.push_back({lo, lo + kOpsPerBase});
    }
  }
  for (std::size_t i = 0; i < ranges.size(); ++i) {
    for (std::size_t j = i + 1; j < ranges.size(); ++j) {
      EXPECT_TRUE(ranges[i].hi <= ranges[j].lo || ranges[j].hi <= ranges[i].lo)
          << "ranges " << i << " and " << j << " overlap";
    }
  }
  // Seeds 1 and 2 of the fuzzer's old Rng(seed + i) scheme shared all but
  // one run; here their first runs are a whole range apart.
  EXPECT_GE(seedBase(Workload::kFuzz, 2) - seedBase(Workload::kFuzz, 1),
            kOpsPerBase);
  EXPECT_THROW((void)seedBase(Workload::kFuzz, kMaxSeed + 1),
               std::invalid_argument);
}

TEST(Json, StringLiteralsRoundTripAsStrings) {
  // A literal must not bind to the bool overload.
  JsonObject o;
  o.set("mutation", "none");
  EXPECT_EQ(o.str(), "{\"mutation\":\"none\"}");
  const std::string text = o.str();
  const auto value = unquote(std::string_view(text).substr(12));
  ASSERT_TRUE(value.has_value());
  EXPECT_EQ(*value, "none");
}

TEST(Json, EscapesRoundTrip) {
  for (const std::string& s :
       {std::string("plain"), std::string("q\"uote"), std::string("back\\slash"),
        std::string("new\nline\ttab\r"), std::string("ctl\x01\x1f"),
        std::string("")}) {
    EXPECT_EQ(unquote(quote(s)), s);
  }
  EXPECT_FALSE(unquote("\"unterminated").has_value());
  EXPECT_FALSE(unquote("noquote").has_value());
}

TEST(Json, NumbersKeepEveryDigitAndTypesStayDistinct) {
  JsonObject o;
  o.set("d", 0.1234567890123456);
  o.set("i", std::int64_t{-3});
  o.set("b", true);
  EXPECT_EQ(o.str(), "{\"d\":0.12345678901234559,\"i\":-3,\"b\":true}");
  EXPECT_THROW(o.set("nan", std::nan("")), std::domain_error);
}

}  // namespace
}  // namespace perfbench
