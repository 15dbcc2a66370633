// Differential testing: the event-driven Engine + MpcpProtocol against
// the independent tick-stepped reference implementation. Identical
// finish times for every job across random workloads and the paper's
// Example 3 — any divergence flags a mechanical bug in one of the two.
// The long-horizon case also runs the spin protocols against their own
// tick-stepped reference.
#include <gtest/gtest.h>

#include <map>
#include <string>

#include "common/rng.h"
#include "core/simulate.h"
#include "fuzz/fuzzer.h"
#include "sim/reference_mpcp.h"
#include "sim/reference_spin.h"
#include "taskgen/generator.h"
#include "taskgen/paper_examples.h"

namespace mpcp {
namespace {

void expectSameSchedule(const TaskSystem& sys, Time horizon,
                        const char* label,
                        ProtocolKind kind = ProtocolKind::kMpcp) {
  const SimResult engine = simulate(kind, sys, {.horizon = horizon});
  const ReferenceResult reference =
      kind == ProtocolKind::kMpcp
          ? simulateMpcpReference(sys, horizon)
          : simulateSpinReference(sys, horizon,
                                  kind == ProtocolKind::kSpinPrio);

  std::map<std::pair<std::int32_t, std::int64_t>, Time> engine_finish;
  for (const JobRecord& jr : engine.jobs) {
    engine_finish[{jr.id.task.value(), jr.id.instance}] = jr.finish;
  }
  ASSERT_EQ(engine.jobs.size(), reference.jobs.size()) << label;
  for (const ReferenceJobResult& rj : reference.jobs) {
    const auto it =
        engine_finish.find({rj.id.task.value(), rj.id.instance});
    ASSERT_NE(it, engine_finish.end()) << label << " missing " << rj.id;
    EXPECT_EQ(it->second, rj.finish)
        << label << ": " << sys.task(rj.id.task).name << "#"
        << rj.id.instance << " engine=" << it->second
        << " reference=" << rj.finish;
  }
  EXPECT_EQ(engine.any_deadline_miss, reference.any_deadline_miss) << label;
}

TEST(Differential, Example3MatchesReference) {
  const paper::Example3 ex = paper::makeExample3();
  expectSameSchedule(ex.sys, 600, "example3");
}

TEST(Differential, Examples1And2MatchReference) {
  expectSameSchedule(paper::makeExample1(7).sys, 400, "example1");
  expectSameSchedule(paper::makeExample2(9).sys, 400, "example2");
}

TEST(Differential, RandomWorkloadsMatchReference) {
  WorkloadParams p;
  p.processors = 3;
  p.tasks_per_processor = 3;
  p.utilization_per_processor = 0.5;
  p.period_min = 20;
  p.period_max = 200;   // short periods: many jobs and contention per tick
  p.period_granularity = 10;
  p.global_resources = 2;
  p.global_sharing_prob = 0.9;
  p.cs_min = 1;
  p.cs_max = 5;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed * 911);
    const TaskSystem sys = generateWorkload(p, rng);
    expectSameSchedule(sys, 1'500,
                       ("seed " + std::to_string(seed)).c_str());
  }
}

TEST(Differential, SuspendingWorkloadsMatchReference) {
  WorkloadParams p;
  p.processors = 2;
  p.tasks_per_processor = 3;
  p.utilization_per_processor = 0.4;
  p.period_min = 20;
  p.period_max = 150;
  p.period_granularity = 5;
  p.global_resources = 1;
  p.cs_max = 4;
  p.suspension_prob = 0.6;
  p.suspend_max = 8;
  for (std::uint64_t seed = 1; seed <= 15; ++seed) {
    Rng rng(seed * 401);
    const TaskSystem sys = generateWorkload(p, rng);
    expectSameSchedule(sys, 1'000,
                       ("susp seed " + std::to_string(seed)).c_str());
  }
}

TEST(Differential, OverloadedSystemsStillAgree) {
  // Past the schedulability cliff both implementations must still agree
  // tick for tick (misses included).
  WorkloadParams p;
  p.processors = 2;
  p.tasks_per_processor = 4;
  p.utilization_per_processor = 0.95;
  p.period_min = 20;
  p.period_max = 100;
  p.period_granularity = 5;
  p.global_resources = 2;
  p.global_sharing_prob = 1.0;
  p.cs_max = 6;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    Rng rng(seed * 677);
    const TaskSystem sys = generateWorkload(p, rng);
    expectSameSchedule(sys, 800,
                       ("overload seed " + std::to_string(seed)).c_str());
  }
}

TEST(Differential, LongHorizonFuzzDrawAgree) {
  // The fuzzer's own parameter draw at the fuzz horizon cap, far past the
  // default differential horizon. Every third system has its utilization
  // pushed to the schedulability cliff, so backlogged, deadline-missing
  // schedules (the reference's worst case) are covered too.
  constexpr Time kHorizon = 20'000;
  int overloaded = 0;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    Rng rng(seed * 1'009);
    WorkloadParams p = fuzz::drawWorkloadParams(rng);
    if (seed % 3 == 0) p.utilization_per_processor = 0.95;
    const TaskSystem sys = generateWorkload(p, rng);
    for (const ProtocolKind kind : {ProtocolKind::kMpcp,
                                    ProtocolKind::kSpinFifo,
                                    ProtocolKind::kSpinPrio}) {
      const std::string label =
          "fuzz-draw seed " + std::to_string(seed) + " " + toString(kind);
      expectSameSchedule(sys, kHorizon, label.c_str(), kind);
    }
    if (simulate(ProtocolKind::kMpcp, sys, {.horizon = kHorizon})
            .any_deadline_miss) {
      ++overloaded;
    }
  }
  EXPECT_GT(overloaded, 0) << "no drawn system missed a deadline";
}

}  // namespace
}  // namespace mpcp
