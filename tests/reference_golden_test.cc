// Golden bit-identity gate for the tick-stepped reference simulators.
//
// The reference simulators are the differential oracles the engine is
// checked against, so a change to their inner data structures must not
// move a single finish time or counter. Each result is folded into an
// FNV-1a digest (jobs, deadline verdict, lock counters, fault counters);
// the digests of fixed blocks of fuzz-drawn systems are pinned below.
// They were recorded on the simulators as they stood before the live-job
// rewrite, and any intentional behaviour change must re-record them.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <cstdio>

#include "common/rng.h"
#include "fault/plan.h"
#include "fuzz/fuzzer.h"
#include "sim/reference_mpcp.h"
#include "sim/reference_spin.h"
#include "taskgen/generator.h"

namespace mpcp {
namespace {

constexpr int kVariants = 5;
constexpr std::array<const char*, kVariants> kVariantNames = {
    "mpcp", "mpcp+plan", "mpcp+plan+watchdog", "spin-fifo", "spin-prio"};

struct Fnv1a {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  }
  void add(std::int64_t v) { add(static_cast<std::uint64_t>(v)); }
};

void fold(Fnv1a& f, const ReferenceResult& r) {
  f.add(static_cast<std::uint64_t>(r.jobs.size()));
  for (const ReferenceJobResult& j : r.jobs) {
    f.add(static_cast<std::int64_t>(j.id.task.value()));
    f.add(j.id.instance);
    f.add(j.release);
    f.add(j.finish);
  }
  f.add(static_cast<std::uint64_t>(r.any_deadline_miss));
  for (const obs::ResourceCounters& rc : r.counters.resources) {
    f.add(rc.acquisitions);
    f.add(rc.contended_waits);
    f.add(rc.handoffs);
  }
  f.add(r.counters.faults_injected);
  f.add(r.counters.faults_contained);
  f.add(r.counters.forced_releases);
}

// Folds `count` fuzz-drawn systems (seeds first_seed, first_seed+1, ...)
// into one digest per variant. A system a variant rejects (ConfigError)
// folds a fixed marker instead, so rejections are pinned too.
std::array<std::uint64_t, kVariants> blockDigests(std::uint64_t first_seed,
                                                  int count, Time horizon) {
  std::array<Fnv1a, kVariants> f;
  for (int i = 0; i < count; ++i) {
    Rng rng(first_seed + static_cast<std::uint64_t>(i));
    const WorkloadParams params = fuzz::drawWorkloadParams(rng);
    const TaskSystem sys = generateWorkload(params, rng);
    const fault::FaultPlan plan = fault::FaultPlan::random(rng, sys, 2);
    for (int v = 0; v < kVariants; ++v) {
      try {
        switch (v) {
          case 0: fold(f[v], simulateMpcpReference(sys, horizon)); break;
          case 1:
            fold(f[v], simulateMpcpReference(sys, horizon, &plan));
            break;
          case 2:
            fold(f[v], simulateMpcpReference(sys, horizon, &plan, 40));
            break;
          case 3:
            fold(f[v], simulateSpinReference(sys, horizon, false));
            break;
          default:
            fold(f[v], simulateSpinReference(sys, horizon, true));
            break;
        }
      } catch (const ConfigError&) {
        f[v].add(~std::uint64_t{0});
      }
    }
  }
  std::array<std::uint64_t, kVariants> out{};
  for (int v = 0; v < kVariants; ++v) out[v] = f[v].h;
  return out;
}

struct GoldenBlock {
  std::uint64_t first_seed;
  int count;
  Time horizon;
  std::array<std::uint64_t, kVariants> digests;
};

// 200 systems at the fuzzer's default differential horizon, in blocks of
// 20 so a mismatch narrows to a few seeds, plus 20 at a long horizon.
constexpr GoldenBlock kGolden[] = {
    {1000, 20, 1200,
     {0x67062b6ff9674dffULL, 0xc95acc5d90d4805dULL,
      0x02af77a5a9e42f4eULL, 0x4ffd89bb0315c6ddULL,
      0x2debe603be4dde09ULL}},
    {1020, 20, 1200,
     {0xb72d17ad8720a891ULL, 0x11701961d816df8dULL,
      0x2559d3ddb8f3ef12ULL, 0xd7a19fd9efcb677eULL,
      0x7a7a38f7009dab63ULL}},
    {1040, 20, 1200,
     {0xa60455bf1097d0f6ULL, 0x0fdcf2def75fb8b7ULL,
      0x7cd4400fda1527bfULL, 0xd0101ed4fcdebce7ULL,
      0x27ab9c3542341e76ULL}},
    {1060, 20, 1200,
     {0x1f583c16ffa2c837ULL, 0x1eb5e13e31ca0391ULL,
      0x420908f3a95add4dULL, 0xba41d5037239a91bULL,
      0x41d97bf5492d1874ULL}},
    {1080, 20, 1200,
     {0x9b5825b404f97777ULL, 0x61435aa5520ebd6eULL,
      0x5c78c280807ab094ULL, 0xb66803d9b57166efULL,
      0xb66803d9b57166efULL}},
    {1100, 20, 1200,
     {0x83565e6886f18764ULL, 0x3207344bfe949d4aULL,
      0xc772647d6c30b636ULL, 0xa9edd70611938c97ULL,
      0x19826c5e9838d186ULL}},
    {1120, 20, 1200,
     {0x865f16f19882b740ULL, 0x79e7835a6572e07eULL,
      0xa6a16967976bbb12ULL, 0xedfda181c0b54778ULL,
      0xedfda181c0b54778ULL}},
    {1140, 20, 1200,
     {0xf5888a87debf873bULL, 0xdcbf5b25740bed8aULL,
      0x4d4bf697fb77dae4ULL, 0x2183bd86260eb6b7ULL,
      0x8823cffac5466d62ULL}},
    {1160, 20, 1200,
     {0x98238f87e46d5bf7ULL, 0x2d17a147142e63adULL,
      0xcc54a81eee234c15ULL, 0xf7a306217374f229ULL,
      0x25a50d11d2f221d6ULL}},
    {1180, 20, 1200,
     {0x93c1845b62c393edULL, 0xdb42d94c757dba82ULL,
      0xe3efaa7a27943083ULL, 0x6867939779aebc97ULL,
      0x62b24829f4e30fc0ULL}},
    {5000, 20, 6000,
     {0x5768e9ebb430c954ULL, 0xee0ee687b379e59dULL,
      0x7eb23016a978e1b0ULL, 0xe35be94ad576c544ULL,
      0x63c94f31117efed7ULL}},
};

void expectBlock(const GoldenBlock& b) {
  const auto got = blockDigests(b.first_seed, b.count, b.horizon);
  for (int v = 0; v < kVariants; ++v) {
    char hex[19];
    std::snprintf(hex, sizeof hex, "0x%016llx",
                  static_cast<unsigned long long>(got[v]));
    EXPECT_EQ(got[v], b.digests[v])
        << kVariantNames[v] << " over seeds [" << b.first_seed << ", "
        << b.first_seed + static_cast<std::uint64_t>(b.count)
        << ") at horizon " << b.horizon << " now digests to " << hex;
  }
}

TEST(ReferenceGolden, DifferentialHorizonDigestsArePinned) {
  for (const GoldenBlock& b : kGolden) {
    if (b.horizon == 1'200) expectBlock(b);
  }
}

TEST(ReferenceGolden, LongHorizonDigestsArePinned) {
  for (const GoldenBlock& b : kGolden) {
    if (b.horizon != 1'200) expectBlock(b);
  }
}

}  // namespace
}  // namespace mpcp
