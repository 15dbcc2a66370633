// The protocol registry (ISSUE 8): one name-keyed source of truth for
// every protocol the repo speaks. The CLI parser, protocol construction,
// the analyzer and the fuzzer all delegate here, so these tests pin the
// contract they share: canonical append-only order, exact name<->kind
// round-trips, and first-class unknown-name diagnostics.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "analysis/ceilings.h"
#include "common/check.h"
#include "core/protocol_registry.h"
#include "model/task_system.h"

namespace mpcp {
namespace {

// Corpus repro files index protocols by this order; changing anything
// but the tail silently retargets old corpus entries (see the
// append-only note in core/protocol_registry.h).
const std::vector<std::string> kCanonicalOrder = {
    "none", "none-prio", "pip",    "pcp",       "mpcp",
    "dpcp", "hybrid",    "spin-fifo", "spin-prio"};

TEST(Registry, CanonicalOrderIsAppendOnly) {
  EXPECT_EQ(protocolNameList(), kCanonicalOrder);
  ASSERT_EQ(protocolRegistry().size(), kCanonicalOrder.size());
}

TEST(Registry, NameKindRoundTrip) {
  for (const ProtocolSpec& spec : protocolRegistry()) {
    EXPECT_EQ(protocolKindFromName(spec.name), spec.kind) << spec.name;
    EXPECT_STREQ(toString(spec.kind), spec.name) << spec.name;
    EXPECT_EQ(&protocolSpec(spec.kind), &spec) << spec.name;
    EXPECT_EQ(findProtocol(spec.name), &spec) << spec.name;
  }
}

TEST(Registry, UnknownNameIsFirstClassAndListsKnownNames) {
  EXPECT_EQ(findProtocol("msrpx"), nullptr);
  try {
    (void)protocolKindFromName("msrpx");
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("unknown protocol 'msrpx'"), std::string::npos) << msg;
    // The diagnostic must make every protocol discoverable.
    for (const std::string& name : kCanonicalOrder) {
      EXPECT_NE(msg.find(name), std::string::npos) << msg << " / " << name;
    }
  }
}

TEST(Registry, SummariesAndCapabilityFlags) {
  for (const ProtocolSpec& spec : protocolRegistry()) {
    EXPECT_NE(spec.summary, nullptr) << spec.name;
    EXPECT_GT(std::string(spec.summary).size(), 10u) << spec.name;
  }
  EXPECT_TRUE(protocolSpec(ProtocolKind::kMpcp).analyzable);
  EXPECT_TRUE(protocolSpec(ProtocolKind::kMpcp).suspension_based);
  EXPECT_FALSE(protocolSpec(ProtocolKind::kNone).analyzable);
  // The spin protocols busy-wait (blocked jobs never suspend) and carry
  // their own blocking analysis (analysis/blocking_spin.h).
  for (const ProtocolKind k :
       {ProtocolKind::kSpinFifo, ProtocolKind::kSpinPrio}) {
    EXPECT_TRUE(protocolSpec(k).analyzable) << toString(k);
    EXPECT_FALSE(protocolSpec(k).suspension_based) << toString(k);
  }
}

TEST(Registry, FactoriesConstructAndSelfIdentify) {
  // A local-only flat-section system is acceptable to every protocol
  // (PCP rejects globals, spin rejects nesting; this has neither).
  TaskSystemBuilder b(2);
  const ResourceId s = b.addResource("S");
  b.addTask({.name = "a", .period = 100, .processor = 0,
             .body = Body{}.compute(1).section(s, 2).compute(1)});
  b.addTask({.name = "b", .period = 200, .processor = 0,
             .body = Body{}.compute(2).section(s, 1)});
  b.addTask({.name = "c", .period = 150, .processor = 1,
             .body = Body{}.compute(3)});
  const TaskSystem sys = std::move(b).build();
  const PriorityTables tables(sys);

  for (const ProtocolSpec& spec : protocolRegistry()) {
    const auto protocol = protocolSpec(spec.kind).make(sys, tables);
    ASSERT_NE(protocol, nullptr) << spec.name;
    // none-prio shares NoProtocol (which reports "none"); every other
    // protocol self-identifies with its canonical registry name.
    if (spec.kind != ProtocolKind::kNonePrio) {
      EXPECT_STREQ(protocol->name(), spec.name);
    }
  }
}

}  // namespace
}  // namespace mpcp
