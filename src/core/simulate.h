// Convenience wrapper: build tables + protocol + engine and run.
#pragma once

#include "core/hybrid_protocol.h"
#include "core/protocol_registry.h"
#include "sim/engine.h"
#include "sim/result.h"

namespace mpcp {

/// Simulates `system` under `kind`. One call = one deterministic run.
[[nodiscard]] SimResult simulate(ProtocolKind kind, const TaskSystem& system,
                                 SimConfig config = {});

/// Simulates `system` under the hybrid protocol with `policy`.
[[nodiscard]] SimResult simulateHybrid(const TaskSystem& system,
                                       const HybridPolicy& policy,
                                       SimConfig config = {});

}  // namespace mpcp
