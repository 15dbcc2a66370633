#include "core/simulate.h"

namespace mpcp {

SimResult simulate(ProtocolKind kind, const TaskSystem& system,
                   SimConfig config) {
  PriorityTables tables(system);
  auto protocol = protocolSpec(kind).make(system, tables);
  Engine engine(system, *protocol, config);
  return engine.run();
}

SimResult simulateHybrid(const TaskSystem& system, const HybridPolicy& policy,
                         SimConfig config) {
  PriorityTables tables(system);
  HybridProtocol protocol(system, tables, policy);
  Engine engine(system, protocol, config);
  return engine.run();
}

}  // namespace mpcp
