// Fleet work bodies: how a worker turns a run key into result bytes.
//
// The coordinator ships a *body spec* string in its WELCOME frame — a
// one-line, space-separated "kind k=v k=v ..." description of the
// campaign's workload (everything that shapes row bytes, nothing about
// execution strategy). The worker looks the kind up in a name-keyed
// registry (mirroring core/protocol_registry.h), builds the body once
// per session, and then maps each leased key to a payload.
//
// Registration is explicit and side-effect free at link time: binaries
// call registerSweepFleetBody() (and fuzz::registerFuzzFleetBody(), which
// lives in src/fuzz/ so the fabric never links the fuzzer) from main().
// This keeps the dependency arrow fuzz -> fabric, never the reverse.
//
// Determinism contract: a body must derive everything from the spec and
// the key alone — the sweep body re-derives Rng(seed_base + s) from the
// key "s<seed_base+s>", the SweepRunner convention — so any worker, on
// any machine, at any retry, produces byte-identical payloads. That is
// what makes duplicate execution after a steal or a reap harmless and
// the merged journal byte-identical to a serial run.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/types.h"
#include "core/protocol_registry.h"
#include "taskgen/generator.h"

namespace mpcp::exec::fabric {

/// Outcome of one unit of fleet work, tagged with the worker that ran it.
struct FleetResult {
  std::string key;
  bool ok = false;
  std::string payload;  ///< result bytes when ok, error text when not
  std::string worker;   ///< filled by the coordinator on receipt
};

using FleetBodyFn = std::function<FleetResult(const std::string& key)>;

/// Builds a body from a spec string; throws ConfigError on a spec the
/// kind cannot parse (the worker refuses the campaign).
using FleetBodyFactory = std::function<FleetBodyFn(const std::string& spec)>;

void registerFleetBodyKind(const std::string& kind, FleetBodyFactory factory);

/// nullptr when the kind is unknown.
[[nodiscard]] const FleetBodyFactory* findFleetBodyKind(
    const std::string& kind);

/// Registered kind names, sorted (advertised in HELLO).
[[nodiscard]] std::vector<std::string> fleetBodyKinds();

/// First space-separated token of a spec — its kind.
[[nodiscard]] std::string fleetBodyKind(const std::string& spec);

/// Spec-string helpers shared by the body kinds: "k=v" token access with
/// checked parses. Doubles are formatted with %.17g so they round-trip
/// bit-exactly through the spec.
[[nodiscard]] std::string specValue(const std::string& spec,
                                    const std::string& key);
[[nodiscard]] std::string formatSpecDouble(double v);
[[nodiscard]] std::int64_t specInt(const std::string& spec,
                                   const std::string& key);
[[nodiscard]] double specDouble(const std::string& spec,
                                const std::string& key);

/// One sweep seed as its CSV row: generate under Rng(derived_seed) (the
/// SweepRunner convention), run RTA and a traceless simulation, format
/// the counters. The run body of both mpcp_cli sweep and "sweep-v1".
[[nodiscard]] std::string sweepRow(ProtocolKind kind,
                                   const WorkloadParams& params,
                                   Time horizon, std::uint64_t derived_seed);

/// The "sweep-v1" body: sweepRow for the seed its key names.
void registerSweepFleetBody();
[[nodiscard]] std::string makeSweepBodySpec(const std::string& protocol,
                                            std::uint64_t seed_base,
                                            Time horizon,
                                            const WorkloadParams& params,
                                            int sleep_ms);

/// Applies the chaos test aids before running `key` (used by the worker
/// loop; exposed for the docs' sake):
///   MPCP_FABRIC_CRASH_KEY + MPCP_FABRIC_CRASH_MARK — SIGKILL self on
///     this key, once across the fleet (the mark file is O_EXCL);
///   MPCP_FABRIC_WEDGE_KEY + MPCP_FABRIC_WEDGE_MS + MPCP_FABRIC_WEDGE_MARK
///     — sleep silently past the heartbeat deadline, once.
void applyChaosAids(const std::string& key);

}  // namespace mpcp::exec::fabric
