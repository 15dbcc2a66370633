// The protocol registry: the single name-keyed source of truth for every
// synchronization protocol the repo speaks. One ProtocolSpec per
// protocol carries the canonical name, the ProtocolKind, a factory, and
// capability flags; the engine's protocol construction, the CLI's
// --protocol parser, the analyzer, and the fuzzer's protocol list all
// resolve here, so they can never disagree about which protocols exist
// or what they are called.
//
// Registration is a single static table in protocol_registry.cc rather
// than scattered static-initializer self-registration: the table keeps
// the canonical order deterministic (fuzz corpora and repro files index
// protocols by this order), survives static-library dead-stripping, and
// makes "add a protocol" a one-line diff next to its peers. New
// protocols MUST be appended at the end — corpus replays select
// protocols by name list order, and reordering would silently retarget
// old repro files.
#pragma once

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/ceilings.h"
#include "core/hybrid_protocol.h"
#include "model/task_system.h"
#include "sim/protocol.h"

namespace mpcp {

enum class ProtocolKind {
  kNone,      ///< plain semaphores, FIFO queues, no priority management
  kNonePrio,  ///< plain semaphores with priority-ordered queues
  kPip,       ///< priority inheritance (cross-processor)
  kPcp,       ///< uniprocessor priority ceiling protocol (no globals)
  kMpcp,      ///< the paper's shared-memory protocol
  kDpcp,      ///< message-based baseline [8]
  kHybrid,    ///< per-resource MPCP/DPCP mix (canonical id-parity policy)
  kSpinFifo,  ///< MSRP-style non-preemptive FIFO spin locks
  kSpinPrio,  ///< non-preemptive priority-ordered spin locks
};

struct ProtocolSpec {
  ProtocolKind kind;
  const char* name;     ///< canonical CLI/fuzz/repro name, e.g. "spin-fifo"
  const char* summary;  ///< one-line description for --help and docs
  bool analyzable;      ///< has a bounded-blocking analysis in src/analysis
  bool suspension_based;  ///< blocked jobs suspend (vs busy-wait/spin)
  /// Constructs the protocol. `tables` must outlive the returned object
  /// and must have been computed from `system`.
  std::unique_ptr<SyncProtocol> (*make)(const TaskSystem& system,
                                        const PriorityTables& tables);
};

/// All registered protocols, in canonical (registration) order.
[[nodiscard]] const std::vector<ProtocolSpec>& protocolRegistry();

/// The spec for `kind`. Every enumerator is registered.
[[nodiscard]] const ProtocolSpec& protocolSpec(ProtocolKind kind);

/// Canonical name of `kind` ("mpcp", "spin-fifo", ...).
[[nodiscard]] const char* toString(ProtocolKind kind);

/// Looks a protocol up by canonical name; nullptr when unknown.
[[nodiscard]] const ProtocolSpec* findProtocol(std::string_view name);

/// Name -> kind, throwing ConfigError with the known-name list when
/// `name` is not registered (first-class error for CLI/config paths).
[[nodiscard]] ProtocolKind protocolKindFromName(const std::string& name);

/// Canonical names in registration order (the fuzzer's protocol list).
[[nodiscard]] const std::vector<std::string>& protocolNameList();

/// "none, none-prio, ..." — for diagnostics and usage text.
[[nodiscard]] std::string knownProtocolNames();

/// The canonical mixed policy behind ProtocolKind::kHybrid (and the
/// fuzzer's "hybrid"): global resources alternate shared-memory /
/// message-based by resource id parity.
[[nodiscard]] HybridPolicy defaultHybridPolicy(const TaskSystem& system);

}  // namespace mpcp
