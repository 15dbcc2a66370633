// Cooperative SIGINT/SIGTERM handling for the long-running drivers
// (mpcp_cli sweep, mpcp_fuzz) plus the async-signal-safe worker-pid
// registry the subprocess executor feeds.
//
// Contract (ISSUE 5 satellite): Ctrl-C mid-sweep must not lose completed
// work or leak child processes. The handler
//   * records the signal and raises a flag the dispatch loops poll
//     between runs (runs in flight finish; no new runs start),
//   * SIGKILLs every registered worker pid (kill(2) is async-signal-safe),
//   * on a *second* signal _exits immediately with 128+signo — the
//     escape hatch when a worker wedges the graceful path.
// The drivers then flush partial CSV/journal output and exit 130 (SIGINT)
// or 143 (SIGTERM) via interruptExitCode().
#pragma once

#include <sys/types.h>

namespace mpcp::exec {

/// Installs the SIGINT/SIGTERM handler (idempotent).
void installInterruptHandlers();

/// True once a handled signal arrived; dispatch loops poll this.
[[nodiscard]] bool interrupted();

/// Conventional exit code for the received signal: 128 + signo
/// (130 for SIGINT), or 0 if no signal arrived.
[[nodiscard]] int interruptExitCode();

/// Worker-pid registry. The subprocess executor registers each forked
/// child so the signal handler can reap-proof the tree; slots are plain
/// atomics, safe to scan from the handler.
void registerWorkerPid(pid_t pid);
void unregisterWorkerPid(pid_t pid);

/// Sends `sig` to every registered worker (also called by the handler
/// with SIGKILL). Safe from signal context.
void killRegisteredWorkers(int sig);

}  // namespace mpcp::exec
