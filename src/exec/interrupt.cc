#include "exec/interrupt.h"

#include <signal.h>
#include <unistd.h>

#include <array>
#include <atomic>

namespace mpcp::exec {

namespace {

// Everything the handler touches is lock-free and async-signal-safe:
// lock-free atomic flags plus an atomic pid table scanned with kill(2).
// The flag is an atomic, not a volatile sig_atomic_t, because pool
// threads poll it through interrupted() while the handler writes it.
static_assert(std::atomic<int>::is_always_lock_free,
              "the signal handler needs a lock-free flag");
std::atomic<int> g_signal{0};
std::atomic<int> g_signal_count{0};

constexpr std::size_t kMaxWorkers = 512;
std::array<std::atomic<pid_t>, kMaxWorkers> g_workers{};

void handleSignal(int sig) {
  g_signal.store(sig);
  killRegisteredWorkers(SIGKILL);
  if (g_signal_count.fetch_add(1, std::memory_order_relaxed) >= 1) {
    // Second Ctrl-C: the graceful path is stuck — bail out now.
    _exit(128 + sig);
  }
}

}  // namespace

void installInterruptHandlers() {
  struct sigaction sa = {};
  sa.sa_handler = handleSignal;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = 0;  // no SA_RESTART: interrupt blocking reads/polls
  sigaction(SIGINT, &sa, nullptr);
  sigaction(SIGTERM, &sa, nullptr);
  ignoreSigpipe();
}

void ignoreSigpipe() {
  struct sigaction sa = {};
  sa.sa_handler = SIG_IGN;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = 0;
  sigaction(SIGPIPE, &sa, nullptr);
}

bool interrupted() { return g_signal.load() != 0; }

int interruptExitCode() {
  const int sig = g_signal.load();
  return sig == 0 ? 0 : 128 + sig;
}

void registerWorkerPid(pid_t pid) {
  for (auto& slot : g_workers) {
    pid_t expected = 0;
    if (slot.compare_exchange_strong(expected, pid,
                                     std::memory_order_acq_rel)) {
      return;
    }
  }
  // Table full (>kMaxWorkers concurrent children — far beyond any pool
  // size here): the child simply is not covered by the kill sweep.
}

void unregisterWorkerPid(pid_t pid) {
  for (auto& slot : g_workers) {
    pid_t expected = pid;
    if (slot.compare_exchange_strong(expected, 0,
                                     std::memory_order_acq_rel)) {
      return;
    }
  }
}

void killRegisteredWorkers(int sig) {
  for (auto& slot : g_workers) {
    const pid_t pid = slot.load(std::memory_order_acquire);
    if (pid > 0) kill(pid, sig);
  }
}

}  // namespace mpcp::exec
