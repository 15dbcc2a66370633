// Signal-flag handoff: the SIGINT/SIGTERM handler writes the interrupt
// flag while pool threads poll it through interrupted(). Each case runs
// in a forked death-test child so the installed handler and the raised
// signal stay out of every other test in the binary.
#include <gtest/gtest.h>

#include <atomic>
#include <csignal>
#include <cstdlib>
#include <thread>

#include "exec/interrupt.h"

namespace mpcp::exec {
namespace {

// A polling thread, like a fuzz or sweep worker between runs, sees a
// SIGTERM delivered to another thread, and the process exits 128 + 15.
// Under ThreadSanitizer this is also the race check on the flag itself.
void pollThenRaise() {
  installInterruptHandlers();
  std::atomic<bool> polling{false};
  std::thread poller([&] {
    polling.store(true);
    while (!interrupted()) std::this_thread::yield();
  });
  while (!polling.load()) std::this_thread::yield();
  std::raise(SIGTERM);
  poller.join();
  std::exit(interruptExitCode());
}

TEST(InterruptDeathTest, PollingThreadSeesSigtermAndExitCodeIs143) {
  EXPECT_EXIT(pollThenRaise(), ::testing::ExitedWithCode(143), "");
}

// When the whole binary runs, gtest runs *DeathTest suites first, so
// this also checks that the signal raised in the forked child never
// reached this process.
TEST(Interrupt, ParentProcessStaysUninterrupted) {
  EXPECT_FALSE(interrupted());
  EXPECT_EQ(interruptExitCode(), 0);
}

}  // namespace
}  // namespace mpcp::exec
