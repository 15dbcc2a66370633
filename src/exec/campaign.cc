#include "exec/campaign.h"

#include <algorithm>
#include <optional>

#include "common/strf.h"
#include "exec/interrupt.h"
#include "exec/journal.h"

namespace mpcp::exec {

std::string runKey(std::uint64_t seed_base, int s) {
  return strf("s", seed_base + static_cast<std::uint64_t>(s));
}

CampaignOutcome runCampaign(
    exp::SweepRunner& runner, int seeds, std::uint64_t seed_base,
    const CampaignOptions& options,
    const std::function<std::string(int, Rng&)>& fn) {
  CampaignOutcome out;
  out.payloads.resize(static_cast<std::size_t>(std::max(0, seeds)));

  // Journal setup: load + validate before dispatching anything.
  const OpenedJournal opened = openCampaignJournal(
      options.journal_path, options.resume, options.config_fingerprint);
  CampaignJournal* journal = opened.journal.get();
  out.exec.journal_corrupt_lines = opened.corrupt_lines;

  exp::InThreadExecutor in_thread;
  exp::RunExecutor& base =
      options.executor != nullptr ? *options.executor : in_thread;
  RetryingExecutor retrying(base, options.retry);

  // Runs execute in the pool lanes; nullopt marks a seed the journal
  // already completed. Only this thread folds, in seed order, so the
  // journal is the same bytes at any thread count.
  runner.stream(
      seeds, seed_base, [] { return !interrupted(); },
      [&](int s, Rng&) -> std::optional<exp::ExecResult> {
        if (opened.completed.count(runKey(seed_base, s)) != 0) {
          return std::nullopt;
        }
        return retrying.execute([&, s] {
          Rng rng = exp::SweepRunner::rngFor(seed_base, s);
          return fn(s, rng);
        });
      },
      [&](int s, std::optional<exp::ExecResult>&& r) {
        const std::string key = runKey(seed_base, s);
        std::optional<std::string>& payload =
            out.payloads[static_cast<std::size_t>(s)];
        if (!r.has_value()) {
          payload = opened.completed.at(key);
          ++out.exec.resumed_skips;
          return true;
        }
        ++out.exec.dispatched;
        if (journal != nullptr) journal->append(RecordKind::kStart, key, "");
        if (r->ok) {
          if (journal != nullptr) {
            journal->append(RecordKind::kDone, key, r->payload);
          }
          payload = std::move(r->payload);
          ++out.exec.completed;
          return true;
        }
        if (journal != nullptr) {
          journal->append(RecordKind::kFail, key, r->error);
        }
        ++out.exec.failed;
        if (r->signal != 0 && !r->timed_out) ++out.exec.crashes;
        if (r->timed_out) ++out.exec.timeouts;
        exp::RunFailure failure;
        failure.seed = s;
        failure.error = std::move(r->error);
        failure.timed_out = r->timed_out;
        failure.signal = r->signal;
        failure.exit_code = r->exit_code;
        failure.stderr_tail = std::move(r->stderr_tail);
        failure.attempts = r->attempts;
        out.failures.push_back(std::move(failure));
        return true;
      });

  out.exec.retries = retrying.retries();
  out.interrupted = interrupted();
  return out;
}

}  // namespace mpcp::exec
