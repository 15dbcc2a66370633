#include "obs/counters.h"

#include <algorithm>
#include <sstream>

namespace mpcp::obs {

int BlockingHistogram::bucketOf(Duration d) {
  if (d <= 0) return 0;
  int b = 1;
  while (b < kBuckets - 1 && d >= (Duration{1} << b)) ++b;
  return b;
}

std::pair<Duration, Duration> BlockingHistogram::bucketRange(int b) {
  if (b <= 0) return {0, 1};
  const Duration lo = Duration{1} << (b - 1);
  if (b >= kBuckets - 1) return {lo, -1};
  return {lo, Duration{1} << b};
}

void BlockingHistogram::record(Duration d) {
  buckets[static_cast<std::size_t>(bucketOf(d))]++;
  samples++;
  max_blocked = std::max(max_blocked, d);
  total_blocked += static_cast<std::uint64_t>(d);
}

void BlockingHistogram::merge(const BlockingHistogram& other) {
  for (int b = 0; b < kBuckets; ++b) {
    buckets[static_cast<std::size_t>(b)] +=
        other.buckets[static_cast<std::size_t>(b)];
  }
  samples += other.samples;
  max_blocked = std::max(max_blocked, other.max_blocked);
  total_blocked += other.total_blocked;
}

void ResourceCounters::merge(const ResourceCounters& other) {
  acquisitions += other.acquisitions;
  contended_waits += other.contended_waits;
  handoffs += other.handoffs;
}

void Counters::init(std::size_t n_resources, std::size_t n_processors,
                    std::size_t n_tasks) {
  resources.assign(n_resources, {});
  ready_hwm.assign(n_processors, 0);
  task_blocking.assign(n_tasks, {});
  jobs_released = jobs_finished = deadline_misses = 0;
  preemptions = gcs_preemptions = migrations = inheritance_updates = 0;
  faults_injected = faults_contained = forced_releases = budget_kills = 0;
  jobs_aborted = releases_skipped = misses_while_degraded = 0;
}

std::uint64_t Counters::totalAcquisitions() const {
  std::uint64_t n = 0;
  for (const ResourceCounters& r : resources) n += r.acquisitions;
  return n;
}

std::uint64_t Counters::totalContendedWaits() const {
  std::uint64_t n = 0;
  for (const ResourceCounters& r : resources) n += r.contended_waits;
  return n;
}

std::uint64_t Counters::totalHandoffs() const {
  std::uint64_t n = 0;
  for (const ResourceCounters& r : resources) n += r.handoffs;
  return n;
}

void Counters::merge(const Counters& other) {
  if (other.resources.size() > resources.size()) {
    resources.resize(other.resources.size());
  }
  for (std::size_t i = 0; i < other.resources.size(); ++i) {
    resources[i].merge(other.resources[i]);
  }
  if (other.ready_hwm.size() > ready_hwm.size()) {
    ready_hwm.resize(other.ready_hwm.size(), 0);
  }
  for (std::size_t i = 0; i < other.ready_hwm.size(); ++i) {
    ready_hwm[i] = std::max(ready_hwm[i], other.ready_hwm[i]);
  }
  if (other.task_blocking.size() > task_blocking.size()) {
    task_blocking.resize(other.task_blocking.size());
  }
  for (std::size_t i = 0; i < other.task_blocking.size(); ++i) {
    task_blocking[i].merge(other.task_blocking[i]);
  }
  jobs_released += other.jobs_released;
  jobs_finished += other.jobs_finished;
  deadline_misses += other.deadline_misses;
  preemptions += other.preemptions;
  gcs_preemptions += other.gcs_preemptions;
  migrations += other.migrations;
  inheritance_updates += other.inheritance_updates;
  faults_injected += other.faults_injected;
  faults_contained += other.faults_contained;
  forced_releases += other.forced_releases;
  budget_kills += other.budget_kills;
  jobs_aborted += other.jobs_aborted;
  releases_skipped += other.releases_skipped;
  misses_while_degraded += other.misses_while_degraded;
}

std::string renderExecutorCounters(const ExecutorCounters& c) {
  std::ostringstream os;
  os << "executor: dispatched=" << c.dispatched
     << " completed=" << c.completed << " retries=" << c.retries
     << " crashes=" << c.crashes << " timeouts=" << c.timeouts
     << " failed=" << c.failed << " resumed-skips=" << c.resumed_skips
     << " journal-corrupt-lines=" << c.journal_corrupt_lines;
  return os.str();
}

std::string renderHistogram(const BlockingHistogram& h) {
  std::ostringstream os;
  os << "samples=" << h.samples << " max=" << h.max_blocked
     << " total=" << h.total_blocked;
  for (int b = 0; b < BlockingHistogram::kBuckets; ++b) {
    const std::uint64_t n = h.buckets[static_cast<std::size_t>(b)];
    if (n == 0) continue;
    const auto [lo, hi] = BlockingHistogram::bucketRange(b);
    os << "  [" << lo << ",";
    if (hi < 0) {
      os << "inf";
    } else {
      os << hi;
    }
    os << "):" << n;
  }
  return os.str();
}

std::string renderCounters(const Counters& c) {
  std::ostringstream os;
  os << "jobs: released=" << c.jobs_released
     << " finished=" << c.jobs_finished
     << " deadline-misses=" << c.deadline_misses << "\n";
  os << "scheduling: preemptions=" << c.preemptions
     << " gcs-preemptions=" << c.gcs_preemptions
     << " migrations=" << c.migrations
     << " inheritance-updates=" << c.inheritance_updates << "\n";
  os << "locks: acquisitions=" << c.totalAcquisitions()
     << " contended-waits=" << c.totalContendedWaits()
     << " handoffs=" << c.totalHandoffs() << "\n";
  os << "faults: injected=" << c.faults_injected
     << " contained=" << c.faults_contained
     << " forced-releases=" << c.forced_releases
     << " budget-kills=" << c.budget_kills
     << " jobs-aborted=" << c.jobs_aborted
     << " releases-skipped=" << c.releases_skipped
     << " misses-while-degraded=" << c.misses_while_degraded << "\n";
  os << "ready-queue high-water marks:";
  for (std::size_t p = 0; p < c.ready_hwm.size(); ++p) {
    os << " P" << p << "=" << c.ready_hwm[p];
  }
  os << "\n";
  os << "per-resource:\n";
  for (std::size_t r = 0; r < c.resources.size(); ++r) {
    const ResourceCounters& rc = c.resources[r];
    os << "  S" << r << ": acq=" << rc.acquisitions
       << " contended=" << rc.contended_waits
       << " handoffs=" << rc.handoffs << "\n";
  }
  os << "blocking-time histograms (ticks, log2 buckets):\n";
  for (std::size_t t = 0; t < c.task_blocking.size(); ++t) {
    os << "  tau" << t << ": " << renderHistogram(c.task_blocking[t]) << "\n";
  }
  return os.str();
}

}  // namespace mpcp::obs
