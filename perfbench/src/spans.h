// Span recording and the arithmetic the benchmark reports from it.
//
// A span is one timed call into a layer's public function: name, start,
// end, the span that was open around it, and the operation it belongs
// to. Spans stay in memory and are written once, at the end of a run,
// as Chrome trace-event JSON (Perfetto opens it). A layer's self time
// is its span's duration minus the part of that interval its child
// spans cover; summed over every span of an operation tree, self times
// add up to the root's duration exactly.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct Span {
  std::string name;
  double start_s = 0;  ///< seconds since the recorder's epoch
  double end_s = 0;
  int parent = -1;     ///< index of the enclosing span, -1 for a root
  std::int64_t op = -1;
};

class SpanRecorder {
 public:
  SpanRecorder() = default;
  /// A recorder constructed with `record` false keeps nothing: begin()
  /// returns -1 and end(-1) does nothing.
  explicit SpanRecorder(bool record) : record_(record) {}

  /// Opens a span nested in the innermost open one; returns its index.
  int begin(std::string name, std::int64_t op);
  /// Closes span `id`, which must be the innermost open span.
  void end(int id);
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

 private:
  [[nodiscard]] double secondsSince(Clock::time_point t) const;

  bool record_ = true;
  Clock::time_point epoch_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span: begins on construction, ends on destruction.
class Scope {
 public:
  Scope(SpanRecorder& rec, std::string name, std::int64_t op)
      : rec_(rec), id_(rec.begin(std::move(name), op)) {}
  ~Scope() { rec_.end(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  SpanRecorder& rec_;
  int id_;
};

/// Self time of every span: its duration minus the union of its direct
/// children's intervals, clipped to the span. Never negative.
[[nodiscard]] std::vector<double> selfTimes(const std::vector<Span>& spans);

/// Self time summed by span name, over the trees rooted at spans named
/// `root` (other trees are ignored).
[[nodiscard]] std::map<std::string, double> selfTimeByName(
    const std::vector<Span>& spans, const std::string& root);

/// Summary of a timing sample: median, maximum, and the highest
/// percentile of the ladder 50, 90, 99, 99.9, ... that still has at
/// least ten samples beyond it (nearest-rank). `tail_pct` is 0 when the
/// sample is too small for any of them (fewer than 20 samples).
struct Summary {
  std::size_t samples = 0;
  double p50 = 0;
  double max = 0;
  double tail = 0;
  double tail_pct = 0;
};
[[nodiscard]] Summary summarize(std::vector<double> values);

/// Workloads, in BENCHMARK.json order; the index salts the seed base.
enum class Workload { kFuzz = 0, kFaults = 1, kSweep = 2 };

/// Operations one (workload, seed) pair may draw: run/seed indices
/// [seedBase(w, n), seedBase(w, n) + kOpsPerBase) belong to it alone.
inline constexpr std::uint64_t kOpsPerBase = std::uint64_t{1} << 28;
/// Largest benchmark seed accepted.
inline constexpr std::uint64_t kMaxSeed = (std::uint64_t{1} << 32) - 1;

/// First fuzzer run seed / sweep seed of benchmark seed `n` (n <=
/// kMaxSeed). The fuzzer derives run i from Rng(base + i), so bases are
/// kept kOpsPerBase apart: no two (workload, seed) pairs share a run.
[[nodiscard]] std::uint64_t seedBase(Workload w, std::uint64_t n);

/// Writes `spans` as Chrome trace-event JSON ("X" events, microseconds).
/// Returns false on an I/O error.
bool writeChromeTrace(const std::string& path, const std::vector<Span>& spans);

}  // namespace perfbench
