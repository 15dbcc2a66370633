#include "spans.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <stdexcept>
#include <utility>

#include "json.h"

namespace perfbench {

int SpanRecorder::begin(std::string name, std::int64_t op) {
  if (!record_) return -1;
  Span s;
  s.name = std::move(name);
  s.parent = open_.empty() ? -1 : open_.back();
  s.op = op;
  s.start_s = secondsSince(Clock::now());
  spans_.push_back(std::move(s));
  open_.push_back(static_cast<int>(spans_.size()) - 1);
  return open_.back();
}

void SpanRecorder::end(int id) {
  if (id < 0) return;
  const double t = secondsSince(Clock::now());
  if (open_.empty() || open_.back() != id) {
    throw std::logic_error("span closed out of order: " +
                           spans_.at(static_cast<std::size_t>(id)).name);
  }
  spans_[static_cast<std::size_t>(id)].end_s = t;
  open_.pop_back();
}

double SpanRecorder::secondsSince(Clock::time_point t) const {
  return std::chrono::duration<double>(t - epoch_).count();
}

std::vector<double> selfTimes(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<double, double>>> kids(spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      kids[static_cast<std::size_t>(s.parent)].emplace_back(s.start_s,
                                                            s.end_s);
    }
  }
  std::vector<double> out(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const double lo = spans[i].start_s;
    const double hi = std::max(lo, spans[i].end_s);
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    double covered = 0;
    double reach = lo;  // end of the union covered so far
    for (const auto& [a, b] : iv) {
      const double from = std::max(a, reach);
      const double to = std::min(b, hi);
      if (to > from) {
        covered += to - from;
        reach = to;
      }
    }
    out[i] = std::max(0.0, (hi - lo) - covered);
  }
  return out;
}

std::map<std::string, double> selfTimeByName(const std::vector<Span>& spans,
                                             const std::string& root) {
  const std::vector<double> self = selfTimes(spans);
  // A span belongs to the tree of its outermost ancestor; parents always
  // precede their children in recording order.
  std::vector<int> top(spans.size());
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const int p = spans[i].parent;
    top[i] = p < 0 ? static_cast<int>(i) : top[static_cast<std::size_t>(p)];
    if (spans[static_cast<std::size_t>(top[i])].name == root) {
      out[spans[i].name] += self[i];
    }
  }
  return out;
}

Summary summarize(std::vector<double> values) {
  Summary s;
  s.samples = values.size();
  if (values.empty()) return s;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  // Nearest rank: the value at percentile q is sorted[ceil(q n / 100) - 1]
  // and n - ceil(q n / 100) samples lie beyond it.
  const auto rank = [n](double q) {
    return static_cast<std::size_t>(
        std::ceil(q / 100.0 * static_cast<double>(n) - 1e-9));
  };
  s.p50 = values[std::max<std::size_t>(rank(50), 1) - 1];
  s.max = values.back();
  for (const double q : {50.0, 90.0, 99.0, 99.9, 99.99, 99.999}) {
    const std::size_t r = std::max<std::size_t>(rank(q), 1);
    if (n - r < 10) break;
    s.tail_pct = q;
    s.tail = values[r - 1];
  }
  return s;
}

std::uint64_t seedBase(Workload w, std::uint64_t n) {
  if (n > kMaxSeed) throw std::invalid_argument("seed out of range");
  // 4 workload slots of kOpsPerBase each per seed: 2^30 per seed value.
  return (n << 30) + static_cast<std::uint64_t>(w) * kOpsPerBase;
}

bool writeChromeTrace(const std::string& path,
                      const std::vector<Span>& spans) {
  std::ofstream out(path, std::ios::trunc);
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    JsonObject args;
    args.set("span", static_cast<std::int64_t>(i));
    args.set("parent", static_cast<std::int64_t>(s.parent));
    args.set("op", s.op);
    JsonObject ev;
    ev.set("name", s.name);
    ev.set("ph", "X");
    ev.set("pid", std::int64_t{1});
    ev.set("tid", std::int64_t{1});
    ev.set("ts", s.start_s * 1e6);
    ev.set("dur", std::max(0.0, s.end_s - s.start_s) * 1e6);
    ev.setRaw("args", args.str());
    out << ev.str() << (i + 1 < spans.size() ? ",\n" : "\n");
  }
  out << "]}\n";
  out.flush();
  return static_cast<bool>(out);
}

}  // namespace perfbench
