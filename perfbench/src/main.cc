// perfbench — one workload, one process (so peak RSS is the workload's).
//
//   perfbench --workload fuzz|faults|sweep --seed N --seconds S
//             --trace 0|1 --work DIR [--trace-file PATH] [--setup-probe]
//
// MPCP_THREADS must be 4 for fuzz and sweep, 1 for faults. Prints one
// human-readable line per metric and check, then, as the last line, a
// JSON object: correct, attempted, failed, metrics ({name: {value,
// unit}}), digest and dispatch_clock_s (steady_clock seconds when the
// first operation was dispatched; run.py turns it into setup_s).
// Exits 1 when an output check fails, 2 on a usage error.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <map>
#include <string>

#include "json.h"
#include "workloads.h"

namespace {

int usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload fuzz|faults|sweep --seed N "
               "--seconds S --trace 0|1 --work DIR [--trace-file PATH] "
               "[--setup-probe]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  std::map<std::string, std::string> args;
  bool setup_probe = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--setup-probe") {
      setup_probe = true;
    } else if (a.rfind("--", 0) == 0 && i + 1 < argc) {
      args[a.substr(2)] = argv[++i];
    } else {
      return usage("bad argument '" + a + "'");
    }
  }
  for (const char* required : {"workload", "seed", "seconds", "trace", "work"}) {
    if (args.count(required) == 0) {
      return usage(std::string("missing --") + required);
    }
  }

  RunOptions o;
  try {
    o.workload = parseWorkload(args["workload"]);
    const std::string& seed = args["seed"];
    if (seed.empty() || seed.find_first_not_of("0123456789") != std::string::npos ||
        seed.size() > 10 || std::stoull(seed) > kMaxSeed) {
      return usage("--seed must be an integer in [0, 2^32)");
    }
    o.seed = std::stoull(seed);
    o.seconds = std::stod(args["seconds"]);
    if (!(o.seconds > 0 && o.seconds <= 3600)) {
      return usage("--seconds must be in (0, 3600]");
    }
    if (args["trace"] != "0" && args["trace"] != "1") {
      return usage("--trace must be 0 or 1");
    }
  } catch (const std::exception& e) {
    return usage(e.what());
  }
  o.trace = args["trace"] == "1";
  o.work_dir = args["work"];
  o.trace_path = args.count("trace-file") != 0 ? args["trace-file"]
                                               : o.work_dir + "/spans.json";
  o.setup_probe = setup_probe;

  RunOutcome r;
  try {
    r = runWorkload(o);
  } catch (const std::invalid_argument& e) {
    return usage(e.what());
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }

  const bool correct = r.check_failures.empty();
  char digest[20];
  std::snprintf(digest, sizeof digest, "%016llx",
                static_cast<unsigned long long>(r.digest));
  if (!setup_probe) {
    std::cout << "ops " << r.attempted << " count\n"
              << "ops_failed " << r.failed << " count\n";
    for (const Metric& m : r.metrics) {
      std::cout << m.name << " " << m.value << " " << m.unit << "\n";
    }
    std::cout << "digest " << digest << "\n";
    for (const std::string& f : r.check_failures) {
      std::cout << "check FAILED: " << f << "\n";
    }
    std::cout << "checks " << (correct ? "passed" : "FAILED") << "\n";
  }

  JsonObject metrics;
  for (const Metric& m : r.metrics) {
    JsonObject v;
    v.set("value", m.value);
    v.set("unit", m.unit);
    metrics.setRaw(m.name, v.str());
  }
  JsonObject line;
  line.set("correct", correct);
  line.set("attempted", r.attempted);
  line.set("failed", r.failed);
  line.setRaw("metrics", metrics.str());
  line.set("digest", digest);
  line.set("dispatch_clock_s", r.dispatch_clock_s);
  std::cout << line.str() << std::endl;
  return correct ? 0 : 1;
}
