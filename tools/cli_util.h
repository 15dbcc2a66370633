// Shared command-line helpers for the tools/ binaries.
//
// Bare std::stoi/std::stoull on user input abort with an unhelpful
// "std::invalid_argument: stoi" (or worse, silently accept "12abc" as
// 12). These helpers parse the full token with std::from_chars / strtod,
// name the offending flag, and enforce caller-declared ranges; mains
// catch UsageError, print the message plus usage to stderr, and exit 2.
#pragma once

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

namespace mpcp::cli {

/// A malformed command line. Not a ConfigError: the input file may be
/// fine, it is the invocation that needs fixing, so the handler reprints
/// usage.
class UsageError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

namespace detail {

template <typename T>
T parseIntegral(const std::string& flag, const std::string& text, T min,
                T max) {
  T value{};
  const char* begin = text.data();
  const char* end = begin + text.size();
  const auto [ptr, ec] = std::from_chars(begin, end, value);
  if (text.empty() || ec == std::errc::invalid_argument || ptr != end) {
    throw UsageError(flag + " expects an integer, got '" + text + "'");
  }
  if (ec == std::errc::result_out_of_range || value < min || value > max) {
    throw UsageError(flag + "=" + text + " is out of range [" +
                     std::to_string(min) + ", " + std::to_string(max) + "]");
  }
  return value;
}

}  // namespace detail

/// Parses a signed integer; the whole token must be consumed.
inline std::int64_t parseInt(
    const std::string& flag, const std::string& text,
    std::int64_t min = std::numeric_limits<std::int64_t>::min(),
    std::int64_t max = std::numeric_limits<std::int64_t>::max()) {
  return detail::parseIntegral<std::int64_t>(flag, text, min, max);
}

/// Parses an unsigned integer (rejects "-1" outright rather than
/// wrapping it to 2^64-1 the way std::stoull does).
inline std::uint64_t parseUint(
    const std::string& flag, const std::string& text,
    std::uint64_t min = 0,
    std::uint64_t max = std::numeric_limits<std::uint64_t>::max()) {
  return detail::parseIntegral<std::uint64_t>(flag, text, min, max);
}

/// Parses a double; the whole token must be consumed.
inline double parseDouble(
    const std::string& flag, const std::string& text,
    double min = std::numeric_limits<double>::lowest(),
    double max = std::numeric_limits<double>::max()) {
  if (text.empty()) {
    throw UsageError(flag + " expects a number, got ''");
  }
  errno = 0;
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  if (end != text.c_str() + text.size() || errno == ERANGE) {
    throw UsageError(flag + " expects a number, got '" + text + "'");
  }
  if (value < min || value > max) {
    throw UsageError(flag + "=" + text + " is out of range [" +
                     std::to_string(min) + ", " + std::to_string(max) + "]");
  }
  return value;
}

/// A command line: "--flag value" / "--flag" options and the positional
/// arguments around them.
struct Args {
  std::vector<std::string> positional;
  std::map<std::string, std::string> options;  // value "" = bare flag

  bool has(const std::string& key) const { return options.count(key) != 0; }
  std::string get(const std::string& key, const std::string& fallback) const {
    const auto it = options.find(key);
    return it == options.end() || it->second.empty() ? fallback : it->second;
  }
};

/// Splits argv[first, argc) into options and positional arguments. A flag
/// named in `bare` (without the leading "--") never takes a value; any
/// other flag takes the next token as its value unless that token starts
/// with "--".
inline Args parseArgs(int argc, char** argv, int first,
                      const std::vector<std::string>& bare) {
  Args args;
  for (int i = first; i < argc; ++i) {
    const std::string a = argv[i];
    if (a.rfind("--", 0) != 0) {
      args.positional.push_back(a);
      continue;
    }
    const std::string flag = a.substr(2);
    std::string value;
    const bool takes_value =
        std::find(bare.begin(), bare.end(), flag) == bare.end();
    if (takes_value && i + 1 < argc &&
        std::string(argv[i + 1]).rfind("--", 0) != 0) {
      value = argv[++i];
    }
    args.options[flag] = value;
  }
  return args;
}

/// Throws UsageError naming the first flag in `options` (keys without
/// the leading "--") that is not in `allowed`.
inline void rejectUnknownFlags(
    const std::map<std::string, std::string>& options,
    const std::vector<std::string>& allowed) {
  for (const auto& [flag, value] : options) {
    if (std::find(allowed.begin(), allowed.end(), flag) == allowed.end()) {
      throw UsageError("unknown flag --" + flag);
    }
  }
}

/// Fails fast when `path` cannot be written. Opens in append mode (never
/// truncates an existing file) and removes the file again if the probe
/// created it. Call BEFORE launching a sweep/campaign, so hours of work
/// never die on a typo'd output path (UsageError -> exit 2).
inline void probeWritableFile(const std::string& flag,
                              const std::string& path) {
  namespace fs = std::filesystem;
  std::error_code ec;
  const bool existed = fs::exists(path, ec);
  std::ofstream probe(path, std::ios::app);
  if (!probe) {
    throw UsageError(flag + ": cannot write '" + path + "'");
  }
  probe.close();
  if (!existed) std::remove(path.c_str());
}

/// Accumulates one sweep CSV row ("seed,v1,...,vN") into totals[0..N).
/// Rows come back through the campaign journal — they may have crossed a
/// crash, a kill -9, or a partial flush — so every field is parsed
/// checked and the column count is enforced before anything is added. A
/// bad row throws std::runtime_error naming the row, the column, and the
/// offending text (NOT UsageError: the invocation was fine, the journal
/// data is bad, so the handler must not reprint usage).
inline void accumulateSweepTotals(const std::string& payload,
                                  std::uint64_t* totals,
                                  std::size_t columns) {
  std::istringstream row(payload);
  std::string field;
  std::vector<std::uint64_t> values;
  for (std::size_t col = 0; std::getline(row, field, ','); ++col) {
    std::uint64_t value{};
    const char* begin = field.data();
    const char* end = begin + field.size();
    const auto [ptr, ec] = std::from_chars(begin, end, value);
    if (field.empty() || ec != std::errc() || ptr != end) {
      throw std::runtime_error("malformed sweep row '" + payload +
                               "': column " + std::to_string(col) +
                               " is not an unsigned integer: '" + field + "'");
    }
    values.push_back(value);
  }
  if (values.size() != columns + 1) {  // +1: the leading seed column
    throw std::runtime_error("malformed sweep row '" + payload +
                             "': expected " + std::to_string(columns + 1) +
                             " comma-separated columns, got " +
                             std::to_string(values.size()));
  }
  for (std::size_t i = 0; i < columns; ++i) totals[i] += values[i + 1];
}

/// Fails fast when `dir` cannot be created or written into. Probes with
/// a throwaway file that is removed again.
inline void probeWritableDir(const std::string& flag,
                             const std::string& dir) {
  namespace fs = std::filesystem;
  std::error_code ec;
  fs::create_directories(dir, ec);  // best effort; the probe decides
  const std::string probe_path = dir + "/.mpcp-write-probe";
  std::ofstream probe(probe_path);
  if (!probe) {
    throw UsageError(flag + ": cannot write into directory '" + dir + "'");
  }
  probe.close();
  std::remove(probe_path.c_str());
}

}  // namespace mpcp::cli
