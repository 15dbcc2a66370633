// A flat JSON object writer for the benchmark's result lines and trace
// events.
//
// Every value type has its own overload, including `const char*`: without
// it a string literal would convert to `bool` (a standard conversion,
// preferred over the user-defined one to std::string) and be written as
// `true`. quote()/unquote() are exact inverses, so string fields
// round-trip.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace perfbench {

/// `s` as a JSON string literal, quotes included.
[[nodiscard]] std::string quote(std::string_view s);

/// Parses the JSON string literal at the start of `text` (which must
/// begin with a quote); nullopt if it is malformed or unterminated.
[[nodiscard]] std::optional<std::string> unquote(std::string_view text);

class JsonObject {
 public:
  void set(std::string_view key, double v);  ///< throws on NaN/inf
  void set(std::string_view key, std::int64_t v);
  void set(std::string_view key, bool v);
  void set(std::string_view key, const std::string& v);
  void set(std::string_view key, const char* v);
  /// `raw_json` must already be a valid JSON value.
  void setRaw(std::string_view key, const std::string& raw_json);

  [[nodiscard]] std::string str() const { return "{" + body_ + "}"; }

 private:
  void add(std::string_view key, const std::string& value);
  std::string body_;
};

}  // namespace perfbench
