#include "json.h"

#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace perfbench {

std::string quote(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::optional<std::string> unquote(std::string_view text) {
  if (text.empty() || text[0] != '"') return std::nullopt;
  std::string out;
  for (std::size_t i = 1; i < text.size(); ++i) {
    const char c = text[i];
    if (c == '"') return out;
    if (c != '\\') {
      out += c;
      continue;
    }
    if (++i == text.size()) return std::nullopt;
    switch (text[i]) {
      case '"': out += '"'; break;
      case '\\': out += '\\'; break;
      case '/': out += '/'; break;
      case 'n': out += '\n'; break;
      case 'r': out += '\r'; break;
      case 't': out += '\t'; break;
      case 'b': out += '\b'; break;
      case 'f': out += '\f'; break;
      case 'u': {
        // Only the control-character escapes quote() writes.
        if (i + 4 >= text.size()) return std::nullopt;
        const std::string hex(text.substr(i + 1, 4));
        const unsigned long v = std::strtoul(hex.c_str(), nullptr, 16);
        if (v >= 0x20) return std::nullopt;
        out += static_cast<char>(v);
        i += 4;
        break;
      }
      default:
        return std::nullopt;
    }
  }
  return std::nullopt;
}

void JsonObject::set(std::string_view key, double v) {
  if (!std::isfinite(v)) {
    throw std::domain_error("non-finite JSON value for " + std::string(key));
  }
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  add(key, buf);
}

void JsonObject::set(std::string_view key, std::int64_t v) {
  add(key, std::to_string(v));
}

void JsonObject::set(std::string_view key, bool v) {
  add(key, v ? "true" : "false");
}

void JsonObject::set(std::string_view key, const std::string& v) {
  add(key, quote(v));
}

void JsonObject::set(std::string_view key, const char* v) {
  add(key, quote(v));
}

void JsonObject::setRaw(std::string_view key, const std::string& raw_json) {
  add(key, raw_json);
}

void JsonObject::add(std::string_view key, const std::string& value) {
  if (!body_.empty()) body_ += ',';
  body_ += quote(key);
  body_ += ':';
  body_ += value;
}

}  // namespace perfbench
