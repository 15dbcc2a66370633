#include "exec/journal.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <cstring>
#include <fstream>
#include <sstream>

#include "common/check.h"

namespace mpcp::exec {

namespace {

std::array<std::uint32_t, 256> makeCrcTable() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) != 0 ? 0xedb88320u ^ (c >> 1) : c >> 1;
    }
    table[i] = c;
  }
  return table;
}

std::string crcHex(std::uint32_t crc) {
  static const char* kHex = "0123456789abcdef";
  std::string out(8, '0');
  for (int i = 7; i >= 0; --i) {
    out[static_cast<std::size_t>(i)] = kHex[crc & 0xf];
    crc >>= 4;
  }
  return out;
}

bool parseCrcHex(const std::string& text, std::uint32_t& out) {
  if (text.size() != 8) return false;
  std::uint32_t v = 0;
  for (const char c : text) {
    v <<= 4;
    if (c >= '0' && c <= '9') {
      v |= static_cast<std::uint32_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      v |= static_cast<std::uint32_t>(c - 'a' + 10);
    } else {
      return false;
    }
  }
  out = v;
  return true;
}

bool kindFromString(const std::string& word, RecordKind& out) {
  if (word == "meta") {
    out = RecordKind::kMeta;
  } else if (word == "start") {
    out = RecordKind::kStart;
  } else if (word == "done") {
    out = RecordKind::kDone;
  } else if (word == "fail") {
    out = RecordKind::kFail;
  } else {
    return false;
  }
  return true;
}

/// Parses one complete line (no trailing newline). False = corrupt.
bool parseLine(const std::string& line, JournalRecord& out) {
  // "<crc8> <kind> <key>[ <payload>]" — split on the first three spaces.
  const std::size_t sp1 = line.find(' ');
  if (sp1 == std::string::npos) return false;
  std::uint32_t recorded = 0;
  if (!parseCrcHex(line.substr(0, sp1), recorded)) return false;
  const std::string body = line.substr(sp1 + 1);
  if (crc32(body) != recorded) return false;
  const std::size_t sp2 = body.find(' ');
  if (sp2 == std::string::npos) return false;
  if (!kindFromString(body.substr(0, sp2), out.kind)) return false;
  const std::size_t sp3 = body.find(' ', sp2 + 1);
  if (sp3 == std::string::npos) {
    out.key = body.substr(sp2 + 1);
    out.payload.clear();
  } else {
    out.key = body.substr(sp2 + 1, sp3 - sp2 - 1);
    out.payload = unescapeLine(body.substr(sp3 + 1));
  }
  return !out.key.empty();
}

}  // namespace

std::uint32_t crc32(const std::string& bytes) {
  static const std::array<std::uint32_t, 256> kTable = makeCrcTable();
  std::uint32_t c = 0xffffffffu;
  for (const char ch : bytes) {
    c = kTable[(c ^ static_cast<unsigned char>(ch)) & 0xffu] ^ (c >> 8);
  }
  return c ^ 0xffffffffu;
}

std::string escapeLine(const std::string& raw) {
  std::string out;
  out.reserve(raw.size());
  for (const char c : raw) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      default: out += c;
    }
  }
  return out;
}

std::string unescapeLine(const std::string& escaped) {
  std::string out;
  out.reserve(escaped.size());
  for (std::size_t i = 0; i < escaped.size(); ++i) {
    if (escaped[i] != '\\' || i + 1 == escaped.size()) {
      out += escaped[i];
      continue;
    }
    const char next = escaped[++i];
    switch (next) {
      case '\\': out += '\\'; break;
      case 'n': out += '\n'; break;
      case 'r': out += '\r'; break;
      default: out += next;  // unknown escape: keep the raw character
    }
  }
  return out;
}

const char* toString(RecordKind kind) {
  switch (kind) {
    case RecordKind::kMeta: return "meta";
    case RecordKind::kStart: return "start";
    case RecordKind::kDone: return "done";
    case RecordKind::kFail: return "fail";
  }
  return "?";
}

std::map<std::string, std::string> JournalLoad::completed() const {
  std::map<std::string, std::string> out;
  for (const JournalRecord& r : records) {
    if (r.kind == RecordKind::kDone) {
      out[r.key] = r.payload;
    } else if (r.kind == RecordKind::kFail || r.kind == RecordKind::kStart) {
      // A later fail/start supersedes an earlier done only for fail (the
      // runner never re-dispatches a done key, so a start after done is
      // stale noise from a crashed resume — keep the done payload).
      if (r.kind == RecordKind::kFail) out.erase(r.key);
    }
  }
  return out;
}

JournalLoad parseJournal(const std::string& text) {
  JournalLoad load;
  std::size_t pos = 0;
  while (pos < text.size()) {
    const std::size_t nl = text.find('\n', pos);
    if (nl == std::string::npos) {
      // No terminating newline: the final record was torn mid-write.
      load.torn_tail = true;
      break;
    }
    const std::string line = text.substr(pos, nl - pos);
    pos = nl + 1;
    if (line.empty()) continue;
    JournalRecord rec;
    if (!parseLine(line, rec)) {
      ++load.corrupt_lines;
      continue;
    }
    if (rec.kind == RecordKind::kMeta && load.meta.empty()) {
      load.meta = rec.payload;
    }
    load.records.push_back(std::move(rec));
  }
  return load;
}

JournalLoad loadJournalFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return {};  // missing file == empty journal
  std::ostringstream buf;
  buf << in.rdbuf();
  return parseJournal(buf.str());
}

JournalIo::~JournalIo() = default;

int JournalIo::open(const std::string& path, int flags, int mode) {
  return ::open(path.c_str(), flags, mode);
}

long JournalIo::write(int fd, const void* data, std::size_t n) {
  return static_cast<long>(::write(fd, data, n));
}

int JournalIo::fsync(int fd) { return ::fsync(fd); }

int JournalIo::close(int fd) { return ::close(fd); }

JournalIo& JournalIo::real() {
  static JournalIo io;
  return io;
}

long FaultyJournalIo::write(int fd, const void* data, std::size_t n) {
  if (budget_bytes < 0) {
    const long w = JournalIo::write(fd, data, n);
    if (w > 0) bytes_written += w;
    return w;
  }
  const std::int64_t room = budget_bytes - bytes_written;
  if (room <= 0 ||
      (!short_writes && static_cast<std::int64_t>(n) > room)) {
    ++write_errors;
    errno = ENOSPC;
    return -1;
  }
  const std::size_t allowed =
      std::min(n, static_cast<std::size_t>(room));
  const long w = JournalIo::write(fd, data, allowed);
  if (w > 0) bytes_written += w;
  return w;
}

int FaultyJournalIo::fsync(int fd) {
  if (fsync_failures_after >= 0 &&
      fsync_calls_++ >= fsync_failures_after) {
    ++fsync_errors;
    errno = EIO;
    return -1;
  }
  return JournalIo::fsync(fd);
}

CampaignJournal::CampaignJournal(const std::string& path, JournalIo* io)
    : path_(path), io_(io != nullptr ? io : &JournalIo::real()) {
  fd_ = io_->open(path, O_WRONLY | O_APPEND | O_CREAT | O_CLOEXEC, 0644);
  if (fd_ < 0) {
    throw ConfigError("cannot open journal '" + path +
                      "' for append: " + std::strerror(errno));
  }
}

CampaignJournal::~CampaignJournal() {
  if (fd_ >= 0) io_->close(fd_);
}

std::string formatRecord(RecordKind kind, const std::string& key,
                         const std::string& payload) {
  MPCP_CHECK(key.find_first_of(" \n\r") == std::string::npos,
             "journal key must be whitespace-free: '" << key << "'");
  std::string body = std::string(toString(kind)) + " " + key;
  const std::string escaped = escapeLine(payload);
  if (!escaped.empty()) body += " " + escaped;
  return crcHex(crc32(body)) + " " + body + "\n";
}

void CampaignJournal::append(RecordKind kind, const std::string& key,
                             const std::string& payload) {
  writeSynced(formatRecord(kind, key, payload));
}

void CampaignJournal::endTornLine() { writeSynced("\n"); }

void CampaignJournal::writeSynced(const std::string& bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  std::size_t off = 0;
  while (off < bytes.size()) {
    const long n = io_->write(fd_, bytes.data() + off, bytes.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw ConfigError("journal write to '" + path_ +
                        "' failed: " + std::strerror(errno));
    }
    off += static_cast<std::size_t>(n);
  }
  if (io_->fsync(fd_) != 0 && errno != EINVAL && errno != EROFS) {
    throw ConfigError("journal fsync on '" + path_ +
                      "' failed: " + std::strerror(errno));
  }
}

OpenedJournal openCampaignJournal(const std::string& path, bool resume,
                                  const std::string& fingerprint) {
  OpenedJournal out;
  if (path.empty()) return out;
  const JournalLoad load = loadJournalFile(path);
  const bool fresh = load.records.empty();
  if (!fresh && !resume) {
    throw ConfigError("journal '" + path +
                      "' already has records; pass --resume to continue "
                      "it or remove the file to start over");
  }
  if (!fresh && !fingerprint.empty() && load.meta != fingerprint) {
    throw ConfigError(
        "journal '" + path +
        "' was recorded under a different configuration; --resume needs "
        "the options it was started with\n  journal: " +
        (load.meta.empty() ? "(no meta record)" : load.meta) +
        "\n  current: " + fingerprint);
  }
  out.completed = load.completed();
  out.corrupt_lines = load.corrupt_lines;
  out.journal = std::make_unique<CampaignJournal>(path);
  if (load.torn_tail) out.journal->endTornLine();
  if (fresh && !fingerprint.empty()) {
    out.journal->append(RecordKind::kMeta, "config", fingerprint);
  }
  return out;
}

}  // namespace mpcp::exec
