// CampaignJournal — the durable ledger behind resumable sweeps and fuzz
// campaigns (ISSUE 5).
//
// An append-only text file, one CRC-framed record per line:
//
//   <crc32-hex8> <kind> <key> <escaped-payload>\n
//
// where <kind> is meta|start|done|fail, <key> is the canonical run key
// (whitespace-free), and the payload is backslash-escaped so arbitrary
// bytes (CSV rows, error text) fit on one line. The CRC covers
// "<kind> <key> <escaped-payload>".
//
// Durability contract:
//   * every append is a single write(2) followed by fsync(2), so a record
//     either lands whole or not at all from the journal's point of view —
//     a driver killed with SIGKILL mid-append leaves at most one torn
//     line at the tail;
//   * the loader is torn-tail tolerant: a final line without a newline
//     (any truncation offset inside the last record) is dropped silently
//     and reported via JournalLoad::torn_tail;
//   * an interior line that fails its CRC or does not parse is skipped
//     and counted in JournalLoad::corrupt_lines — one bad sector never
//     poisons the rest of the campaign.
//
// Record semantics (enforced by the campaign runner, not the journal):
//   meta  — config fingerprint; resuming under different options is an
//           error, caught by comparing this record;
//   start — the run was folded; the campaign loop appends it right
//           before that run's done/fail (crash forensics: a start with
//           no done/fail means the driver died between the two appends,
//           not during the run);
//   done  — the run completed; payload is its serialized result row,
//           reused verbatim on resume so aggregates are byte-identical;
//   fail  — the run failed permanently (retries exhausted); re-run on
//           resume, since the failure may have been environmental.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/check.h"

namespace mpcp::exec {

/// CRC-32 (IEEE 802.3, reflected) of `bytes`. Exposed for tests.
[[nodiscard]] std::uint32_t crc32(const std::string& bytes);

/// Escapes backslash / newline / carriage return so any payload is a
/// single journal line; unescapeLine inverts it exactly.
[[nodiscard]] std::string escapeLine(const std::string& raw);
[[nodiscard]] std::string unescapeLine(const std::string& escaped);

enum class RecordKind { kMeta, kStart, kDone, kFail };

[[nodiscard]] const char* toString(RecordKind kind);

struct JournalRecord {
  RecordKind kind = RecordKind::kStart;
  std::string key;
  std::string payload;  ///< unescaped
};

/// Result of parsing a journal. Missing file == empty journal.
struct JournalLoad {
  std::vector<JournalRecord> records;  ///< valid records, file order
  std::uint64_t corrupt_lines = 0;     ///< CRC/format failures (interior)
  bool torn_tail = false;              ///< final record was truncated
  std::string meta;                    ///< payload of the first meta record

  /// Final state per key: payload of the last `done` record. Keys whose
  /// last record is `start` or `fail` are absent — they must be re-run.
  [[nodiscard]] std::map<std::string, std::string> completed() const;
};

[[nodiscard]] JournalLoad parseJournal(const std::string& text);
[[nodiscard]] JournalLoad loadJournalFile(const std::string& path);

/// The exact line CampaignJournal::append writes for (kind, key,
/// payload) — CRC prefix, escaped payload, trailing newline. Exposed so
/// tests can build expected journal bytes. Requires a whitespace-free
/// key.
[[nodiscard]] std::string formatRecord(RecordKind kind, const std::string& key,
                                       const std::string& payload);

/// Injectable disk seam: every byte the journal layer puts on disk goes
/// through one of these, so tests can simulate a hostile disk — ENOSPC,
/// short writes, failing fsync — deterministically and without filling a
/// real filesystem.
/// The base class is the real syscalls; errors are reported errno-style
/// (negative return, errno set) so call sites keep their existing
/// strerror diagnostics.
class JournalIo {
 public:
  virtual ~JournalIo();

  [[nodiscard]] virtual int open(const std::string& path, int flags,
                                 int mode);
  [[nodiscard]] virtual long write(int fd, const void* data,
                                   std::size_t n);
  [[nodiscard]] virtual int fsync(int fd);
  virtual int close(int fd);

  /// The shared real-syscall instance.
  [[nodiscard]] static JournalIo& real();
};

/// A deterministic hostile disk. `budget_bytes` caps the total bytes it
/// will ever write (across all fds): with `short_writes`, a write that
/// crosses the cap is cut at the boundary (a torn record lands) and the
/// NEXT write fails ENOSPC; without it, the crossing write fails whole.
/// Negative budget = unlimited. fsync failures (EIO) start after
/// `fsync_failures_after` successful calls (negative = never fail).
class FaultyJournalIo : public JournalIo {
 public:
  std::int64_t budget_bytes = -1;
  bool short_writes = false;
  int fsync_failures_after = -1;

  // Observability for assertions.
  std::int64_t bytes_written = 0;
  std::uint64_t write_errors = 0;
  std::uint64_t fsync_errors = 0;

  [[nodiscard]] long write(int fd, const void* data, std::size_t n) override;
  [[nodiscard]] int fsync(int fd) override;

 private:
  int fsync_calls_ = 0;
};

/// Append handle. Thread-safe: concurrent appends from pool workers are
/// serialized internally; each record is written + fsync'd before
/// append() returns, so a completed run survives any subsequent crash.
class CampaignJournal {
 public:
  /// Opens `path` for append, creating it. Throws ConfigError on failure.
  /// `io` is the disk seam (null = the real one); it must outlive the
  /// journal.
  explicit CampaignJournal(const std::string& path, JournalIo* io = nullptr);
  ~CampaignJournal();

  CampaignJournal(const CampaignJournal&) = delete;
  CampaignJournal& operator=(const CampaignJournal&) = delete;

  void append(RecordKind kind, const std::string& key,
              const std::string& payload);

  /// Writes a bare newline (fsync'd) so a torn final line ends before
  /// the next record; the torn bytes then load as one corrupt line.
  void endTornLine();

  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  void writeSynced(const std::string& bytes);

  std::string path_;
  int fd_ = -1;
  JournalIo* io_ = nullptr;
  std::mutex mu_;
};

/// A campaign journal opened for append, with what it already holds.
struct OpenedJournal {
  std::unique_ptr<CampaignJournal> journal;  ///< null when no path given
  std::map<std::string, std::string> completed;  ///< JournalLoad::completed()
  std::uint64_t corrupt_lines = 0;
};

/// The journal-open rule both campaign drivers share (sweep, fuzz
/// campaign):
///   * a journal with no valid records is fresh: it is opened for
///     append and, given a non-empty `fingerprint`, starts with a `meta`
///     record;
///   * a journal with valid records is refused (ConfigError) unless
///     `resume` is set, and refused if its `meta` record is missing or
///     differs from a non-empty `fingerprint`.
/// A torn final line is ended before anything is appended. An empty
/// `path` returns an empty OpenedJournal.
[[nodiscard]] OpenedJournal openCampaignJournal(const std::string& path,
                                                bool resume,
                                                const std::string& fingerprint);

}  // namespace mpcp::exec
