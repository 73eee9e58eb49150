// Framed durable files: the one header and record-log layout shared by
// every store in src/persist and src/rewards.
//
//   header  magic u32 | version u16 | aux u16 | crc32(first 8 bytes)
//   record  kind u8 | len u32 | crc32(kind, len) | payload | crc32(payload)
//
// `aux` is format-specific (the session snapshot's section count; 0 for
// record logs). Payload codecs and record kinds stay with their formats;
// this layer owns the bytes around them and the failure semantics:
//
//  - a bad magic, short header or header CRC mismatch is kCorruptData; a
//    well-formed header with another version is kUnsupported;
//  - a log record cut short by the end of the input is a *torn tail*, the
//    expected shape of a crash during append: it is dropped and the log
//    stays readable. A record whose header (kind, length, header CRC) is
//    present but fails its header CRC, or that is fully present but fails
//    its payload CRC, is corruption, and the whole log is rejected with
//    kCorruptData. The header CRC is checked before the length is used,
//    so a damaged length is never mistaken for a torn tail (which would
//    trim every record after it), nor a damaged kind for another kind;
//  - a log shorter than its header whose bytes are a prefix of the
//    expected header is an empty torn log (valid_bytes 0): a crash hit
//    between the truncate and the header write of a fresh log;
//  - a record read back by offset (LogWriter::read) is checked the same
//    way: one that runs past the end of the file or fails either CRC is
//    kCorruptData.
#pragma once

#include <cstdio>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "util/bytes.hpp"
#include "util/result.hpp"

namespace vgbl::framed {

inline constexpr size_t kHeaderSize = 12;
/// Framing bytes around a record's payload: kind, length and the two CRCs.
inline constexpr size_t kRecordOverhead = 13;

/// Appends a header to `out`.
void put_header(ByteWriter& out, u32 magic, u16 version, u16 aux);

/// Validates the header at the front of `data` and returns its aux field.
/// `what` names the format in error messages ("VGSJ journal").
[[nodiscard]] Result<u16> check_header(std::span<const u8> data, u32 magic,
                                       u16 version, const char* what);

/// One CRC-verified record; `payload` views the parsed input.
struct Record {
  u8 kind = 0;
  std::span<const u8> payload;
  size_t offset = 0;  ///< byte offset of the record in the log
};

struct Log {
  std::vector<Record> records;
  /// Byte length of the prefix that parsed cleanly, header included; 0
  /// when the header itself is torn.
  size_t valid_bytes = 0;
  /// True when a torn record or header at the end of the input was dropped.
  bool torn_tail = false;
};

/// Parses a record log (header with aux 0, then records).
[[nodiscard]] Result<Log> parse_log(std::span<const u8> data, u32 magic,
                                    u16 version, const char* what);

/// A record read back from a log file; owns its payload.
struct StoredRecord {
  u8 kind = 0;
  Bytes payload;
};

/// Appends records to a log file with one write and one flush per record,
/// so log-before-apply ordering survives a crash of the process, and reads
/// single records back by offset. The live handle is in append mode:
/// every record lands at the file's current end even if another handle
/// truncates the log in between, so a stale buffered offset can never
/// punch a hole in it. Not synchronised; callers serialise every call.
class LogWriter {
 public:
  /// Creates (or truncates) `path` and writes a fresh header.
  [[nodiscard]] static Result<LogWriter> create(const std::string& path,
                                                u32 magic, u16 version);
  /// Opens the log `log` was parsed from for appending, trimming its torn
  /// tail first so the next record starts at a clean boundary. `log` must
  /// hold a complete header (valid_bytes > 0); recreate the log otherwise.
  [[nodiscard]] static Result<LogWriter> reopen(const std::string& path,
                                                const Log& log);

  /// Appends one framed record; returns its framed size in bytes.
  [[nodiscard]] Result<size_t> append(u8 kind, std::span<const u8> payload);

  /// Reads the record that starts at byte `offset` back from the file and
  /// checks its CRCs. Offsets come from size() before an append, or from
  /// Record::offset of the parse the writer was reopened from.
  [[nodiscard]] Result<StoredRecord> read(u64 offset);

  /// Renames the file over `path`, the last step of replacing a log: write
  /// the replacement under a temporary name, then rename it. A crash before
  /// the rename leaves the old log whole.
  [[nodiscard]] Status rename_over(const std::string& path);

  /// Bytes in the file: the offset at which the next record lands.
  [[nodiscard]] u64 size() const { return size_; }

 private:
  struct Closer {
    void operator()(std::FILE* file) const { std::fclose(file); }
  };
  using File = std::unique_ptr<std::FILE, Closer>;

  [[nodiscard]] static Result<LogWriter> open_append(const std::string& path,
                                                     u64 size);
  LogWriter(File file, std::string path, u64 size)
      : file_(std::move(file)), path_(std::move(path)), size_(size) {}

  File file_;
  std::string path_;
  u64 size_ = 0;
  /// False after a read moved the stream position: stdio needs a seek
  /// between a read and the next write.
  bool at_end_ = true;
};

}  // namespace vgbl::framed
