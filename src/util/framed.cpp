#include "util/framed.hpp"

#include <algorithm>
#include <filesystem>

#include "util/crc32.hpp"
#include "util/fileio.hpp"

namespace vgbl::framed {
namespace {

bool write_flushed(std::FILE* file, const Bytes& bytes) {
  return std::fwrite(bytes.data(), 1, bytes.size(), file) == bytes.size() &&
         std::fflush(file) == 0;
}

/// A record's kind and length: the bytes its header CRC covers.
constexpr size_t kKindAndLengthSize = 5;
/// Kind, length and header CRC: what precedes a record's payload.
constexpr size_t kRecordHeaderSize = kKindAndLengthSize + 4;

}  // namespace

void put_header(ByteWriter& out, u32 magic, u16 version, u16 aux) {
  const size_t start = out.size();
  out.put_u32(magic);
  out.put_u16(version);
  out.put_u16(aux);
  out.put_u32(crc32(std::span(out.bytes()).subspan(start)));
}

Result<u16> check_header(std::span<const u8> data, u32 magic, u16 version,
                         const char* what) {
  ByteReader r(data);
  auto got_magic = r.u32_();
  if (!got_magic.ok() || got_magic.value() != magic) {
    return corrupt_data(std::string("not a ") + what + " (bad magic)");
  }
  auto got_version = r.u16_();
  auto aux = r.u16_();
  auto header_crc = r.u32_();
  if (!got_version.ok() || !aux.ok() || !header_crc.ok()) {
    return corrupt_data(std::string("truncated ") + what + " header");
  }
  if (header_crc.value() != crc32(data.first(8))) {
    return corrupt_data(std::string(what) + " header crc mismatch");
  }
  if (got_version.value() != version) {
    return unsupported(std::string(what) + " version " +
                       std::to_string(got_version.value()) +
                       " (reader supports " + std::to_string(version) + ")");
  }
  return aux.value();
}

Result<Log> parse_log(std::span<const u8> data, u32 magic, u16 version,
                      const char* what) {
  Log out;
  if (data.size() < kHeaderSize) {
    ByteWriter expected;
    put_header(expected, magic, version, 0);
    if (std::equal(data.begin(), data.end(), expected.bytes().begin())) {
      out.torn_tail = true;
      return out;
    }
  }
  if (auto header = check_header(data, magic, version, what); !header.ok()) {
    return header.error();
  }
  ByteReader r(data);
  (void)r.skip(kHeaderSize);
  out.valid_bytes = r.position();
  while (!r.at_end()) {
    const size_t offset = r.position();
    auto kind = r.u8_();
    auto size = r.u32_();
    auto header_crc = r.u32_();
    if (!kind.ok() || !size.ok() || !header_crc.ok()) {
      out.torn_tail = true;  // the record header itself was cut short
      break;
    }
    // Checked before the length is trusted: a damaged length must not
    // read as a record that runs past the end of the input.
    if (header_crc.value() != crc32(data.subspan(offset, kKindAndLengthSize))) {
      return corrupt_data(std::string(what) + " record at byte " +
                          std::to_string(offset) + " header crc mismatch");
    }
    auto payload = r.view(size.value());
    auto stored_crc = r.u32_();
    if (!payload.ok() || !stored_crc.ok()) {
      out.torn_tail = true;  // payload or trailer cut short
      break;
    }
    if (stored_crc.value() != crc32(payload.value())) {
      return corrupt_data(std::string(what) + " record at byte " +
                          std::to_string(offset) + " crc mismatch");
    }
    out.records.push_back({kind.value(), payload.value(), offset});
    out.valid_bytes = r.position();
  }
  return out;
}

// --- LogWriter --------------------------------------------------------------

Result<LogWriter> LogWriter::create(const std::string& path, u32 magic,
                                    u16 version) {
  ByteWriter header;
  put_header(header, magic, version, 0);
  {
    const File file(std::fopen(path.c_str(), "wb"));
    if (file == nullptr || !write_flushed(file.get(), header.bytes())) {
      return file_error("cannot create log", path);
    }
  }
  return open_append(path, kHeaderSize);
}

Result<LogWriter> LogWriter::reopen(const std::string& path, const Log& log) {
  if (log.valid_bytes == 0) {
    return failed_precondition("log '" + path + "' has no header to keep");
  }
  if (log.torn_tail) {
    std::error_code ec;
    std::filesystem::resize_file(path, log.valid_bytes, ec);
    if (ec) {
      return io_error("cannot trim torn log tail '" + path +
                      "': " + ec.message());
    }
  }
  return open_append(path, log.valid_bytes);
}

Result<LogWriter> LogWriter::open_append(const std::string& path, u64 size) {
  File file(std::fopen(path.c_str(), "a+b"));
  if (file == nullptr) return file_error("cannot open log", path);
  return LogWriter(std::move(file), path, size);
}

Result<size_t> LogWriter::append(u8 kind, std::span<const u8> payload) {
  if (file_ == nullptr) {
    return failed_precondition("log writer was moved-from");
  }
  ByteWriter frame;
  frame.put_u8(kind);
  frame.put_u32(static_cast<u32>(payload.size()));
  frame.put_u32(crc32(frame.bytes()));
  frame.put_raw(payload.data(), payload.size());
  frame.put_u32(crc32(payload));
  if (!at_end_) {
    if (std::fseek(file_.get(), 0, SEEK_END) != 0) {
      return file_error("cannot seek log", path_);
    }
    at_end_ = true;
  }
  if (!write_flushed(file_.get(), frame.bytes())) {
    return file_error("cannot append to log", path_);
  }
  size_ += frame.size();
  return frame.size();
}

Result<StoredRecord> LogWriter::read(u64 offset) {
  if (file_ == nullptr) {
    return failed_precondition("log writer was moved-from");
  }
  const std::string where =
      "log '" + path_ + "' record at byte " + std::to_string(offset);
  if (offset < kHeaderSize || offset + kRecordOverhead > size_) {
    return corrupt_data(where + " lies outside the log");
  }
  at_end_ = false;
  std::FILE* file = file_.get();
  // The file ending before size_ means something else truncated it.
  const auto short_read = [&] {
    return std::ferror(file) != 0
               ? file_error("cannot read log", path_)
               : corrupt_data(where + " runs past the end of the file");
  };
  if (std::fseek(file, static_cast<long>(offset), SEEK_SET) != 0) {
    return file_error("cannot seek log", path_);
  }
  u8 head[kRecordHeaderSize] = {};
  if (std::fread(head, 1, sizeof head, file) != sizeof head) {
    return short_read();
  }
  ByteReader header(head);
  const u8 kind = header.u8_().value();
  const u32 length = header.u32_().value();
  if (header.u32_().value() !=
      crc32(std::span(head).first(kKindAndLengthSize))) {
    return corrupt_data(where + " header crc mismatch");
  }
  if (offset + kRecordOverhead + length > size_) {
    return corrupt_data(where + " runs past the end of the log");
  }
  StoredRecord record{kind, Bytes(length)};
  u8 trailer[4] = {};
  if (std::fread(record.payload.data(), 1, length, file) != length ||
      std::fread(trailer, 1, sizeof trailer, file) != sizeof trailer) {
    return short_read();
  }
  if (ByteReader(trailer).u32_().value() != crc32(record.payload)) {
    return corrupt_data(where + " crc mismatch");
  }
  return record;
}

Status LogWriter::rename_over(const std::string& path) {
  std::error_code ec;
  std::filesystem::rename(path_, path, ec);
  if (ec) {
    return io_error("cannot rename '" + path_ + "' over '" + path +
                    "': " + ec.message());
  }
  path_ = path;
  return {};
}

}  // namespace vgbl::framed
