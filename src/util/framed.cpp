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
    if (!kind.ok() || !size.ok()) {
      out.torn_tail = true;  // the record header itself was cut short
      break;
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
  return open_append(path);
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
  return open_append(path);
}

Result<LogWriter> LogWriter::open_append(const std::string& path) {
  File file(std::fopen(path.c_str(), "ab"));
  if (file == nullptr) return file_error("cannot open log", path);
  return LogWriter(std::move(file), path);
}

Result<size_t> LogWriter::append(u8 kind, std::span<const u8> payload) {
  if (file_ == nullptr) {
    return failed_precondition("log writer was moved-from");
  }
  ByteWriter frame;
  frame.put_u8(kind);
  frame.put_u32(static_cast<u32>(payload.size()));
  frame.put_raw(payload.data(), payload.size());
  frame.put_u32(crc32(payload));
  if (!write_flushed(file_.get(), frame.bytes())) {
    return file_error("cannot append to log", path_);
  }
  return frame.size();
}

}  // namespace vgbl::framed
