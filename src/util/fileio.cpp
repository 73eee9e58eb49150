#include "util/fileio.hpp"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>

namespace vgbl {

Error file_error(const std::string& what, const std::string& path) {
  return io_error(what + " '" + path + "': " + std::strerror(errno));
}

Result<Bytes> read_binary_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    if (errno == ENOENT) return not_found("no such file: " + path);
    return file_error("cannot open", path);
  }
  Bytes data;
  u8 chunk[16384];
  size_t n;
  while ((n = std::fread(chunk, 1, sizeof chunk, f)) > 0) {
    data.insert(data.end(), chunk, chunk + n);
  }
  const bool failed = std::ferror(f) != 0;
  std::fclose(f);
  if (failed) return file_error("cannot read", path);
  return data;
}

Status write_binary_file_atomic(const std::string& path,
                                std::span<const u8> data) {
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) return file_error("cannot create", tmp);
  const bool wrote =
      std::fwrite(data.data(), 1, data.size(), f) == data.size() &&
      std::fflush(f) == 0;
  std::fclose(f);
  if (!wrote) {
    std::remove(tmp.c_str());
    return file_error("cannot write", tmp);
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    std::remove(tmp.c_str());
    return io_error("cannot rename '" + tmp + "' over '" + path +
                    "': " + ec.message());
  }
  return {};
}

}  // namespace vgbl
