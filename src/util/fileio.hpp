// Shared binary-file helpers for the persistence-shaped subsystems
// (src/persist session store, src/rewards badge store): whole-file reads
// and atomic whole-file writes. Record logs go through util/framed.
#pragma once

#include <span>
#include <string>

#include "util/bytes.hpp"
#include "util/result.hpp"

namespace vgbl {

/// Reads a whole file. kNotFound when absent, kIoError on read failure.
[[nodiscard]] Result<Bytes> read_binary_file(const std::string& path);

/// kIoError naming `what`, `path` and the C library's errno.
[[nodiscard]] Error file_error(const std::string& what, const std::string& path);

/// Writes `data` atomically: to `path + ".tmp"`, then rename over `path`.
/// Readers therefore never observe a half-written file.
[[nodiscard]] Status write_binary_file_atomic(const std::string& path,
                                              std::span<const u8> data);

}  // namespace vgbl
