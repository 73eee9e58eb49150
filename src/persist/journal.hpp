// The session store's log records. A store directory holds one
// util/framed record log, `sessions.log` (magic "VGSJ", version 2), shared
// by every student in the directory; session_store.hpp describes the
// protocol and the recovery scan. This file owns the record kinds and
// their payloads. Every payload starts with the student id it belongs to;
// the rest is the kind's body:
//
//   kStep      op u8 | object str | item str | second item str |
//              choice varint | wait i64 | x i32 | y i32
//   kSnapshot  the session snapshot, exactly the bytes encode_snapshot
//              writes (snapshot.hpp)
//   kOpen      empty: a fresh session started here
//   kRemove    empty: a tombstone; the student's earlier records are dead
//
// The framing layer owns the header, the CRCs (one over each record's
// kind and length, one over its payload) and the torn-tail-versus-
// corruption split: a record cut short by the end of the file is a crash
// tail and is dropped; a record that fails either CRC rejects the whole
// log with kCorruptData.
#pragma once

#include <span>
#include <string>
#include <string_view>

#include "runtime/script.hpp"
#include "util/bytes.hpp"
#include "util/result.hpp"

namespace vgbl {

inline constexpr u32 kJournalMagic = 0x4A534756;  // "VGSJ" little-endian
inline constexpr u16 kJournalVersion = 2;

enum class LogRecordKind : u8 {
  kStep = 1,
  kSnapshot = 2,
  kOpen = 3,
  kRemove = 4
};

/// A record payload: `student_id`, then `body`.
[[nodiscard]] Bytes encode_log_payload(std::string_view student_id,
                                       std::span<const u8> body);

struct LogPayload {
  std::string student_id;
  std::span<const u8> body;  ///< views the payload it was decoded from
};

/// Splits a record payload into its student id and body.
[[nodiscard]] Result<LogPayload> decode_log_payload(
    std::span<const u8> payload);

/// The body of a kStep record.
[[nodiscard]] Bytes encode_step(const ScriptStep& step);
[[nodiscard]] Result<ScriptStep> decode_step(std::span<const u8> body);

}  // namespace vgbl
