// Versioned binary session snapshots. A snapshot serialises one
// GameSession's full mutable state (runtime/session_state.hpp) plus a
// small metadata record, framed for integrity:
//
//   header   magic u32 | version u16 | section_count u16 | crc32(header)
//   section  tag u32 | payload_size u32 | payload | crc32(payload)   (xN)
//
// The header is the util/framed header with `aux` = section count; the
// tagged sections are this format's own.
//
// Corrupt or truncated files are rejected with a typed kCorruptData
// Result — never undefined behaviour. Unknown section tags and trailing
// bytes inside known sections are skipped, so newer writers stay readable
// by older readers (forward compatibility); bumping kSnapshotVersion is
// reserved for breaking layout changes. Scalars ride the little-endian
// ByteWriter/ByteReader primitives; the dense id sets (visited scenarios,
// disarmed rules) use the bitstream's exp-Golomb codes over sorted deltas.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "runtime/session_state.hpp"
#include "util/bytes.hpp"
#include "util/result.hpp"

namespace vgbl {

inline constexpr u32 kSnapshotMagic = 0x53534756;  // "VGSS" little-endian
inline constexpr u16 kSnapshotVersion = 1;

/// Bookkeeping stored alongside the state: which student, which
/// checkpoint generation, and how many journaled inputs it includes (the
/// journal's recovery barrier references `sequence`).
struct SnapshotMeta {
  u64 sequence = 0;    ///< checkpoint generation, monotonically increasing
  u64 step_count = 0;  ///< journaled input steps included in this snapshot
  MicroTime sim_time = 0;
  std::string student_id;
  std::string bundle_title;  ///< sanity check against resuming a wrong bundle
};

Bytes encode_snapshot(const SessionState& state, const SnapshotMeta& meta);

struct DecodedSnapshot {
  SnapshotMeta meta;
  SessionState state;
};
[[nodiscard]] Result<DecodedSnapshot> decode_snapshot(std::span<const u8> data);

/// Shallow structural read for tooling (`vgbl inspect-snapshot`): header,
/// metadata and the section table, without materialising the state.
struct SnapshotSectionInfo {
  u32 tag = 0;
  std::string name;  ///< four-character tag, printable
  size_t payload_bytes = 0;
};
struct SnapshotInfo {
  u16 version = 0;
  SnapshotMeta meta;
  std::vector<SnapshotSectionInfo> sections;
  size_t total_bytes = 0;
};
[[nodiscard]] Result<SnapshotInfo> inspect_snapshot(std::span<const u8> data);

}  // namespace vgbl
