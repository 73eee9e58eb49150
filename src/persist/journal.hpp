// Write-ahead input journal: an append-only log of the ScriptSteps applied
// to a session since its last snapshot, plus barrier records marking
// snapshot checkpoints. Recovery = load the latest valid snapshot, then
// replay the journal records that follow the barrier whose sequence
// matches it (see session_store.hpp for the full protocol).
//
// The file is a util/framed record log (magic "VGSJ"), which owns the
// header, the CRC framing and the torn-tail-versus-corruption split: a
// record or header cut short by the end of the file is a crash tail and is
// dropped; a fully present record that fails its CRC rejects the whole
// journal with kCorruptData. This file owns the record kinds and their
// payloads:
//
//   kStep     op u8 | object str | item str | second item str |
//             choice varint | wait i64 | x i32 | y i32
//   kBarrier  snapshot sequence varint | step count varint
#pragma once

#include <string>
#include <vector>

#include "runtime/script.hpp"
#include "util/bytes.hpp"
#include "util/fileio.hpp"
#include "util/framed.hpp"
#include "util/result.hpp"

namespace vgbl {

inline constexpr u32 kJournalMagic = 0x4A534756;  // "VGSJ" little-endian
inline constexpr u16 kJournalVersion = 1;

struct JournalRecord {
  enum class Kind : u8 { kStep = 1, kBarrier = 2 };
  Kind kind = Kind::kStep;
  ScriptStep step;            ///< meaningful when kind == kStep
  u64 barrier_sequence = 0;   ///< snapshot sequence, when kind == kBarrier
  u64 barrier_step_count = 0; ///< steps covered by that snapshot
};

/// Appends records to a journal file, flushing after every write so the
/// log-before-apply ordering survives a crash of the process.
///
/// Not internally synchronised, deliberately: a writer is always owned by
/// one PersistedSession and every append runs under that student's store
/// shard (apply_locked/checkpoint_locked, see thread_annotations.hpp), or
/// by a single-threaded caller (tests, CLI). Adding a mutex here would
/// hide lock-discipline bugs the shard annotations now catch.
class JournalWriter {
 public:
  /// Creates (or truncates) `path` and writes a fresh file header.
  [[nodiscard]] static Result<JournalWriter> create(const std::string& path);

  Status append_step(const ScriptStep& step);
  Status append_barrier(u64 snapshot_sequence, u64 step_count);

  /// File bytes so far: the header plus every framed record appended.
  [[nodiscard]] u64 bytes_written() const { return bytes_written_; }

 private:
  explicit JournalWriter(framed::LogWriter log) : log_(std::move(log)) {}
  Status append_record(JournalRecord::Kind kind, const Bytes& payload);

  framed::LogWriter log_;
  u64 bytes_written_ = framed::kHeaderSize;
};

struct JournalContents {
  std::vector<JournalRecord> records;
  /// Byte length of the prefix that parsed cleanly (file header included;
  /// 0 when the header itself is torn).
  size_t valid_bytes = 0;
  /// True when a torn record or header at the end of the file was dropped.
  bool torn_tail = false;
};

/// Parses journal bytes. Torn tails are trimmed (crash recovery); bad
/// magic, version, CRC or payload anywhere else returns a typed error.
[[nodiscard]] Result<JournalContents> parse_journal(std::span<const u8> data);

/// Reads and parses a journal file. kNotFound when the file is absent.
[[nodiscard]] Result<JournalContents> read_journal_file(const std::string& path);

/// The steps to replay on top of a snapshot with `snapshot_sequence`:
/// everything after the last barrier whose sequence matches. Returns an
/// empty list when no such barrier exists — then every journaled step is
/// already folded into the snapshot (a crash hit between the snapshot
/// rename and the journal compaction) or the journal belongs to an older
/// generation; replaying would double-apply inputs.
std::vector<ScriptStep> steps_after_barrier(const JournalContents& journal,
                                            u64 snapshot_sequence);

// The shared file helpers (read_binary_file / write_binary_file_atomic)
// moved to util/fileio.hpp so non-persist stores (src/rewards) can share
// them; the include above keeps existing callers compiling.

}  // namespace vgbl
