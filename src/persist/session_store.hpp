// Crash-recoverable session store: manages suspended/resumable game
// sessions on disk, keyed by student id. A store directory holds one
// append-only record log, `sessions.log`, shared by every student in it
// (journal.hpp lists the record kinds: step, snapshot, open, remove).
//
// Protocol. Every input is logged *before* it is applied (WAL), so a crash
// at any point loses at most the in-flight step. A checkpoint (every N
// applied steps per CheckpointPolicy, or on request) appends one snapshot
// record. The log is totally ordered, so a student's latest snapshot
// record is its own barrier: recovery restores it and replays only that
// student's step records after it. A student with no snapshot yet replays
// every step since its open record; a remove record drops everything
// before it. A resuming open folds what it replayed into a fresh snapshot
// record, so the next resume replays nothing.
//
// Recovery is one scan. The constructor parses the log once (a torn tail
// is trimmed, a CRC failure anywhere else is kCorruptData) and keeps an
// index: per student, the offset of its latest snapshot or open record and
// of the step records after it. A resuming open reads those records back
// from the file by offset and checks their CRCs; it is never served from
// memory. The constructor cannot fail, so a scan error is returned by
// every later call and by status(). A directory that holds format-1
// per-student `*.snap`/`*.journal` files and no log fails with
// kUnsupported.
//
// Compaction. Records a later snapshot or remove supersedes are dead. Once
// the dead bytes exceed both the live bytes and kLogCompactionBytes, the
// next append first copies the live records into `sessions.log.tmp` and
// renames it over the log; a crash before the rename leaves the old log
// whole (and a stale .tmp the next compaction overwrites).
//
// Sessions are deterministic under SimClock, so a resumed session driven
// with the remaining inputs produces the same SessionEvent log as an
// uninterrupted run.
//
// Concurrency. The store is safe to share across threads as long as each
// thread works on its own student ids: a pool of sharded mutexes keyed by
// student id serialises open/apply/checkpoint/remove for the same student
// while different students proceed without contention. Every log access
// (append, by-offset read, compaction) then takes the log mutex, always
// after the student's shard. One store per directory: the index is the
// store's, so two stores appending to one log would corrupt each other's
// view. The store must outlive every PersistedSession it opened.
#pragma once

#include <array>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "persist/journal.hpp"
#include "persist/snapshot.hpp"
#include "runtime/script.hpp"
#include "runtime/session.hpp"
#include "util/framed.hpp"
#include "util/sim_clock.hpp"
#include "util/thread_annotations.hpp"

namespace vgbl {

/// When to take an automatic checkpoint during `PersistedSession::apply`:
/// every N applied steps. With 0 only explicit `checkpoint()` calls
/// persist progress (the log still protects every step).
struct CheckpointPolicy {
  u64 every_steps = 25;
};

struct SessionStoreOptions {
  std::string directory;
  CheckpointPolicy policy;
  SessionOptions session;  ///< forwarded to every GameSession it creates
};

/// Dead log bytes past which the store compacts (when they also exceed
/// the live bytes).
inline constexpr u64 kLogCompactionBytes = u64{1} << 20;

class SessionStore;

/// A live session bound to its records in the store's log. Created by
/// `SessionStore::open_session`; owns the clock and the session. Not
/// movable — the GameSession holds a pointer to the embedded clock.
class PersistedSession {
 public:
  PersistedSession(const PersistedSession&) = delete;
  PersistedSession& operator=(const PersistedSession&) = delete;

  [[nodiscard]] GameSession& session() { return *session_; }
  [[nodiscard]] const GameSession& session() const { return *session_; }
  [[nodiscard]] SimClock& clock() { return clock_; }
  [[nodiscard]] const std::string& student_id() const { return student_id_; }

  /// True when this session was restored from the log (the student had
  /// records there) rather than started fresh.
  [[nodiscard]] bool resumed() const { return resumed_; }
  /// Logged steps replayed on top of the snapshot during open.
  [[nodiscard]] u64 replayed_steps() const { return replayed_steps_; }
  /// Inputs applied across all runs of this session.
  [[nodiscard]] u64 step_count() const { return step_count_; }
  /// Sequence of the latest snapshot in the log (0: none yet).
  [[nodiscard]] u64 checkpoint_sequence() const { return sequence_; }
  [[nodiscard]] u64 checkpoints_taken() const { return checkpoints_taken_; }

  /// Applies one input with write-ahead logging: log the step, run it
  /// (with ScriptRunner pacing: step, then step_pause + tick), then take
  /// an automatic checkpoint when the policy says so. Mirrors
  /// `ScriptRunner::run` exactly so live, resumed and uninterrupted runs
  /// stay input-for-input identical: a no-op once the game is over, and a
  /// step that fails leaves the state unchanged (the logged copy re-fails
  /// identically on recovery replay).
  Status apply(const ScriptStep& step) VGBL_EXCLUDES(*store_mutex_);

  /// Appends a snapshot of the current state to the log.
  Status checkpoint() VGBL_EXCLUDES(*store_mutex_);

 private:
  friend class SessionStore;
  PersistedSession(std::shared_ptr<const GameBundle> bundle,
                   SessionOptions options, CheckpointPolicy policy,
                   std::string student_id, SessionStore* store,
                   Mutex* store_mutex);

  /// Bodies of apply/checkpoint. VGBL_REQUIRES makes the "public method
  /// locks, `_locked` body requires the lock" convention compiler-checked:
  /// clang rejects any call path that can reach these without holding the
  /// student's shard.
  Status apply_locked(const ScriptStep& step) VGBL_REQUIRES(*store_mutex_);
  Status checkpoint_locked() VGBL_REQUIRES(*store_mutex_);

  std::shared_ptr<const GameBundle> bundle_;
  SimClock clock_;
  std::unique_ptr<GameSession> session_;
  ScriptRunner runner_;
  CheckpointPolicy policy_;

  std::string student_id_;
  SessionStore* const store_;
  /// The owning store's shard mutex for this student; log writes (step
  /// appends, checkpoints) lock it so two sessions for the same student
  /// never interleave. Always non-null: the store passes it at
  /// construction, before any apply/checkpoint can run.
  Mutex* const store_mutex_;

  bool resumed_ = false;
  u64 replayed_steps_ = 0;
  u64 step_count_ = 0;
  u64 sequence_ = 0;
  u64 checkpoints_taken_ = 0;
  u64 steps_since_checkpoint_ = 0;
};

class SessionStore {
 public:
  /// Scans the directory's log, if there is one. Never fails: a scan
  /// error is returned by every later call instead.
  explicit SessionStore(SessionStoreOptions options);

  /// Opens (resuming from the log) or creates (fresh, `start()`ed) the
  /// session for `student_id`. Typed errors: kCorruptData for a damaged
  /// log, kUnsupported for a format-1 directory, kFailedPrecondition when
  /// the stored session belongs to a different bundle, kIoError on
  /// filesystem failure.
  [[nodiscard]] Result<std::unique_ptr<PersistedSession>> open_session(
      std::shared_ptr<const GameBundle> bundle, const std::string& student_id);

  /// The first scan or append error (kCorruptData, kUnsupported,
  /// kIoError), or ok. While it is not ok, has_session and list_students
  /// see no sessions: check it before reading "no session" as an answer.
  [[nodiscard]] Status status() const;

  /// True when the log holds live records for this student.
  [[nodiscard]] bool has_session(const std::string& student_id) const;

  /// Students with live records in the log, sorted.
  [[nodiscard]] std::vector<std::string> list_students() const;

  /// Appends a remove record: the student's records become dead and its
  /// next open starts fresh. Unknown students are fine.
  Status remove_session(const std::string& student_id);

  /// The student's latest snapshot record, read back from the log: the
  /// bytes encode_snapshot wrote. kNotFound when it has none.
  [[nodiscard]] Result<Bytes> latest_snapshot(const std::string& student_id);

  [[nodiscard]] std::string log_path() const;
  [[nodiscard]] const SessionStoreOptions& options() const { return options_; }

 private:
  friend class PersistedSession;

  /// Shard count: a power of two well above typical per-store thread
  /// counts, so unrelated students rarely collide while the mutex array
  /// stays cache-friendly.
  static constexpr size_t kLockShards = 32;

  /// Where one framed record sits in the log.
  struct RecordRef {
    u64 offset = 0;
    u64 bytes = 0;
  };
  /// A student's live records: its latest snapshot (or, before the first
  /// checkpoint, its open record) and the step records after it.
  struct StudentRecords {
    RecordRef base;
    std::vector<RecordRef> steps;
  };

  [[nodiscard]] Mutex& student_mutex(const std::string& student_id) const;

  /// Builds the index from the log (constructor only).
  Status scan() VGBL_REQUIRES(log_mutex_);
  /// Appends one record for `student_id` (compacting first when the dead
  /// bytes have passed the bound) and updates the index.
  Status append_log_record(const std::string& student_id, LogRecordKind kind,
                           std::span<const u8> body)
      VGBL_EXCLUDES(log_mutex_);
  /// Creates the directory and the log on first use; returns status_.
  Status open_log_locked() VGBL_REQUIRES(log_mutex_);
  /// append_log_record's body, once the log is open.
  [[nodiscard]] Result<u64> append_locked(const std::string& student_id,
                                          LogRecordKind kind,
                                          std::span<const u8> body)
      VGBL_REQUIRES(log_mutex_);
  /// Updates the index for a record of `kind` at `at`.
  void index_record(const std::string& student_id, LogRecordKind kind,
                    RecordRef at) VGBL_REQUIRES(log_mutex_);
  /// Rewrites the log to its live records.
  Status compact_locked() VGBL_REQUIRES(log_mutex_);
  /// The student's live records read back from the log, base first; empty
  /// when it has none.
  [[nodiscard]] Result<std::vector<framed::StoredRecord>> read_student(
      const std::string& student_id) VGBL_EXCLUDES(log_mutex_);

  SessionStoreOptions options_;
  mutable std::array<Mutex, kLockShards> shards_;

  mutable Mutex log_mutex_;
  /// The first scan or append error; once set, every call returns it.
  Status status_ VGBL_GUARDED_BY(log_mutex_);
  /// Open once the log exists; created by the first append otherwise.
  std::optional<framed::LogWriter> log_ VGBL_GUARDED_BY(log_mutex_);
  std::map<std::string, StudentRecords> index_ VGBL_GUARDED_BY(log_mutex_);
  /// Header plus every live record.
  u64 live_bytes_ VGBL_GUARDED_BY(log_mutex_) = framed::kHeaderSize;
};

}  // namespace vgbl
