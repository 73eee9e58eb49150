// Crash-recoverable session store: manages suspended/resumable game
// sessions on disk, keyed by student id. Per student it keeps two files in
// the store directory:
//
//   <student>.snap     latest snapshot (written atomically: tmp + rename)
//   <student>.journal  write-ahead log of inputs since that snapshot
//
// Protocol. Every input is journaled *before* it is applied (WAL), so a
// crash at any point loses at most the in-flight step. A checkpoint
// (every N applied steps per CheckpointPolicy, or on request) captures
// the session state, writes the snapshot atomically, then compacts the
// journal down to a single barrier record carrying the new snapshot's
// sequence number. Recovery loads the snapshot and replays only the
// journal steps that follow a barrier matching its sequence — if the
// crash hit between the snapshot rename and the compaction, no matching
// barrier exists and the journaled steps (already folded into the
// snapshot) are correctly ignored; a journal cut inside its header (a
// crash between the compaction's truncate and its header write) holds
// no barrier either. A resumed open then folds what it replayed into a
// fresh snapshot and rewrites the journal. Both files use the
// util/framed header; see journal.hpp for the record log.
//
// Sessions are deterministic under SimClock, so a resumed session driven
// with the remaining inputs produces the same SessionEvent log as an
// uninterrupted run.
//
// Concurrency. The store is safe to share across threads as long as each
// thread works on its own student ids: a pool of sharded mutexes keyed by
// student id serialises open/apply/checkpoint/remove for the same student
// (so writes to one <id>.snap/<id>.journal pair never interleave) while
// different students proceed without contention. The store must outlive
// every PersistedSession it opened — sessions lock through a pointer into
// the store's shard array.
#pragma once

#include <array>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "persist/journal.hpp"
#include "persist/snapshot.hpp"
#include "runtime/script.hpp"
#include "runtime/session.hpp"
#include "util/sim_clock.hpp"
#include "util/thread_annotations.hpp"

namespace vgbl {

/// When to take an automatic checkpoint during `PersistedSession::apply`:
/// every N applied steps. With 0 only explicit `checkpoint()` calls
/// persist progress (the journal still protects every step).
struct CheckpointPolicy {
  u64 every_steps = 25;
};

struct SessionStoreOptions {
  std::string directory;
  CheckpointPolicy policy;
  SessionOptions session;  ///< forwarded to every GameSession it creates
};

/// A live session bound to its on-disk snapshot + journal. Created by
/// `SessionStore::open_session`; owns the clock, the session and the
/// journal writer. Not movable — the GameSession holds a pointer to the
/// embedded clock.
class PersistedSession {
 public:
  PersistedSession(const PersistedSession&) = delete;
  PersistedSession& operator=(const PersistedSession&) = delete;

  [[nodiscard]] GameSession& session() { return *session_; }
  [[nodiscard]] const GameSession& session() const { return *session_; }
  [[nodiscard]] SimClock& clock() { return clock_; }
  [[nodiscard]] const std::string& student_id() const { return student_id_; }

  /// True when this session was restored from disk (snapshot and/or
  /// journal found) rather than started fresh.
  [[nodiscard]] bool resumed() const { return resumed_; }
  /// Journal steps replayed on top of the snapshot during open.
  [[nodiscard]] u64 replayed_steps() const { return replayed_steps_; }
  /// Inputs applied across all runs of this session.
  [[nodiscard]] u64 step_count() const { return step_count_; }
  /// Sequence of the latest snapshot on disk (0: none yet).
  [[nodiscard]] u64 checkpoint_sequence() const { return sequence_; }
  [[nodiscard]] u64 checkpoints_taken() const { return checkpoints_taken_; }

  /// Applies one input with write-ahead logging: journal the step, run it
  /// (with ScriptRunner pacing: step, then step_pause + tick), then take
  /// an automatic checkpoint when the policy says so. Mirrors
  /// `ScriptRunner::run` exactly so live, resumed and uninterrupted runs
  /// stay input-for-input identical: a no-op once the game is over, and a
  /// step that fails leaves the state unchanged (the journaled copy
  /// re-fails identically on recovery replay).
  Status apply(const ScriptStep& step) VGBL_EXCLUDES(*store_mutex_);

  /// Snapshots the current state and compacts the journal.
  Status checkpoint() VGBL_EXCLUDES(*store_mutex_);

 private:
  friend class SessionStore;
  PersistedSession(std::shared_ptr<const GameBundle> bundle,
                   SessionOptions options, CheckpointPolicy policy,
                   std::string student_id, std::string snapshot_path,
                   std::string journal_path, Mutex* store_mutex);

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
  std::string snapshot_path_;
  std::string journal_path_;
  std::optional<JournalWriter> journal_;
  /// The owning store's shard mutex for this student; file writes
  /// (journal appends, checkpoints) lock it so two sessions for the same
  /// student never interleave on-disk writes. Always non-null: the store
  /// passes it at construction, before any apply/checkpoint can run.
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
  explicit SessionStore(SessionStoreOptions options);

  /// Opens (resuming from disk) or creates (fresh, `start()`ed) the
  /// session for `student_id`. Typed errors: kCorruptData for damaged
  /// snapshot/journal files, kFailedPrecondition when the stored session
  /// belongs to a different bundle, kIoError on filesystem failure.
  [[nodiscard]] Result<std::unique_ptr<PersistedSession>> open_session(
      std::shared_ptr<const GameBundle> bundle, const std::string& student_id);

  /// True when any persisted files exist for this student.
  [[nodiscard]] bool has_session(const std::string& student_id) const;

  /// Students with persisted state in the store directory, sorted.
  [[nodiscard]] std::vector<std::string> list_students() const;

  /// Deletes the student's snapshot and journal. Missing files are fine.
  Status remove_session(const std::string& student_id);

  [[nodiscard]] std::string snapshot_path(const std::string& student_id) const;
  [[nodiscard]] std::string journal_path(const std::string& student_id) const;
  [[nodiscard]] const SessionStoreOptions& options() const { return options_; }

 private:
  /// Shard count: a power of two well above typical per-store thread
  /// counts, so unrelated students rarely collide while the mutex array
  /// stays cache-friendly.
  static constexpr size_t kLockShards = 32;

  [[nodiscard]] Mutex& student_mutex(const std::string& student_id) const;
  /// Creates the store directory once (idempotent, mutex-guarded so
  /// concurrent first opens do not race the existence check).
  Status ensure_directory();

  SessionStoreOptions options_;
  mutable std::array<Mutex, kLockShards> shards_;
  Mutex directory_mutex_;
  bool directory_ready_ VGBL_GUARDED_BY(directory_mutex_) = false;
};

}  // namespace vgbl
