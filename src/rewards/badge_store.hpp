// Cross-session badge & score store: the durable half of the rewards
// service (§3.3 Rewarding). Sessions evaluate unlocks inline
// (evaluator.hpp); their unlock streams are committed here so badges,
// bonus points and unlock sim-times accrue across sessions and classroom
// runs. On disk the store is one directory:
//
//   badges.snap     latest snapshot of every student record (atomic write)
//   badges.journal  write-ahead log of grants since that snapshot
//
// Both files carry the util/framed header (magics "VGBS" and "VGBJ",
// version 2). The snapshot body is one CRC-checked blob; the journal is a
// framed record log of grant, commit and barrier records: one grant per
// new badge and one commit per `commit()` call, so a reopen without a
// checkpoint restores `StudentBadges::commits` too.
//
// Protocol (mirrors the SessionStore WAL discipline). Every grant is
// journaled *before* it is applied in memory, so a crash loses at most
// the in-flight commit. A checkpoint writes the snapshot atomically, then
// compacts the journal to a single barrier carrying the snapshot's
// sequence. Recovery loads the snapshot and replays the grants and commits
// after the last matching barrier. With no matching barrier (a crash
// between rename and compaction, where every journaled record is already
// folded in) it replays every grant, which is a no-op because grants are
// idempotent per (student, rule), and no commit, which would count twice.
// A torn journal tail is trimmed (crash shape); a journal with no complete
// header (a crash between its truncate and its header write) is recreated
// with a barrier at the snapshot's sequence; a CRC failure anywhere else
// is kCorruptData.
//
// Concurrency. Safe to share across the classroom worker pool: one mutex
// guards the journal, the snapshot sequence and the student records (one
// map sorted by student id), so commits, checkpoints, recovery and
// readers serialise on it, and append order is file order. Per-student
// commit streams stay deterministic regardless of cross-student
// interleaving: the unlock stream committed for a student is produced by
// that student's (deterministic) session.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "rewards/evaluator.hpp"
#include "util/framed.hpp"
#include "util/result.hpp"
#include "util/thread_annotations.hpp"
#include "util/types.hpp"

namespace vgbl::rewards {

inline constexpr u32 kBadgeSnapshotMagic = 0x53424756;  // "VGBS" LE
inline constexpr u32 kBadgeJournalMagic = 0x4A424756;   // "VGBJ" LE
inline constexpr u16 kBadgeFormatVersion = 2;

/// One durable badge grant for a student.
struct BadgeGrant {
  u32 rule_id = 0;
  std::string badge;
  i64 points = 0;
  MicroTime sim_time = 0;  ///< sim-time of the unlock inside its session

  friend bool operator==(const BadgeGrant&, const BadgeGrant&) = default;
};

/// Everything the store knows about one student.
struct StudentBadges {
  std::string student_id;
  std::vector<BadgeGrant> grants;  ///< in grant (journal) order
  i64 total_points = 0;            ///< sum of grant points
  u64 commits = 0;                 ///< commit batches applied
};

struct BadgeStoreOptions {
  std::string directory;
};

class BadgeStore {
 public:
  /// Opens (creating the directory if needed) and recovers the store.
  /// Typed errors: kCorruptData for damaged files, kIoError on
  /// filesystem failure.
  [[nodiscard]] static Result<std::unique_ptr<BadgeStore>> open(
      BadgeStoreOptions options);

  BadgeStore(const BadgeStore&) = delete;
  BadgeStore& operator=(const BadgeStore&) = delete;

  /// Commits a session's unlock stream for `student_id`. Unlocks whose
  /// rule already has a grant for this student are skipped (badges are
  /// earned once, ever), so committing a resumed session's full log is
  /// idempotent. Every call journals one commit record and counts one
  /// more in `commits`. Returns the number of *new* grants applied.
  [[nodiscard]] Result<u32> commit(const std::string& student_id,
                                   std::span<const Unlock> unlocks)
      VGBL_EXCLUDES(mutex_);

  /// Copy of the student's record (empty record when unknown).
  [[nodiscard]] StudentBadges student(const std::string& student_id) const
      VGBL_EXCLUDES(mutex_);

  /// Copies of every student record, sorted by student id.
  [[nodiscard]] std::vector<StudentBadges> all() const VGBL_EXCLUDES(mutex_);

  [[nodiscard]] size_t student_count() const VGBL_EXCLUDES(mutex_);

  /// Snapshots every record and compacts the journal. The journal alone
  /// protects every grant, so checkpoints only bound recovery time.
  [[nodiscard]] Status checkpoint() VGBL_EXCLUDES(mutex_);

  /// Sequence of the latest snapshot on disk (0: none yet).
  [[nodiscard]] u64 sequence() const VGBL_EXCLUDES(mutex_);

  [[nodiscard]] const std::string& directory() const {
    return options_.directory;
  }
  [[nodiscard]] std::string snapshot_path() const;
  [[nodiscard]] std::string journal_path() const;

 private:
  explicit BadgeStore(BadgeStoreOptions options)
      : options_(std::move(options)) {}

  /// Recovery: parse snapshot + journal into the records. Runs before the
  /// store is shared, but takes the lock anyway to keep TSA exact.
  Status load() VGBL_EXCLUDES(mutex_);
  Status checkpoint_locked() VGBL_REQUIRES(mutex_);
  [[nodiscard]] std::vector<StudentBadges> all_locked() const
      VGBL_REQUIRES(mutex_);
  /// Truncates the journal to a header plus a barrier at `sequence_`.
  Status create_journal() VGBL_REQUIRES(mutex_);
  /// The student's record, created empty on first use.
  StudentBadges& record_for(const std::string& student_id)
      VGBL_REQUIRES(mutex_);
  /// Applies one grant to the in-memory record; returns false when the
  /// rule was already granted (duplicate).
  bool apply_grant(const std::string& student_id, const BadgeGrant& grant)
      VGBL_REQUIRES(mutex_);

  BadgeStoreOptions options_;

  mutable Mutex mutex_;
  std::optional<framed::LogWriter> journal_ VGBL_GUARDED_BY(mutex_);
  u64 sequence_ VGBL_GUARDED_BY(mutex_) = 0;
  std::map<std::string, StudentBadges> students_ VGBL_GUARDED_BY(mutex_);
};

}  // namespace vgbl::rewards
