#include "rewards/badge_store.hpp"

#include <algorithm>
#include <filesystem>
#include <map>
#include <utility>

#include "obs/macros.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/crc32.hpp"
#include "util/fileio.hpp"

namespace vgbl::rewards {
namespace {

struct StoreMetrics {
  obs::Counter& commits;
  obs::Counter& grants;
  obs::Counter& duplicates;
  obs::Counter& checkpoints;
  obs::Histogram& commit_ms;

  static StoreMetrics& get() {
    auto& reg = obs::MetricsRegistry::global();
    static StoreMetrics m{
        reg.counter("rewards_store_commits_total",
                    "unlock batches committed to badge stores"),
        reg.counter("rewards_store_grants_total",
                    "new badge grants applied to badge stores"),
        reg.counter("rewards_store_duplicates_total",
                    "already-granted unlocks skipped by badge stores"),
        reg.counter("rewards_store_checkpoints_total",
                    "badge store snapshot + journal compactions"),
        reg.histogram("rewards_store_commit_ms",
                      obs::exponential_buckets(0.01, 2.0, 14),
                      "wall time of one unlock batch commit (journal + "
                      "apply)")};
    return m;
  }
};

enum class RecordKind : u8 { kGrant = 1, kBarrier = 2, kCommit = 3 };

void write_grant_payload(ByteWriter& w, const std::string& student_id,
                         const BadgeGrant& grant) {
  w.put_string(student_id);
  w.put_u32(grant.rule_id);
  w.put_string(grant.badge);
  w.put_svarint(grant.points);
  w.put_i64(grant.sim_time);
}

struct JournalGrant {
  std::string student_id;
  BadgeGrant grant;
};

[[nodiscard]] Result<JournalGrant> read_grant_payload(std::span<const u8> payload) {
  ByteReader r(payload);
  auto student = r.string();
  auto rule = r.u32_();
  auto badge = r.string();
  auto points = r.svarint();
  auto sim_time = r.i64_();
  if (!student.ok()) return student.error();
  if (!rule.ok()) return rule.error();
  if (!badge.ok()) return badge.error();
  if (!points.ok()) return points.error();
  if (!sim_time.ok()) return sim_time.error();
  JournalGrant out;
  out.student_id = std::move(student).value();
  out.grant = {rule.value(), std::move(badge).value(), points.value(),
               sim_time.value()};
  return out;
}

/// What a badge journal adds on top of the snapshot it was compacted for.
struct JournalReplay {
  std::vector<JournalGrant> grants;
  std::map<std::string, u64> commits;  ///< commit records per student
};

/// Decodes every record of a parsed badge journal and returns what to
/// replay on top of snapshot `sequence`: the grants after the last barrier
/// that matches it, or every grant when none does (the journal predates
/// the snapshot's compaction), and the commit records after that barrier.
/// A grant already folded into the snapshot replays as a no-op; a commit
/// record would count twice, so none replay without a matching barrier.
[[nodiscard]] Result<JournalReplay> journal_to_replay(
    const framed::Log& journal, u64 sequence) {
  JournalReplay out;
  bool matched = false;
  for (const framed::Record& rec : journal.records) {
    if (rec.kind == static_cast<u8>(RecordKind::kGrant)) {
      auto grant = read_grant_payload(rec.payload);
      if (!grant.ok()) {
        return corrupt_data("badge journal grant at byte " +
                            std::to_string(rec.offset) + ": " +
                            grant.error().message);
      }
      out.grants.push_back(std::move(grant).value());
    } else if (rec.kind == static_cast<u8>(RecordKind::kCommit)) {
      ByteReader pr(rec.payload);
      auto student = pr.string();
      if (!student.ok()) {
        return corrupt_data("badge journal commit at byte " +
                            std::to_string(rec.offset) + " is malformed");
      }
      ++out.commits[student.value()];
    } else if (rec.kind == static_cast<u8>(RecordKind::kBarrier)) {
      ByteReader pr(rec.payload);
      auto barrier = pr.varint();
      if (!barrier.ok()) {
        return corrupt_data("badge journal barrier at byte " +
                            std::to_string(rec.offset) + " is malformed");
      }
      if (barrier.value() == sequence) {  // folded in
        out.grants.clear();
        out.commits.clear();
        matched = true;
      }
    } else {
      return corrupt_data("badge journal record at byte " +
                          std::to_string(rec.offset) + " has unknown kind " +
                          std::to_string(rec.kind));
    }
  }
  if (!matched) out.commits.clear();
  return out;
}

Bytes encode_store_snapshot(u64 sequence,
                            const std::vector<StudentBadges>& students) {
  ByteWriter body;
  body.put_varint(sequence);
  body.put_varint(students.size());
  for (const StudentBadges& s : students) {
    body.put_string(s.student_id);
    body.put_svarint(s.total_points);
    body.put_varint(s.commits);
    body.put_varint(s.grants.size());
    for (const BadgeGrant& g : s.grants) {
      body.put_u32(g.rule_id);
      body.put_string(g.badge);
      body.put_svarint(g.points);
      body.put_i64(g.sim_time);
    }
  }
  ByteWriter out;
  framed::put_header(out, kBadgeSnapshotMagic, kBadgeFormatVersion, 0);
  const Bytes payload = std::move(body).take();
  out.put_raw(payload.data(), payload.size());
  out.put_u32(crc32(payload));
  return std::move(out).take();
}

struct DecodedStoreSnapshot {
  u64 sequence = 0;
  std::vector<StudentBadges> students;
};

[[nodiscard]] Result<DecodedStoreSnapshot> decode_store_snapshot(std::span<const u8> data) {
  if (auto header = framed::check_header(data, kBadgeSnapshotMagic,
                                         kBadgeFormatVersion,
                                         "VGBS badge snapshot");
      !header.ok()) {
    return header.error();
  }
  const size_t body_start = framed::kHeaderSize;
  if (data.size() < body_start + 4) {
    return corrupt_data("truncated badge snapshot body");
  }
  auto body = data.subspan(body_start, data.size() - body_start - 4);
  ByteReader crc_reader(data);
  if (!crc_reader.seek(data.size() - 4).ok()) {
    return corrupt_data("truncated badge snapshot body");
  }
  auto stored_crc = crc_reader.u32_();
  if (!stored_crc.ok() || stored_crc.value() != crc32(body)) {
    return corrupt_data("badge snapshot body crc mismatch");
  }

  ByteReader br(body);
  auto sequence = br.varint();
  auto student_count = br.varint();
  if (!sequence.ok()) return sequence.error();
  if (!student_count.ok()) return student_count.error();
  if (student_count.value() > body.size()) {
    return corrupt_data("badge snapshot student count exceeds payload");
  }
  DecodedStoreSnapshot out;
  out.sequence = sequence.value();
  out.students.reserve(student_count.value());
  for (u64 i = 0; i < student_count.value(); ++i) {
    StudentBadges s;
    auto id = br.string();
    auto total = br.svarint();
    auto commits = br.varint();
    auto grant_count = br.varint();
    if (!id.ok()) return id.error();
    if (!total.ok()) return total.error();
    if (!commits.ok()) return commits.error();
    if (!grant_count.ok()) return grant_count.error();
    if (grant_count.value() > body.size()) {
      return corrupt_data("badge snapshot grant count exceeds payload");
    }
    s.student_id = std::move(id).value();
    s.total_points = total.value();
    s.commits = commits.value();
    s.grants.reserve(grant_count.value());
    for (u64 g = 0; g < grant_count.value(); ++g) {
      auto rule = br.u32_();
      auto badge = br.string();
      auto points = br.svarint();
      auto sim_time = br.i64_();
      if (!rule.ok()) return rule.error();
      if (!badge.ok()) return badge.error();
      if (!points.ok()) return points.error();
      if (!sim_time.ok()) return sim_time.error();
      s.grants.push_back({rule.value(), std::move(badge).value(),
                          points.value(), sim_time.value()});
    }
    out.students.push_back(std::move(s));
  }
  return out;
}

bool has_rule(const StudentBadges& record, u32 rule_id) {
  return std::any_of(
      record.grants.begin(), record.grants.end(),
      [rule_id](const BadgeGrant& g) { return g.rule_id == rule_id; });
}

}  // namespace

Result<std::unique_ptr<BadgeStore>> BadgeStore::open(
    BadgeStoreOptions options) {
  if (options.directory.empty()) {
    return invalid_argument("badge store needs a directory");
  }
  // no-naked-new allowlist: BadgeStore's constructor is private (open() is
  // the only way in), which make_unique cannot reach; the result is owned
  // by the unique_ptr on the same line.
  std::unique_ptr<BadgeStore> store(new BadgeStore(std::move(options)));
  if (auto st = store->load(); !st.ok()) return st.error();
  return store;
}

std::string BadgeStore::snapshot_path() const {
  return (std::filesystem::path(options_.directory) / "badges.snap").string();
}

std::string BadgeStore::journal_path() const {
  return (std::filesystem::path(options_.directory) / "badges.journal")
      .string();
}

StudentBadges& BadgeStore::record_for(const std::string& student_id) {
  StudentBadges& record = students_[student_id];
  if (record.student_id.empty()) record.student_id = student_id;
  return record;
}

bool BadgeStore::apply_grant(const std::string& student_id,
                             const BadgeGrant& grant) {
  StudentBadges& record = record_for(student_id);
  if (has_rule(record, grant.rule_id)) return false;
  record.total_points += grant.points;
  record.grants.push_back(grant);
  return true;
}

Status BadgeStore::load() {
  std::error_code ec;
  std::filesystem::create_directories(options_.directory, ec);
  if (ec) {
    return io_error("cannot create badge store directory '" +
                    options_.directory + "': " + ec.message());
  }

  MutexLock lock(mutex_);
  sequence_ = 0;
  auto snap_data = read_binary_file(snapshot_path());
  if (snap_data.ok()) {
    auto snap = decode_store_snapshot(snap_data.value());
    if (!snap.ok()) return snap.error();
    sequence_ = snap.value().sequence;
    for (StudentBadges& s : snap.value().students) {
      std::string id = s.student_id;
      students_[std::move(id)] = std::move(s);
    }
  } else if (snap_data.error().code != ErrorCode::kNotFound) {
    return snap_data.error();
  }

  auto journal_data = read_binary_file(journal_path());
  if (!journal_data.ok() &&
      journal_data.error().code != ErrorCode::kNotFound) {
    return journal_data.error();
  }
  const Bytes data =
      journal_data.ok() ? std::move(journal_data).value() : Bytes{};
  auto journal = framed::parse_log(data, kBadgeJournalMagic,
                                   kBadgeFormatVersion, "VGBJ badge journal");
  if (!journal.ok()) return journal.error();
  auto replay = journal_to_replay(journal.value(), sequence_);
  if (!replay.ok()) return replay.error();
  // Per-rule dedup in apply_grant makes replaying a folded-in grant safe.
  for (const JournalGrant& g : replay.value().grants) {
    (void)apply_grant(g.student_id, g.grant);
  }
  for (const auto& [student_id, commits] : replay.value().commits) {
    record_for(student_id).commits += commits;
  }
  // No complete header: the journal is absent, or a crash hit between its
  // truncate and its header write. Start a fresh one at the snapshot.
  if (journal.value().valid_bytes == 0) return create_journal();
  auto writer = framed::LogWriter::reopen(journal_path(), journal.value());
  if (!writer.ok()) return writer.error();
  journal_.emplace(std::move(writer).value());
  return {};
}

Status BadgeStore::create_journal() {
  journal_.reset();
  auto writer = framed::LogWriter::create(journal_path(), kBadgeJournalMagic,
                                          kBadgeFormatVersion);
  if (!writer.ok()) return writer.error();
  ByteWriter payload;
  payload.put_varint(sequence_);
  if (auto barrier = writer.value().append(
          static_cast<u8>(RecordKind::kBarrier), payload.bytes());
      !barrier.ok()) {
    return barrier.error();
  }
  journal_.emplace(std::move(writer).value());
  return {};
}

Result<u32> BadgeStore::commit(const std::string& student_id,
                               std::span<const Unlock> unlocks) {
  StoreMetrics& metrics = StoreMetrics::get();
  VGBL_SPAN("rewards.store_commit");
  VGBL_TIMER(metrics.commit_ms);

  MutexLock lock(mutex_);
  if (!journal_.has_value()) {
    return failed_precondition("badge store journal is not open");
  }
  u32 fresh = 0;
  u32 duplicates = 0;
  StudentBadges& record = record_for(student_id);
  for (const Unlock& unlock : unlocks) {
    if (has_rule(record, unlock.rule_id)) {
      ++duplicates;
      continue;
    }
    const BadgeGrant grant{unlock.rule_id, unlock.badge, unlock.points,
                           unlock.sim_time};
    // WAL: the grant reaches the journal before the in-memory record.
    ByteWriter payload;
    write_grant_payload(payload, student_id, grant);
    if (auto appended = journal_->append(static_cast<u8>(RecordKind::kGrant),
                                         payload.bytes());
        !appended.ok()) {
      return appended.error();
    }
    record.total_points += grant.points;
    record.grants.push_back(grant);
    ++fresh;
  }
  ByteWriter payload;
  payload.put_string(student_id);
  if (auto appended = journal_->append(static_cast<u8>(RecordKind::kCommit),
                                       payload.bytes());
      !appended.ok()) {
    return appended.error();
  }
  record.commits += 1;
  VGBL_COUNT(metrics.commits);
  VGBL_COUNT(metrics.grants, fresh);
  VGBL_COUNT(metrics.duplicates, duplicates);
  return fresh;
}

StudentBadges BadgeStore::student(const std::string& student_id) const {
  MutexLock lock(mutex_);
  const auto it = students_.find(student_id);
  if (it == students_.end()) {
    StudentBadges empty;
    empty.student_id = student_id;
    return empty;
  }
  return it->second;
}

std::vector<StudentBadges> BadgeStore::all() const {
  MutexLock lock(mutex_);
  return all_locked();
}

std::vector<StudentBadges> BadgeStore::all_locked() const {
  std::vector<StudentBadges> out;
  out.reserve(students_.size());
  for (const auto& [id, record] : students_) out.push_back(record);
  return out;
}

size_t BadgeStore::student_count() const {
  MutexLock lock(mutex_);
  return students_.size();
}

u64 BadgeStore::sequence() const {
  MutexLock lock(mutex_);
  return sequence_;
}

Status BadgeStore::checkpoint() {
  MutexLock lock(mutex_);
  return checkpoint_locked();
}

Status BadgeStore::checkpoint_locked() {
  const std::vector<StudentBadges> students = all_locked();
  const u64 next_sequence = sequence_ + 1;
  const Bytes snapshot = encode_store_snapshot(next_sequence, students);
  if (auto st = write_binary_file_atomic(snapshot_path(), snapshot);
      !st.ok()) {
    return st;
  }
  sequence_ = next_sequence;
  // Compact: a fresh journal whose barrier marks everything as folded in.
  if (auto st = create_journal(); !st.ok()) return st;
  VGBL_COUNT(StoreMetrics::get().checkpoints);
  return {};
}

}  // namespace vgbl::rewards
