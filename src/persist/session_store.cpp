#include "persist/session_store.hpp"

#include <filesystem>

#include "obs/macros.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/fileio.hpp"

namespace vgbl {

namespace fs = std::filesystem;

namespace {

struct StoreMetrics {
  obs::Counter& opens;
  obs::Counter& recoveries;
  obs::Counter& replayed_steps;
  obs::Counter& applies;
  obs::Counter& checkpoints;
  obs::Counter& compactions;
  obs::Counter& snapshot_bytes;
  obs::Counter& journal_appends;
  obs::Counter& journal_bytes;
  obs::Histogram& checkpoint_ms;
  obs::Histogram& open_ms;
  obs::Histogram& journal_append_ms;

  static StoreMetrics& get() {
    auto& reg = obs::MetricsRegistry::global();
    static StoreMetrics m{
        reg.counter("persist_opens_total", "sessions opened via the store"),
        reg.counter("persist_recoveries_total",
                    "opens that restored state from the session log"),
        reg.counter("persist_replayed_steps_total",
                    "logged steps replayed during recovery"),
        reg.counter("persist_applies_total",
                    "inputs applied through the write-ahead path"),
        reg.counter("persist_checkpoints_total",
                    "snapshot records appended"),
        reg.counter("persist_compactions_total",
                    "session log rewrites down to their live records"),
        reg.counter("persist_snapshot_bytes_total",
                    "bytes of snapshot data written"),
        reg.counter("persist_journal_appends_total",
                    "step, open and remove records appended to session logs"),
        reg.counter("persist_journal_bytes_total",
                    "framed bytes of step, open and remove records appended "
                    "to session logs"),
        reg.histogram("persist_checkpoint_ms",
                      obs::exponential_buckets(0.05, 2.0, 14),
                      "wall time of one checkpoint (snapshot encode + "
                      "append)"),
        reg.histogram("persist_open_ms",
                      obs::exponential_buckets(0.05, 2.0, 14),
                      "wall time of one store open (read back + replay + "
                      "checkpoint)"),
        reg.histogram("persist_journal_append_ms",
                      obs::exponential_buckets(0.01, 2.0, 14),
                      "wall time of one step, open or remove record append "
                      "(write + flush)")};
    return m;
  }
};

constexpr const char* kLogName = "sessions.log";

Status validate_student_id(const std::string& id) {
  if (id.empty()) return invalid_argument("student id must not be empty");
  if (id.find('/') != std::string::npos ||
      id.find('\\') != std::string::npos || id == "." || id == "..") {
    return invalid_argument("student id '" + id +
                            "' must not contain path separators");
  }
  return {};
}

/// True when `dir` holds a file of the format-1 store: a per-student
/// `<id>.snap` or `<id>.journal` carrying the session snapshot or journal
/// magic (a badge store sharing the directory has its own magics).
bool holds_format1_files(const std::string& dir) {
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    const std::string ext = entry.path().extension().string();
    if (ext != ".snap" && ext != ".journal") continue;
    auto data = read_binary_file(entry.path().string());
    if (!data.ok()) continue;
    auto magic = ByteReader(data.value()).u32_();
    if (magic.ok() &&
        (magic.value() == kSnapshotMagic || magic.value() == kJournalMagic)) {
      return true;
    }
  }
  return false;
}

}  // namespace

// --- PersistedSession -------------------------------------------------------

PersistedSession::PersistedSession(std::shared_ptr<const GameBundle> bundle,
                                   SessionOptions options,
                                   CheckpointPolicy policy,
                                   std::string student_id,
                                   SessionStore* store, Mutex* store_mutex)
    : bundle_(std::move(bundle)),
      session_(std::make_unique<GameSession>(bundle_, &clock_, options)),
      runner_(session_.get(), &clock_),
      policy_(policy),
      student_id_(std::move(student_id)),
      store_(store),
      store_mutex_(store_mutex) {}

Status PersistedSession::apply(const ScriptStep& step) {
  MutexLock lock(*store_mutex_);
  return apply_locked(step);
}

Status PersistedSession::apply_locked(const ScriptStep& step) {
  VGBL_COUNT(StoreMetrics::get().applies);
  if (session_->game_over()) return {};  // mirrors ScriptRunner::run
  // Write-ahead: the step reaches disk before it touches the session, so a
  // crash mid-apply replays it on recovery instead of losing it.
  if (auto st = store_->append_log_record(student_id_, LogRecordKind::kStep,
                                          encode_step(step));
      !st.ok()) {
    return st;
  }
  ++step_count_;
  ++steps_since_checkpoint_;
  if (auto st = runner_.run_step(step); !st.ok()) return st;
  clock_.advance(ScriptRunner::Options{}.step_pause);
  session_->tick();

  if (policy_.every_steps > 0 &&
      steps_since_checkpoint_ >= policy_.every_steps) {
    return checkpoint_locked();
  }
  return {};
}

Status PersistedSession::checkpoint() {
  MutexLock lock(*store_mutex_);
  return checkpoint_locked();
}

Status PersistedSession::checkpoint_locked() {
  StoreMetrics& metrics = StoreMetrics::get();
  VGBL_SPAN("persist.checkpoint", &clock_);
  VGBL_TIMER(metrics.checkpoint_ms);
  SnapshotMeta meta;
  meta.sequence = sequence_ + 1;
  meta.step_count = step_count_;
  meta.sim_time = clock_.now();
  meta.student_id = student_id_;
  meta.bundle_title = bundle_->meta.title;
  const Bytes data = encode_snapshot(session_->capture_state(), meta);
  if (auto st = store_->append_log_record(student_id_,
                                          LogRecordKind::kSnapshot, data);
      !st.ok()) {
    return st;
  }
  sequence_ = meta.sequence;
  ++checkpoints_taken_;
  steps_since_checkpoint_ = 0;
  VGBL_COUNT(metrics.checkpoints);
  VGBL_COUNT(metrics.snapshot_bytes, data.size());
  return {};
}

// --- SessionStore -----------------------------------------------------------

SessionStore::SessionStore(SessionStoreOptions options)
    : options_(std::move(options)) {
  MutexLock lock(log_mutex_);
  status_ = scan();
}

Mutex& SessionStore::student_mutex(const std::string& student_id) const {
  return shards_[std::hash<std::string>{}(student_id) % kLockShards];
}

std::string SessionStore::log_path() const {
  return (fs::path(options_.directory) / kLogName).string();
}

Status SessionStore::scan() {
  auto data = read_binary_file(log_path());
  if (!data.ok()) {
    if (data.error().code != ErrorCode::kNotFound) return data.error();
    if (holds_format1_files(options_.directory)) {
      return unsupported("'" + options_.directory +
                         "' holds a format-1 session store (per-student "
                         ".snap/.journal files); this build reads only " +
                         kLogName);
    }
    return {};  // a new store: the first append creates the log
  }
  auto log = framed::parse_log(data.value(), kJournalMagic, kJournalVersion,
                               "VGSJ session log");
  if (!log.ok()) return log.error();
  for (const framed::Record& rec : log.value().records) {
    auto payload = decode_log_payload(rec.payload);
    if (!payload.ok()) {
      return corrupt_data("session log record at byte " +
                          std::to_string(rec.offset) + ": " +
                          payload.error().message);
    }
    if (rec.kind < static_cast<u8>(LogRecordKind::kStep) ||
        rec.kind > static_cast<u8>(LogRecordKind::kRemove)) {
      return corrupt_data("session log record at byte " +
                          std::to_string(rec.offset) + " has unknown kind " +
                          std::to_string(rec.kind));
    }
    index_record(payload.value().student_id,
                 static_cast<LogRecordKind>(rec.kind),
                 {rec.offset, framed::kRecordOverhead + rec.payload.size()});
  }
  // No complete header: a crash hit between the log's creation and its
  // header write. The first append recreates it.
  if (log.value().valid_bytes == 0) return {};
  auto writer = framed::LogWriter::reopen(log_path(), log.value());
  if (!writer.ok()) return writer.error();
  log_.emplace(std::move(writer).value());
  return {};
}

void SessionStore::index_record(const std::string& student_id,
                                LogRecordKind kind, RecordRef at) {
  const auto bytes_of = [](const StudentRecords& records) {
    u64 bytes = records.base.bytes;
    for (const RecordRef& step : records.steps) bytes += step.bytes;
    return bytes;
  };
  const auto it = index_.find(student_id);
  switch (kind) {
    case LogRecordKind::kStep:
      // A step after a remove belongs to no live session: dead.
      if (it == index_.end()) return;
      it->second.steps.push_back(at);
      live_bytes_ += at.bytes;
      return;
    case LogRecordKind::kSnapshot:
    case LogRecordKind::kOpen:
      // The student's latest snapshot is its own barrier: everything it
      // logged before is folded in, hence dead.
      if (it != index_.end()) live_bytes_ -= bytes_of(it->second);
      index_[student_id] = {at, {}};
      live_bytes_ += at.bytes;
      return;
    case LogRecordKind::kRemove:
      if (it == index_.end()) return;
      live_bytes_ -= bytes_of(it->second);
      index_.erase(it);
      return;
  }
}

Status SessionStore::append_log_record(const std::string& student_id,
                                       LogRecordKind kind,
                                       std::span<const u8> body) {
  MutexLock lock(log_mutex_);
  if (auto st = open_log_locked(); !st.ok()) return st;
  if (kind == LogRecordKind::kSnapshot) {
    auto appended = append_locked(student_id, kind, body);
    if (!appended.ok()) return appended.error();
    return {};
  }
  // Step, open and remove records are the write-ahead journal; they are
  // timed and counted as such.
  StoreMetrics& metrics = StoreMetrics::get();
  VGBL_SPAN("persist.journal_append");
  VGBL_TIMER(metrics.journal_append_ms);
  auto appended = append_locked(student_id, kind, body);
  if (!appended.ok()) return appended.error();
  VGBL_COUNT(metrics.journal_appends);
  VGBL_COUNT(metrics.journal_bytes, appended.value());
  return {};
}

Status SessionStore::open_log_locked() {
  if (!status_.ok()) return status_;
  if (log_.has_value()) return {};
  std::error_code ec;
  fs::create_directories(options_.directory, ec);
  if (ec) {
    return io_error("cannot create store directory '" + options_.directory +
                    "': " + ec.message());
  }
  auto created =
      framed::LogWriter::create(log_path(), kJournalMagic, kJournalVersion);
  if (!created.ok()) return created.error();
  log_.emplace(std::move(created).value());
  return {};
}

Result<u64> SessionStore::append_locked(const std::string& student_id,
                                        LogRecordKind kind,
                                        std::span<const u8> body) {
  const u64 dead_bytes = log_->size() - live_bytes_;
  if (dead_bytes > kLogCompactionBytes && dead_bytes > live_bytes_) {
    if (auto st = compact_locked(); !st.ok()) return st.error();
  }
  const u64 offset = log_->size();
  auto appended = log_->append(static_cast<u8>(kind),
                               encode_log_payload(student_id, body));
  if (!appended.ok()) {
    // A failed write may leave part of a record behind, and a record
    // appended after it would turn that torn tail into corruption.
    status_ = appended.error();
    return appended.error();
  }
  index_record(student_id, kind, {offset, appended.value()});
  return appended.value();
}

Status SessionStore::compact_locked() {
  const std::string tmp = log_path() + ".tmp";
  auto fresh = framed::LogWriter::create(tmp, kJournalMagic, kJournalVersion);
  if (!fresh.ok()) return fresh.error();
  framed::LogWriter& old_log = *log_;
  const auto copy = [&](RecordRef from) -> Result<RecordRef> {
    auto record = old_log.read(from.offset);
    if (!record.ok()) return record.error();
    const u64 offset = fresh.value().size();
    auto appended =
        fresh.value().append(record.value().kind, record.value().payload);
    if (!appended.ok()) return appended.error();
    return RecordRef{offset, appended.value()};
  };
  std::map<std::string, StudentRecords> moved;
  for (const auto& [student, records] : index_) {
    StudentRecords& out = moved[student];
    auto base = copy(records.base);
    if (!base.ok()) return base.error();
    out.base = base.value();
    for (const RecordRef& step : records.steps) {
      auto copied = copy(step);
      if (!copied.ok()) return copied.error();
      out.steps.push_back(copied.value());
    }
  }
  if (auto st = fresh.value().rename_over(log_path()); !st.ok()) return st;
  log_.emplace(std::move(fresh).value());
  index_ = std::move(moved);
  VGBL_COUNT(StoreMetrics::get().compactions);
  return {};
}

Result<std::vector<framed::StoredRecord>> SessionStore::read_student(
    const std::string& student_id) {
  MutexLock lock(log_mutex_);
  if (!status_.ok()) return status_.error();
  std::vector<framed::StoredRecord> out;
  const auto it = index_.find(student_id);
  if (it == index_.end() || !log_.has_value()) return out;
  const StudentRecords& records = it->second;
  out.reserve(1 + records.steps.size());
  for (size_t i = 0; i <= records.steps.size(); ++i) {
    auto record = log_->read(i == 0 ? records.base.offset
                                    : records.steps[i - 1].offset);
    if (!record.ok()) return record.error();
    out.push_back(std::move(record).value());
  }
  return out;
}

Status SessionStore::status() const {
  MutexLock lock(log_mutex_);
  return status_;
}

bool SessionStore::has_session(const std::string& student_id) const {
  MutexLock lock(log_mutex_);
  return status_.ok() && index_.contains(student_id);
}

std::vector<std::string> SessionStore::list_students() const {
  MutexLock lock(log_mutex_);
  std::vector<std::string> students;
  if (!status_.ok()) return students;
  for (const auto& [student, records] : index_) students.push_back(student);
  return students;
}

Status SessionStore::remove_session(const std::string& student_id) {
  if (auto st = validate_student_id(student_id); !st.ok()) return st;
  MutexLock lock(student_mutex(student_id));
  {
    MutexLock log_lock(log_mutex_);
    if (!status_.ok()) return status_;
    if (!index_.contains(student_id)) return {};
  }
  return append_log_record(student_id, LogRecordKind::kRemove, {});
}

Result<Bytes> SessionStore::latest_snapshot(const std::string& student_id) {
  if (auto st = validate_student_id(student_id); !st.ok()) return st.error();
  auto records = read_student(student_id);
  if (!records.ok()) return records.error();
  if (records.value().empty() ||
      records.value().front().kind !=
          static_cast<u8>(LogRecordKind::kSnapshot)) {
    return not_found("no snapshot for '" + student_id + "' in '" +
                     log_path() + "'");
  }
  auto payload = decode_log_payload(records.value().front().payload);
  if (!payload.ok()) return payload.error();
  return Bytes(payload.value().body.begin(), payload.value().body.end());
}

Result<std::unique_ptr<PersistedSession>> SessionStore::open_session(
    std::shared_ptr<const GameBundle> bundle, const std::string& student_id) {
  if (auto st = validate_student_id(student_id); !st.ok()) return st.error();
  if (!bundle) return invalid_argument("bundle must not be null");

  StoreMetrics& metrics = StoreMetrics::get();
  VGBL_COUNT(metrics.opens);
  VGBL_SPAN("persist.open");
  VGBL_TIMER(metrics.open_ms);

  // no-naked-new allowlist: PersistedSession's constructor is private (only
  // the store may create one), which make_unique cannot reach; the result
  // is owned by the unique_ptr on the same line.
  std::unique_ptr<PersistedSession> ps(
      new PersistedSession(bundle, options_.session, options_.policy,
                           student_id, this, &student_mutex(student_id)));
  // Hold the student's shard for the whole open: read back, replay and
  // checkpoint. A concurrent open/checkpoint for the same student
  // serialises here; other students use different shards.
  MutexLock lock(*ps->store_mutex_);
  auto records = read_student(student_id);
  if (!records.ok()) return records.error();
  if (records.value().empty()) {
    if (auto st = ps->session_->start(); !st.ok()) return st.error();
    if (auto st = append_log_record(student_id, LogRecordKind::kOpen, {});
        !st.ok()) {
      return st.error();
    }
    return ps;
  }

  // The scan indexed a base record (snapshot or open), then steps, all
  // for this student; a record that reads back otherwise was rewritten
  // behind the store's back.
  std::vector<std::span<const u8>> bodies;
  for (const framed::StoredRecord& record : records.value()) {
    auto payload = decode_log_payload(record.payload);
    if (!payload.ok()) return payload.error();
    const bool step = record.kind == static_cast<u8>(LogRecordKind::kStep);
    if (payload.value().student_id != student_id ||
        step != !bodies.empty()) {
      return corrupt_data("session log record read back for '" +
                          student_id + "' is not the one the scan indexed");
    }
    bodies.push_back(payload.value().body);
  }
  // 1. The base: the latest snapshot, or the open record of a session that
  // never checkpointed.
  if (records.value().front().kind ==
      static_cast<u8>(LogRecordKind::kSnapshot)) {
    auto decoded = decode_snapshot(bodies.front());
    if (!decoded.ok()) return decoded.error();
    const auto& meta = decoded.value().meta;
    if (meta.bundle_title != bundle->meta.title) {
      return failed_precondition(
          "stored session for '" + student_id + "' belongs to bundle '" +
          meta.bundle_title + "', not '" + bundle->meta.title + "'");
    }
    ps->clock_.advance_to(decoded.value().state.now);
    if (auto st = ps->session_->restore_state(decoded.value().state);
        !st.ok()) {
      return st.error();
    }
    ps->sequence_ = meta.sequence;
    ps->step_count_ = meta.step_count;
  } else if (auto st = ps->session_->start(); !st.ok()) {
    return st.error();
  }

  // 2. The steps logged after it.
  for (size_t i = 1; i < bodies.size(); ++i) {
    auto step = decode_step(bodies[i]);
    if (!step.ok()) {
      return corrupt_data("session log step for '" + student_id +
                          "': " + step.error().message);
    }
    ++ps->step_count_;
    ++ps->replayed_steps_;
    if (ps->session_->game_over()) continue;
    // A step that failed live fails identically here (determinism), and
    // failed steps are not paced — exactly what apply() did.
    if (!ps->runner_.run_step(step.value()).ok()) continue;
    ps->clock_.advance(ScriptRunner::Options{}.step_pause);
    ps->session_->tick();
  }

  ps->resumed_ = true;
  VGBL_COUNT(metrics.recoveries);
  VGBL_COUNT(metrics.replayed_steps, static_cast<u64>(ps->replayed_steps_));
  // 3. Fold the replayed tail into a fresh snapshot record.
  if (auto st = ps->checkpoint_locked(); !st.ok()) return st.error();
  return ps;
}

}  // namespace vgbl
