#include "persist/session_store.hpp"

#include <algorithm>
#include <filesystem>

#include "obs/macros.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

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
  obs::Histogram& checkpoint_ms;
  obs::Histogram& open_ms;

  static StoreMetrics& get() {
    auto& reg = obs::MetricsRegistry::global();
    static StoreMetrics m{
        reg.counter("persist_opens_total", "sessions opened via the store"),
        reg.counter("persist_recoveries_total",
                    "opens that restored state from disk"),
        reg.counter("persist_replayed_steps_total",
                    "journal steps replayed during recovery"),
        reg.counter("persist_applies_total",
                    "inputs applied through the write-ahead path"),
        reg.counter("persist_checkpoints_total", "snapshots written"),
        reg.counter("persist_compactions_total",
                    "journal compactions after a checkpoint"),
        reg.counter("persist_snapshot_bytes_total",
                    "bytes of snapshot data written"),
        reg.histogram("persist_checkpoint_ms",
                      obs::exponential_buckets(0.05, 2.0, 14),
                      "wall time of one checkpoint (snapshot + compaction)"),
        reg.histogram("persist_open_ms",
                      obs::exponential_buckets(0.05, 2.0, 14),
                      "wall time of one store open (load + replay)")};
    return m;
  }
};

constexpr const char* kSnapshotSuffix = ".snap";
constexpr const char* kJournalSuffix = ".journal";

Status validate_student_id(const std::string& id) {
  if (id.empty()) return invalid_argument("student id must not be empty");
  if (id.find('/') != std::string::npos ||
      id.find('\\') != std::string::npos || id == "." || id == "..") {
    return invalid_argument("student id '" + id +
                            "' must not contain path separators");
  }
  return {};
}

}  // namespace

// --- PersistedSession -------------------------------------------------------

PersistedSession::PersistedSession(std::shared_ptr<const GameBundle> bundle,
                                   SessionOptions options,
                                   CheckpointPolicy policy,
                                   std::string student_id,
                                   std::string snapshot_path,
                                   std::string journal_path,
                                   Mutex* store_mutex)
    : bundle_(std::move(bundle)),
      session_(std::make_unique<GameSession>(bundle_, &clock_, options)),
      runner_(session_.get(), &clock_),
      policy_(policy),
      student_id_(std::move(student_id)),
      snapshot_path_(std::move(snapshot_path)),
      journal_path_(std::move(journal_path)),
      store_mutex_(store_mutex) {}

Status PersistedSession::apply(const ScriptStep& step) {
  MutexLock lock(*store_mutex_);
  return apply_locked(step);
}

Status PersistedSession::apply_locked(const ScriptStep& step) {
  VGBL_COUNT(StoreMetrics::get().applies);
  if (session_->game_over()) return {};  // mirrors ScriptRunner::run
  if (!journal_.has_value()) {
    return failed_precondition("session's journal is not open");
  }
  // Write-ahead: the step reaches disk before it touches the session, so a
  // crash mid-apply replays it on recovery instead of losing it.
  if (auto st = journal_->append_step(step); !st.ok()) return st;
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
  if (auto st = write_binary_file_atomic(snapshot_path_, data); !st.ok()) {
    return st;
  }
  sequence_ = meta.sequence;
  ++checkpoints_taken_;
  VGBL_COUNT(metrics.checkpoints);
  VGBL_COUNT(metrics.snapshot_bytes, data.size());
  // Compact: everything journaled so far is in the snapshot now, so the
  // journal restarts as a lone barrier carrying the snapshot's sequence.
  auto writer = JournalWriter::create(journal_path_);
  if (!writer.ok()) return writer.error();
  VGBL_COUNT(metrics.compactions);
  journal_ = std::move(writer).value();
  if (auto st = journal_->append_barrier(sequence_, step_count_); !st.ok()) {
    return st;
  }
  steps_since_checkpoint_ = 0;
  return {};
}

// --- SessionStore -----------------------------------------------------------

SessionStore::SessionStore(SessionStoreOptions options)
    : options_(std::move(options)) {}

Mutex& SessionStore::student_mutex(const std::string& student_id) const {
  return shards_[std::hash<std::string>{}(student_id) % kLockShards];
}

Status SessionStore::ensure_directory() {
  MutexLock lock(directory_mutex_);
  if (directory_ready_) return {};
  std::error_code ec;
  fs::create_directories(options_.directory, ec);
  if (ec) {
    return io_error("cannot create store directory '" + options_.directory +
                    "': " + ec.message());
  }
  directory_ready_ = true;
  return {};
}

std::string SessionStore::snapshot_path(const std::string& student_id) const {
  return (fs::path(options_.directory) / (student_id + kSnapshotSuffix))
      .string();
}

std::string SessionStore::journal_path(const std::string& student_id) const {
  return (fs::path(options_.directory) / (student_id + kJournalSuffix))
      .string();
}

bool SessionStore::has_session(const std::string& student_id) const {
  std::error_code ec;
  return fs::exists(snapshot_path(student_id), ec) ||
         fs::exists(journal_path(student_id), ec);
}

std::vector<std::string> SessionStore::list_students() const {
  std::vector<std::string> students;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(options_.directory, ec)) {
    const std::string name = entry.path().filename().string();
    for (const char* suffix : {kSnapshotSuffix, kJournalSuffix}) {
      const size_t len = std::string(suffix).size();
      if (name.size() > len && name.ends_with(suffix)) {
        students.push_back(name.substr(0, name.size() - len));
      }
    }
  }
  std::sort(students.begin(), students.end());
  students.erase(std::unique(students.begin(), students.end()),
                 students.end());
  return students;
}

Status SessionStore::remove_session(const std::string& student_id) {
  if (auto st = validate_student_id(student_id); !st.ok()) return st;
  MutexLock lock(student_mutex(student_id));
  std::error_code ec;
  fs::remove(snapshot_path(student_id), ec);
  if (ec) return io_error("cannot remove snapshot: " + ec.message());
  fs::remove(journal_path(student_id), ec);
  if (ec) return io_error("cannot remove journal: " + ec.message());
  return {};
}

Result<std::unique_ptr<PersistedSession>> SessionStore::open_session(
    std::shared_ptr<const GameBundle> bundle, const std::string& student_id) {
  if (auto st = validate_student_id(student_id); !st.ok()) return st.error();
  if (!bundle) return invalid_argument("bundle must not be null");
  if (auto st = ensure_directory(); !st.ok()) return st.error();

  StoreMetrics& metrics = StoreMetrics::get();
  VGBL_COUNT(metrics.opens);
  VGBL_SPAN("persist.open");
  VGBL_TIMER(metrics.open_ms);

  // no-naked-new allowlist: PersistedSession's constructor is private (only
  // the store may create one), which make_unique cannot reach; the result
  // is owned by the unique_ptr on the same line.
  std::unique_ptr<PersistedSession> ps(new PersistedSession(
      bundle, options_.session, options_.policy, student_id,
      snapshot_path(student_id), journal_path(student_id),
      &student_mutex(student_id)));
  // Hold the student's shard for the whole open: read snapshot, replay
  // journal, rewrite both. A concurrent open/checkpoint for the same
  // student serialises here; other students use different shards.
  MutexLock lock(*ps->store_mutex_);

  // 1. Latest snapshot, when one exists.
  bool have_snapshot = false;
  auto snap_data = read_binary_file(ps->snapshot_path_);
  if (snap_data.ok()) {
    auto decoded = decode_snapshot(snap_data.value());
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
    have_snapshot = true;
  } else if (snap_data.error().code != ErrorCode::kNotFound) {
    return snap_data.error();
  }
  if (!have_snapshot) {
    if (auto st = ps->session_->start(); !st.ok()) return st.error();
  }

  // 2. Journal tail: replay the steps not yet folded into the snapshot.
  bool have_journal = false;
  auto journal = read_journal_file(ps->journal_path_);
  if (journal.ok()) {
    have_journal = true;
    for (const auto& step :
         steps_after_barrier(journal.value(), ps->sequence_)) {
      ++ps->step_count_;
      ++ps->replayed_steps_;
      if (ps->session_->game_over()) continue;
      // A step that failed live fails identically here (determinism), and
      // failed steps are not paced — exactly what apply() did.
      if (!ps->runner_.run_step(step).ok()) continue;
      ps->clock_.advance(ScriptRunner::Options{}.step_pause);
      ps->session_->tick();
    }
  } else if (journal.error().code != ErrorCode::kNotFound) {
    return journal.error();
  }

  ps->resumed_ = have_snapshot || have_journal;
  if (ps->resumed_) {
    VGBL_COUNT(metrics.recoveries);
    VGBL_COUNT(metrics.replayed_steps, static_cast<u64>(ps->replayed_steps_));
  }
  // 3. Fold any replayed tail into a fresh snapshot and compact (also
  // replaces a stale journal left by a crash between snapshot rename and
  // compaction). A brand-new session just gets its empty journal +
  // barrier(0).
  if (ps->resumed_) {
    if (auto st = ps->checkpoint_locked(); !st.ok()) return st.error();
  } else {
    auto writer = JournalWriter::create(ps->journal_path_);
    if (!writer.ok()) return writer.error();
    ps->journal_ = std::move(writer).value();
    if (auto st = ps->journal_->append_barrier(0, 0); !st.ok()) {
      return st.error();
    }
  }
  return ps;
}

}  // namespace vgbl
