// Fixture (linted as src/persist/xtu_session_store.cpp): a SessionStore-
// shaped pair whose appends take the student's shard before the store's
// one log mutex — exactly the contract the config's `order
// PersistedSession::store_mutex_ SessionStore::log_mutex_` fact declares.
// This fixture both observes the fact (so require_facts passes) and stays
// cycle-free.
namespace vgbl {

struct Mutex {};

class SessionStore {
 public:
  void append_log_record(int bytes);

 private:
  Mutex log_mutex_;
  int log_bytes_ = 0;
};

class PersistedSession {
 public:
  void apply(int step);

 private:
  SessionStore* store_ = nullptr;
  Mutex* store_mutex_ = nullptr;
};

void SessionStore::append_log_record(int bytes) {
  MutexLock lock(log_mutex_);
  log_bytes_ += bytes;
}

void PersistedSession::apply(int step) {
  MutexLock lock(*store_mutex_);
  store_->append_log_record(step);
}

}  // namespace vgbl
