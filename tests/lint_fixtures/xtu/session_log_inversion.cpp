// Fixture (linted as src/persist/xtu_session_store.cpp): a SessionStore
// whose compaction inverts the declared shard-before-log order — it holds
// log_mutex_ while it checkpoints live sessions, and each checkpoint locks
// its student's shard. No cycle exists among the observed edges alone; the
// injected `order PersistedSession::store_mutex_ SessionStore::log_mutex_`
// fact edge closes one.
namespace vgbl {

struct Mutex {};

class PersistedSession {
 public:
  void checkpoint();

 private:
  Mutex* store_mutex_ = nullptr;
  int sequence_ = 0;
};

class SessionStore {
 public:
  void compact();

 private:
  Mutex log_mutex_;
  PersistedSession* live_[4] = {};
};

void PersistedSession::checkpoint() {
  MutexLock lock(*store_mutex_);
  ++sequence_;
}

void SessionStore::compact() {
  MutexLock lock(log_mutex_);
  for (PersistedSession* session : live_) session->checkpoint();
}

}  // namespace vgbl
