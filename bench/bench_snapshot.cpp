// E11 — session persistence benchmark: snapshot encode/decode/restore
// throughput and the session log's append rate on the classroom-repair
// game, mid-walkthrough (the state a real checkpoint would capture).
// Emits machine-readable results to BENCH_persist.json (the shared
// bench::JsonArtifact shape) alongside the console table. Expected shape:
// encode/decode are tens of microseconds (the state is a few KiB), a step
// append is fflush-bound, and a full store checkpoint is the snapshot
// encode plus one append of it to the store's log.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "persist/journal.hpp"
#include "persist/session_store.hpp"
#include "persist/snapshot.hpp"
#include "runtime/script.hpp"
#include "util/framed.hpp"

namespace {

using namespace vgbl;

InputScript classroom_half_walkthrough() {
  return {
      ScriptStep::click("teacher"),
      ScriptStep::choose(0),
      ScriptStep::advance(),
      ScriptStep::examine("computer"),
      ScriptStep::click("PSU INFO"),
      ScriptStep::click("GO MARKET"),
  };
}

/// A session advanced to the middle of the classroom walkthrough — the
/// kind of state a checkpoint actually snapshots (active dialogue history,
/// inventory, flags, analytics, event log all populated).
struct MidGameFixture {
  SimClock clock;
  GameSession session;

  MidGameFixture()
      : session(vgbl::bench::cached_bundle("classroom"), &clock) {
    (void)session.start();
    ScriptRunner runner(&session, &clock);
    (void)runner.run(classroom_half_walkthrough());
  }
};

MidGameFixture& fixture() {
  static MidGameFixture f;
  return f;
}

SnapshotMeta bench_meta(const MidGameFixture& f) {
  SnapshotMeta meta;
  meta.sequence = 1;
  meta.step_count = 6;
  meta.sim_time = f.clock.now();
  meta.student_id = "bench";
  meta.bundle_title = f.session.bundle().meta.title;
  return meta;
}

std::string temp_path(const char* name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

void BM_CaptureState(benchmark::State& state) {
  auto& f = fixture();
  for (auto _ : state) {
    SessionState captured = f.session.capture_state();
    benchmark::DoNotOptimize(captured);
  }
}

void BM_SnapshotEncode(benchmark::State& state) {
  auto& f = fixture();
  const SessionState captured = f.session.capture_state();
  const SnapshotMeta meta = bench_meta(f);
  size_t bytes = 0;
  for (auto _ : state) {
    const Bytes snap = encode_snapshot(captured, meta);
    bytes = snap.size();
    benchmark::DoNotOptimize(snap);
  }
  state.SetBytesProcessed(static_cast<i64>(bytes) *
                          static_cast<i64>(state.iterations()));
  state.counters["snapshot_bytes"] = static_cast<double>(bytes);
}

void BM_SnapshotDecode(benchmark::State& state) {
  auto& f = fixture();
  const Bytes snap = encode_snapshot(f.session.capture_state(), bench_meta(f));
  for (auto _ : state) {
    auto decoded = decode_snapshot(snap);
    benchmark::DoNotOptimize(decoded);
    if (!decoded.ok()) state.SkipWithError("decode failed");
  }
  state.SetBytesProcessed(static_cast<i64>(snap.size()) *
                          static_cast<i64>(state.iterations()));
}

void BM_SessionRestore(benchmark::State& state) {
  auto& f = fixture();
  const SessionState captured = f.session.capture_state();
  SimClock clock;
  clock.advance_to(captured.now);
  GameSession target(vgbl::bench::cached_bundle("classroom"), &clock);
  for (auto _ : state) {
    if (!target.restore_state(captured).ok()) {
      state.SkipWithError("restore failed");
    }
  }
}

void BM_LogAppendStep(benchmark::State& state) {
  // The bytes and the write + flush of one step record in a store's
  // sessions.log, without the store's index and locks.
  const std::string path = temp_path("vgbl_bench_sessions.log");
  auto log = framed::LogWriter::create(path, kJournalMagic, kJournalVersion);
  if (!log.ok()) {
    state.SkipWithError("cannot create log");
    return;
  }
  const Bytes payload = encode_log_payload(
      "bench", encode_step(ScriptStep::use_item("psu_part", "computer")));
  for (auto _ : state) {
    if (!log.value().append(static_cast<u8>(LogRecordKind::kStep), payload)
             .ok()) {
      state.SkipWithError("append failed");
    }
  }
  state.SetBytesProcessed(static_cast<i64>(log.value().size()));
  std::remove(path.c_str());
}

void BM_StoreCheckpoint(benchmark::State& state) {
  const std::string dir = temp_path("vgbl_bench_store");
  std::filesystem::remove_all(dir);
  SessionStore store({.directory = dir});
  auto session = store.open_session(vgbl::bench::cached_bundle("classroom"),
                                    "bench");
  if (!session.ok()) {
    state.SkipWithError("cannot open session");
    return;
  }
  ScriptRunner runner(&session.value()->session(), &session.value()->clock());
  (void)runner.run(classroom_half_walkthrough());
  for (auto _ : state) {
    if (!session.value()->checkpoint().ok()) {
      state.SkipWithError("checkpoint failed");
    }
  }
  session.value().reset();
  std::filesystem::remove_all(dir);
}

BENCHMARK(BM_CaptureState)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_SnapshotEncode)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_SnapshotDecode)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_SessionRestore)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_LogAppendStep)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_StoreCheckpoint)->Unit(benchmark::kMicrosecond);

}  // namespace

int main(int argc, char** argv) {
  return vgbl::bench::run_benchmark_main(
      argc, argv,
      {.name = "persist",
       .default_out = "BENCH_persist.json",
       .headline_case = "BM_StoreCheckpoint",
       .fields = {{"workload",
                   "{\"bundle\": \"classroom\", "
                   "\"state\": \"mid-walkthrough\"}"}}});
}
