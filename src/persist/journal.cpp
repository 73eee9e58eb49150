#include "persist/journal.hpp"

#include <utility>

#include "obs/macros.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace vgbl {
namespace {

struct JournalMetrics {
  obs::Counter& appends;
  obs::Counter& bytes;
  obs::Histogram& append_ms;

  static JournalMetrics& get() {
    auto& reg = obs::MetricsRegistry::global();
    static JournalMetrics m{
        reg.counter("persist_journal_appends_total",
                    "records appended to write-ahead journals"),
        reg.counter("persist_journal_bytes_total",
                    "framed bytes appended to write-ahead journals"),
        reg.histogram("persist_journal_append_ms",
                      obs::exponential_buckets(0.01, 2.0, 14),
                      "wall time of one journal append (write + flush)")};
    return m;
  }
};

void write_step_payload(ByteWriter& w, const ScriptStep& s) {
  w.put_u8(static_cast<u8>(s.op));
  w.put_string(s.object_name);
  w.put_string(s.item_name);
  w.put_string(s.second_item_name);
  w.put_varint(s.choice);
  w.put_i64(s.wait_time);
  w.put_i32(s.point.x);
  w.put_i32(s.point.y);
}

[[nodiscard]] Result<ScriptStep> read_step_payload(std::span<const u8> payload) {
  ByteReader r(payload);
  auto op = r.u8_();
  if (!op.ok()) return op.error();
  if (op.value() > static_cast<u8>(ScriptStep::Op::kClickPoint)) {
    return corrupt_data("journal step has unknown op " +
                        std::to_string(op.value()));
  }
  auto object = r.string();
  auto item = r.string();
  auto second = r.string();
  auto choice = r.varint();
  auto wait_time = r.i64_();
  auto px = r.i32_();
  auto py = r.i32_();
  if (!object.ok()) return object.error();
  if (!item.ok()) return item.error();
  if (!second.ok()) return second.error();
  if (!choice.ok()) return choice.error();
  if (!wait_time.ok()) return wait_time.error();
  if (!px.ok()) return px.error();
  if (!py.ok()) return py.error();
  ScriptStep s;
  s.op = static_cast<ScriptStep::Op>(op.value());
  s.object_name = std::move(object).value();
  s.item_name = std::move(item).value();
  s.second_item_name = std::move(second).value();
  s.choice = static_cast<size_t>(choice.value());
  s.wait_time = wait_time.value();
  s.point = {px.value(), py.value()};
  return s;
}

}  // namespace

// --- JournalWriter ----------------------------------------------------------

Result<JournalWriter> JournalWriter::create(const std::string& path) {
  auto log = framed::LogWriter::create(path, kJournalMagic, kJournalVersion);
  if (!log.ok()) return log.error();
  return JournalWriter(std::move(log).value());
}

Status JournalWriter::append_record(JournalRecord::Kind kind,
                                    const Bytes& payload) {
  JournalMetrics& metrics = JournalMetrics::get();
  VGBL_SPAN("persist.journal_append");
  VGBL_TIMER(metrics.append_ms);
  auto framed_bytes = log_.append(static_cast<u8>(kind), payload);
  if (!framed_bytes.ok()) return framed_bytes.error();
  bytes_written_ += framed_bytes.value();
  VGBL_COUNT(metrics.appends);
  VGBL_COUNT(metrics.bytes, framed_bytes.value());
  return {};
}

Status JournalWriter::append_step(const ScriptStep& step) {
  ByteWriter payload;
  write_step_payload(payload, step);
  return append_record(JournalRecord::Kind::kStep, payload.bytes());
}

Status JournalWriter::append_barrier(u64 snapshot_sequence, u64 step_count) {
  ByteWriter payload;
  payload.put_varint(snapshot_sequence);
  payload.put_varint(step_count);
  return append_record(JournalRecord::Kind::kBarrier, payload.bytes());
}

// --- reading ----------------------------------------------------------------

Result<JournalContents> parse_journal(std::span<const u8> data) {
  auto log = framed::parse_log(data, kJournalMagic, kJournalVersion,
                               "VGSJ journal");
  if (!log.ok()) return log.error();
  JournalContents out;
  out.valid_bytes = log.value().valid_bytes;
  out.torn_tail = log.value().torn_tail;
  for (const framed::Record& rec : log.value().records) {
    JournalRecord record;
    if (rec.kind == static_cast<u8>(JournalRecord::Kind::kStep)) {
      auto step = read_step_payload(rec.payload);
      if (!step.ok()) {
        return corrupt_data("journal step record at byte " +
                            std::to_string(rec.offset) + ": " +
                            step.error().message);
      }
      record.kind = JournalRecord::Kind::kStep;
      record.step = std::move(step).value();
    } else if (rec.kind == static_cast<u8>(JournalRecord::Kind::kBarrier)) {
      ByteReader pr(rec.payload);
      auto sequence = pr.varint();
      auto steps = pr.varint();
      if (!sequence.ok() || !steps.ok()) {
        return corrupt_data("journal barrier record at byte " +
                            std::to_string(rec.offset) + " is malformed");
      }
      record.kind = JournalRecord::Kind::kBarrier;
      record.barrier_sequence = sequence.value();
      record.barrier_step_count = steps.value();
    } else {
      return corrupt_data("journal record at byte " +
                          std::to_string(rec.offset) + " has unknown kind " +
                          std::to_string(rec.kind));
    }
    out.records.push_back(std::move(record));
  }
  return out;
}

Result<JournalContents> read_journal_file(const std::string& path) {
  auto data = read_binary_file(path);
  if (!data.ok()) return data.error();
  return parse_journal(data.value());
}

std::vector<ScriptStep> steps_after_barrier(const JournalContents& journal,
                                            u64 snapshot_sequence) {
  // Find the last matching barrier; steps before it (or with no matching
  // barrier at all) are already folded into the snapshot.
  std::ptrdiff_t barrier = -1;
  for (size_t i = 0; i < journal.records.size(); ++i) {
    const auto& rec = journal.records[i];
    if (rec.kind == JournalRecord::Kind::kBarrier &&
        rec.barrier_sequence == snapshot_sequence) {
      barrier = static_cast<std::ptrdiff_t>(i);
    }
  }
  std::vector<ScriptStep> steps;
  if (barrier < 0) return steps;
  for (size_t i = static_cast<size_t>(barrier) + 1;
       i < journal.records.size(); ++i) {
    if (journal.records[i].kind == JournalRecord::Kind::kStep) {
      steps.push_back(journal.records[i].step);
    }
  }
  return steps;
}

}  // namespace vgbl
