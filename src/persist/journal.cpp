#include "persist/journal.hpp"

#include <utility>

namespace vgbl {

Bytes encode_log_payload(std::string_view student_id,
                         std::span<const u8> body) {
  ByteWriter w(student_id.size() + 1 + body.size());
  w.put_string(student_id);
  w.put_raw(body.data(), body.size());
  return std::move(w).take();
}

Result<LogPayload> decode_log_payload(std::span<const u8> payload) {
  ByteReader r(payload);
  auto student = r.string();
  if (!student.ok()) return student.error();
  if (student.value().empty()) {
    return corrupt_data("session log record names no student");
  }
  return LogPayload{std::move(student).value(), payload.subspan(r.position())};
}

Bytes encode_step(const ScriptStep& s) {
  ByteWriter w;
  w.put_u8(static_cast<u8>(s.op));
  w.put_string(s.object_name);
  w.put_string(s.item_name);
  w.put_string(s.second_item_name);
  w.put_varint(s.choice);
  w.put_i64(s.wait_time);
  w.put_i32(s.point.x);
  w.put_i32(s.point.y);
  return std::move(w).take();
}

Result<ScriptStep> decode_step(std::span<const u8> body) {
  ByteReader r(body);
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

}  // namespace vgbl
