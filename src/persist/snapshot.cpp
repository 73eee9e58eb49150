#include "persist/snapshot.hpp"

#include "util/bitstream.hpp"
#include "util/crc32.hpp"
#include "util/framed.hpp"

namespace vgbl {
namespace {

// Section tags (four printable characters, little-endian).
constexpr u32 tag4(char a, char b, char c, char d) {
  return static_cast<u32>(static_cast<u8>(a)) |
         static_cast<u32>(static_cast<u8>(b)) << 8 |
         static_cast<u32>(static_cast<u8>(c)) << 16 |
         static_cast<u32>(static_cast<u8>(d)) << 24;
}
constexpr u32 kSectionMeta = tag4('M', 'E', 'T', 'A');
constexpr u32 kSectionCore = tag4('C', 'O', 'R', 'E');
constexpr u32 kSectionActive = tag4('A', 'C', 'T', 'V');
constexpr u32 kSectionTracker = tag4('T', 'R', 'C', 'K');
constexpr u32 kSectionLog = tag4('E', 'L', 'O', 'G');
constexpr u32 kSectionRewards = tag4('R', 'E', 'W', 'D');

std::string tag_name(u32 tag) {
  std::string s(4, '?');
  for (int i = 0; i < 4; ++i) {
    const char c = static_cast<char>(tag >> (8 * i));
    s[static_cast<size_t>(i)] = (c >= 0x20 && c < 0x7F) ? c : '?';
  }
  return s;
}

// --- id-set codec: exp-Golomb deltas over a sorted list (util/bitstream) ----

void put_id_set(ByteWriter& w, const std::vector<u32>& sorted) {
  BitWriter bits;
  bits.put_ue(static_cast<u32>(sorted.size()));
  u32 prev = 0;
  for (u32 v : sorted) {
    bits.put_ue(v - prev);
    prev = v;
  }
  w.put_blob(std::move(bits).finish());
}

[[nodiscard]] Result<std::vector<u32>> get_id_set(ByteReader& r) {
  auto blob = r.blob();
  if (!blob.ok()) return blob.error();
  BitReader bits(blob.value());
  auto count = bits.ue();
  if (!count.ok()) return count.error();
  if (count.value() > blob.value().size() * 8) {
    return corrupt_data("id set count exceeds payload");
  }
  std::vector<u32> out;
  out.reserve(count.value());
  u32 prev = 0;
  for (u32 i = 0; i < count.value(); ++i) {
    auto delta = bits.ue();
    if (!delta.ok()) return delta.error();
    prev += delta.value();
    out.push_back(prev);
  }
  return out;
}

// --- section payload writers ------------------------------------------------

void write_meta(ByteWriter& w, const SnapshotMeta& meta) {
  w.put_string(meta.student_id);
  w.put_string(meta.bundle_title);
  w.put_varint(meta.sequence);
  w.put_varint(meta.step_count);
  w.put_i64(meta.sim_time);
}

void write_core(ByteWriter& w, const SessionState& s) {
  w.put_i64(s.now);
  w.put_u32(s.scenario.value);
  u8 bits = 0;
  bits |= s.started ? 1 << 0 : 0;
  bits |= s.game_over ? 1 << 1 : 0;
  bits |= s.success ? 1 << 2 : 0;
  bits |= s.segment_end_fired ? 1 << 3 : 0;
  bits |= s.player_active ? 1 << 4 : 0;
  bits |= s.avatar_walking ? 1 << 5 : 0;
  bits |= s.has_pending_interaction ? 1 << 6 : 0;
  w.put_u8(bits);
  w.put_i64(s.scenario_entered_at);
  w.put_i64(s.player_start);

  w.put_varint(s.inventory.size());
  for (const auto& e : s.inventory) {
    w.put_varint(e.item);
    w.put_svarint(e.count);
  }
  w.put_varint(s.ledger.size());
  for (const auto& e : s.ledger) {
    w.put_svarint(e.points);
    w.put_string(e.reason);
    w.put_i64(e.when);
  }
  w.put_varint(s.flags.size());
  for (const auto& f : s.flags) w.put_string(f);
  put_id_set(w, s.visited);
  put_id_set(w, s.disarmed);
  w.put_varint(s.visibility.size());
  for (const auto& v : s.visibility) {
    w.put_varint(v.object);
    w.put_u8(v.visible ? 1 : 0);
  }
  w.put_varint(s.timers.size());
  for (const auto& t : s.timers) {
    w.put_varint(t.rule);
    w.put_i64(t.fire_at);
  }
  w.put_i32(s.avatar_position.x);
  w.put_i32(s.avatar_position.y);
  if (s.avatar_walking) {
    w.put_i32(s.avatar_target.x);
    w.put_i32(s.avatar_target.y);
  }
  if (s.has_pending_interaction) {
    w.put_u8(s.pending_trigger);
    w.put_u32(s.pending_object);
    w.put_u32(s.pending_item);
  }
}

void write_active(ByteWriter& w, const SessionState& s) {
  u8 bits = 0;
  bits |= s.in_dialogue ? 1 << 0 : 0;
  bits |= s.in_quiz ? 1 << 1 : 0;
  bits |= s.has_message ? 1 << 2 : 0;
  bits |= s.has_image ? 1 << 3 : 0;
  w.put_u8(bits);
  if (s.in_dialogue) {
    w.put_u32(s.dialogue_id);
    w.put_varint(s.dialogue_path.size());
    for (u32 v : s.dialogue_path) w.put_varint(v);
    w.put_varint(s.dialogue_consumed_tags);
  }
  if (s.in_quiz) {
    w.put_u32(s.quiz_id);
    w.put_varint(s.quiz_answers.size());
    for (u32 v : s.quiz_answers) w.put_varint(v);
  }
  if (s.has_message) {
    w.put_string(s.message_text);
    w.put_i64(s.message_shown_at);
    w.put_i64(s.message_timeout);
  }
  if (s.has_image) {
    w.put_string(s.image_icon);
    w.put_i64(s.image_shown_at);
  }
}

void write_tracker(ByteWriter& w, const LearningTracker::State& t) {
  w.put_varint(t.visits.size());
  for (const auto& v : t.visits) {
    w.put_u32(v.id.value);
    w.put_string(v.name);
    w.put_i64(v.entered);
    w.put_i64(v.left);
  }
  w.put_varint(t.interactions.size());
  for (const auto& i : t.interactions) {
    w.put_string(i.kind);
    w.put_string(i.target);
    w.put_i64(i.when);
  }
  w.put_varint(t.decisions.size());
  for (const auto& d : t.decisions) {
    w.put_string(d.context);
    w.put_string(d.choice);
    w.put_i64(d.when);
  }
  w.put_varint(t.items.size());
  for (const auto& i : t.items) w.put_string(i);
  w.put_varint(t.rewards.size());
  for (const auto& r : t.rewards) w.put_string(r);
  w.put_varint(t.resources.size());
  for (const auto& [title, when] : t.resources) {
    w.put_string(title);
    w.put_i64(when);
  }
  w.put_svarint(t.score);
  w.put_u8(static_cast<u8>((t.finished ? 1 : 0) | (t.success ? 2 : 0)));
  w.put_i64(t.finished_at);
}

void write_log(ByteWriter& w, const std::vector<SessionLogEntry>& log) {
  w.put_varint(log.size());
  for (const auto& e : log) {
    w.put_i64(e.when);
    w.put_string(e.text);
  }
}

void write_rewards(ByteWriter& w, const rewards::EvaluatorState& s) {
  w.put_varint(s.interactions_seen);
  w.put_varint(s.items_seen);
  w.put_varint(s.decisions_seen);
  w.put_varint(s.visits_seen);
  w.put_svarint(s.streak_length);
  w.put_i64(s.streak_last);
  w.put_u8(static_cast<u8>((s.streak_active ? 1 : 0) |
                           (s.completion_seen ? 2 : 0)));
  w.put_varint(s.scenarios_explored.size());
  for (const auto& name : s.scenarios_explored) w.put_string(name);
  w.put_varint(s.progress.size());
  for (i64 p : s.progress) w.put_svarint(p);
  w.put_varint(s.unlocked.size());
  for (u8 u : s.unlocked) w.put_u8(u);
  // Same per-unlock layout as rewards::encode_unlock_log, so the stream
  // embedded in a snapshot stays byte-comparable with live logs.
  w.put_varint(s.unlocks.size());
  for (const auto& u : s.unlocks) {
    w.put_i64(u.sim_time);
    w.put_u32(u.rule_id);
    w.put_string(u.badge);
    w.put_svarint(u.points);
  }
}

// --- section payload readers ------------------------------------------------

// The readers below deliberately return on the *first* failed accessor:
// every Result is checked, so corrupt payloads surface as kCorruptData.

#define VGBL_READ(var, expr)                  \
  auto var##_r = (expr);                      \
  if (!var##_r.ok()) return var##_r.error(); \
  auto var = std::move(var##_r).value()

[[nodiscard]] Result<u64> read_count(ByteReader& r, size_t per_element_floor) {
  auto count = r.varint();
  if (!count.ok()) return count.error();
  if (per_element_floor > 0 &&
      count.value() > r.remaining() / per_element_floor + 1) {
    return corrupt_data("element count exceeds payload size");
  }
  return count.value();
}

Status read_meta(ByteReader& r, SnapshotMeta& meta) {
  VGBL_READ(student, r.string());
  VGBL_READ(title, r.string());
  VGBL_READ(sequence, r.varint());
  VGBL_READ(steps, r.varint());
  VGBL_READ(sim_time, r.i64_());
  meta.student_id = std::move(student);
  meta.bundle_title = std::move(title);
  meta.sequence = sequence;
  meta.step_count = steps;
  meta.sim_time = sim_time;
  return {};
}

Status read_core(ByteReader& r, SessionState& s) {
  VGBL_READ(now, r.i64_());
  VGBL_READ(scenario, r.u32_());
  VGBL_READ(bits, r.u8_());
  VGBL_READ(entered_at, r.i64_());
  VGBL_READ(player_start, r.i64_());
  s.now = now;
  s.scenario = ScenarioId{scenario};
  s.started = bits & 1 << 0;
  s.game_over = bits & 1 << 1;
  s.success = bits & 1 << 2;
  s.segment_end_fired = bits & 1 << 3;
  s.player_active = bits & 1 << 4;
  s.avatar_walking = bits & 1 << 5;
  s.has_pending_interaction = bits & 1 << 6;
  s.scenario_entered_at = entered_at;
  s.player_start = player_start;

  VGBL_READ(inv_count, read_count(r, 2));
  for (u64 i = 0; i < inv_count; ++i) {
    VGBL_READ(item, r.varint());
    VGBL_READ(count, r.svarint());
    s.inventory.push_back(
        {static_cast<u32>(item), static_cast<i32>(count)});
  }
  VGBL_READ(ledger_count, read_count(r, 10));
  for (u64 i = 0; i < ledger_count; ++i) {
    VGBL_READ(points, r.svarint());
    VGBL_READ(reason, r.string());
    VGBL_READ(when, r.i64_());
    s.ledger.push_back({points, std::move(reason), when});
  }
  VGBL_READ(flag_count, read_count(r, 1));
  for (u64 i = 0; i < flag_count; ++i) {
    VGBL_READ(flag, r.string());
    s.flags.push_back(std::move(flag));
  }
  VGBL_READ(visited, get_id_set(r));
  VGBL_READ(disarmed, get_id_set(r));
  s.visited = std::move(visited);
  s.disarmed = std::move(disarmed);
  VGBL_READ(vis_count, read_count(r, 2));
  for (u64 i = 0; i < vis_count; ++i) {
    VGBL_READ(object, r.varint());
    VGBL_READ(visible, r.u8_());
    s.visibility.push_back({static_cast<u32>(object), visible != 0});
  }
  VGBL_READ(timer_count, read_count(r, 9));
  for (u64 i = 0; i < timer_count; ++i) {
    VGBL_READ(rule, r.varint());
    VGBL_READ(fire_at, r.i64_());
    s.timers.push_back({static_cast<u32>(rule), fire_at});
  }
  VGBL_READ(ax, r.i32_());
  VGBL_READ(ay, r.i32_());
  s.avatar_position = {ax, ay};
  if (s.avatar_walking) {
    VGBL_READ(tx, r.i32_());
    VGBL_READ(ty, r.i32_());
    s.avatar_target = {tx, ty};
  }
  if (s.has_pending_interaction) {
    VGBL_READ(trigger, r.u8_());
    VGBL_READ(object, r.u32_());
    VGBL_READ(item, r.u32_());
    s.pending_trigger = trigger;
    s.pending_object = object;
    s.pending_item = item;
  }
  return {};
}

Status read_active(ByteReader& r, SessionState& s) {
  VGBL_READ(bits, r.u8_());
  s.in_dialogue = bits & 1 << 0;
  s.in_quiz = bits & 1 << 1;
  s.has_message = bits & 1 << 2;
  s.has_image = bits & 1 << 3;
  if (s.in_dialogue) {
    VGBL_READ(id, r.u32_());
    VGBL_READ(count, read_count(r, 1));
    s.dialogue_id = id;
    for (u64 i = 0; i < count; ++i) {
      VGBL_READ(input, r.varint());
      s.dialogue_path.push_back(static_cast<u32>(input));
    }
    VGBL_READ(consumed, r.varint());
    s.dialogue_consumed_tags = static_cast<u32>(consumed);
  }
  if (s.in_quiz) {
    VGBL_READ(id, r.u32_());
    VGBL_READ(count, read_count(r, 1));
    s.quiz_id = id;
    for (u64 i = 0; i < count; ++i) {
      VGBL_READ(answer, r.varint());
      s.quiz_answers.push_back(static_cast<u32>(answer));
    }
  }
  if (s.has_message) {
    VGBL_READ(text, r.string());
    VGBL_READ(shown_at, r.i64_());
    VGBL_READ(timeout, r.i64_());
    s.message_text = std::move(text);
    s.message_shown_at = shown_at;
    s.message_timeout = timeout;
  }
  if (s.has_image) {
    VGBL_READ(icon, r.string());
    VGBL_READ(shown_at, r.i64_());
    s.image_icon = std::move(icon);
    s.image_shown_at = shown_at;
  }
  return {};
}

Status read_tracker(ByteReader& r, LearningTracker::State& t) {
  VGBL_READ(visit_count, read_count(r, 14));
  for (u64 i = 0; i < visit_count; ++i) {
    VGBL_READ(id, r.u32_());
    VGBL_READ(name, r.string());
    VGBL_READ(entered, r.i64_());
    VGBL_READ(left, r.i64_());
    t.visits.push_back({ScenarioId{id}, std::move(name), entered, left});
  }
  VGBL_READ(interaction_count, read_count(r, 10));
  for (u64 i = 0; i < interaction_count; ++i) {
    VGBL_READ(kind, r.string());
    VGBL_READ(target, r.string());
    VGBL_READ(when, r.i64_());
    t.interactions.push_back({std::move(kind), std::move(target), when});
  }
  VGBL_READ(decision_count, read_count(r, 10));
  for (u64 i = 0; i < decision_count; ++i) {
    VGBL_READ(context, r.string());
    VGBL_READ(choice, r.string());
    VGBL_READ(when, r.i64_());
    t.decisions.push_back({std::move(context), std::move(choice), when});
  }
  VGBL_READ(item_count, read_count(r, 1));
  for (u64 i = 0; i < item_count; ++i) {
    VGBL_READ(item, r.string());
    t.items.push_back(std::move(item));
  }
  VGBL_READ(reward_count, read_count(r, 1));
  for (u64 i = 0; i < reward_count; ++i) {
    VGBL_READ(reward, r.string());
    t.rewards.push_back(std::move(reward));
  }
  VGBL_READ(resource_count, read_count(r, 9));
  for (u64 i = 0; i < resource_count; ++i) {
    VGBL_READ(title, r.string());
    VGBL_READ(when, r.i64_());
    t.resources.emplace_back(std::move(title), when);
  }
  VGBL_READ(score, r.svarint());
  VGBL_READ(bits, r.u8_());
  VGBL_READ(finished_at, r.i64_());
  t.score = score;
  t.finished = bits & 1;
  t.success = bits & 2;
  t.finished_at = finished_at;
  return {};
}

Status read_log(ByteReader& r, std::vector<SessionLogEntry>& log) {
  VGBL_READ(count, read_count(r, 9));
  for (u64 i = 0; i < count; ++i) {
    VGBL_READ(when, r.i64_());
    VGBL_READ(text, r.string());
    log.push_back({when, std::move(text)});
  }
  return {};
}

Status read_rewards(ByteReader& r, rewards::EvaluatorState& s) {
  VGBL_READ(interactions_seen, r.varint());
  VGBL_READ(items_seen, r.varint());
  VGBL_READ(decisions_seen, r.varint());
  VGBL_READ(visits_seen, r.varint());
  VGBL_READ(streak_length, r.svarint());
  VGBL_READ(streak_last, r.i64_());
  VGBL_READ(bits, r.u8_());
  s.interactions_seen = static_cast<u32>(interactions_seen);
  s.items_seen = static_cast<u32>(items_seen);
  s.decisions_seen = static_cast<u32>(decisions_seen);
  s.visits_seen = static_cast<u32>(visits_seen);
  s.streak_length = streak_length;
  s.streak_last = streak_last;
  s.streak_active = bits & 1;
  s.completion_seen = bits & 2;
  VGBL_READ(scenario_count, read_count(r, 1));
  for (u64 i = 0; i < scenario_count; ++i) {
    VGBL_READ(name, r.string());
    s.scenarios_explored.push_back(std::move(name));
  }
  VGBL_READ(progress_count, read_count(r, 1));
  for (u64 i = 0; i < progress_count; ++i) {
    VGBL_READ(p, r.svarint());
    s.progress.push_back(p);
  }
  VGBL_READ(unlocked_count, read_count(r, 1));
  for (u64 i = 0; i < unlocked_count; ++i) {
    VGBL_READ(u, r.u8_());
    s.unlocked.push_back(u);
  }
  VGBL_READ(unlock_count, read_count(r, 14));
  for (u64 i = 0; i < unlock_count; ++i) {
    VGBL_READ(when, r.i64_());
    VGBL_READ(rule, r.u32_());
    VGBL_READ(badge, r.string());
    VGBL_READ(points, r.svarint());
    s.unlocks.push_back({when, rule, std::move(badge), points});
  }
  return {};
}

#undef VGBL_READ

template <typename Fn>
void emit_section(ByteWriter& out, u32 tag, Fn&& fill) {
  ByteWriter payload;
  fill(payload);
  out.put_u32(tag);
  out.put_u32(static_cast<u32>(payload.size()));
  const Bytes body = std::move(payload).take();
  out.put_raw(body.data(), body.size());
  out.put_u32(crc32(body));
}

using Sections = std::vector<std::pair<u32, std::span<const u8>>>;

/// Parses and CRC-verifies the framing, returning payload views by tag.
/// Shared by decode_snapshot and inspect_snapshot.
[[nodiscard]] Result<Sections> parse_sections(std::span<const u8> data) {
  auto section_count = framed::check_header(data, kSnapshotMagic,
                                            kSnapshotVersion, "VGSS snapshot");
  if (!section_count.ok()) return section_count.error();
  ByteReader r(data);
  (void)r.skip(framed::kHeaderSize);
  Sections out;
  for (u16 i = 0; i < section_count.value(); ++i) {
    auto tag = r.u32_();
    auto size = r.u32_();
    if (!tag.ok() || !size.ok()) return corrupt_data("truncated section header");
    auto payload = r.view(size.value());
    if (!payload.ok()) return corrupt_data("truncated section payload");
    auto stored_crc = r.u32_();
    if (!stored_crc.ok()) return corrupt_data("truncated section crc");
    if (stored_crc.value() != crc32(payload.value())) {
      return corrupt_data("section '" + tag_name(tag.value()) +
                          "' crc mismatch");
    }
    out.emplace_back(tag.value(), payload.value());
  }
  return out;
}

}  // namespace

Bytes encode_snapshot(const SessionState& state, const SnapshotMeta& meta) {
  ByteWriter out;
  framed::put_header(out, kSnapshotMagic, kSnapshotVersion, 6);  // sections

  emit_section(out, kSectionMeta,
               [&](ByteWriter& w) { write_meta(w, meta); });
  emit_section(out, kSectionCore,
               [&](ByteWriter& w) { write_core(w, state); });
  emit_section(out, kSectionActive,
               [&](ByteWriter& w) { write_active(w, state); });
  emit_section(out, kSectionTracker,
               [&](ByteWriter& w) { write_tracker(w, state.tracker); });
  emit_section(out, kSectionLog,
               [&](ByteWriter& w) { write_log(w, state.log); });
  emit_section(out, kSectionRewards,
               [&](ByteWriter& w) { write_rewards(w, state.rewards); });
  return std::move(out).take();
}

Result<DecodedSnapshot> decode_snapshot(std::span<const u8> data) {
  auto parsed = parse_sections(data);
  if (!parsed.ok()) return parsed.error();

  DecodedSnapshot out;
  bool have_meta = false;
  bool have_core = false;
  for (const auto& [tag, payload] : parsed.value()) {
    ByteReader r(payload);
    Status st;
    if (tag == kSectionMeta) {
      st = read_meta(r, out.meta);
      have_meta = st.ok();
    } else if (tag == kSectionCore) {
      st = read_core(r, out.state);
      have_core = st.ok();
    } else if (tag == kSectionActive) {
      st = read_active(r, out.state);
    } else if (tag == kSectionTracker) {
      st = read_tracker(r, out.state.tracker);
    } else if (tag == kSectionLog) {
      st = read_log(r, out.state.log);
    } else if (tag == kSectionRewards) {
      st = read_rewards(r, out.state.rewards);
    }  // unknown tags: skipped for forward compatibility
    if (!st.ok()) {
      return corrupt_data("section '" + tag_name(tag) +
                          "': " + st.error().message);
    }
  }
  if (!have_meta || !have_core) {
    return corrupt_data("snapshot missing required META/CORE sections");
  }
  return out;
}

Result<SnapshotInfo> inspect_snapshot(std::span<const u8> data) {
  auto parsed = parse_sections(data);
  if (!parsed.ok()) return parsed.error();
  SnapshotInfo info;
  info.version = kSnapshotVersion;
  info.total_bytes = data.size();
  bool have_meta = false;
  for (const auto& [tag, payload] : parsed.value()) {
    info.sections.push_back({tag, tag_name(tag), payload.size()});
    if (tag == kSectionMeta) {
      ByteReader r(payload);
      if (auto st = read_meta(r, info.meta); !st.ok()) return st.error();
      have_meta = true;
    }
  }
  if (!have_meta) return corrupt_data("snapshot missing META section");
  return info;
}

}  // namespace vgbl
