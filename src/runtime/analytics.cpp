#include "runtime/analytics.hpp"

namespace vgbl {

LearningTracker::LearningTracker() {
  text_.reserve(2048);
  interactions_.reserve(128);
}

u32 LearningTracker::kind_index(std::string_view kind) {
  for (u32 k = 0; k < kinds_.size(); ++k) {
    if (text_.view(kinds_[k]) == kind) return k;
  }
  kinds_.push_back(text_.append({kind}));
  return static_cast<u32>(kinds_.size() - 1);
}

void LearningTracker::add_interaction(std::string_view kind,
                                      TextBuffer::Ref target, MicroTime now) {
  interactions_.push_back({now, target, kind_index(kind)});
}

void LearningTracker::on_scenario_entered(ScenarioId id, std::string_view name,
                                          MicroTime now) {
  if (!visits_.empty() && visits_.back().left < 0) {
    visits_.back().left = now;
  }
  visits_.push_back({now, -1, text_.append({name}), id});
}

void LearningTracker::on_interaction(std::string_view kind,
                                     Pieces target_pieces, MicroTime now) {
  add_interaction(kind, text_.append(target_pieces), now);
}

void LearningTracker::on_decision(Pieces context_pieces,
                                  std::string_view choice, MicroTime now) {
  const TextBuffer::Ref context = text_.append(context_pieces);
  decisions_.push_back({now, context, text_.append({choice})});
}

void LearningTracker::on_item_collected(std::string_view item,
                                        MicroTime now) {
  const TextBuffer::Ref ref = text_.append({item});
  items_.push_back(ref);
  add_interaction("collect", ref, now);
}

void LearningTracker::on_score(i64 points, Pieces reason_pieces,
                               MicroTime now) {
  score_ += points;
  const TextBuffer::Ref reason = text_.append(reason_pieces);
  const TextBuffer::Ref suffix =
      text_.append({" (", DecimalText(points), ")"});
  add_interaction("score", {reason.offset, reason.length + suffix.length},
                  now);
}

void LearningTracker::on_reward(Pieces reward_pieces, MicroTime now) {
  const TextBuffer::Ref ref = text_.append(reward_pieces);
  rewards_.push_back(ref);
  add_interaction("reward", ref, now);
}

void LearningTracker::on_resource_opened(std::string_view title,
                                         MicroTime now) {
  const TextBuffer::Ref ref = text_.append({title});
  resources_.push_back({now, ref});
  add_interaction("open_resource", ref, now);
}

void LearningTracker::on_game_over(bool success, MicroTime now) {
  finished_ = true;
  success_ = success;
  finished_at_ = now;
  if (!visits_.empty() && visits_.back().left < 0) {
    visits_.back().left = now;
  }
}

LearningTracker::Visit LearningTracker::visit(size_t i) const {
  const VisitRec& v = visits_[i];
  return {v.id, text_.view(v.name), v.entered, v.left};
}

LearningTracker::Interaction LearningTracker::interaction(size_t i) const {
  const InteractionRec& r = interactions_[i];
  return {text_.view(kinds_[r.kind]), text_.view(r.target), r.when};
}

LearningTracker::Decision LearningTracker::decision(size_t i) const {
  const DecisionRec& d = decisions_[i];
  return {text_.view(d.context), text_.view(d.choice), d.when};
}

std::map<std::string, f64> LearningTracker::time_per_scenario(
    MicroTime now) const {
  std::map<std::string, f64, std::less<>> totals;
  for (const VisitRec& v : visits_) {
    const MicroTime left = v.left >= 0 ? v.left : now;
    const std::string_view name = text_.view(v.name);
    auto it = totals.find(name);
    if (it == totals.end()) it = totals.emplace(std::string(name), 0.0).first;
    it->second += to_seconds(left - v.entered);
  }
  return {totals.begin(), totals.end()};
}

std::string LearningTracker::report(MicroTime now) const {
  std::string r;
  r += "=== Learning report ===\n";
  r += "outcome: ";
  r += finished_ ? (success_ ? "mission complete\n" : "mission failed\n")
                 : "in progress\n";
  append_pieces(r, {"score: ", DecimalText(score_), "\n"});
  append_pieces(r, {"scenarios visited: ", DecimalText(visits_.size()), "\n"});
  for (const auto& [name, secs] : time_per_scenario(now)) {
    append_pieces(r, {"  ", pad_right(name, 20), format_double(secs, 1),
                      " s\n"});
  }
  append_pieces(r, {"interactions: ", DecimalText(interactions_.size()), "\n"});
  append_pieces(r, {"decisions: ", DecimalText(decisions_.size()), "\n"});
  for (const DecisionRec& d : decisions_) {
    append_pieces(r, {"  [", text_.view(d.context), "] -> ",
                      text_.view(d.choice), "\n"});
  }
  const auto name_list = [&](std::string_view label,
                             const std::vector<TextBuffer::Ref>& refs) {
    append_pieces(r, {label, DecimalText(refs.size())});
    if (!refs.empty()) {
      r += " (";
      for (size_t i = 0; i < refs.size(); ++i) {
        if (i) r += ", ";
        r += text_.view(refs[i]);
      }
      r += ")";
    }
    r += "\n";
  };
  name_list("items collected: ", items_);
  name_list("rewards earned: ", rewards_);
  if (!resources_.empty()) {
    r += "resources consulted:\n";
    for (const ResourceRec& res : resources_) {
      append_pieces(r, {"  ", text_.view(res.title), " @",
                        format_double(to_seconds(res.when), 1), "s\n"});
    }
  }
  return r;
}

Json LearningTracker::to_json(MicroTime now) const {
  Json out = Json::object();
  auto& o = out.mutable_object();
  o.set("finished", Json(finished_));
  o.set("success", Json(success_));
  o.set("score", Json(score_));
  JsonArray visits;
  for (const VisitRec& v : visits_) {
    Json vj = Json::object();
    auto& vo = vj.mutable_object();
    vo.set("scenario", Json(std::string(text_.view(v.name))));
    vo.set("entered_s", Json(to_seconds(v.entered)));
    vo.set("left_s", Json(to_seconds(v.left >= 0 ? v.left : now)));
    visits.push_back(std::move(vj));
  }
  o.set("visits", Json(std::move(visits)));
  JsonArray decisions;
  for (const DecisionRec& d : decisions_) {
    Json dj = Json::object();
    auto& dd = dj.mutable_object();
    dd.set("context", Json(std::string(text_.view(d.context))));
    dd.set("choice", Json(std::string(text_.view(d.choice))));
    decisions.push_back(std::move(dj));
  }
  o.set("decisions", Json(std::move(decisions)));
  o.set("interaction_count", Json(static_cast<i64>(interactions_.size())));
  JsonArray items;
  for (TextBuffer::Ref i : items_) {
    items.push_back(Json(std::string(text_.view(i))));
  }
  o.set("items", Json(std::move(items)));
  JsonArray rewards;
  for (TextBuffer::Ref r : rewards_) {
    rewards.push_back(Json(std::string(text_.view(r))));
  }
  o.set("rewards", Json(std::move(rewards)));
  return out;
}

LearningTracker::State LearningTracker::state() const {
  State s;
  s.visits.reserve(visits_.size());
  for (const VisitRec& v : visits_) {
    s.visits.push_back(
        {v.id, std::string(text_.view(v.name)), v.entered, v.left});
  }
  s.interactions.reserve(interactions_.size());
  for (const InteractionRec& r : interactions_) {
    s.interactions.push_back({std::string(text_.view(kinds_[r.kind])),
                              std::string(text_.view(r.target)), r.when});
  }
  s.decisions.reserve(decisions_.size());
  for (const DecisionRec& d : decisions_) {
    s.decisions.push_back({std::string(text_.view(d.context)),
                           std::string(text_.view(d.choice)), d.when});
  }
  for (TextBuffer::Ref i : items_) s.items.emplace_back(text_.view(i));
  for (TextBuffer::Ref r : rewards_) s.rewards.emplace_back(text_.view(r));
  for (const ResourceRec& res : resources_) {
    s.resources.emplace_back(std::string(text_.view(res.title)), res.when);
  }
  s.score = score_;
  s.finished = finished_;
  s.success = success_;
  s.finished_at = finished_at_;
  return s;
}

u64 LearningTracker::State::text_bytes() const {
  u64 bytes = 0;
  for (const ScenarioVisit& v : visits) bytes += v.name.size();
  for (const InteractionRecord& r : interactions) {
    bytes += r.kind.size() + r.target.size();
  }
  for (const DecisionRecord& d : decisions) {
    bytes += d.context.size() + d.choice.size();
  }
  for (const std::string& i : items) bytes += i.size();
  for (const std::string& r : rewards) bytes += r.size();
  for (const auto& res : resources) bytes += res.first.size();
  return bytes;
}

void LearningTracker::restore(const State& state) {
  text_.clear();
  kinds_.clear();
  visits_.clear();
  interactions_.clear();
  decisions_.clear();
  items_.clear();
  rewards_.clear();
  resources_.clear();
  for (const ScenarioVisit& v : state.visits) {
    visits_.push_back({v.entered, v.left, text_.append({v.name}), v.id});
  }
  for (const InteractionRecord& r : state.interactions) {
    add_interaction(r.kind, text_.append({r.target}), r.when);
  }
  for (const DecisionRecord& d : state.decisions) {
    const TextBuffer::Ref context = text_.append({d.context});
    decisions_.push_back({d.when, context, text_.append({d.choice})});
  }
  for (const std::string& i : state.items) {
    items_.push_back(text_.append({i}));
  }
  for (const std::string& r : state.rewards) {
    rewards_.push_back(text_.append({r}));
  }
  for (const auto& [title, when] : state.resources) {
    resources_.push_back({when, text_.append({title})});
  }
  score_ = state.score;
  finished_ = state.finished;
  success_ = state.success;
  finished_at_ = state.finished_at;
}

}  // namespace vgbl
