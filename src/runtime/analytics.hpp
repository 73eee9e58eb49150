// Learning analytics: the knowledge-delivery evidence the paper's §3.2
// motivates ("Students can obtain knowledge from the process of making
// decision and interaction"). The tracker records what the player did,
// where, and when; the report is what a lecturer would review to decide
// real-world rewards (§3.3: "the lecturers will decide how to reward
// students themselves").
//
// Storage: every string a record carries (scenario and object names,
// dialogue lines, score reasons) is appended to one TextBuffer per
// tracker, and each record is a fixed-width entry that locates its text
// there, as the session's event log does. Recording a step therefore
// appends to two vectors instead of building strings, and the report, the
// JSON export, the snapshot's plain-data State and the rewards feed render
// from the records.
#pragma once

#include <initializer_list>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "util/json.hpp"
#include "util/sim_clock.hpp"
#include "util/text.hpp"
#include "util/types.hpp"

namespace vgbl {

class LearningTracker {
 public:
  using Pieces = std::initializer_list<std::string_view>;

  /// Reserves the text and interaction records the median session of the
  /// classroom-repair district makes (1.6 KB, 116 interactions; DESIGN.md
  /// §5i), rounded up to a power of two. The shorter record lists start
  /// empty.
  LearningTracker();

  void on_scenario_entered(ScenarioId id, std::string_view name,
                           MicroTime now);
  /// An interaction whose target text is `target_pieces` back to back.
  void on_interaction(std::string_view kind, Pieces target_pieces,
                      MicroTime now);
  /// A decision whose context text is `context_pieces` back to back.
  void on_decision(Pieces context_pieces, std::string_view choice,
                   MicroTime now);
  void on_item_collected(std::string_view item, MicroTime now);
  /// A score change whose reason text is `reason_pieces` back to back.
  void on_score(i64 points, Pieces reason_pieces, MicroTime now);
  /// A reward whose name is `reward_pieces` back to back.
  void on_reward(Pieces reward_pieces, MicroTime now);
  void on_resource_opened(std::string_view title, MicroTime now);
  void on_game_over(bool success, MicroTime now);

  // Records as plain data: the snapshot's form (see State).
  struct ScenarioVisit {
    ScenarioId id;
    std::string name;
    MicroTime entered;
    MicroTime left = -1;  // -1: still inside at game end
  };
  struct InteractionRecord {
    std::string kind;    // "click", "examine", "drag", "use_item", ...
    std::string target;
    MicroTime when;
  };
  struct DecisionRecord {
    std::string context;
    std::string choice;
    MicroTime when;
  };

  // Records as views into the tracker's text: valid until the next
  // on_*() or restore() call.
  struct Visit {
    ScenarioId id;
    std::string_view name;
    MicroTime entered;
    MicroTime left;  // -1: still inside
  };
  struct Interaction {
    std::string_view kind;
    std::string_view target;
    MicroTime when;
  };
  struct Decision {
    std::string_view context;
    std::string_view choice;
    MicroTime when;
  };

  [[nodiscard]] size_t visit_count() const { return visits_.size(); }
  [[nodiscard]] size_t interaction_count() const {
    return interactions_.size();
  }
  [[nodiscard]] size_t decision_count() const { return decisions_.size(); }
  [[nodiscard]] size_t item_count() const { return items_.size(); }
  [[nodiscard]] size_t reward_count() const { return rewards_.size(); }

  [[nodiscard]] Visit visit(size_t i) const;
  [[nodiscard]] Interaction interaction(size_t i) const;
  [[nodiscard]] Decision decision(size_t i) const;
  [[nodiscard]] std::string_view item(size_t i) const {
    return text_.view(items_[i]);
  }
  [[nodiscard]] std::string_view reward(size_t i) const {
    return text_.view(rewards_[i]);
  }

  [[nodiscard]] i64 total_score() const { return score_; }
  [[nodiscard]] bool finished() const { return finished_; }
  [[nodiscard]] bool succeeded() const { return success_; }
  /// Sim-time of on_game_over, or -1 while the game is still running.
  [[nodiscard]] MicroTime finished_at() const { return finished_at_; }

  /// Full mutable state as plain data — what the session-persistence
  /// snapshot serialises ("analytics counters" survive suspend/resume).
  struct State {
    std::vector<ScenarioVisit> visits;
    std::vector<InteractionRecord> interactions;
    std::vector<DecisionRecord> decisions;
    std::vector<std::string> items;
    std::vector<std::string> rewards;
    std::vector<std::pair<std::string, MicroTime>> resources;
    i64 score = 0;
    bool finished = false;
    bool success = false;
    MicroTime finished_at = -1;

    /// The bytes of text restore() appends to the tracker's buffer, which
    /// TextBuffer::fits must accept.
    [[nodiscard]] u64 text_bytes() const;
  };
  [[nodiscard]] State state() const;
  void restore(const State& state);

  /// Seconds spent per scenario name (aggregated over revisits).
  [[nodiscard]] std::map<std::string, f64> time_per_scenario(
      MicroTime now) const;

  /// Lecturer-facing plain-text report.
  [[nodiscard]] std::string report(MicroTime now) const;
  /// Machine-readable form (for gradebook export).
  [[nodiscard]] Json to_json(MicroTime now) const;

 private:
  struct VisitRec {
    MicroTime entered;
    MicroTime left;
    TextBuffer::Ref name;
    ScenarioId id;
  };
  struct InteractionRec {
    MicroTime when;
    TextBuffer::Ref target;
    /// Index into kinds_: the distinct kind strings, each stored once.
    u32 kind;
  };
  struct DecisionRec {
    MicroTime when;
    TextBuffer::Ref context;
    TextBuffer::Ref choice;
  };
  struct ResourceRec {
    MicroTime when;
    TextBuffer::Ref title;
  };

  [[nodiscard]] u32 kind_index(std::string_view kind);
  void add_interaction(std::string_view kind, TextBuffer::Ref target,
                       MicroTime now);

  TextBuffer text_;
  std::vector<TextBuffer::Ref> kinds_;
  std::vector<VisitRec> visits_;
  std::vector<InteractionRec> interactions_;
  std::vector<DecisionRec> decisions_;
  std::vector<TextBuffer::Ref> items_;
  std::vector<TextBuffer::Ref> rewards_;
  std::vector<ResourceRec> resources_;
  i64 score_ = 0;
  bool finished_ = false;
  bool success_ = false;
  MicroTime finished_at_ = -1;
};

}  // namespace vgbl
