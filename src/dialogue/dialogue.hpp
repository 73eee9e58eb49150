// NPC dialogue: "there are also non player characters to give fixed
// conversation to guide players" (paper §3.1). Conversations are trees of
// fixed lines with optional player choices; a runner walks one tree and
// records a transcript the analytics tracker consumes.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "util/result.hpp"
#include "util/types.hpp"

namespace vgbl {

struct DialogueChoice {
  std::string text;
  /// Node id to jump to; kEndDialogue ends the conversation.
  int next_node = -1;
  /// Opaque tag surfaced to the event system when this choice is taken
  /// (e.g. "accept_mission"); empty = no side effect.
  std::string action_tag;
};

inline constexpr int kEndDialogue = -1;

struct DialogueNode {
  int id = 0;
  std::string speaker;  // display name; empty = narrator
  std::string line;
  /// Player options. Empty means the node auto-advances to `next_node`.
  std::vector<DialogueChoice> choices;
  int next_node = kEndDialogue;
  std::string action_tag;  // fired when this node is shown
};

class DialogueTree {
 public:
  DialogueTree() = default;
  DialogueTree(DialogueId id, std::string name)
      : id_(id), name_(std::move(name)) {}

  [[nodiscard]] DialogueId id() const { return id_; }
  [[nodiscard]] const std::string& name() const { return name_; }

  Status add_node(DialogueNode node);
  Status set_entry(int node_id);
  [[nodiscard]] int entry() const { return entry_; }
  [[nodiscard]] const DialogueNode* find(int node_id) const;
  [[nodiscard]] const std::vector<DialogueNode>& nodes() const { return nodes_; }

  /// Lint: entry set and present, all referenced nodes exist, every node
  /// reachable from entry, and the conversation can terminate.
  [[nodiscard]] std::vector<std::string> validate() const;

 private:
  DialogueId id_;
  std::string name_;
  std::vector<DialogueNode> nodes_;
  int entry_ = kEndDialogue;
};

/// One line shown to the player (for transcripts and the message UI). The
/// views point into the tree, which outlives every runner walking it.
struct DialogueEvent {
  std::string_view speaker;
  std::string_view line;
  std::string_view chosen;      // the choice text that led here (if any)
  std::string_view action_tag;  // tag fired by this node/choice
};

/// Walks a tree. The runtime shows `current()`, then either `advance()` (no
/// choices) or `choose(i)`.
class DialogueRunner {
 public:
  explicit DialogueRunner(const DialogueTree* tree);

  [[nodiscard]] bool active() const { return node_ != nullptr; }
  [[nodiscard]] const DialogueNode* current() const { return node_; }

  /// Advances an auto node; fails if the node offers choices.
  Status advance();
  /// Takes choice `index`; fails when out of range or on an auto node.
  Status choose(size_t index);

  [[nodiscard]] const std::vector<DialogueEvent>& transcript() const {
    return transcript_;
  }
  /// Action tags fired so far, in order (consumed by the event system);
  /// views into the tree.
  [[nodiscard]] const std::vector<std::string_view>& fired_tags() const {
    return fired_tags_;
  }

 private:
  void enter(int node_id, std::string_view chosen_text);

  const DialogueTree* tree_;
  const DialogueNode* node_ = nullptr;
  std::vector<DialogueEvent> transcript_;
  std::vector<std::string_view> fired_tags_;
};

}  // namespace vgbl
