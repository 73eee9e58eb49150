#include "dialogue/dialogue.hpp"

#include <deque>
#include <unordered_set>

namespace vgbl {

Status DialogueTree::add_node(DialogueNode node) {
  if (find(node.id)) {
    return already_exists("dialogue node " + std::to_string(node.id));
  }
  if (entry_ == kEndDialogue) entry_ = node.id;  // first node is the default entry
  nodes_.push_back(std::move(node));
  return {};
}

Status DialogueTree::set_entry(int node_id) {
  if (!find(node_id)) {
    return not_found("dialogue node " + std::to_string(node_id));
  }
  entry_ = node_id;
  return {};
}

const DialogueNode* DialogueTree::find(int node_id) const {
  for (const auto& n : nodes_) {
    if (n.id == node_id) return &n;
  }
  return nullptr;
}

std::vector<std::string> DialogueTree::validate() const {
  std::vector<std::string> issues;
  if (nodes_.empty()) {
    issues.emplace_back("dialogue '" + name_ + "' has no nodes");
    return issues;
  }
  if (entry_ == kEndDialogue || !find(entry_)) {
    issues.emplace_back("dialogue '" + name_ + "' has no valid entry node");
    return issues;
  }

  auto check_ref = [&](int target, int from) {
    if (target != kEndDialogue && !find(target)) {
      issues.push_back("dialogue '" + name_ + "' node " + std::to_string(from) +
                       " references missing node " + std::to_string(target));
    }
  };
  for (const auto& n : nodes_) {
    if (n.choices.empty()) {
      check_ref(n.next_node, n.id);
    } else {
      for (const auto& c : n.choices) check_ref(c.next_node, n.id);
    }
  }

  // Reachability + termination via BFS from the entry.
  std::unordered_set<int> seen{entry_};
  std::deque<int> queue{entry_};
  bool can_end = false;
  while (!queue.empty()) {
    const DialogueNode* n = find(queue.front());
    queue.pop_front();
    if (!n) continue;
    auto visit = [&](int target) {
      if (target == kEndDialogue) {
        can_end = true;
      } else if (find(target) && seen.insert(target).second) {
        queue.push_back(target);
      }
    };
    if (n->choices.empty()) {
      visit(n->next_node);
    } else {
      for (const auto& c : n->choices) visit(c.next_node);
    }
  }
  for (const auto& n : nodes_) {
    if (!seen.count(n.id)) {
      issues.push_back("dialogue '" + name_ + "' node " + std::to_string(n.id) +
                       " is unreachable");
    }
  }
  if (!can_end) {
    issues.push_back("dialogue '" + name_ + "' cannot terminate");
  }
  return issues;
}

DialogueRunner::DialogueRunner(const DialogueTree* tree) : tree_(tree) {
  transcript_.reserve(8);
  if (tree_ && tree_->entry() != kEndDialogue) {
    enter(tree_->entry(), "");
  }
}

void DialogueRunner::enter(int node_id, std::string_view chosen_text) {
  node_ = node_id == kEndDialogue ? nullptr : tree_->find(node_id);
  if (!node_) return;
  if (!node_->action_tag.empty()) fired_tags_.push_back(node_->action_tag);
  transcript_.push_back(
      {node_->speaker, node_->line, chosen_text, node_->action_tag});
}

Status DialogueRunner::advance() {
  if (!node_) return failed_precondition("dialogue not active");
  if (!node_->choices.empty()) {
    return failed_precondition("node offers choices; call choose()");
  }
  enter(node_->next_node, "");
  return {};
}

Status DialogueRunner::choose(size_t index) {
  if (!node_) return failed_precondition("dialogue not active");
  if (node_->choices.empty()) {
    return failed_precondition("node has no choices; call advance()");
  }
  if (index >= node_->choices.size()) {
    return out_of_range("choice index " + std::to_string(index));
  }
  const DialogueChoice& c = node_->choices[index];
  if (!c.action_tag.empty()) fired_tags_.push_back(c.action_tag);
  enter(c.next_node, c.text);
  return {};
}

}  // namespace vgbl
