// Backpack, item catalogue, combine rules, score ledger and rewards.
// Paper §3.1: "the players have a backpack to collect items in game. An
// inventory window is used for displaying what items the player owned."
// Paper §3.3: reward objects are distinct from ordinary items, granted on
// completing requests/missions, and carry designer-configured bonuses.
#pragma once

#include <initializer_list>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "util/result.hpp"
#include "util/sim_clock.hpp"
#include "util/text.hpp"
#include "util/types.hpp"

namespace vgbl {

struct ItemDef {
  ItemId id;
  std::string name;
  std::string description;
  std::string icon;  // Sprite::icon name
  bool stackable = false;
  int max_stack = 1;
  /// Reward objects (§3.3): displayed in a separate inventory section and
  /// counted as achievements, not usable props.
  bool is_reward = false;
  i64 bonus_points = 0;  // score granted when this item is received
};

/// All item definitions of a project.
class ItemCatalog {
 public:
  Status add(ItemDef def);
  [[nodiscard]] const ItemDef* find(ItemId id) const;
  [[nodiscard]] const ItemDef* find_by_name(std::string_view name) const;
  [[nodiscard]] const std::vector<ItemDef>& all() const { return items_; }
  [[nodiscard]] size_t size() const { return items_.size(); }

 private:
  std::vector<ItemDef> items_;
};

/// One backpack slot.
struct InventorySlot {
  ItemId item;
  int count = 0;
};

/// The player's backpack. Slot-limited like classic adventure games;
/// stackable items share a slot up to their max stack.
class Inventory {
 public:
  explicit Inventory(const ItemCatalog* catalog, int slot_capacity = 12)
      : catalog_(catalog), capacity_(slot_capacity) {}

  /// Adds `count` of `item`. All-or-nothing: fails with kResourceExhausted
  /// if the backpack cannot hold the full amount, kNotFound for unknown
  /// items.
  Status add(ItemId item, int count = 1);

  /// Removes `count`; fails with kFailedPrecondition if not enough held.
  Status remove(ItemId item, int count = 1);

  [[nodiscard]] bool has(ItemId item) const { return count_of(item) > 0; }
  [[nodiscard]] int count_of(ItemId item) const;
  [[nodiscard]] const std::vector<InventorySlot>& slots() const {
    return slots_;
  }
  [[nodiscard]] int used_slots() const { return static_cast<int>(slots_.size()); }
  [[nodiscard]] int capacity() const { return capacity_; }
  /// Total items across all slots.
  [[nodiscard]] int total_items() const;

  /// Reward-kind items held (for the inventory window's achievements row).
  [[nodiscard]] std::vector<ItemId> rewards() const;

 private:
  const ItemCatalog* catalog_;
  int capacity_;
  std::vector<InventorySlot> slots_;
};

/// Designer-defined combination: using item `a` with item `b` yields
/// `result` (order-insensitive). Consumed inputs are removed.
struct CombineRule {
  ItemId a;
  ItemId b;
  ItemId result;
  bool consume_inputs = true;
  std::string description;
};

class CombineTable {
 public:
  void add(CombineRule rule) { rules_.push_back(std::move(rule)); }
  [[nodiscard]] const CombineRule* find(ItemId a, ItemId b) const;
  [[nodiscard]] const std::vector<CombineRule>& rules() const { return rules_; }

  /// Applies a matching rule to the inventory: removes inputs (if
  /// consuming), adds the result. Fails when no rule matches or inventory
  /// constraints block the exchange; on failure the inventory is unchanged.
  [[nodiscard]] Result<ItemId> combine(Inventory& inventory, ItemId a, ItemId b) const;

 private:
  std::vector<CombineRule> rules_;
};

/// Append-only score history ("players can get bonus if they make the
/// right decisions", §3.3). The lecturer-facing report reads the entries.
/// Reasons sit in one TextBuffer, and each entry is a fixed-width record
/// locating its reason there, so an award builds no string.
class ScoreLedger {
 public:
  /// An award whose reason is `reason_pieces` back to back.
  void award(i64 points, std::initializer_list<std::string_view> reason_pieces,
             MicroTime when);
  [[nodiscard]] i64 total() const { return total_; }

  /// One award; `reason` views the ledger's text until the next award.
  struct Entry {
    i64 points;
    std::string_view reason;
    MicroTime when;
  };
  [[nodiscard]] size_t size() const { return entries_.size(); }
  [[nodiscard]] Entry entry(size_t i) const;

 private:
  struct Record {
    i64 points;
    MicroTime when;
    TextBuffer::Ref reason;
  };
  i64 total_ = 0;
  TextBuffer text_;
  std::vector<Record> entries_;
};

}  // namespace vgbl
