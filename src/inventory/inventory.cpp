#include "inventory/inventory.hpp"

#include <algorithm>

namespace vgbl {

Status ItemCatalog::add(ItemDef def) {
  if (!def.id.valid()) return invalid_argument("item id must be non-zero");
  if (def.name.empty()) return invalid_argument("item name must not be empty");
  if (find(def.id)) {
    return already_exists("item id " + std::to_string(def.id.value));
  }
  if (def.stackable && def.max_stack < 2) def.max_stack = 99;
  if (!def.stackable) def.max_stack = 1;
  items_.push_back(std::move(def));
  return {};
}

const ItemDef* ItemCatalog::find(ItemId id) const {
  for (const auto& i : items_) {
    if (i.id == id) return &i;
  }
  return nullptr;
}

const ItemDef* ItemCatalog::find_by_name(std::string_view name) const {
  for (const auto& i : items_) {
    if (i.name == name) return &i;
  }
  return nullptr;
}

Status Inventory::add(ItemId item, int count) {
  if (count <= 0) return invalid_argument("count must be positive");
  const ItemDef* def = catalog_ ? catalog_->find(item) : nullptr;
  if (!def) return not_found("item id " + std::to_string(item.value));

  // Dry-run capacity check so failure leaves the backpack untouched.
  int remaining = count;
  if (def->stackable) {
    for (const auto& slot : slots_) {
      if (slot.item == item) {
        remaining -= std::min(remaining, def->max_stack - slot.count);
      }
    }
  }
  const int per_slot = def->stackable ? def->max_stack : 1;
  const int new_slots = (std::max(0, remaining) + per_slot - 1) / per_slot;
  if (used_slots() + new_slots > capacity_) {
    return resource_exhausted("backpack full");
  }

  // Commit: top up existing stacks, then open new slots.
  remaining = count;
  if (def->stackable) {
    for (auto& slot : slots_) {
      if (slot.item == item && remaining > 0) {
        const int take = std::min(remaining, def->max_stack - slot.count);
        slot.count += take;
        remaining -= take;
      }
    }
  }
  while (remaining > 0) {
    const int take = std::min(remaining, per_slot);
    slots_.push_back({item, take});
    remaining -= take;
  }
  return {};
}

Status Inventory::remove(ItemId item, int count) {
  if (count <= 0) return invalid_argument("count must be positive");
  if (count_of(item) < count) {
    return failed_precondition("not enough of item " +
                               std::to_string(item.value));
  }
  // Drain from the last slots first (most recently acquired).
  for (auto it = slots_.rbegin(); it != slots_.rend() && count > 0; ++it) {
    if (it->item != item) continue;
    const int take = std::min(count, it->count);
    it->count -= take;
    count -= take;
  }
  std::erase_if(slots_, [](const InventorySlot& s) { return s.count == 0; });
  return {};
}

int Inventory::count_of(ItemId item) const {
  int n = 0;
  for (const auto& slot : slots_) {
    if (slot.item == item) n += slot.count;
  }
  return n;
}

int Inventory::total_items() const {
  int n = 0;
  for (const auto& slot : slots_) n += slot.count;
  return n;
}

std::vector<ItemId> Inventory::rewards() const {
  std::vector<ItemId> out;
  if (!catalog_) return out;
  for (const auto& slot : slots_) {
    const ItemDef* def = catalog_->find(slot.item);
    if (def && def->is_reward) out.push_back(slot.item);
  }
  return out;
}

const CombineRule* CombineTable::find(ItemId a, ItemId b) const {
  for (const auto& r : rules_) {
    if ((r.a == a && r.b == b) || (r.a == b && r.b == a)) return &r;
  }
  return nullptr;
}

Result<ItemId> CombineTable::combine(Inventory& inventory, ItemId a,
                                     ItemId b) const {
  const CombineRule* rule = find(a, b);
  if (!rule) return not_found("no combine rule for these items");
  if (!inventory.has(a) || !inventory.has(b)) {
    return failed_precondition("player does not hold both items");
  }
  if (a == b && inventory.count_of(a) < 2) {
    return failed_precondition("combining an item with itself needs two");
  }

  if (rule->consume_inputs) {
    // Remove inputs first; if adding the result then fails (backpack full
    // is impossible here since we freed ≥1 slot-equivalent, but item could
    // be unknown), roll back.
    (void)inventory.remove(a, 1);
    (void)inventory.remove(b, 1);
    if (auto st = inventory.add(rule->result); !st.ok()) {
      (void)inventory.add(a, 1);
      (void)inventory.add(b, 1);
      return st.error();
    }
  } else {
    if (auto st = inventory.add(rule->result); !st.ok()) return st.error();
  }
  return rule->result;
}

void ScoreLedger::award(i64 points,
                        std::initializer_list<std::string_view> reason_pieces,
                        MicroTime when) {
  total_ += points;
  entries_.push_back({points, when, text_.append(reason_pieces)});
}

ScoreLedger::Entry ScoreLedger::entry(size_t i) const {
  const Record& r = entries_[i];
  return {r.points, text_.view(r.reason), r.when};
}

}  // namespace vgbl
