// Inventory tests: catalogue, backpack capacity/stacking invariants,
// combining and the score ledger.
#include <gtest/gtest.h>

#include "inventory/inventory.hpp"
#include "util/rng.hpp"

namespace vgbl {
namespace {

ItemCatalog demo_catalog() {
  ItemCatalog cat;
  ItemDef apple;
  apple.id = ItemId{1};
  apple.name = "apple";
  apple.stackable = true;
  apple.max_stack = 5;
  EXPECT_TRUE(cat.add(apple).ok());

  ItemDef key;
  key.id = ItemId{2};
  key.name = "key";
  EXPECT_TRUE(cat.add(key).ok());

  ItemDef badge;
  badge.id = ItemId{3};
  badge.name = "badge";
  badge.is_reward = true;
  badge.bonus_points = 100;
  EXPECT_TRUE(cat.add(badge).ok());

  ItemDef map_half_a;
  map_half_a.id = ItemId{4};
  map_half_a.name = "map_half_a";
  EXPECT_TRUE(cat.add(map_half_a).ok());

  ItemDef map_half_b;
  map_half_b.id = ItemId{5};
  map_half_b.name = "map_half_b";
  EXPECT_TRUE(cat.add(map_half_b).ok());

  ItemDef full_map;
  full_map.id = ItemId{6};
  full_map.name = "full_map";
  EXPECT_TRUE(cat.add(full_map).ok());
  return cat;
}

TEST(ItemCatalogTest, LookupByIdAndName) {
  const ItemCatalog cat = demo_catalog();
  EXPECT_EQ(cat.find(ItemId{2})->name, "key");
  EXPECT_EQ(cat.find(ItemId{99}), nullptr);
  EXPECT_EQ(cat.find_by_name("badge")->id, ItemId{3});
  EXPECT_EQ(cat.find_by_name("sock"), nullptr);
  EXPECT_EQ(cat.size(), 6u);
}

TEST(ItemCatalogTest, RejectsBadDefinitions) {
  ItemCatalog cat;
  ItemDef no_id;
  no_id.name = "x";
  EXPECT_FALSE(cat.add(no_id).ok());
  ItemDef no_name;
  no_name.id = ItemId{1};
  EXPECT_FALSE(cat.add(no_name).ok());
  ItemDef ok;
  ok.id = ItemId{1};
  ok.name = "x";
  EXPECT_TRUE(cat.add(ok).ok());
  EXPECT_FALSE(cat.add(ok).ok());  // duplicate id
}

TEST(ItemCatalogTest, StackableDefaults) {
  ItemCatalog cat;
  ItemDef stack;
  stack.id = ItemId{1};
  stack.name = "coins";
  stack.stackable = true;
  stack.max_stack = 1;  // nonsense: corrected to a real stack size
  (void)cat.add(stack);
  EXPECT_GT(cat.find(ItemId{1})->max_stack, 1);

  ItemDef single;
  single.id = ItemId{2};
  single.name = "sword";
  single.max_stack = 10;  // not stackable: forced to 1
  (void)cat.add(single);
  EXPECT_EQ(cat.find(ItemId{2})->max_stack, 1);
}

TEST(InventoryTest, AddAndCount) {
  const ItemCatalog cat = demo_catalog();
  Inventory inv(&cat, 4);
  EXPECT_TRUE(inv.add(ItemId{2}).ok());
  EXPECT_TRUE(inv.has(ItemId{2}));
  EXPECT_EQ(inv.count_of(ItemId{2}), 1);
  EXPECT_EQ(inv.total_items(), 1);
  EXPECT_FALSE(inv.has(ItemId{1}));
}

TEST(InventoryTest, UnknownItemRejected) {
  const ItemCatalog cat = demo_catalog();
  Inventory inv(&cat, 4);
  EXPECT_FALSE(inv.add(ItemId{42}).ok());
  EXPECT_FALSE(inv.add(ItemId{1}, 0).ok());
  EXPECT_FALSE(inv.add(ItemId{1}, -2).ok());
}

TEST(InventoryTest, StackingSharesSlots) {
  const ItemCatalog cat = demo_catalog();
  Inventory inv(&cat, 2);
  EXPECT_TRUE(inv.add(ItemId{1}, 5).ok());  // exactly one full stack
  EXPECT_EQ(inv.used_slots(), 1);
  EXPECT_TRUE(inv.add(ItemId{1}, 3).ok());  // opens a second stack
  EXPECT_EQ(inv.used_slots(), 2);
  EXPECT_EQ(inv.count_of(ItemId{1}), 8);
}

TEST(InventoryTest, NonStackableOneSlotEach) {
  const ItemCatalog cat = demo_catalog();
  Inventory inv(&cat, 3);
  EXPECT_TRUE(inv.add(ItemId{2}).ok());
  EXPECT_TRUE(inv.add(ItemId{2}).ok());
  EXPECT_EQ(inv.used_slots(), 2);
}

TEST(InventoryTest, CapacityIsAllOrNothing) {
  const ItemCatalog cat = demo_catalog();
  Inventory inv(&cat, 2);
  EXPECT_TRUE(inv.add(ItemId{2}).ok());
  EXPECT_TRUE(inv.add(ItemId{2}).ok());
  // Backpack full: the whole add must fail and leave state untouched.
  auto st = inv.add(ItemId{2});
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.error().code, ErrorCode::kResourceExhausted);
  EXPECT_EQ(inv.total_items(), 2);

  // Partial-fit case: 3 apples fit in the stack space of one new slot? No:
  // capacity 2 slots, both taken by keys -> even stackables fail.
  EXPECT_FALSE(inv.add(ItemId{1}, 1).ok());
}

TEST(InventoryTest, AllOrNothingAcrossStacks) {
  const ItemCatalog cat = demo_catalog();
  Inventory inv(&cat, 1);
  EXPECT_TRUE(inv.add(ItemId{1}, 3).ok());
  // 2 more fit in the stack, but 4 would need a second slot: reject all 4.
  EXPECT_FALSE(inv.add(ItemId{1}, 4).ok());
  EXPECT_EQ(inv.count_of(ItemId{1}), 3);
  // Exactly topping off works.
  EXPECT_TRUE(inv.add(ItemId{1}, 2).ok());
  EXPECT_EQ(inv.count_of(ItemId{1}), 5);
}

TEST(InventoryTest, RemoveDrainsAndCompacts) {
  const ItemCatalog cat = demo_catalog();
  Inventory inv(&cat, 3);
  (void)inv.add(ItemId{1}, 7);  // 5 + 2 across two slots
  EXPECT_EQ(inv.used_slots(), 2);
  EXPECT_TRUE(inv.remove(ItemId{1}, 3).ok());
  EXPECT_EQ(inv.count_of(ItemId{1}), 4);
  EXPECT_EQ(inv.used_slots(), 1);  // empty slot compacted
  EXPECT_TRUE(inv.remove(ItemId{1}, 4).ok());
  EXPECT_EQ(inv.used_slots(), 0);
}

TEST(InventoryTest, RemoveMoreThanHeldFails) {
  const ItemCatalog cat = demo_catalog();
  Inventory inv(&cat, 3);
  (void)inv.add(ItemId{2});
  auto st = inv.remove(ItemId{2}, 2);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.error().code, ErrorCode::kFailedPrecondition);
  EXPECT_EQ(inv.count_of(ItemId{2}), 1);  // unchanged
}

TEST(InventoryTest, RewardsListedSeparately) {
  const ItemCatalog cat = demo_catalog();
  Inventory inv(&cat, 4);
  (void)inv.add(ItemId{2});
  (void)inv.add(ItemId{3});
  const auto rewards = inv.rewards();
  ASSERT_EQ(rewards.size(), 1u);
  EXPECT_EQ(rewards[0], ItemId{3});
}

/// Property: no sequence of adds/removes can duplicate or lose items.
class InventoryPropertyTest : public ::testing::TestWithParam<u64> {};

TEST_P(InventoryPropertyTest, ConservationUnderRandomOps) {
  const ItemCatalog cat = demo_catalog();
  Inventory inv(&cat, 6);
  Rng rng(GetParam());
  std::map<u32, int> shadow;  // the oracle

  for (int op = 0; op < 500; ++op) {
    const ItemId item{static_cast<u32>(rng.range(1, 3))};
    const int count = static_cast<int>(rng.range(1, 4));
    if (rng.chance(0.6)) {
      if (inv.add(item, count).ok()) shadow[item.value] += count;
    } else {
      if (inv.remove(item, count).ok()) shadow[item.value] -= count;
    }
    for (const auto& [id, n] : shadow) {
      ASSERT_EQ(inv.count_of(ItemId{id}), n) << "op " << op;
    }
    // Slot discipline: stack sizes never exceed max, slot count <= capacity.
    ASSERT_LE(inv.used_slots(), inv.capacity());
    for (const auto& slot : inv.slots()) {
      const ItemDef* def = cat.find(slot.item);
      ASSERT_LE(slot.count, def->max_stack);
      ASSERT_GT(slot.count, 0);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, InventoryPropertyTest,
                         ::testing::Values(1, 2, 3, 4));

// --- Combine ------------------------------------------------------------------------

CombineTable demo_combines() {
  CombineTable table;
  table.add({ItemId{4}, ItemId{5}, ItemId{6}, true, "join the map halves"});
  return table;
}

TEST(CombineTest, FindIsOrderInsensitive) {
  const CombineTable table = demo_combines();
  EXPECT_NE(table.find(ItemId{4}, ItemId{5}), nullptr);
  EXPECT_NE(table.find(ItemId{5}, ItemId{4}), nullptr);
  EXPECT_EQ(table.find(ItemId{4}, ItemId{6}), nullptr);
}

TEST(CombineTest, CombineConsumesInputs) {
  const ItemCatalog cat = demo_catalog();
  const CombineTable table = demo_combines();
  Inventory inv(&cat, 4);
  (void)inv.add(ItemId{4});
  (void)inv.add(ItemId{5});
  auto result = table.combine(inv, ItemId{4}, ItemId{5});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value(), ItemId{6});
  EXPECT_FALSE(inv.has(ItemId{4}));
  EXPECT_FALSE(inv.has(ItemId{5}));
  EXPECT_TRUE(inv.has(ItemId{6}));
}

TEST(CombineTest, RequiresBothItemsHeld) {
  const ItemCatalog cat = demo_catalog();
  const CombineTable table = demo_combines();
  Inventory inv(&cat, 4);
  (void)inv.add(ItemId{4});
  auto result = table.combine(inv, ItemId{4}, ItemId{5});
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(inv.has(ItemId{4}));  // untouched
}

TEST(CombineTest, NoRuleNoChange) {
  const ItemCatalog cat = demo_catalog();
  const CombineTable table = demo_combines();
  Inventory inv(&cat, 4);
  (void)inv.add(ItemId{1});
  (void)inv.add(ItemId{2});
  EXPECT_FALSE(table.combine(inv, ItemId{1}, ItemId{2}).ok());
  EXPECT_TRUE(inv.has(ItemId{1}));
  EXPECT_TRUE(inv.has(ItemId{2}));
}

TEST(CombineTest, NonConsumingRuleKeepsInputs) {
  const ItemCatalog cat = demo_catalog();
  CombineTable table;
  table.add({ItemId{4}, ItemId{5}, ItemId{6}, /*consume=*/false, "copy"});
  Inventory inv(&cat, 4);
  (void)inv.add(ItemId{4});
  (void)inv.add(ItemId{5});
  ASSERT_TRUE(table.combine(inv, ItemId{4}, ItemId{5}).ok());
  EXPECT_TRUE(inv.has(ItemId{4}));
  EXPECT_TRUE(inv.has(ItemId{5}));
  EXPECT_TRUE(inv.has(ItemId{6}));
}

TEST(CombineTest, SelfCombineNeedsTwo) {
  const ItemCatalog cat = demo_catalog();
  CombineTable table;
  table.add({ItemId{1}, ItemId{1}, ItemId{6}, true, "two apples -> map??"});
  Inventory inv(&cat, 4);
  (void)inv.add(ItemId{1}, 1);
  EXPECT_FALSE(table.combine(inv, ItemId{1}, ItemId{1}).ok());
  (void)inv.add(ItemId{1}, 1);
  EXPECT_TRUE(table.combine(inv, ItemId{1}, ItemId{1}).ok());
  EXPECT_EQ(inv.count_of(ItemId{1}), 0);
}

// --- ScoreLedger -----------------------------------------------------------------

TEST(ScoreLedgerTest, AccumulatesWithHistory) {
  ScoreLedger ledger;
  ledger.award(10, {"found the key"}, seconds(1));
  ledger.award(-3, {"wrong answer"}, seconds(2));
  ledger.award(50, {"finished"}, seconds(3));
  EXPECT_EQ(ledger.total(), 57);
  ASSERT_EQ(ledger.size(), 3u);
  EXPECT_EQ(ledger.entry(1).points, -3);
  EXPECT_EQ(ledger.entry(1).reason, "wrong answer");
  EXPECT_EQ(ledger.entry(2).when, seconds(3));
  ledger.award(5, {"quiz '", "maths", "'"}, seconds(4));
  ASSERT_EQ(ledger.size(), 4u);
  EXPECT_EQ(ledger.entry(3).reason, "quiz 'maths'");
  EXPECT_EQ(ledger.entry(1).reason, "wrong answer");
  EXPECT_EQ(ledger.total(), 62);
}

}  // namespace
}  // namespace vgbl
