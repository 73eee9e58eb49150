// Interactive objects: the clickable/draggable entities mounted on video
// scenarios (paper §2.1, §3.1, §4.2). An object belongs to one scenario,
// occupies a rectangle during a frame window, and carries the designer-set
// description, properties, and (for items) the inventory item it grants.
#pragma once

#include <string>
#include <vector>

#include "object/properties.hpp"
#include "object/sprite.hpp"
#include "util/geometry.hpp"
#include "util/types.hpp"

namespace vgbl {

enum class ObjectKind : u8 {
  kButton = 0,  // switches scenarios / opens resources (paper Fig.2 buttons)
  kImage,       // examinable decoration mounted on the frame
  kItem,        // collectable into the backpack
  kNpc,         // fixed-conversation character (paper §3.1)
  kReward,      // achievement object, granted on mission completion (§3.3)
};

const char* object_kind_name(ObjectKind kind);
[[nodiscard]] Result<ObjectKind> object_kind_from_name(std::string_view name);

/// Where/when an object sits on its scenario's video.
struct Placement {
  Rect rect;
  /// Frame window within the segment; count < 0 means "until segment end".
  int first_frame = 0;
  int frame_count = -1;
  i32 z = 0;  // higher z is hit-tested and drawn on top
  bool visible = true;

  [[nodiscard]] bool active_at(int frame) const {
    if (frame < first_frame) return false;
    return frame_count < 0 || frame < first_frame + frame_count;
  }
};

struct InteractiveObject {
  ObjectId id;
  std::string name;
  ObjectKind kind = ObjectKind::kImage;
  ScenarioId scenario;
  Placement placement;
  Sprite sprite;
  /// Textual recipe the sprite was built from (see Sprite::from_spec);
  /// what the project format persists instead of pixels.
  std::string sprite_spec;
  PropertyBag properties;
  /// Shown when the player examines the object ("users can get
  /// descriptions when they try to examine these items", §3.1).
  std::string description;
  /// kItem: inventory item granted on pickup.
  ItemId grants_item;
  /// kNpc: conversation started on interaction.
  DialogueId dialogue;
  /// Draggable into the inventory window (Fig.2's umbrella drag).
  bool draggable = false;

  [[nodiscard]] bool interactable() const {
    return placement.visible;
  }
};

/// A hit-test view of one object: what the testers index.
struct HitTarget {
  ObjectId id;
  Rect rect;
  i32 z = 0;
  bool active = true;
};

/// Hit-testing strategy interface. Implementations must agree exactly; the
/// grid index is the production path (one per scenario, built by
/// `load_bundle`), the linear scan the oracle (property-tested
/// equivalence, ablated in E7).
class HitTester {
 public:
  virtual ~HitTester() = default;
  virtual void rebuild(const std::vector<HitTarget>& targets) = 0;
  /// Topmost active target containing `p` (ties broken by later insertion,
  /// matching paint order); invalid id when nothing is hit.
  [[nodiscard]] virtual ObjectId hit(Point p) const = 0;
  /// All active targets containing `p`, topmost first.
  [[nodiscard]] virtual std::vector<ObjectId> hit_all(Point p) const = 0;
};

/// The topmost rule every tester applies, over candidates offered in
/// ascending target index: higher z wins, and among equal z the later
/// target (painted later) wins.
class TopmostHit {
 public:
  void offer(const HitTarget& t) {
    if (best_ == nullptr || t.z >= best_->z) best_ = &t;
  }
  [[nodiscard]] ObjectId id() const {
    return best_ != nullptr ? best_->id : ObjectId{};
  }

 private:
  const HitTarget* best_ = nullptr;
};

/// O(n) reference implementation.
class LinearHitTester final : public HitTester {
 public:
  void rebuild(const std::vector<HitTarget>& targets) override {
    targets_ = targets;
  }
  [[nodiscard]] ObjectId hit(Point p) const override;
  [[nodiscard]] std::vector<ObjectId> hit_all(Point p) const override;

 private:
  std::vector<HitTarget> targets_;
};

/// Uniform spatial grid over the frame. Cell size adapts to target density.
class GridHitTester final : public HitTester {
 public:
  explicit GridHitTester(Size frame_size) : frame_size_(frame_size) {}

  void rebuild(const std::vector<HitTarget>& targets) override;
  [[nodiscard]] ObjectId hit(Point p) const override;
  [[nodiscard]] std::vector<ObjectId> hit_all(Point p) const override;

  /// hit() restricted to the targets `keep(i)` accepts, `i` indexing the
  /// targets of the last rebuild. Allocates nothing, so a grid built once
  /// over every object that can ever show answers for whichever of them
  /// show now.
  template <typename Keep>
  [[nodiscard]] ObjectId hit_where(Point p, Keep&& keep) const {
    const std::vector<u32>* cell = cell_at(p);
    if (cell == nullptr) return {};
    TopmostHit top;
    for (u32 i : *cell) {
      const HitTarget& t = targets_[i];
      if (t.active && t.rect.contains(p) && keep(i)) top.offer(t);
    }
    return top.id();
  }

 private:
  [[nodiscard]] const std::vector<u32>* cell_at(Point p) const;

  Size frame_size_;
  i32 cell_size_ = 64;
  i32 cols_ = 0;
  i32 rows_ = 0;
  std::vector<HitTarget> targets_;
  std::vector<std::vector<u32>> cells_;  // indices into targets_
};

}  // namespace vgbl
