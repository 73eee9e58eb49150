// Fixture: a session-side hit index rebuilt from the visible objects — must
// fire hit-grid-built-once four times (linted at a src/runtime path).
#include <memory>
#include <vector>

#include "object/interactive_object.hpp"

namespace vgbl {

ObjectId per_session_hit(const std::vector<const InteractiveObject*>& shown,
                         Point p, bool grid) {
  std::vector<HitTarget> targets;
  for (const InteractiveObject* o : shown) {
    targets.push_back({o->id, o->placement.rect, o->placement.z, true});
  }
  std::unique_ptr<HitTester> tester;
  if (grid) {
    tester = std::make_unique<GridHitTester>(Size{320, 240});
  } else {
    tester = std::make_unique<LinearHitTester>();
  }
  tester->rebuild(targets);
  return tester->hit(p);
}

}  // namespace vgbl
