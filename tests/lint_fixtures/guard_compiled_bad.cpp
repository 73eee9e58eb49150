// Fixture: a guard compiled outside the bundle's RuleBook — must fire
// guard-compiled-once twice (linted at a src/runtime path).
#include "event/vm.hpp"

namespace vgbl {

bool timer_guard_passes(const Condition& guard, const GameStateView& state) {
  return CompiledCondition(guard).evaluate(state);
}

size_t guard_size(const Condition& guard) {
  return compile_condition(guard).size();
}

}  // namespace vgbl
