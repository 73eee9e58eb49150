// Treasure hunt: a larger branching adventure (4 scenarios, item
// combining, hidden objects, weighted transitions). Three bot policies
// play it and their learning outcomes are compared — the "different
// students play differently" story of game-based learning.
#include <cstdio>

#include "core/platform.hpp"

using namespace vgbl;

int main() {
  auto project = build_treasure_hunt_project();
  if (!project.ok()) {
    std::fprintf(stderr, "authoring failed: %s\n",
                 project.error().to_string().c_str());
    return 1;
  }
  auto bundle = publish(project.value());
  if (!bundle.ok()) {
    std::fprintf(stderr, "publish failed: %s\n",
                 bundle.error().to_string().c_str());
    return 1;
  }
  std::printf("'%s': %zu scenarios, %zu objects, %zu rules, %zu dialogues\n",
              bundle.value()->meta.title.c_str(),
              bundle.value()->graph.size(), bundle.value()->objects.size(),
              bundle.value()->rules.size(),
              bundle.value()->dialogues.size());

  // First: the intended walkthrough, scripted.
  const InputScript walkthrough = {
      ScriptStep::drag_to_inventory("torn map"),
      ScriptStep::click("TO CAVE"),
      ScriptStep::click("lantern"),
      ScriptStep::combine("torn_map", "lantern"),
      ScriptStep::click("TO BEACH"),
      ScriptStep::click("TO LIBRARY"),
      ScriptStep::click("librarian"),
      ScriptStep::choose(0),      // "Where is the vault key?"
      ScriptStep::advance(),      // hint node -> end
      ScriptStep::examine("bookshelf"),
      ScriptStep::click("old key"),
      ScriptStep::click("TO BEACH"),
      ScriptStep::click("TO CAVE"),
      ScriptStep::click("vault door"),
  };
  auto scripted = play_scripted(bundle.value(), walkthrough);
  if (!scripted.ok()) {
    std::fprintf(stderr, "walkthrough failed: %s\n",
                 scripted.error().to_string().c_str());
    return 1;
  }
  std::printf("\nscripted walkthrough: %s, score %lld\n",
              scripted.value().succeeded ? "SUCCESS" : "incomplete",
              static_cast<long long>(scripted.value().score));
  std::printf("%s\n", scripted.value().learning_report.c_str());

  // Then: three bot personalities, compared.
  struct Run {
    const char* name;
    BotPolicy policy;
    int budget;
  };
  const Run runs[] = {
      {"explorer (examines everything)", BotPolicy::kExplorer, 600},
      {"speedrunner (skips reading)", BotPolicy::kSpeedrun, 600},
      {"random clicker", BotPolicy::kRandom, 600},
  };
  std::printf("%-34s %-6s %-7s %-7s %-8s %s\n", "policy", "done", "steps",
              "score", "items", "rewards");
  for (const auto& run : runs) {
    SimClock clock;
    GameSession session(bundle.value(), &clock);
    (void)session.start();
    const BotResult result =
        run_bot(session, clock, run.policy, run.budget, /*seed=*/2718);
    std::printf("%-34s %-6s %-7d %-7lld %-8zu %zu\n", run.name,
                result.succeeded ? "yes" : "no", result.steps,
                static_cast<long long>(session.score()),
                session.tracker().item_count(),
                session.tracker().reward_count());
  }
  return scripted.value().succeeded ? 0 : 1;
}
