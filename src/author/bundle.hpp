// Game bundles: the runtime-loadable artifact the authoring tool produces.
// A bundle packs the encoded video container together with the compiled
// game data (graph, objects, rules, items, dialogues) into one CRC-guarded
// binary blob — the file a teacher would hand to students.
#pragma once

#include <memory>

#include "author/project.hpp"
#include "util/bytes.hpp"
#include "video/container.hpp"

namespace vgbl {

/// One scenario's objects, built once by `load_bundle`. Indices, not
/// pointers: the bundle is moved after load.
struct ScenarioObjects {
  /// Indices into GameBundle::objects in paint order: bundle order, stably
  /// sorted by z.
  std::vector<u32> paint_order;
  /// One grid over the authored rects of those objects; target i is
  /// objects[paint_order[i]]. Sessions skip the targets hidden at the
  /// current frame (GridHitTester::hit_where).
  GridHitTester hits{Size{0, 0}};
};

/// Everything the runtime needs to play a game. Produced by `load_bundle`
/// and immutable once shared: every session of a bundle reads its data,
/// including the compiled rule book and the per-scenario object lists and
/// hit grids, in place.
struct GameBundle {
  ProjectMeta meta;
  ScenarioGraph graph;
  std::vector<InteractiveObject> objects;
  ItemCatalog items;
  CombineTable combines;
  std::vector<EventRule> rules;
  /// `rules` indexed and with every guard compiled, built by `load_bundle`.
  /// Every session of the bundle dispatches through this one book.
  RuleBook rule_book;
  std::vector<DialogueTree> dialogues;
  std::vector<Quiz> quizzes;
  std::shared_ptr<VideoContainer> video;
  /// Per scenario, parallel to graph.scenarios().
  std::vector<ScenarioObjects> scenario_objects;
  /// The most objects any one scenario holds: what a session's
  /// visible-object list can grow to.
  size_t max_scenario_objects = 0;

  /// The object list and hit grid of scenario `id`; null for an id the
  /// graph does not hold.
  [[nodiscard]] const ScenarioObjects* objects_of(ScenarioId id) const {
    const Scenario* s = graph.find(id);
    return s == nullptr ? nullptr
                        : &scenario_objects[static_cast<size_t>(
                              s - graph.scenarios().data())];
  }

  [[nodiscard]] const InteractiveObject* find_object(ObjectId id) const {
    for (const auto& o : objects) {
      if (o.id == id) return &o;
    }
    return nullptr;
  }
  [[nodiscard]] const DialogueTree* find_dialogue(DialogueId id) const {
    for (const auto& d : dialogues) {
      if (d.id() == id) return &d;
    }
    return nullptr;
  }
  [[nodiscard]] const Quiz* find_quiz(QuizId id) const {
    for (const auto& q : quizzes) {
      if (q.id() == id) return &q;
    }
    return nullptr;
  }
};

struct BundleOptions {
  CodecConfig codec;  // how the clip is encoded into the bundle
};

/// Renders the project's clip, encodes it (keyframes forced at segment
/// starts so every scenario is instantly seekable), muxes the container
/// and serialises the game data. Fails if the project lint has errors.
[[nodiscard]] Result<Bytes> build_bundle(const Project& project, const BundleOptions& options);
inline Result<Bytes> build_bundle(const Project& project) {
  return build_bundle(project, BundleOptions{});
}

/// Parses and validates a bundle produced by `build_bundle`.
[[nodiscard]] Result<GameBundle> load_bundle(Bytes data);

/// Convenience: build then immediately load (authoring-tool "preview").
[[nodiscard]] Result<GameBundle> build_and_load(const Project& project,
                                  const BundleOptions& options);
inline Result<GameBundle> build_and_load(const Project& project) {
  return build_and_load(project, BundleOptions{});
}

}  // namespace vgbl
