#include "author/bundle.hpp"

#include <algorithm>

#include "author/importer.hpp"
#include "author/serialize.hpp"
#include "util/crc32.hpp"

namespace vgbl {
namespace {

constexpr char kBundleMagic[4] = {'V', 'G', 'B', '1'};
constexpr u16 kBundleVersion = 1;

/// Each scenario's objects in paint order and one hit grid over them.
std::vector<ScenarioObjects> index_scenario_objects(
    const ScenarioGraph& graph, const std::vector<InteractiveObject>& objects,
    Size frame) {
  std::vector<ScenarioObjects> out(graph.scenarios().size());
  for (u32 i = 0; i < objects.size(); ++i) {
    const Scenario* s = graph.find(objects[i].scenario);
    if (s == nullptr) continue;
    const auto scenario = static_cast<size_t>(s - graph.scenarios().data());
    out[scenario].paint_order.push_back(i);
  }
  std::vector<HitTarget> targets;
  for (ScenarioObjects& so : out) {
    std::stable_sort(so.paint_order.begin(), so.paint_order.end(),
                     [&](u32 a, u32 b) {
                       return objects[a].placement.z < objects[b].placement.z;
                     });
    targets.clear();
    for (u32 i : so.paint_order) {
      const InteractiveObject& o = objects[i];
      targets.push_back({o.id, o.placement.rect, o.placement.z, true});
    }
    so.hits = GridHitTester(frame);
    so.hits.rebuild(targets);
  }
  return out;
}

}  // namespace

Result<Bytes> build_bundle(const Project& project,
                           const BundleOptions& options) {
  // Refuse to ship a broken game; warnings are allowed.
  for (const auto& issue : project.lint()) {
    if (issue.level == LintLevel::kError) {
      return failed_precondition("project has lint errors: " + issue.message);
    }
  }
  auto clip = render_project_clip(project);
  if (!clip.ok()) return clip.error();

  // Force keyframes at segment starts: scenario switches must never decode
  // across a segment boundary.
  std::vector<int> segment_starts;
  for (const auto& seg : project.segments) {
    segment_starts.push_back(seg.first_frame);
  }
  std::sort(segment_starts.begin(), segment_starts.end());

  auto stream = encode_stream(clip.value().frames, options.codec,
                              clip.value().fps, segment_starts);
  if (!stream.ok()) return stream.error();

  std::vector<ContainerSegment> segments;
  for (size_t i = 0; i < project.segments.size(); ++i) {
    ContainerSegment cs;
    cs.id = project.segment_ids[i];
    cs.name = project.segments[i].suggested_name;
    cs.first_frame = project.segments[i].first_frame;
    cs.frame_count = project.segments[i].frame_count;
    segments.push_back(std::move(cs));
  }
  const Bytes container =
      mux_container(stream.value(), segments, &clip.value().audio);

  const std::string game_json = project_to_json(project).dump(-1);

  ByteWriter w(container.size() + game_json.size() + 64);
  w.put_raw(kBundleMagic, 4);
  w.put_u16(kBundleVersion);
  w.put_u32(crc32(std::span<const u8>(
      reinterpret_cast<const u8*>(game_json.data()), game_json.size())));
  w.put_string(game_json);
  w.put_u32(crc32(container));
  w.put_blob(container);
  return std::move(w).take();
}

Result<GameBundle> load_bundle(Bytes data) {
  ByteReader r(data);
  auto magic = r.view(4);
  if (!magic.ok() ||
      !std::equal(magic.value().begin(), magic.value().end(),
                  reinterpret_cast<const u8*>(kBundleMagic))) {
    return corrupt_data("not a VGBL bundle (bad magic)");
  }
  auto version = r.u16_();
  if (!version.ok()) return version.error();
  if (version.value() != kBundleVersion) {
    return unsupported("bundle version " + std::to_string(version.value()));
  }
  auto json_crc = r.u32_();
  auto game_json = r.string();
  if (!json_crc.ok() || !game_json.ok()) {
    return corrupt_data("truncated bundle header");
  }
  if (crc32(std::span<const u8>(
          reinterpret_cast<const u8*>(game_json.value().data()),
          game_json.value().size())) != json_crc.value()) {
    return corrupt_data("bundle game data CRC mismatch");
  }
  auto container_crc = r.u32_();
  auto container_bytes = r.blob();
  if (!container_crc.ok() || !container_bytes.ok()) {
    return corrupt_data("truncated bundle video section");
  }
  if (crc32(container_bytes.value()) != container_crc.value()) {
    return corrupt_data("bundle video CRC mismatch");
  }

  auto project = load_project_text(game_json.value());
  if (!project.ok()) return project.error();
  auto container = VideoContainer::parse(std::move(container_bytes.value()));
  if (!container.ok()) return container.error();

  GameBundle bundle;
  Project& p = project.value();
  bundle.meta = std::move(p.meta);
  bundle.graph = std::move(p.graph);
  bundle.objects = std::move(p.objects);
  bundle.items = std::move(p.items);
  bundle.combines = std::move(p.combines);
  bundle.rules = std::move(p.rules);
  bundle.rule_book = RuleBook(bundle.rules);
  bundle.dialogues = std::move(p.dialogues);
  bundle.quizzes = std::move(p.quizzes);
  bundle.video = std::make_shared<VideoContainer>(std::move(container.value()));

  // Cross-check: every scenario's segment must exist in the container.
  for (const auto& s : bundle.graph.scenarios()) {
    if (!bundle.video->segment_by_id(s.segment)) {
      return corrupt_data("bundle scenario '" + s.name +
                          "' references segment missing from container");
    }
  }
  bundle.scenario_objects = index_scenario_objects(
      bundle.graph, bundle.objects,
      {bundle.video->width(), bundle.video->height()});
  for (const ScenarioObjects& so : bundle.scenario_objects) {
    bundle.max_scenario_objects =
        std::max(bundle.max_scenario_objects, so.paint_order.size());
  }
  return bundle;
}

Result<GameBundle> build_and_load(const Project& project,
                                  const BundleOptions& options) {
  auto bytes = build_bundle(project, options);
  if (!bytes.ok()) return bytes.error();
  return load_bundle(std::move(bytes.value()));
}

}  // namespace vgbl
