#include "object/interactive_object.hpp"

#include <algorithm>
#include <cmath>

namespace vgbl {

const char* object_kind_name(ObjectKind kind) {
  switch (kind) {
    case ObjectKind::kButton:
      return "button";
    case ObjectKind::kImage:
      return "image";
    case ObjectKind::kItem:
      return "item";
    case ObjectKind::kNpc:
      return "npc";
    case ObjectKind::kReward:
      return "reward";
  }
  return "?";
}

Result<ObjectKind> object_kind_from_name(std::string_view name) {
  if (name == "button") return ObjectKind::kButton;
  if (name == "image") return ObjectKind::kImage;
  if (name == "item") return ObjectKind::kItem;
  if (name == "npc") return ObjectKind::kNpc;
  if (name == "reward") return ObjectKind::kReward;
  return corrupt_data("unknown object kind '" + std::string(name) + "'");
}

ObjectId LinearHitTester::hit(Point p) const {
  TopmostHit top;
  for (const HitTarget& t : targets_) {
    if (t.active && t.rect.contains(p)) top.offer(t);
  }
  return top.id();
}

std::vector<ObjectId> LinearHitTester::hit_all(Point p) const {
  std::vector<std::pair<i64, ObjectId>> hits;  // (sort key, id)
  for (size_t i = 0; i < targets_.size(); ++i) {
    const auto& t = targets_[i];
    if (t.active && t.rect.contains(p)) {
      hits.emplace_back(static_cast<i64>(t.z) * 1'000'000 + static_cast<i64>(i),
                        t.id);
    }
  }
  std::sort(hits.begin(), hits.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  std::vector<ObjectId> out;
  out.reserve(hits.size());
  for (const auto& h : hits) out.push_back(h.second);
  return out;
}

void GridHitTester::rebuild(const std::vector<HitTarget>& targets) {
  targets_ = targets;
  // Aim for a handful of targets per cell: cell area ≈ frame area / n.
  const i64 area = std::max<i64>(1, Size{frame_size_}.area());
  const i64 per_cell = std::max<size_t>(1, targets.size());
  cell_size_ = std::clamp<i32>(
      static_cast<i32>(std::sqrt(static_cast<f64>(area) /
                                 static_cast<f64>(per_cell))),
      8, 256);
  cols_ = std::max<i32>(1, (frame_size_.width + cell_size_ - 1) / cell_size_);
  rows_ = std::max<i32>(1, (frame_size_.height + cell_size_ - 1) / cell_size_);
  cells_.assign(static_cast<size_t>(cols_) * static_cast<size_t>(rows_), {});

  for (u32 i = 0; i < targets_.size(); ++i) {
    const Rect r = targets_[i].rect.intersection(
        {0, 0, frame_size_.width, frame_size_.height});
    if (r.empty()) continue;
    const i32 cx0 = r.x / cell_size_;
    const i32 cy0 = r.y / cell_size_;
    const i32 cx1 = (r.right() - 1) / cell_size_;
    const i32 cy1 = (r.bottom() - 1) / cell_size_;
    for (i32 cy = cy0; cy <= cy1 && cy < rows_; ++cy) {
      for (i32 cx = cx0; cx <= cx1 && cx < cols_; ++cx) {
        cells_[static_cast<size_t>(cy) * static_cast<size_t>(cols_) +
               static_cast<size_t>(cx)]
            .push_back(i);
      }
    }
  }
}

const std::vector<u32>* GridHitTester::cell_at(Point p) const {
  if (p.x < 0 || p.y < 0 || p.x >= frame_size_.width ||
      p.y >= frame_size_.height || cells_.empty()) {
    return nullptr;
  }
  const i32 cx = p.x / cell_size_;
  const i32 cy = p.y / cell_size_;
  if (cx >= cols_ || cy >= rows_) return nullptr;
  return &cells_[static_cast<size_t>(cy) * static_cast<size_t>(cols_) +
                 static_cast<size_t>(cx)];
}

ObjectId GridHitTester::hit(Point p) const {
  return hit_where(p, [](u32) { return true; });
}

std::vector<ObjectId> GridHitTester::hit_all(Point p) const {
  const std::vector<u32>* cell = cell_at(p);
  std::vector<std::pair<i64, ObjectId>> hits;
  if (cell) {
    for (u32 i : *cell) {
      const auto& t = targets_[i];
      if (t.active && t.rect.contains(p)) {
        hits.emplace_back(
            static_cast<i64>(t.z) * 1'000'000 + static_cast<i64>(i), t.id);
      }
    }
  }
  std::sort(hits.begin(), hits.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  std::vector<ObjectId> out;
  out.reserve(hits.size());
  for (const auto& h : hits) out.push_back(h.second);
  return out;
}

}  // namespace vgbl
