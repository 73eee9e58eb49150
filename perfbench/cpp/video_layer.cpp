#include <algorithm>

#include "author/importer.hpp"
#include "media/pipeline.hpp"
#include "video/codec.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace vgbl;

namespace {

constexpr int kPasses = 3;

}  // namespace

void add_video_layer_metrics(const Published& published, Report& report) {
  const VideoContainer& container = *published.bundle->video;
  auto clip = render_project_clip(published.project);
  if (!clip.ok()) {
    report.check(false, "render_project_clip: " + clip.error().message);
    return;
  }
  std::vector<int> segment_starts;
  for (const auto& seg : published.project.segments) {
    segment_starts.push_back(seg.first_frame);
  }
  std::sort(segment_starts.begin(), segment_starts.end());

  std::vector<f64> encode_us;
  for (int pass = 0; pass < kPasses; ++pass) {
    const i64 t0 = now_us();
    auto stream = encode_stream(clip.value().frames, container.codec_config(),
                                clip.value().fps, segment_starts);
    const i64 t1 = now_us();
    if (!stream.ok() || stream.value().frames.empty()) {
      report.check(false, "encode_stream failed on the workload clip");
      return;
    }
    encode_us.push_back(static_cast<f64>(t1 - t0) /
                        static_cast<f64>(stream.value().frames.size()));
    if (pass > 0) continue;
    bool same = static_cast<int>(stream.value().frames.size()) ==
                container.frame_count();
    for (int i = 0; same && i < container.frame_count(); ++i) {
      auto data = container.frame_data(i);
      const Bytes& mine = stream.value().frames[static_cast<size_t>(i)].data;
      same = data.ok() && std::equal(mine.begin(), mine.end(),
                                     data.value().begin(), data.value().end());
    }
    report.check(same, "re-encoding the clip does not reproduce the bundle's frames");
  }

  const GopPlan plan = plan_gops(container, 0, container.frame_count());
  std::vector<f64> decode_us;
  for (int pass = 0; pass < kPasses; ++pass) {
    size_t frames = 0;
    const i64 t0 = now_us();
    for (const GopRange& gop : plan.gops) {
      std::vector<std::span<const u8>> datas;
      for (int i = gop.first; i < gop.first + gop.count; ++i) {
        auto data = container.frame_data(i);
        if (data.ok()) datas.push_back(data.value());
      }
      Decoder decoder;
      std::vector<Frame> out;
      if (!decoder.decode_batch(datas, out).ok()) {
        report.check(false, "decode_batch failed on GOP at frame " +
                                std::to_string(gop.first));
        return;
      }
      frames += out.size();
    }
    const i64 t1 = now_us();
    if (frames == 0) break;
    decode_us.push_back(static_cast<f64>(t1 - t0) / static_cast<f64>(frames));
  }
  report.metrics["video.encode_us_per_frame"] = median(encode_us);
  report.metrics["video.decode_us_per_frame"] = median(decode_us);
}

}  // namespace perfbench
