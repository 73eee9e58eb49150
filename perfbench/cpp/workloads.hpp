// Workload entry points and the per-layer helpers they share.
#pragma once

#include <string>
#include <vector>

#include "common.hpp"

namespace perfbench {

[[nodiscard]] Report run_district_workload(const RunConfig& cfg);
[[nodiscard]] Report run_lesson_workload(const RunConfig& cfg);
[[nodiscard]] Report run_playback_workload(const RunConfig& cfg);

/// video.encode_us_per_frame / video.decode_us_per_frame on the workload's
/// own clip: re-encodes it with encode_stream (which must reproduce the
/// bundle's frames byte for byte) and decodes every GOP of the container
/// with Decoder::decode_batch.
void add_video_layer_metrics(const Published& published, Report& report);

/// Checks the benchmark's own arithmetic; returns the number of failures.
[[nodiscard]] int run_self_tests();

}  // namespace perfbench
