// E5 — streaming decode pipeline: FPS vs decode workers. Expected shape:
// FPS rises with workers until GOP granularity or the host core count
// binds. On a single-core host the measured "speedup" reflects pipeline
// overlap only — the shape (no slowdown) still validates the design; see
// EXPERIMENTS.md.
#include <benchmark/benchmark.h>

#include "bench_common.hpp"
#include "media/pipeline.hpp"

namespace {

using namespace vgbl;

std::shared_ptr<const VideoContainer> pipeline_container() {
  static std::shared_ptr<const VideoContainer> cached = [] {
    const Clip& clip = vgbl::bench::cached_clip(4, 24);
    CodecConfig config;
    config.mode = CodecMode::kDct;
    config.gop_size = 12;
    config.quality = 16;
    auto stream = encode_stream(clip.frames, config).value();
    return std::make_shared<VideoContainer>(
        VideoContainer::parse(mux_container(stream, {})).value());
  }();
  return cached;
}

void BM_StreamingPipeline(benchmark::State& state) {
  auto container = pipeline_container();
  for (auto _ : state) {
    DecodePipeline pipeline(container, static_cast<unsigned>(state.range(0)));
    pipeline.start(0, container->frame_count());
    int n = 0;
    while (auto f = pipeline.next_frame()) {
      benchmark::DoNotOptimize(*f);
      ++n;
    }
    if (n != container->frame_count()) state.SkipWithError("frame loss");
  }
  state.SetItemsProcessed(state.iterations() * container->frame_count());
  state.counters["fps"] = benchmark::Counter(
      static_cast<double>(state.iterations() * container->frame_count()),
      benchmark::Counter::kIsRate);
}

// UseRealTime: decode work happens in pool threads, so CPU-time-based
// rates would misleadingly "scale" even on a single core. Arg 0 is the
// poolless mode simulated cohorts run (GOPs decode on the consumer
// thread); it comes last so the 1-worker case stays the headline.
BENCHMARK(BM_StreamingPipeline)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(0)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  return vgbl::bench::run_benchmark_main(
      argc, argv,
      {.name = "pipeline",
       .default_out = "BENCH_pipeline.json",
       .headline_case = "BM_StreamingPipeline",
       .fields = {{"workload", "{\"clip\": \"demo\", \"stages\": \"decode+stream\"}"}}});
}
