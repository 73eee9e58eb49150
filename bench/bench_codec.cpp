// E3 — codec table: encode/decode throughput (frames/s, MPix/s) and
// compression ratio vs resolution × mode. Expected shape: RLE ≈ fast but
// modest ratio; DCT ≈ slower with much higher compression, ratio rising
// with quantiser coarseness; raw is the 1.0x baseline.
#include <benchmark/benchmark.h>

#include "bench_common.hpp"
#include "video/codec.hpp"

namespace {

using namespace vgbl;

CodecConfig config_for(int mode_arg) {
  CodecConfig c;
  switch (mode_arg) {
    case 0:
      c.mode = CodecMode::kRaw;
      break;
    case 1:
      c.mode = CodecMode::kRle;
      break;
    case 2:
      c.mode = CodecMode::kDct;
      c.quality = 4;
      break;
    case 3:
      c.mode = CodecMode::kDct;
      c.quality = 16;
      break;
    default:
      c.mode = CodecMode::kDct;
      c.quality = 32;
      break;
  }
  c.gop_size = 12;
  return c;
}

std::string mode_label(int mode_arg) {
  switch (mode_arg) {
    case 0:
      return "raw";
    case 1:
      return "rle";
    case 2:
      return "dct_q4";
    case 3:
      return "dct_q16";
    default:
      return "dct_q32";
  }
}

void BM_Encode(benchmark::State& state) {
  const i32 w = static_cast<i32>(state.range(0));
  const i32 h = static_cast<i32>(state.range(1));
  const CodecConfig config = config_for(static_cast<int>(state.range(2)));
  const Clip& clip = vgbl::bench::cached_clip(2, 12, w, h);

  u64 raw_bytes = 0;
  u64 coded_bytes = 0;
  for (auto _ : state) {
    auto stream = encode_stream(clip.frames, config);
    benchmark::DoNotOptimize(stream);
    coded_bytes = stream.value().total_bytes();
    raw_bytes = static_cast<u64>(clip.frames.size()) *
                static_cast<u64>(w) * static_cast<u64>(h) * 3;
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<i64>(clip.frames.size()));
  state.counters["fps"] = benchmark::Counter(
      static_cast<double>(state.iterations() * clip.frames.size()),
      benchmark::Counter::kIsRate);
  state.counters["mpix/s"] = benchmark::Counter(
      static_cast<double>(state.iterations() * clip.frames.size()) * w * h / 1e6,
      benchmark::Counter::kIsRate);
  state.counters["ratio"] =
      static_cast<double>(raw_bytes) / static_cast<double>(coded_bytes);
  state.SetLabel(mode_label(static_cast<int>(state.range(2))) + " " +
                 std::to_string(w) + "x" + std::to_string(h));
}

void BM_Decode(benchmark::State& state) {
  const i32 w = static_cast<i32>(state.range(0));
  const i32 h = static_cast<i32>(state.range(1));
  const CodecConfig config = config_for(static_cast<int>(state.range(2)));
  const Clip& clip = vgbl::bench::cached_clip(2, 12, w, h);
  const auto stream = encode_stream(clip.frames, config).value();

  for (auto _ : state) {
    auto decoded = decode_stream(stream);
    benchmark::DoNotOptimize(decoded);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<i64>(clip.frames.size()));
  state.counters["fps"] = benchmark::Counter(
      static_cast<double>(state.iterations() * clip.frames.size()),
      benchmark::Counter::kIsRate);
  state.SetLabel(mode_label(static_cast<int>(state.range(2))) + " " +
                 std::to_string(w) + "x" + std::to_string(h));
}

void CodecArgs(benchmark::internal::Benchmark* b) {
  for (auto [w, h] : {std::pair{160, 120}, {320, 240}, {640, 480}}) {
    for (int mode = 0; mode <= 4; ++mode) {
      b->Args({w, h, mode});
    }
  }
}

BENCHMARK(BM_Encode)->Apply(CodecArgs)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Decode)->Apply(CodecArgs)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  return vgbl::bench::run_benchmark_main(
      argc, argv,
      {.name = "codec",
       .default_out = "BENCH_codec.json",
       // The dct_q16 decode arm: bundles ship at q16, so this is the DCT
       // reconstruction playback decodes with (the raw arm only copies).
       .headline_case = "BM_Decode/160/120/3",
       .fields = {{"workload", "{\"clip\": \"demo\", \"modes\": 5, \"sizes\": [\"160x120\", \"320x240\", \"640x480\"]}"}}});
}
