// E2 — Figure 2 reproduction + runtime-interaction benchmark. Plays the
// classroom-repair game to its Figure-2 moment (object on video, items in
// the backpack) and renders the runtime interface, then measures the
// interaction hot paths: click dispatch, examine, drag-to-inventory,
// compositing, and the ASCII presentation. Expected shape: every
// interaction is far below one frame period (41.7 ms @ 24 fps).
#include <benchmark/benchmark.h>

#include <cstdio>

#include "bench_common.hpp"
#include "runtime/compositor.hpp"
#include "runtime/render_text.hpp"
#include "runtime/script.hpp"

namespace {

using namespace vgbl;

Point locate(GameSession& session, const std::string& name) {
  for (const auto* o : session.visible_objects()) {
    if (o->name == name) {
      const Point c = o->placement.rect.center();
      const Point origin = session.ui().layout().video_area.origin();
      return {c.x + origin.x, c.y + origin.y};
    }
  }
  return {};
}

void print_figure2() {
  auto bundle = vgbl::bench::cached_bundle("classroom");
  SimClock clock;
  GameSession session(bundle, &clock);
  (void)session.start();
  ScriptRunner runner(&session, &clock);
  (void)runner.run({
      ScriptStep::click("teacher"),
      ScriptStep::choose(0),
      ScriptStep::advance(),
      ScriptStep::examine("computer"),
      ScriptStep::click("GO MARKET"),
      ScriptStep::click("psu_box"),
  });
  std::printf("E2 / Figure 2 — the runtime interface (headless), after the\n"
              "player bought the part at the market:\n\n%s\n",
              render_runtime_view(session).c_str());
}

/// Click on an object with no matching rule: pure dispatch cost.
void BM_ClickDispatch(benchmark::State& state) {
  auto bundle = vgbl::bench::cached_bundle("classroom");
  SimClock clock;
  GameSession session(bundle, &clock);
  (void)session.start();
  const Point computer = locate(session, "computer");
  for (auto _ : state) {
    (void)session.click(computer);
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_Examine(benchmark::State& state) {
  auto bundle = vgbl::bench::cached_bundle("classroom");
  SimClock clock;
  GameSession session(bundle, &clock);
  (void)session.start();
  const Point computer = locate(session, "computer");
  for (auto _ : state) {
    (void)session.examine(computer);
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_ObjectAt(benchmark::State& state) {
  auto bundle = vgbl::bench::cached_bundle("classroom");
  SimClock clock;
  GameSession session(bundle, &clock);
  (void)session.start();
  Rng rng(3);
  for (auto _ : state) {
    const Point p{static_cast<i32>(rng.below(320)),
                  static_cast<i32>(16 + rng.below(240))};
    auto id = session.object_at(p);
    benchmark::DoNotOptimize(id);
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_CompositeFrame(benchmark::State& state) {
  auto bundle = vgbl::bench::cached_bundle("classroom");
  SimClock clock;
  GameSession session(bundle, &clock);
  (void)session.start();
  Compositor compositor;
  for (auto _ : state) {
    Frame screen = compositor.render(session);
    benchmark::DoNotOptimize(screen);
    clock.advance(milliseconds(42));  // next frame period
    session.tick();
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["fps"] = benchmark::Counter(
      static_cast<double>(state.iterations()), benchmark::Counter::kIsRate);
}

void BM_AsciiRender(benchmark::State& state) {
  auto bundle = vgbl::bench::cached_bundle("classroom");
  SimClock clock;
  GameSession session(bundle, &clock);
  (void)session.start();
  Compositor compositor;
  const Frame screen = compositor.render(session);
  for (auto _ : state) {
    const std::string art = ascii_render(screen, 96);
    benchmark::DoNotOptimize(art);
  }
}

/// Full scripted classroom-repair playthrough: the end-to-end E2 number.
void BM_FullPlaythrough(benchmark::State& state) {
  auto bundle = vgbl::bench::cached_bundle("classroom");
  const InputScript script = {
      ScriptStep::click("teacher"),    ScriptStep::choose(0),
      ScriptStep::advance(),           ScriptStep::examine("computer"),
      ScriptStep::click("GO MARKET"),  ScriptStep::click("psu_box"),
      ScriptStep::click("BACK TO CLASS"),
      ScriptStep::use_item("psu_part", "computer"),
  };
  for (auto _ : state) {
    auto result = play_scripted(bundle, script);
    benchmark::DoNotOptimize(result);
    if (!result.ok() || !result.value().succeeded) {
      state.SkipWithError("playthrough failed");
    }
  }
  state.SetItemsProcessed(state.iterations());
}

BENCHMARK(BM_ClickDispatch)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_Examine)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_ObjectAt)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_CompositeFrame)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_AsciiRender)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_FullPlaythrough)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  print_figure2();
  return vgbl::bench::run_benchmark_main(
      argc, argv,
      {.name = "fig2_runtime",
       .default_out = "BENCH_fig2_runtime.json",
       .headline_case = "BM_FullPlaythrough",
       .fields = {{"workload", "{\"bundle\": \"quickstart\", \"ops\": \"dispatch+composite+playthrough\"}"}}});
}
