// E6 — event dispatch table: click→rules-matched latency vs rule count,
// plus raw guard evaluation cost vs nesting depth, both through the one
// guard evaluator sessions run (`evaluate`, condition.hpp). Expected shape:
// indexed dispatch stays ~flat with rule count (exact-object buckets);
// guard cost grows linearly with node count.
#include <benchmark/benchmark.h>

#include "bench_common.hpp"
#include "event/rule.hpp"
#include "util/rng.hpp"

namespace {

using namespace vgbl;

/// A rule set with `n` rules over `n/4` objects and moderately complex
/// guards, mimicking a dense authoring project.
std::vector<EventRule> make_rules(int n) {
  std::vector<EventRule> rules;
  Rng rng(42);
  for (int i = 0; i < n; ++i) {
    EventRule r;
    r.id = RuleId{static_cast<u32>(i + 1)};
    r.name = "r" + std::to_string(i);
    r.trigger.type = TriggerType::kClick;
    r.trigger.object = ObjectId{static_cast<u32>(1 + i % std::max(1, n / 4))};
    r.condition = Condition::all_of(
        {Condition::flag_set("flag" + std::to_string(i % 8)),
         Condition::any_of({Condition::has_item(ItemId{static_cast<u32>(1 + i % 5)}),
                            Condition::score_at_least(i % 50)})});
    r.actions = {Action::add_score(1)};
    rules.push_back(std::move(r));
  }
  return rules;
}

SimpleStateView bench_state() {
  SimpleStateView s;
  s.items[1] = 1;
  s.items[3] = 2;
  s.flags = {"flag0", "flag2", "flag4", "flag6"};
  s.score_value = 25;
  s.visited_scenarios = {1};
  return s;
}

void BM_Dispatch(benchmark::State& state) {
  const int rule_count = static_cast<int>(state.range(0));
  const RuleBook book(make_rules(rule_count));
  const SimpleStateView view = bench_state();
  const std::unordered_set<u32> disarmed;

  TriggerEvent event;
  event.type = TriggerType::kClick;
  event.scenario = ScenarioId{1};
  Rng rng(7);
  const u32 object_span = static_cast<u32>(std::max(1, rule_count / 4));

  for (auto _ : state) {
    event.object = ObjectId{1 + static_cast<u32>(rng.below(object_span))};
    auto hits = book.match(event, view, disarmed);
    benchmark::DoNotOptimize(hits);
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["rules"] = rule_count;
}

BENCHMARK(BM_Dispatch)->Arg(10)->Arg(100)->Arg(1000)->Arg(10000);

/// Raw guard evaluation, isolated from dispatch overheads.
void BM_GuardEval(benchmark::State& state) {
  const int depth = static_cast<int>(state.range(0));
  // Build a chain of nested ANDs with `depth` levels.
  Condition c = Condition::flag_set("flag0");
  for (int i = 1; i < depth; ++i) {
    c = Condition::all_of(
        {std::move(c),
         Condition::any_of({Condition::has_item(ItemId{static_cast<u32>(i % 5 + 1)}),
                            Condition::score_at_least(i)})});
  }
  const SimpleStateView view = bench_state();
  for (auto _ : state) {
    bool v = evaluate(c, view);
    benchmark::DoNotOptimize(v);
  }
  state.counters["nodes"] = static_cast<double>(c.node_count());
}

BENCHMARK(BM_GuardEval)->Arg(4)->Arg(16)->Arg(64);

}  // namespace

int main(int argc, char** argv) {
  return vgbl::bench::run_benchmark_main(
      argc, argv,
      {.name = "event_dispatch",
       .default_out = "BENCH_event_dispatch.json",
       .headline_case = "BM_Dispatch",
       .fields = {{"workload", "{\"rules\": \"4-64 per object\", \"guards\": \"interpreted\"}"}}});
}
