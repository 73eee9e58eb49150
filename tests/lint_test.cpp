// Tier-1 coverage for the vgbl-lint rule engine (tools/lint) and the
// checked-in lint_rules config. The bad fixtures under tests/lint_fixtures/
// are linted against the *real* config under virtual deterministic-layer
// paths, proving each rule still fires after any config edit; the CLI smoke
// test runs the built binary over the actual src/ + tools/ trees and
// requires a clean pass — the same gate check.sh enforces.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "lint/lint.hpp"

#ifndef VGBL_LINT_FIXTURE_DIR
#error "VGBL_LINT_FIXTURE_DIR must be defined by the build"
#endif
#ifndef VGBL_LINT_RULES_PATH
#error "VGBL_LINT_RULES_PATH must be defined by the build"
#endif
#ifndef VGBL_LINT_REPO_ROOT
#error "VGBL_LINT_REPO_ROOT must be defined by the build"
#endif
#ifndef VGBL_LINT_BINARY
#error "VGBL_LINT_BINARY must be defined by the build"
#endif

namespace vgbl::lint {
namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

std::string fixture(const std::string& name) {
  return read_file(std::string(VGBL_LINT_FIXTURE_DIR) + "/" + name);
}

/// The checked-in repo-root config, parsed once. Tests run fixtures
/// against this (not a synthetic RuleSet) so the assertions break if the
/// shipped config stops encoding a rule.
const RuleSet& repo_rules() {
  static const RuleSet rules = [] {
    std::string error;
    auto parsed = parse_rules(read_file(VGBL_LINT_RULES_PATH), &error);
    EXPECT_TRUE(parsed.has_value()) << error;
    return parsed.value_or(RuleSet{});
  }();
  return rules;
}

std::vector<std::string> rule_ids(const std::vector<Finding>& findings) {
  std::vector<std::string> ids;
  ids.reserve(findings.size());
  for (const Finding& f : findings) ids.push_back(f.rule);
  return ids;
}

bool fires(const std::vector<Finding>& findings, const std::string& rule) {
  const auto ids = rule_ids(findings);
  return std::count(ids.begin(), ids.end(), rule) > 0;
}

/// Every bad fixture must fire exactly its own rule — collateral findings
/// from another rule mean the fixture (or a rule's scope) drifted.
void expect_only(const std::vector<Finding>& findings,
                 const std::string& rule) {
  EXPECT_TRUE(fires(findings, rule)) << "rule did not fire";
  for (const Finding& f : findings) {
    EXPECT_EQ(f.rule, rule) << format_finding(f);
  }
}

TEST(LintConfig, RepoRulesParse) {
  const RuleSet& rules = repo_rules();
  ASSERT_FALSE(rules.rules.empty());
  std::vector<std::string> ids;
  for (const Rule& rule : rules.rules) ids.push_back(rule.id);
  for (const char* expected :
       {"determinism-wallclock", "determinism-random", "determinism-sleep",
        "no-naked-new", "gen-generator-determinism",
        "replay-state-unordered", "durable-file-io", "guard-compiled-once",
        "wallclock-choke-point",
        "obs-guarded-metric", "include-hygiene", "banned-pattern",
        "determinism-taint", "lock-order-cycle", "nodiscard-result"}) {
    EXPECT_TRUE(std::count(ids.begin(), ids.end(), expected) == 1)
        << "missing rule " << expected;
  }
}

TEST(LintConfig, ParseErrorsAreLineNumbered) {
  std::string error;
  EXPECT_FALSE(parse_rules("ban foo\n", &error).has_value());
  EXPECT_NE(error.find("lint_rules:1"), std::string::npos) << error;

  error.clear();
  EXPECT_FALSE(parse_rules("rule x\nbogus y\n", &error).has_value());
  EXPECT_NE(error.find("lint_rules:2"), std::string::npos) << error;

  error.clear();
  EXPECT_FALSE(parse_rules("rule x\nban y\n", &error).has_value())
      << "rule without message must be rejected";
}

TEST(LintFixtures, KnownGoodIsClean) {
  const auto findings =
      lint_file("src/core/known_good.cpp", fixture("known_good.cpp"),
                repo_rules());
  EXPECT_TRUE(findings.empty())
      << (findings.empty() ? "" : format_finding(findings.front()));
}

TEST(LintFixtures, WallclockBadFires) {
  const auto findings =
      lint_file("src/core/wallclock_bad.cpp", fixture("wallclock_bad.cpp"),
                repo_rules());
  expect_only(findings, "determinism-wallclock");
  EXPECT_GE(findings.size(), 2u);  // steady_clock + high_resolution_clock
}

TEST(LintFixtures, WallclockChokePointFires) {
  // src/media is outside the determinism rules, so only the one-clock rule
  // sees these reads.
  const auto findings =
      lint_file("src/media/wallclock_choke_bad.cpp",
                fixture("wallclock_choke_bad.cpp"), repo_rules());
  expect_only(findings, "wallclock-choke-point");
  // steady_clock, system_clock, high_resolution_clock, clock_gettime,
  // gettimeofday.
  EXPECT_EQ(findings.size(), 5u);
}

TEST(LintFixtures, GuardCompiledOnceFires) {
  const auto findings =
      lint_file("src/runtime/guard_compiled_bad.cpp",
                fixture("guard_compiled_bad.cpp"), repo_rules());
  expect_only(findings, "guard-compiled-once");
  EXPECT_EQ(findings.size(), 2u);  // CompiledCondition + compile_condition
}

TEST(LintFixtures, HitGridBuiltOnceFires) {
  const auto findings = lint_file("src/runtime/hit_grid_bad.cpp",
                                  fixture("hit_grid_bad.cpp"), repo_rules());
  expect_only(findings, "hit-grid-built-once");
  // HitTarget, HitTester, GridHitTester, LinearHitTester: one line each.
  EXPECT_EQ(findings.size(), 4u);
}

TEST(LintFixtures, RandomBadFires) {
  const auto findings = lint_file(
      "src/net/random_bad.cpp", fixture("random_bad.cpp"), repo_rules());
  expect_only(findings, "determinism-random");
  EXPECT_GE(findings.size(), 4u);  // random_device, mt19937, srand, rand
}

TEST(LintFixtures, GenNondeterministicBadFires) {
  const auto findings = lint_file("src/gen/gen_nondeterministic_bad.cpp",
                                  fixture("gen_nondeterministic_bad.cpp"),
                                  repo_rules());
  expect_only(findings, "gen-generator-determinism");
  // random_device, mt19937 (x2: declaration + call), system_clock.
  EXPECT_GE(findings.size(), 3u);
}

TEST(LintFixtures, GenRuleIsScopedToGenTree) {
  // The same source outside src/gen must not trip the gen rule — its
  // tokens fall back to whichever determinism rule owns that directory.
  const auto findings = lint_file("src/core/gen_nondeterministic_bad.cpp",
                                  fixture("gen_nondeterministic_bad.cpp"),
                                  repo_rules());
  EXPECT_FALSE(fires(findings, "gen-generator-determinism"));
  EXPECT_TRUE(fires(findings, "determinism-random"));
  EXPECT_TRUE(fires(findings, "determinism-wallclock"));
}

TEST(LintFixtures, SleepBadFires) {
  const auto findings = lint_file(
      "src/persist/sleep_bad.cpp", fixture("sleep_bad.cpp"), repo_rules());
  expect_only(findings, "determinism-sleep");
}

TEST(LintFixtures, MetricRawBadFires) {
  const auto findings =
      lint_file("src/core/metric_raw_bad.cpp", fixture("metric_raw_bad.cpp"),
                repo_rules());
  expect_only(findings, "obs-guarded-metric");
  // increment, add, set, observe on named fields + the chained
  // registry-call mutation.
  EXPECT_EQ(findings.size(), 5u);
}

TEST(LintFixtures, SpanRawBadFires) {
  const auto findings = lint_file(
      "src/net/span_raw_bad.cpp", fixture("span_raw_bad.cpp"), repo_rules());
  expect_only(findings, "obs-guarded-metric");
  EXPECT_GE(findings.size(), 3u);  // SpanScope, TraceEvent, TraceLog
}

TEST(LintFixtures, UnorderedBadFires) {
  const auto findings = lint_file("src/persist/unordered_bad.cpp",
                                  fixture("unordered_bad.cpp"), repo_rules());
  expect_only(findings, "replay-state-unordered");
  EXPECT_GE(findings.size(), 2u);  // unordered_map + unordered_set
}

TEST(LintScoping, UnorderedAllowedInScenarioGraph) {
  // The allowlisted scenario_graph.hpp path carries the in-file
  // justification; the same content fires anywhere else in scope.
  const std::string source = fixture("unordered_bad.cpp");
  EXPECT_TRUE(fires(lint_file("src/rewards/x.cpp", source, repo_rules()),
                    "replay-state-unordered"));
  EXPECT_FALSE(
      fires(lint_file("src/scenario/scenario_graph.hpp", source, repo_rules()),
            "replay-state-unordered"));
}

TEST(LintScoping, UnorderedRuleStopsAtReplayBoundary) {
  // src/core session logic is replayed but not byte-encoded; unordered
  // containers are fine outside the snapshot/encoding scope.
  const std::string source = fixture("unordered_bad.cpp");
  EXPECT_FALSE(fires(lint_file("src/core/x.cpp", source, repo_rules()),
                     "replay-state-unordered"));
}

TEST(LintFixtures, DurableIoBadFires) {
  const auto findings = lint_file("src/persist/durable_io_bad.cpp",
                                  fixture("durable_io_bad.cpp"), repo_rules());
  expect_only(findings, "durable-file-io");
  // #include <fstream>, fopen, fwrite, fflush, fclose, resize_file,
  // ofstream, fstream.
  EXPECT_EQ(findings.size(), 8u);
}

TEST(LintScoping, DurableIoIsScopedToStores) {
  // Store files are opened only in util/framed and util/fileio, outside
  // the rule's scope; the same content fires in either store directory.
  const std::string source = fixture("durable_io_bad.cpp");
  EXPECT_TRUE(fires(lint_file("src/rewards/x.cpp", source, repo_rules()),
                    "durable-file-io"));
  EXPECT_FALSE(fires(lint_file("src/util/framed.cpp", source, repo_rules()),
                     "durable-file-io"));
}

TEST(LintFixtures, NakedNewBadFires) {
  const auto findings = lint_file("src/sim/naked_new_bad.cpp",
                                  fixture("naked_new_bad.cpp"), repo_rules());
  expect_only(findings, "no-naked-new");
  // new int[16], new Buffer, delete b, new int[4], delete[] xs.
  EXPECT_EQ(findings.size(), 5u);
}

TEST(LintScoping, NakedNewAllowlistedForPrivateCtorFactories) {
  // session_store.cpp / badge_store.cpp hold the two justified
  // unique_ptr(new T) sites for private constructors; the same content
  // fires anywhere else in scope.
  const std::string source = fixture("naked_new_bad.cpp");
  EXPECT_TRUE(fires(lint_file("src/persist/x.cpp", source, repo_rules()),
                    "no-naked-new"));
  EXPECT_FALSE(
      fires(lint_file("src/persist/session_store.cpp", source, repo_rules()),
            "no-naked-new"));
  EXPECT_FALSE(
      fires(lint_file("src/rewards/badge_store.cpp", source, repo_rules()),
            "no-naked-new"));
}

TEST(LintEngine, NakedNewSkipsDeclarationsAndPreprocessor) {
  // `= delete`d functions, `#include <new>` and identifiers embedding the
  // keywords are not allocation sites.
  const std::string clean =
      "#include <new>\n"
      "struct T {\n"
      "  T(const T&) = delete;\n"
      "  T& operator=(const T&)=delete;\n"
      "};\n"
      "int renew_all(int new_value) { return new_value; }\n";
  const auto findings = lint_file("src/sim/x.cpp", clean, repo_rules());
  EXPECT_FALSE(fires(findings, "no-naked-new"))
      << format_finding(findings.front());
}

TEST(LintFixtures, ParentIncludeFires) {
  const auto findings = lint_file("src/core/include_parent_bad.cpp",
                                  fixture("include_parent_bad.cpp"),
                                  repo_rules());
  expect_only(findings, "include-hygiene");
}

TEST(LintFixtures, MissingPragmaOnceFires) {
  const auto findings = lint_file("src/util/missing_pragma_bad.hpp",
                                  fixture("missing_pragma_bad.hpp"),
                                  repo_rules());
  expect_only(findings, "include-hygiene");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings.front().line, 1);
}

TEST(LintFixtures, NamespaceBadFires) {
  const auto findings = lint_file(
      "src/core/namespace_bad.cpp", fixture("namespace_bad.cpp"),
      repo_rules());
  expect_only(findings, "banned-pattern");
  EXPECT_EQ(findings.size(), 2u);  // using namespace std + std::endl
}

TEST(LintFixtures, CommentsAndStringsNeverFire) {
  const auto findings = lint_file(
      "src/core/comment_ok.cpp", fixture("comment_ok.cpp"), repo_rules());
  EXPECT_TRUE(findings.empty())
      << (findings.empty() ? "" : format_finding(findings.front()));
}

TEST(LintScoping, AllowlistExemptsSimClock) {
  // The same wall-clock content is a violation in src/core but exempt at
  // the allowlisted sim_clock.hpp path (which carries the justification).
  const std::string source = fixture("wallclock_bad.cpp");
  EXPECT_TRUE(fires(lint_file("src/core/x.cpp", source, repo_rules()),
                    "determinism-wallclock"));
  // (include-hygiene still applies at the .hpp path; only the wall-clock
  // rule carries the allow entry.)
  EXPECT_FALSE(
      fires(lint_file("src/util/sim_clock.hpp", source, repo_rules()),
            "determinism-wallclock"));
}

TEST(LintScoping, DeterminismRulesStopAtLayerBoundary) {
  // src/media is outside the deterministic layers, so the determinism
  // rule stays quiet there; its timing still goes through the obs choke
  // point (WallclockChokePointFires).
  const std::string source = fixture("wallclock_bad.cpp");
  const auto findings = lint_file("src/media/x.cpp", source, repo_rules());
  EXPECT_FALSE(fires(findings, "determinism-wallclock"));
}

TEST(LintScoping, WallclockChokePointSkipsObs) {
  // src/obs is the choke point itself (obs::wall_now_us, SpanScope); the
  // same reads fire in the src/ layers that no determinism rule covers.
  const std::string source = fixture("wallclock_choke_bad.cpp");
  EXPECT_FALSE(fires(lint_file("src/obs/x.cpp", source, repo_rules()),
                     "wallclock-choke-point"));
  for (const char* path :
       {"src/runtime/x.cpp", "src/video/x.cpp", "src/author/x.cpp"}) {
    EXPECT_TRUE(fires(lint_file(path, source, repo_rules()),
                      "wallclock-choke-point"))
        << path;
  }
}

TEST(LintScoping, EachWallclockReadFiresOneRule) {
  // The determinism layers and src/gen ban the same five clocks under
  // their own rules, which wallclock-choke-point skips: one finding per
  // read, never two.
  const std::string source = fixture("wallclock_choke_bad.cpp");
  const std::pair<const char*, const char*> cases[] = {
      {"src/core/x.cpp", "determinism-wallclock"},
      {"src/sim/x.cpp", "determinism-wallclock"},
      {"src/gen/x.cpp", "gen-generator-determinism"},
  };
  for (const auto& [path, rule] : cases) {
    SCOPED_TRACE(path);
    const auto findings = lint_file(path, source, repo_rules());
    expect_only(findings, rule);
    EXPECT_EQ(findings.size(), 5u);
  }
}

TEST(LintScoping, ObsLayerMayTouchMetricsRaw) {
  // src/obs implements the metric types; the guard rule must skip it.
  const std::string source = fixture("metric_raw_bad.cpp");
  const auto findings = lint_file("src/obs/x.cpp", source, repo_rules());
  EXPECT_FALSE(fires(findings, "obs-guarded-metric"));
}

TEST(LintEngine, StripPreservesLineStructure) {
  const std::string source =
      "int a; // rand()\n/* steady_clock\n   spans lines */ int b;\n";
  const std::string stripped = strip_code(source);
  EXPECT_EQ(std::count(source.begin(), source.end(), '\n'),
            std::count(stripped.begin(), stripped.end(), '\n'));
  EXPECT_EQ(stripped.find("rand"), std::string::npos);
  EXPECT_EQ(stripped.find("steady_clock"), std::string::npos);
  EXPECT_NE(stripped.find("int b;"), std::string::npos);
}

TEST(LintEngine, BoundaryMatchingAvoidsSubstrings) {
  Rule rule;
  rule.id = "r";
  rule.message = "m";
  rule.ban = {"rand("};
  RuleSet set;
  set.rules.push_back(rule);
  EXPECT_TRUE(lint_file("src/x.cpp", "int y = operand(1);", set).empty());
  EXPECT_TRUE(lint_file("src/x.cpp", "srand(1);", set).empty());
  EXPECT_FALSE(lint_file("src/x.cpp", "int y = rand();", set).empty());
}

// --- cross-TU passes (DESIGN.md §5k) ---------------------------------------
// Multi-file fixture sets linted through lint_tree under virtual src/
// paths, against the real config — the same way the per-file fixtures
// prove the per-file rules.

/// Loads a fixture from lint_fixtures/xtu/ under a virtual repo path.
SourceFile xtu(const std::string& name, const std::string& virtual_path) {
  return {virtual_path, fixture("xtu/" + name)};
}

/// The findings of one rule only.
std::vector<Finding> of_rule(const std::vector<Finding>& findings,
                             const std::string& rule) {
  std::vector<Finding> out;
  for (const Finding& f : findings) {
    if (f.rule == rule) out.push_back(f);
  }
  return out;
}

const std::vector<SourceFile>& taint_bad_set() {
  static const std::vector<SourceFile> set = {
      xtu("taint_bad_entry.cpp", "src/core/xtu_entry.cpp"),
      xtu("taint_bad_helper.hpp", "src/util/xtu_helper.hpp"),
      xtu("taint_bad_clock.cpp", "src/util/xtu_clock.cpp"),
  };
  return set;
}

TEST(LintXtuTaint, WallclockSmuggledTwoHopsAwayFires) {
  const auto findings = lint_tree(taint_bad_set(), repo_rules());
  const auto taint = of_rule(findings, "determinism-taint");
  ASSERT_EQ(taint.size(), 1u);
  // Anchored at the tainted token, not at the sink.
  EXPECT_EQ(taint.front().file, "src/util/xtu_clock.cpp");
  // The message must carry the full call chain, sink first, with every
  // hop's call site — that is the whole point of the cross-TU pass.
  const std::string& msg = taint.front().message;
  for (const char* part :
       {"banned token 'steady_clock'",
        "vgbl::simulate_classroom (src/core/xtu_entry.cpp:",
        "-> vgbl::detail::advance_day (called at src/core/xtu_entry.cpp:",
        "-> vgbl::detail::read_tick (called at src/util/xtu_helper.hpp:",
        "tainted at src/util/xtu_clock.cpp:"}) {
    EXPECT_NE(msg.find(part), std::string::npos)
        << "missing '" << part << "' in: " << msg;
  }
  // The per-file rule still flags the raw token where it is in scope; the
  // two findings are complementary, and nothing else fires.
  EXPECT_EQ(of_rule(findings, "determinism-wallclock").size(), 1u);
  EXPECT_EQ(findings.size(), taint.size() + 1u);
}

TEST(LintXtuTaint, AllowlistedClockAndObsSymbolStayClean) {
  // Same sink shape, but time flows through the allowlisted sim_clock.hpp
  // and the allow-symbol'd obs::wall_now_us — the whole subtree is pruned.
  const std::vector<SourceFile> set = {
      xtu("taint_good_entry.cpp", "src/core/xtu_entry.cpp"),
      xtu("taint_good_clock.hpp", "src/util/sim_clock.hpp"),
      xtu("taint_good_obs.cpp", "src/obs/xtu_obs.cpp"),
  };
  const auto findings = lint_tree(set, repo_rules());
  EXPECT_TRUE(findings.empty())
      << (findings.empty() ? "" : format_finding(findings.front()));
}

TEST(LintXtuLockOrder, CrossFileCycleFires) {
  // g_journal -> g_index via a call edge in one file, g_index -> g_journal
  // by direct nesting in the other; only the merged graph has the cycle.
  const std::vector<SourceFile> set = {
      xtu("lock_bad_a.cpp", "src/persist/xtu_lock_a.cpp"),
      xtu("lock_bad_b.cpp", "src/persist/xtu_lock_b.cpp"),
  };
  const auto findings = lint_tree(set, repo_rules());
  expect_only(findings, "lock-order-cycle");
  ASSERT_EQ(findings.size(), 1u);
  const std::string& msg = findings.front().message;
  for (const char* part :
       {"lock-order cycle:", "g_journal", "g_index", "via call from"}) {
    EXPECT_NE(msg.find(part), std::string::npos)
        << "missing '" << part << "' in: " << msg;
  }
}

TEST(LintXtuLockOrder, DeclaredOrdersAreCleanAndObserved) {
  // The BadgeStore-shaped fixture takes journal before shard and the
  // SessionStore-shaped one shard before log — exactly the declared
  // `order` facts. No cycle; and under require_facts both facts count as
  // observed (no staleness finding for the lock rule).
  const std::vector<SourceFile> set = {
      xtu("lock_good_store.cpp", "src/rewards/xtu_badge_store.cpp"),
      xtu("session_log_good.cpp", "src/persist/xtu_session_store.cpp"),
  };
  EXPECT_TRUE(lint_tree(set, repo_rules()).empty());

  CrossTuOptions strict;
  strict.require_facts = true;
  // (Taint sinks legitimately don't resolve in a one-file slice; only the
  // lock rule's liveness matters here.)
  const auto findings =
      of_rule(lint_tree(set, repo_rules(), strict), "lock-order-cycle");
  EXPECT_TRUE(findings.empty())
      << (findings.empty() ? "" : format_finding(findings.front()));
}

TEST(LintXtuLockOrder, DeclaredOrderInversionFires) {
  // Nesting journal under shard has no cycle among observed edges — the
  // injected journal-before-shard fact edge is what closes it.
  const std::vector<SourceFile> set = {
      xtu("lock_inversion_store.cpp", "src/rewards/xtu_badge_store.cpp"),
  };
  const auto findings = lint_tree(set, repo_rules());
  expect_only(findings, "lock-order-cycle");
  ASSERT_EQ(findings.size(), 1u);
  const std::string& msg = findings.front().message;
  for (const char* part :
       {"BadgeStore::journal_mutex_", "BadgeStore::shard.mutex",
        "declared order fact"}) {
    EXPECT_NE(msg.find(part), std::string::npos)
        << "missing '" << part << "' in: " << msg;
  }
}

TEST(LintXtuLockOrder, SessionLogOrderInversionFires) {
  // Checkpointing live sessions under the log mutex nests a student's
  // shard inside it; the injected shard-before-log fact closes the cycle.
  const std::vector<SourceFile> set = {
      xtu("session_log_inversion.cpp", "src/persist/xtu_session_store.cpp"),
  };
  const auto findings = lint_tree(set, repo_rules());
  expect_only(findings, "lock-order-cycle");
  ASSERT_EQ(findings.size(), 1u);
  const std::string& msg = findings.front().message;
  for (const char* part :
       {"PersistedSession::store_mutex_", "SessionStore::log_mutex_",
        "declared order fact", "via call from"}) {
    EXPECT_NE(msg.find(part), std::string::npos)
        << "missing '" << part << "' in: " << msg;
  }
}

TEST(LintXtuNodiscard, MissingAttributeOnResultDeclFires) {
  const std::vector<SourceFile> set = {
      xtu("nodiscard_bad.hpp", "src/util/xtu_parse.hpp"),
      xtu("nodiscard_bad.cpp", "src/util/xtu_parse.cpp"),
  };
  const auto findings = lint_tree(set, repo_rules());
  expect_only(findings, "nodiscard-result");
  // parse_count fires exactly once (per merged symbol, not per decl);
  // parse_ratio is satisfied by the attribute on its header declaration
  // even though the out-of-line definition does not repeat it.
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_NE(findings.front().message.find("vgbl::parse_count"),
            std::string::npos)
      << findings.front().message;
}

TEST(LintEngine, ParallelScanOutputIsDeterministic) {
  // The scan pass parallelises over files; findings must be byte-identical
  // whatever the worker count, because results merge in sorted path order.
  std::vector<SourceFile> set = {
      xtu("taint_bad_entry.cpp", "src/core/xtu_entry.cpp"),
      xtu("taint_bad_helper.hpp", "src/util/xtu_helper.hpp"),
      xtu("taint_bad_clock.cpp", "src/util/xtu_clock.cpp"),
      xtu("lock_bad_a.cpp", "src/persist/xtu_lock_a.cpp"),
      xtu("lock_bad_b.cpp", "src/persist/xtu_lock_b.cpp"),
      xtu("lock_inversion_store.cpp", "src/rewards/xtu_badge_store.cpp"),
      xtu("nodiscard_bad.hpp", "src/util/xtu_parse.hpp"),
      xtu("nodiscard_bad.cpp", "src/util/xtu_parse.cpp"),
      {"src/core/wallclock_bad.cpp", fixture("wallclock_bad.cpp")},
      {"src/net/random_bad.cpp", fixture("random_bad.cpp")},
      {"src/persist/sleep_bad.cpp", fixture("sleep_bad.cpp")},
      {"src/persist/unordered_bad.cpp", fixture("unordered_bad.cpp")},
      {"src/sim/naked_new_bad.cpp", fixture("naked_new_bad.cpp")},
      {"src/core/namespace_bad.cpp", fixture("namespace_bad.cpp")},
  };
  CrossTuOptions serial;
  serial.jobs = 1;
  CrossTuOptions parallel;
  parallel.jobs = 8;
  const auto a = lint_tree(set, repo_rules(), serial);
  const auto b = lint_tree(set, repo_rules(), parallel);
  ASSERT_FALSE(a.empty());
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(format_finding(a[i]), format_finding(b[i]));
  }
}

// The acceptance gate itself: the built binary over the real tree must be
// clean. Run from the repo root so config prefixes match.
TEST(LintCli, RealTreeIsClean) {
  const std::string cmd = std::string("cd \"") + VGBL_LINT_REPO_ROOT +
                          "\" && \"" + VGBL_LINT_BINARY +
                          "\" --rules lint_rules src tools";
  const int status = std::system(cmd.c_str());
  ASSERT_NE(status, -1);
  EXPECT_EQ(status, 0) << "vgbl-lint found violations in src/ or tools/";
}

}  // namespace
}  // namespace vgbl::lint
