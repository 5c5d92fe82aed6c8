// Tests for the exhaustive interleaving model checker (DESIGN.md §13).
//
// Three layers:
//  1. Exhaustive passes: every registry scenario explores its FULL
//     interleaving space (DPOR, no preemption bound) and must end clean —
//     except the *_demo entries, which must be caught.
//  2. Seeded bugs: re-introducing a known protocol mistake (model builds
//     carry them behind model::bugs() flags) must produce a violation with
//     a minimized, replayable schedule; the same schedule must pass clean
//     once the bug is switched off again.
//  3. Replay corpus: checked-in minimized schedules from (2) re-run as
//     deterministic regression cases (tools/modelcheck/replay_corpus.h).
#include <string>

#include <gtest/gtest.h>

#include "analysis/model_explorer.h"
#include "tools/modelcheck/replay_corpus.h"
#include "tools/modelcheck/scenarios.h"

namespace optiql::model {
namespace {

// Restores the seeded-bug flags (process-global) on scope exit.
struct BugGuard {
  BugGuard() { bugs() = SeededBugs{}; }
  ~BugGuard() { bugs() = SeededBugs{}; }
};

bool EnableBug(const std::string& name) {
  if (name == "optiql_drop_obsolete_on_handover") {
    bugs().optiql_drop_obsolete_on_handover = true;
    return true;
  }
  if (name == "reshard_copy_skips_gate") {
    bugs().reshard_copy_skips_gate = true;
    return true;
  }
  return false;
}

TEST(ModelSchedule, FormatParseRoundtrip) {
  const std::vector<int> schedule = {0, 1, 1, 0, 2, 10};
  EXPECT_EQ(FormatSchedule(schedule), "0.1.1.0.2.10");
  EXPECT_EQ(ParseSchedule("0.1.1.0.2.10"), schedule);
  EXPECT_TRUE(ParseSchedule("").empty());
  EXPECT_EQ(ParseSchedule("3"), (std::vector<int>{3}));
}

// ---------------------------------------------------------------------------
// Layer 1: full-DPOR exhaustive pass per scenario.

class ModelCheckExhaustive
    : public ::testing::TestWithParam<const ScenarioInfo*> {};

TEST_P(ModelCheckExhaustive, ExploresClean) {
  const ScenarioInfo& info = *GetParam();
  BugGuard guard;
  auto scenario = info.make();
  ExploreOptions opt;  // no preemption bound, no budget: the full space
  const ExploreResult r = Explore(*scenario, opt);
  SCOPED_TRACE("scenario: " + std::string(info.name) +
               ", executions: " + std::to_string(r.executions) +
               ", steps: " + std::to_string(r.steps));
  if (info.expect_violation) {
    EXPECT_TRUE(r.found_violation) << "demo scenario not caught";
    EXPECT_FALSE(r.schedule.empty());
    EXPECT_FALSE(r.trace.empty());
  } else {
    EXPECT_FALSE(r.found_violation) << r.message << "\nschedule: "
                                    << FormatSchedule(r.schedule) << "\n"
                                    << r.trace;
    EXPECT_TRUE(r.complete) << "exploration was truncated";
    EXPECT_GT(r.executions, 1u) << "suspiciously trivial state space";
  }
}

std::string ScenarioName(
    const ::testing::TestParamInfo<const ScenarioInfo*>& p) {
  return p.param->name;
}

std::vector<const ScenarioInfo*> AllScenarioParams() {
  std::vector<const ScenarioInfo*> out;
  for (const ScenarioInfo& info : AllScenarios()) out.push_back(&info);
  return out;
}

INSTANTIATE_TEST_SUITE_P(Registry, ModelCheckExhaustive,
                         ::testing::ValuesIn(AllScenarioParams()),
                         ScenarioName);

// ---------------------------------------------------------------------------
// Layer 2: the checker must catch deliberately seeded protocol bugs and
// hand back a schedule that deterministically reproduces them.

void ExpectBugCaught(const char* scenario_name, const char* bug,
                     const char* message_substr) {
  const ScenarioInfo* info = FindScenario(scenario_name);
  ASSERT_NE(info, nullptr);

  BugGuard guard;
  ASSERT_TRUE(EnableBug(bug));
  auto scenario = info->make();
  const ExploreResult found = FindMinimal(*scenario);
  ASSERT_TRUE(found.found_violation)
      << "seeded bug " << bug << " not caught in " << scenario_name;
  EXPECT_NE(found.message.find(message_substr), std::string::npos)
      << found.message;
  ASSERT_FALSE(found.schedule.empty());
  EXPECT_FALSE(found.trace.empty());

  // The minimized schedule replays to the same violation...
  auto replay_scenario = info->make();
  const ExploreResult replayed = Replay(*replay_scenario, found.schedule);
  EXPECT_TRUE(replayed.found_violation)
      << "schedule " << FormatSchedule(found.schedule) << " did not replay";

  // ...and passes clean once the bug is gone.
  bugs() = SeededBugs{};
  auto fixed_scenario = info->make();
  const ExploreResult fixed = Replay(*fixed_scenario, found.schedule);
  EXPECT_FALSE(fixed.found_violation) << fixed.message;
}

TEST(ModelCheckSeededBug, OptiQlObsoleteDroppedOnHandoverIsCaught) {
  ExpectBugCaught("optiql_handover_obsolete_2",
                  "optiql_drop_obsolete_on_handover", "obsolete");
}

TEST(ModelCheckSeededBug, OptiQlObsoleteDroppedThreeThreadsIsCaught) {
  ExpectBugCaught("optiql_handover_obsolete_3",
                  "optiql_drop_obsolete_on_handover", "obsolete");
}

TEST(ModelCheckSeededBug, ReshardCopySkipsGateIsCaught) {
  ExpectBugCaught("reshard_handover_2", "reshard_copy_skips_gate",
                  "resurrected");
}

TEST(ModelCheckDeadlock, AbbaIsReportedWithSchedule) {
  const ScenarioInfo* info = FindScenario("deadlock_demo_2");
  ASSERT_NE(info, nullptr);
  auto scenario = info->make();
  const ExploreResult r = Explore(*scenario);
  ASSERT_TRUE(r.found_violation);
  EXPECT_NE(r.message.find("deadlock"), std::string::npos) << r.message;
  ASSERT_FALSE(r.schedule.empty());

  // The deadlock schedule replays: the same cycle, the same report.
  auto replay_scenario = info->make();
  const ExploreResult replayed = Replay(*replay_scenario, r.schedule);
  EXPECT_TRUE(replayed.found_violation);
  EXPECT_NE(replayed.message.find("deadlock"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Layer 3: checked-in minimized counterexamples.

TEST(ModelCheckReplayCorpus, EntriesReproduceAndStayFixed) {
  for (const ReplayCase& c : kReplayCorpus) {
    SCOPED_TRACE(std::string(c.scenario) + " / " + c.bug);
    const ScenarioInfo* info = FindScenario(c.scenario);
    ASSERT_NE(info, nullptr);
    const std::vector<int> schedule = ParseSchedule(c.schedule);
    ASSERT_FALSE(schedule.empty());

    BugGuard guard;
    ASSERT_TRUE(EnableBug(c.bug));
    auto broken = info->make();
    const ExploreResult r = Replay(*broken, schedule);
    EXPECT_TRUE(r.found_violation)
        << "corpus schedule no longer reaches the seeded violation";
    if (r.found_violation) {
      EXPECT_NE(r.message.find(c.expect), std::string::npos) << r.message;
    }

    bugs() = SeededBugs{};
    auto fixed = info->make();
    const ExploreResult clean = Replay(*fixed, schedule);
    EXPECT_FALSE(clean.found_violation) << clean.message;
  }
}

}  // namespace
}  // namespace optiql::model
