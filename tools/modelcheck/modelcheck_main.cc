// modelcheck — exhaustive interleaving checker over the real lock headers.
//
// Usage:
//   modelcheck --list
//   modelcheck [--scenario=NAME] [--preemption-bound=N] [--budget-ms=N]
//              [--max-steps=N] [--minimize] [--trace] [--stats] [--bug=NAME]
//   modelcheck --scenario=NAME --replay=0.1.1.0 [--bug=NAME]
//
// With no --scenario, every registered scenario runs. The exit status is 0
// iff every run matched its expectation (clean pass, or a detected
// violation for *_demo scenarios / --bug runs). On a violation the tool
// prints the spec message, the replayable schedule string, and the
// interleaved operation trace.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "analysis/model_explorer.h"
#include "tools/modelcheck/scenarios.h"

namespace optiql::model {
namespace {

struct Cli {
  std::string scenario;
  std::string replay;
  std::string bug;
  ExploreOptions opt;
  bool list = false;
  bool minimize = false;
  bool trace = false;
  bool stats = false;
};

bool ParseFlag(const char* arg, const char* name, const char** value) {
  const size_t n = std::strlen(name);
  if (std::strncmp(arg, name, n) != 0) return false;
  if (arg[n] == '\0') {
    *value = nullptr;
    return true;
  }
  if (arg[n] == '=') {
    *value = arg + n + 1;
    return true;
  }
  return false;
}

bool ApplyBug(const std::string& name) {
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

void PrintViolation(const ScenarioInfo& info, const ExploreResult& r,
                    bool with_trace) {
  std::printf("  violation: %s\n", r.message.c_str());
  std::printf("  schedule:  %s\n", FormatSchedule(r.schedule).c_str());
  std::printf("  replay:    modelcheck --scenario=%s --replay=%s\n",
              info.name, FormatSchedule(r.schedule).c_str());
  if (with_trace && !r.trace.empty()) {
    std::printf("  trace:\n%s", r.trace.c_str());
  }
}

// Runs one scenario and returns true iff the outcome matched expectation.
bool RunScenario(const ScenarioInfo& info, const Cli& cli,
                 bool expect_violation) {
  auto scenario = info.make();
  ExploreResult r;
  if (!cli.replay.empty()) {
    r = Replay(*scenario, ParseSchedule(cli.replay));
  } else if (cli.minimize) {
    r = FindMinimal(*scenario, cli.opt);
  } else {
    r = Explore(*scenario, cli.opt);
  }
  const bool matched = r.found_violation == expect_violation;
  std::printf("%-28s %s  executions=%llu steps=%llu depth=%d%s%s\n",
              info.name,
              matched ? (r.found_violation ? "CAUGHT" : "PASS  ")
                      : (r.found_violation ? "FAIL  " : "MISSED"),
              static_cast<unsigned long long>(r.executions),
              static_cast<unsigned long long>(r.steps), r.max_depth,
              r.complete ? " (exhaustive)" : "",
              r.hit_budget ? " (budget hit)" : "");
  if (r.found_violation) PrintViolation(info, r, cli.trace || !matched);
  if (cli.stats) {
    std::printf("| %s | %d | %llu | %llu | %d | %s |\n", info.name,
                info.threads, static_cast<unsigned long long>(r.executions),
                static_cast<unsigned long long>(r.steps), r.max_depth,
                r.complete ? "yes" : "no");
  }
  return matched;
}

int Main(int argc, char** argv) {
  Cli cli;
  for (int i = 1; i < argc; ++i) {
    const char* v = nullptr;
    if (ParseFlag(argv[i], "--list", &v)) {
      cli.list = true;
    } else if (ParseFlag(argv[i], "--scenario", &v) && v) {
      cli.scenario = v;
    } else if (ParseFlag(argv[i], "--replay", &v) && v) {
      cli.replay = v;
    } else if (ParseFlag(argv[i], "--bug", &v) && v) {
      cli.bug = v;
    } else if (ParseFlag(argv[i], "--preemption-bound", &v) && v) {
      cli.opt.preemption_bound = std::atoi(v);
    } else if (ParseFlag(argv[i], "--budget-ms", &v) && v) {
      cli.opt.budget_ms = std::atoll(v);
    } else if (ParseFlag(argv[i], "--max-steps", &v) && v) {
      cli.opt.max_steps = std::atoll(v);
    } else if (ParseFlag(argv[i], "--minimize", &v)) {
      cli.minimize = true;
    } else if (ParseFlag(argv[i], "--trace", &v)) {
      cli.trace = true;
    } else if (ParseFlag(argv[i], "--stats", &v)) {
      cli.stats = true;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", argv[i]);
      return 2;
    }
  }

  if (cli.list) {
    for (const ScenarioInfo& info : AllScenarios()) {
      std::printf("%-28s %d threads  %s%s\n", info.name, info.threads,
                  info.description,
                  info.expect_violation ? "  [expects violation]" : "");
    }
    return 0;
  }

  if (!cli.bug.empty() && !ApplyBug(cli.bug)) {
    std::fprintf(stderr, "unknown --bug: %s\n", cli.bug.c_str());
    return 2;
  }
  if (!cli.replay.empty() && cli.scenario.empty()) {
    std::fprintf(stderr, "--replay requires --scenario\n");
    return 2;
  }

  bool all_matched = true;
  if (!cli.scenario.empty()) {
    const ScenarioInfo* info = FindScenario(cli.scenario);
    if (info == nullptr) {
      std::fprintf(stderr, "unknown scenario: %s (try --list)\n",
                   cli.scenario.c_str());
      return 2;
    }
    // A seeded bug flips the expectation: the run should CATCH it.
    const bool expect = info->expect_violation || !cli.bug.empty();
    all_matched = RunScenario(*info, cli, expect);
  } else {
    if (cli.stats) {
      std::printf("| scenario | threads | executions | steps | depth | "
                  "exhaustive |\n|---|---|---|---|---|---|\n");
    }
    for (const ScenarioInfo& info : AllScenarios()) {
      const bool expect = info.expect_violation || !cli.bug.empty();
      all_matched &= RunScenario(info, cli, expect);
    }
  }
  return all_matched ? 0 : 1;
}

}  // namespace
}  // namespace optiql::model

int main(int argc, char** argv) { return optiql::model::Main(argc, argv); }
