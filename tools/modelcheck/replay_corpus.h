// Checked-in counterexample corpus: minimized schedules (produced by
// FindMinimal, fewest preemptions first) that catch each seeded protocol
// bug. modelcheck_test replays every entry two ways — with the bug enabled
// the schedule must still reach the violation, and with the bug disabled
// the same schedule must pass clean — so a future protocol change that
// re-introduces one of these races fails deterministically, without
// re-running the full exploration.
//
// To regenerate an entry:
//   modelcheck --scenario=<name> --bug=<bug> --minimize --trace
#ifndef OPTIQL_TOOLS_MODELCHECK_REPLAY_CORPUS_H_
#define OPTIQL_TOOLS_MODELCHECK_REPLAY_CORPUS_H_

namespace optiql::model {

struct ReplayCase {
  const char* scenario;  // registry name (scenarios.h)
  const char* bug;       // SeededBugs field name
  const char* schedule;  // minimized thread-id schedule ("0.1.1.0...")
  const char* expect;    // substring of the violation message
};

// Filled in from real FindMinimal output; see modelcheck_test.cc for the
// enable/disable replay harness.
inline constexpr ReplayCase kReplayCorpus[] = {
    // Retiring holder hands the lock over; the grant drops kObsoleteBit.
    {"optiql_handover_obsolete_2", "optiql_drop_obsolete_on_handover",
     "0.0.0.0.0.0.0.0.0.0.0.0.0.0.1.1.1.1.1.1.1.1.1.0.0.0.0.1.1.1.1.1.1.1."
     "1.1.1.1",
     "obsolete"},
    // Same drop with a second successor in the queue behind the handover.
    {"optiql_handover_obsolete_3", "optiql_drop_obsolete_on_handover",
     "0.0.0.0.0.0.0.0.0.0.0.0.0.0.0.1.1.1.1.1.1.1.1.1.1.1.1.2.2.2.2.2.2.2."
     "2.2.1.1.1.1.2.2.2.2.2.2.2.2.2.2.2",
     "obsolete"},
    // Ungated chunk copier reads the source, a double-applied remove lands,
    // then the stale copy resurrects the key in the target shard.
    {"reshard_handover_2", "reshard_copy_skips_gate",
     "0.1.1.1.1.1.1.1.1.1.1.0.0.0.0", "resurrected"},
};

}  // namespace optiql::model

#endif  // OPTIQL_TOOLS_MODELCHECK_REPLAY_CORPUS_H_
