// OracleStatic (Table 3): the best single configuration for a whole trace.
//
// Represents "the best results without dynamic adaptation": an exhaustive offline sweep
// over every (candidate, power) configuration, executed against the full trace with
// perfect hindsight.  A configuration is admissible when its run does not fail the
// setting under the rule every scheme is judged by (SettingViolated): violations on at
// most 10% of inputs and, outside energy-minimization mode, an average energy within
// the budget.  Among admissible configurations the one with the best objective wins.
// When nothing is admissible the least-violating configuration is returned and
// flagged, so callers can exclude the setting from normalized averages (the paper's
// Fig. 6 marks such settings with an infinity symbol).
//
// The runs come from the experiment's per-deadline static-run cache
// (Experiment::StaticRuns): goal settings that share a deadline share one replay of
// every configuration, and the result is bit-identical to running RunStatic per
// configuration per setting.
#ifndef SRC_HARNESS_STATIC_ORACLE_H_
#define SRC_HARNESS_STATIC_ORACLE_H_

#include "src/harness/experiment.h"

namespace alert {

struct StaticOracleResult {
  Configuration config;
  RunResult result;
  bool feasible = false;  // some configuration kept violations <= 10%
};

// The Table 4 ">10% of all inputs" allowance, applied uniformly to every scheme,
// OracleStatic included.
inline constexpr double kViolationThreshold = 0.10;

// `stack` must be one of `experiment`'s stacks.  Safe to call concurrently on one
// experiment.
StaticOracleResult FindStaticOracle(const Experiment& experiment, const Stack& stack,
                                    const Goals& goals);

}  // namespace alert

#endif  // SRC_HARNESS_STATIC_ORACLE_H_
