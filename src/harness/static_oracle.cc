#include "src/harness/static_oracle.h"

#include <limits>

#include "src/common/check.h"
#include "src/core/decision_engine.h"

namespace alert {
namespace {

// Lower-is-better run objective, shared with the decision plane.
double Objective(const Goals& goals, const RunResult& r) {
  return GoalObjective(goals.mode, r.avg_energy, r.avg_error, r.avg_latency);
}

}  // namespace

StaticOracleResult FindStaticOracle(const Experiment& experiment, const Stack& stack,
                                    const Goals& goals) {
  ALERT_CHECK(goals.Valid());
  StaticOracleResult best;
  bool have_any = false;
  double best_objective = std::numeric_limits<double>::infinity();
  double best_violation = std::numeric_limits<double>::infinity();

  // Every configuration's run under this deadline, replayed once per experiment and
  // shared by every goal setting with the same deadline.
  for (const StaticRunSummary& run : experiment.StaticRuns(stack, goals.deadline)) {
    RunResult r = run.ResultFor(goals);
    // The static oracle plays by the same rules as every scheme: at most 10% of
    // inputs may violate (Table 4 caption).  Its weakness is structural, not a
    // handicap: one configuration must survive the trace's full variability, so under
    // drift or contention it either over-provisions (paying energy) or carries
    // deadline misses whose worthless q_fail results poison its own error average —
    // the effect behind the paper's 0.3-0.9 normalized error columns.
    const bool admissible = !SettingViolated(goals, r);
    const double objective = Objective(goals, r);

    bool better = false;
    if (admissible) {
      better = !best.feasible || objective < best_objective;
    } else if (!best.feasible) {
      // Nothing admissible yet: track the least-violating configuration.
      better = !have_any || r.violation_fraction < best_violation ||
               (r.violation_fraction == best_violation && objective < best_objective);
    }
    if (better) {
      best.config = run.config;
      best.result = std::move(r);
      best.feasible = admissible;
      best_objective = objective;
      best_violation = best.result.violation_fraction;
      have_any = true;
    }
  }
  ALERT_CHECK(have_any);
  return best;
}

}  // namespace alert
