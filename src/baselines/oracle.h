// Clairvoyant Oracle baselines (Table 3).
//
// "Oracle" has perfect, impractical knowledge: for every input it evaluates the *true*
// outcome of every configuration (by querying the simulator with the input's actual
// environment state) and picks the dynamic optimum.  It bounds what any scheduler could
// achieve with per-input adaptation.  The static counterpart — the best single
// configuration for a whole trace — is computed by the harness (see
// src/harness/static_oracle.h) since it requires a full-trace sweep rather than
// per-input decisions.
#ifndef SRC_BASELINES_ORACLE_H_
#define SRC_BASELINES_ORACLE_H_

#include <span>

#include "src/core/config_space.h"
#include "src/core/goals.h"
#include "src/core/scheduler.h"
#include "src/sim/execution_context.h"

namespace alert {

class OracleScheduler final : public Scheduler {
 public:
  // `contexts` is the trace's ground truth, indexed by input; all referents must
  // outlive the scheduler.  `true_latencies`, when non-null, is the memoized
  // TrueLatency of `space`'s simulator over exactly those contexts and `space`'s caps;
  // decisions are identical with or without it — it only skips recomputation.
  OracleScheduler(const ConfigSpace& space, const Goals& goals,
                  std::span<const ExecutionContext> contexts,
                  const TrueLatencyTable* true_latencies = nullptr);

  SchedulingDecision Decide(const InferenceRequest& request) override;
  void Observe(const SchedulingDecision& decision, const Measurement& m) override;
  std::string_view name() const override { return "Oracle"; }

 private:
  const ConfigSpace& space_;
  Goals goals_;
  std::span<const ExecutionContext> contexts_;
  const TrueLatencyTable* true_latencies_;

  // Budget pacing for accuracy-maximization: the energy budget is cumulative (a battery
  // bound), so the oracle may bank surplus from cheap inputs and spend it on expensive
  // ones, as long as the running average stays within budget.
  Joules energy_spent_ = 0.0;
  int inputs_seen_ = 0;
};

}  // namespace alert

#endif  // SRC_BASELINES_ORACLE_H_
