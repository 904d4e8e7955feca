// The inference-platform simulator: ground truth for every experiment.
//
// Substitutes for the paper's physical testbed (Table 1 machines + real DNN inference).
// Given a decision — which model, which power cap, and for anytime networks an optional
// stage limit — plus the per-input environment state, Execute() produces the true
// latency, the delivered accuracy (including deadline-miss fallbacks, Eq. 3/13), and
// the energy consumed over the input period (run-time plus idle energy, as measured for
// Fig. 3).
//
// The same object also exposes the *nominal profile* (latency at each cap with no
// contention and a unit input): this is what offline profiling would record, and what
// the controllers consume as t_prof.
#ifndef SRC_SIM_SIMULATOR_H_
#define SRC_SIM_SIMULATOR_H_

#include <span>
#include <vector>

#include "src/common/ids.h"
#include "src/common/units.h"
#include "src/dnn/model.h"
#include "src/sim/execution_context.h"
#include "src/sim/platform.h"

namespace alert {

// What a scheduler asks the platform to do for one input.
struct ExecRequest {
  int model_index = 0;
  Watts power_cap = 0.0;
  Seconds deadline = 0.0;
  // Accounting period for idle energy; defaults to the deadline when <= 0 (periodic
  // sensor inputs).  The actual period extends if inference overruns.
  Seconds period = 0.0;
  // Anytime only: stop after this stage (0-based) even if time remains; -1 = no limit.
  int max_anytime_stage = -1;
  // Kill the inference at the deadline.  Anytime networks always deliver their latest
  // output at the deadline; for traditional networks this kills a job that would
  // otherwise run (uselessly) to completion.
  bool stop_at_deadline = true;
};

// What the platform reports back — everything a real deployment could measure.
struct Measurement {
  Seconds latency = 0.0;         // time until the result was delivered
  Seconds period = 0.0;          // accounting period actually used
  Joules energy = 0.0;           // inference + idle energy over the period
  Watts inference_power = 0.0;   // average draw while inference ran
  Watts idle_power = 0.0;        // average draw while inference was idle
  double accuracy = 0.0;         // delivered accuracy (q_i, stage accuracy, or q_fail)
  bool deadline_met = false;
  int delivered_stage = -1;      // anytime: delivered output index; -1 = final/none

  // Feedback anchor for the slowdown filter: the last observed completion event
  // (a stage exit or the full network) and the fraction of the full-network work it
  // corresponds to.  xi_obs = anchor_time / (anchor_fraction * t_prof).  When nothing
  // completed before the cutoff the anchor is censored (a lower bound on xi).
  Seconds xi_anchor_time = 0.0;
  double xi_anchor_fraction = 1.0;
  bool xi_censored = false;

  Seconds deadline = 0.0;
};

class PlatformSimulator {
 public:
  // `models` must outlive the simulator.
  PlatformSimulator(const PlatformSpec& platform, std::span<const DnnModel> models);

  // Runs one inference under the given environment.  Pure function of its arguments —
  // the harness replays identical contexts across schedulers.  Equivalent to
  // ExecuteWithLatency over TrueLatency(request.model_index, request.power_cap, ctx).
  Measurement Execute(const ExecRequest& request, const ExecutionContext& ctx) const;

  // The deadline-dependent tail of Execute, given the request's true full-network
  // latency `t_full` (as TrueLatency returns it).  Callers that replay one
  // (model, cap, input) under many deadlines memoize `t_full` (TrueLatencyTable).
  Measurement ExecuteWithLatency(const ExecRequest& request, const ExecutionContext& ctx,
                                 Seconds t_full) const;

  // Nominal profile latency: model under `cap`, no contention, unit input.
  Seconds NominalLatency(int model_index, Watts cap) const;

  // Average package+base draw while the model runs under `cap`.
  Watts InferencePower(int model_index, Watts cap) const;

  // Package+base draw while inference-idle (plus the co-runner's share if active).
  Watts IdlePower(const ExecutionContext& ctx) const;

  // True (environment-adjusted, noise-free... including noise draws already fixed in
  // `ctx`) full-network latency for a hypothetical config; used by the clairvoyant
  // oracle baselines and by trace generation.
  Seconds TrueLatency(int model_index, Watts cap, const ExecutionContext& ctx) const;

  const PlatformSpec& platform() const { return platform_; }
  std::span<const DnnModel> models() const { return models_; }
  const DnnModel& model(int index) const;

 private:
  const PlatformSpec& platform_;
  std::span<const DnnModel> models_;
};

// TrueLatency for every (input, model, power cap) of a trace: the deadline-independent
// half of Execute, computed once.  Entries are exactly the values TrueLatency returns.
// Laid out input-major so one input's models x caps are contiguous — the clairvoyant
// Oracle scans exactly that block per decision.
class TrueLatencyTable {
 public:
  TrueLatencyTable(const PlatformSimulator& sim, std::span<const Watts> caps,
                   std::span<const ExecutionContext> contexts);

  Seconds at(int input_index, int model_index, int power_index) const {
    return values_[(static_cast<size_t>(input_index) * static_cast<size_t>(num_models_) +
                    static_cast<size_t>(model_index)) *
                       static_cast<size_t>(num_powers_) +
                   static_cast<size_t>(power_index)];
  }
  int num_inputs() const { return num_inputs_; }
  int num_models() const { return num_models_; }
  int num_powers() const { return num_powers_; }

 private:
  int num_models_;
  int num_powers_;
  int num_inputs_;
  std::vector<Seconds> values_;
};

}  // namespace alert

#endif  // SRC_SIM_SIMULATOR_H_
