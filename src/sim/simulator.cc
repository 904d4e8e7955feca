#include "src/sim/simulator.h"

#include <algorithm>
#include <cmath>

#include "src/common/check.h"

namespace alert {
namespace {

constexpr double kTimeEps = 1e-12;

}  // namespace

PlatformSimulator::PlatformSimulator(const PlatformSpec& platform,
                                     std::span<const DnnModel> models)
    : platform_(platform), models_(models) {
  ALERT_CHECK(!models_.empty());
  for (const DnnModel& m : models_) {
    ALERT_CHECK(m.SupportsPlatform(platform_.id));
  }
}

const DnnModel& PlatformSimulator::model(int index) const {
  ALERT_CHECK(index >= 0 && index < static_cast<int>(models_.size()));
  return models_[static_cast<size_t>(index)];
}

Seconds PlatformSimulator::NominalLatency(int model_index, Watts cap) const {
  const DnnModel& m = model(model_index);
  return m.ref_latency_on(platform_.id) / platform_.curve.SpeedAt(cap);
}

Watts PlatformSimulator::InferencePower(int model_index, Watts cap) const {
  const DnnModel& m = model(model_index);
  const Watts demand = m.power_demand_frac * platform_.curve.cap_sat;
  return std::min(cap, demand) + platform_.base_power;
}

Watts PlatformSimulator::IdlePower(const ExecutionContext& ctx) const {
  return platform_.idle_power + platform_.base_power + ctx.extra_idle_power;
}

Seconds PlatformSimulator::TrueLatency(int model_index, Watts cap,
                                       const ExecutionContext& ctx) const {
  const DnnModel& m = model(model_index);
  // Per-model contention response: the global multiplier's excess is scaled by the
  // model's sensitivity to the active contention type.
  const double sensitivity = m.ContentionSensitivity(ctx.contention);
  const double contention = 1.0 + (ctx.contention_multiplier - 1.0) * sensitivity;
  return NominalLatency(model_index, cap) * contention * ctx.input_factor *
         ctx.noise_multiplier * ctx.tail_multiplier * ctx.drift_multiplier;
}

Measurement PlatformSimulator::Execute(const ExecRequest& request,
                                       const ExecutionContext& ctx) const {
  return ExecuteWithLatency(request, ctx,
                            TrueLatency(request.model_index, request.power_cap, ctx));
}

Measurement PlatformSimulator::ExecuteWithLatency(const ExecRequest& request,
                                                  const ExecutionContext& ctx,
                                                  Seconds t_full) const {
  const DnnModel& m = model(request.model_index);
  ALERT_CHECK(request.deadline > 0.0);

  const Seconds deadline = request.deadline;
  const double q_fail = TaskRandomGuessAccuracy(m.task);

  Measurement out;
  out.deadline = deadline;
  out.inference_power = InferencePower(request.model_index, request.power_cap);
  out.idle_power = IdlePower(ctx);

  Seconds run_time = 0.0;  // how long the accelerator actually computed
  if (!m.is_anytime()) {
    // Traditional network: one output, available only at full completion (Eq. 3).
    const bool completes_by_deadline = t_full <= deadline + kTimeEps;
    if (completes_by_deadline) {
      run_time = t_full;
      out.latency = t_full;
      out.accuracy = m.accuracy;
      out.deadline_met = true;
      out.delivered_stage = -1;
      out.xi_anchor_time = t_full;
      out.xi_anchor_fraction = 1.0;
      out.xi_censored = false;
    } else if (request.stop_at_deadline) {
      // Killed at the deadline: only a random guess is available, and the observed
      // latency is a censored lower bound on the true one.
      run_time = deadline;
      out.latency = deadline;
      out.accuracy = q_fail;
      out.deadline_met = false;
      out.delivered_stage = -1;
      out.xi_anchor_time = deadline;
      out.xi_anchor_fraction = 1.0;
      out.xi_censored = true;
    } else {
      // Runs (uselessly) to completion; the result is late and worthless but the full
      // latency is observed.
      run_time = t_full;
      out.latency = t_full;
      out.accuracy = q_fail;
      out.deadline_met = false;
      out.delivered_stage = -1;
      out.xi_anchor_time = t_full;
      out.xi_anchor_fraction = 1.0;
      out.xi_censored = false;
    }
  } else {
    // Anytime network: output k is ready at latency_fraction_k * t_full (Eq. 13).
    const auto& stages = m.anytime_stages;
    const int last_allowed =
        request.max_anytime_stage < 0
            ? static_cast<int>(stages.size()) - 1
            : std::min(request.max_anytime_stage, static_cast<int>(stages.size()) - 1);
    const Seconds planned_end = stages[static_cast<size_t>(last_allowed)].latency_fraction *
                                t_full;
    const Seconds cutoff =
        request.stop_at_deadline ? std::min(planned_end, deadline) : planned_end;

    int delivered = -1;
    for (int k = 0; k <= last_allowed; ++k) {
      if (stages[static_cast<size_t>(k)].latency_fraction * t_full <= cutoff + kTimeEps) {
        delivered = k;
      }
    }
    run_time = cutoff;
    out.latency = cutoff;
    out.delivered_stage = delivered;
    if (delivered >= 0) {
      out.accuracy = stages[static_cast<size_t>(delivered)].accuracy;
      out.deadline_met = cutoff <= deadline + kTimeEps;
      const double frac = stages[static_cast<size_t>(delivered)].latency_fraction;
      out.xi_anchor_time = frac * t_full;
      out.xi_anchor_fraction = frac;
      out.xi_censored = false;
    } else {
      // Not even the first output was ready: fall back to a random guess.
      out.accuracy = q_fail;
      out.deadline_met = false;
      out.xi_anchor_time = cutoff;
      out.xi_anchor_fraction = stages.front().latency_fraction;
      out.xi_censored = true;
    }
  }

  // Energy accounting over the input period (run-time plus idle, as in Fig. 3).  The
  // period stretches if the job overran it.
  const Seconds nominal_period = request.period > 0.0 ? request.period : deadline;
  const Seconds actual_period = std::max(nominal_period, run_time);
  const Seconds idle_time = actual_period - run_time;
  out.period = actual_period;
  out.energy = out.inference_power * run_time + out.idle_power * idle_time;
  return out;
}

TrueLatencyTable::TrueLatencyTable(const PlatformSimulator& sim, std::span<const Watts> caps,
                                   std::span<const ExecutionContext> contexts)
    : num_models_(static_cast<int>(sim.models().size())),
      num_powers_(static_cast<int>(caps.size())),
      num_inputs_(static_cast<int>(contexts.size())) {
  values_.reserve(static_cast<size_t>(num_inputs_) * static_cast<size_t>(num_models_) *
                  static_cast<size_t>(num_powers_));
  for (const ExecutionContext& ctx : contexts) {
    for (int model = 0; model < num_models_; ++model) {
      for (const Watts cap : caps) {
        values_.push_back(sim.TrueLatency(model, cap, ctx));
      }
    }
  }
}

}  // namespace alert
