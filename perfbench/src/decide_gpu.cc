// decide_gpu: the Section 4 per-input path.  One AlertScheduler runs a long GPU
// trace through Experiment::Run behind a probe that times every Decide and Observe.
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/core/alert_scheduler.h"
#include "src/harness/constraint_grid.h"
#include "src/harness/experiment.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {

using namespace alert;

namespace {

// Timing decorator around the public Scheduler interface.  Untraced it calls
// AlertScheduler::Decide; traced it makes the same decision through the two public
// halves Decide is defined as (Snapshot, then DecideFromSnapshot) so each gets a
// span.  The decision digest must not depend on which path ran.
class DecideProbe final : public Scheduler {
 public:
  DecideProbe(AlertScheduler& inner, bool split, int inputs)
      : inner_(inner), split_(split) {
    decide_ns_.reserve(static_cast<size_t>(inputs));
    observe_ns_.reserve(static_cast<size_t>(inputs));
  }

  SchedulingDecision Decide(const InferenceRequest& request) override {
    const int64_t t0 = NowNs();
    SchedulingDecision decision;
    if (split_) {
      const Span span("decide.decide", request.input_index);
      DecisionSnapshot snapshot;
      {
        const Span snapshot_span("core.snapshot");
        snapshot = inner_.Snapshot(request);
      }
      const Span select_span("core.select");
      decision = DecideFromSnapshot(snapshot, inner_.power_limit(), scratch_);
    } else {
      decision = inner_.Decide(request);
    }
    decide_ns_.push_back(static_cast<double>(NowNs() - t0));
    input_ = request.input_index;
    const int fields[] = {decision.candidate.model_index, decision.candidate.stage_limit,
                          decision.power_index};
    digest_ = Fnv1a(std::string_view(reinterpret_cast<const char*>(fields), sizeof(fields)),
                    digest_);
    return decision;
  }

  void Observe(const SchedulingDecision& decision, const Measurement& m) override {
    const int64_t t0 = NowNs();
    {
      const Span span("estimator.observe", input_);
      inner_.Observe(decision, m);
    }
    observe_ns_.push_back(static_cast<double>(NowNs() - t0));
  }

  std::string_view name() const override { return inner_.name(); }

  const std::vector<double>& decide_ns() const { return decide_ns_; }
  const std::vector<double>& observe_ns() const { return observe_ns_; }
  uint64_t digest() const { return digest_; }

 private:
  AlertScheduler& inner_;
  bool split_;
  DecisionEngine::SelectScratch scratch_;
  std::vector<double> decide_ns_;
  std::vector<double> observe_ns_;
  int input_ = 0;
  uint64_t digest_ = Fnv1a("");
};

// Repetitions per step; the step also runs after each of the three other workloads'.
constexpr int kRepsPerStep = 4;

struct RepResult {
  double wall_s = 0.0;
  uint64_t digest = 0;
  double mean_latency_s = 0.0;  // mean simulated inference latency
  // Quantiles over every input of the run (20000 Decides: 200 samples beyond p99).
  double decide_p50_ns = 0.0;
  double decide_p99_ns = 0.0;
  double observe_p50_ns = 0.0;
};

RepResult RunOnce(const Experiment& experiment, const Goals& goals, bool split) {
  const Stack& stack = experiment.stack(DnnSetChoice::kBoth);
  AlertScheduler scheduler(stack.engine(), goals);
  DecideProbe probe(scheduler, split, experiment.trace().num_inputs());
  RepResult rep;
  const int64_t t0 = NowNs();
  RunResult run;
  {
    const Span span("sim.run");
    run = experiment.Run(stack, probe, goals);
  }
  rep.wall_s = 1e-9 * static_cast<double>(NowNs() - t0);
  rep.digest = probe.digest();
  rep.mean_latency_s = run.avg_latency;
  rep.decide_p50_ns = Median(probe.decide_ns());
  rep.decide_p99_ns = Quantile(probe.decide_ns(), 0.99);
  rep.observe_p50_ns = Median(probe.observe_ns());
  return rep;
}

class DecideGpu final : public Workload {
 public:
  DecideGpu(const RunContext& ctx, uint64_t seed) : ctx_(ctx) {
    options_.num_inputs = ctx.smoke ? 300 : 20000;
    options_.seed = seed;
    // One mid-grid goal: the third deadline and the fourth accuracy goal.
    goals_ = BuildConstraintGrid(GoalMode::kMinimizeEnergy, TaskId::kImageClassification,
                                 PlatformId::kGpu)[2 * 6 + 3];
  }

  // Trace generation plus profiling of the three GPU stacks.
  double Setup() override {
    const int64_t t0 = NowNs();
    experiment_ = std::make_unique<Experiment>(TaskId::kImageClassification,
                                               PlatformId::kGpu, ContentionType::kMemory,
                                               options_);
    return 1e-9 * static_cast<double>(NowNs() - t0);
  }

  // A few repetitions, each pinned to the next CPU in turn (see PinnedToCpu).
  void Step() override {
    for (int i = 0; i < (ctx_.smoke ? 1 : kRepsPerStep); ++i) {
      const PinnedToCpu pin(next_cpu_++);
      Record(RunOnce(*experiment_, goals_, /*split=*/false), "untraced repetitions");
      reps_.push_back(last_);
    }
  }

  void Interleave() override { Step(); }

  Report Finish() override {
    if (!ctx_.trace) {
      // The traced path must reach the same decisions: one split run, spans off.
      Record(RunOnce(*experiment_, goals_, /*split=*/true),
             "Snapshot+DecideFromSnapshot and Decide");
      Report report = Base();
      const double decide_p50_ns = BestOf(OverReps(&RepResult::decide_p50_ns));
      report.Set("decide_us_p50", 1e-3 * decide_p50_ns, "us");
      report.Set("overhead_pct",
                 100.0 * 1e-9 * (decide_p50_ns + BestOf(OverReps(&RepResult::observe_p50_ns))) /
                     reps_.front().mean_latency_s,
                 "%");
      return report;
    }

    // Traced and untraced runs alternate, so the overhead compares runs taken in the
    // same stretch of machine time.
    std::vector<double> traced_per_input_s;
    std::vector<double> untraced_per_input_s;
    double busy_s = 0.0;
    SpanTable spans;
    for (int i = 0; i < (ctx_.smoke ? 1 : 6); ++i) {
      Record(RunOnce(*experiment_, goals_, /*split=*/false), "untraced repetitions");
      untraced_per_input_s.push_back(last_.wall_s / options_.num_inputs);
      spans = Traced(true, &busy_s, [&] {
        Record(RunOnce(*experiment_, goals_, /*split=*/true), "traced and untraced runs");
      });
      traced_per_input_s.push_back(last_.wall_s / options_.num_inputs);
    }
    Report report = Base();
    // Not an end-to-end metric: on the 4-vCPU VM this was built on, a run's p99 sits
    // 1.6-2.6x above its p50 and moves with host activity, so over ten passes its
    // spread reached 0.31 of the median, more than any allowed bound.  The median
    // over the untraced runs is reported here, unbounded.
    report.Set("decide_us_p99", 1e-3 * Median(OverReps(&RepResult::decide_p99_ns)), "us");
    const double inputs = options_.num_inputs;  // the spans are the last traced run's
    report.Set("core.snapshot_ns_p50", 1e9 * MedianSelfSeconds(spans, "core.snapshot"), "ns");
    report.Set("core.select_ns_p50", 1e9 * MedianSelfSeconds(spans, "core.select"), "ns");
    report.Set("estimator.observe_ns_p50",
               1e9 * MedianSelfSeconds(spans, "estimator.observe"), "ns");
    report.Set("sim.run_residual_ns_per_input", 1e9 * SelfSeconds(spans, "sim.run") / inputs,
               "ns");
    report.Set("trace.overhead_frac.decide_gpu",
               BestOf(traced_per_input_s) / BestOf(untraced_per_input_s) - 1.0, "ratio");
    const double layered = LayerSeconds(
        spans, {"core.snapshot", "core.select", "estimator.observe", "sim.run"});
    report.Set("trace.unaccounted_frac.decide_gpu",
               busy_s > 0.0 ? 1.0 - layered / busy_s : 0.0, "ratio");
    return report;
  }

 private:
  // One field of every untraced repetition.
  std::vector<double> OverReps(double RepResult::*field) const {
    std::vector<double> values;
    for (const RepResult& rep : reps_) {
      values.push_back(rep.*field);
    }
    return values;
  }

  // Counts one run's inputs and holds its digest to the first run's.
  void Record(const RepResult& rep, const char* what) {
    last_ = rep;
    ops_.attempted += options_.num_inputs;
    if (!digest_.has_value()) {
      digest_ = rep.digest;
    } else if (rep.digest != *digest_) {
      ops_.failed += options_.num_inputs;
      errors_.push_back(std::string("decision digest differs between ") + what);
    }
  }

  Report Base() const {
    Report report;
    for (const std::string& error : errors_) {
      report.Fail(error);
    }
    report.ops = ops_;
    report.digest = Hex(digest_.value_or(0));
    return report;
  }

  const RunContext& ctx_;
  ExperimentOptions options_;
  Goals goals_;
  std::unique_ptr<Experiment> experiment_;
  std::vector<RepResult> reps_;  // untraced repetitions
  RepResult last_;
  size_t next_cpu_ = 0;
  std::optional<uint64_t> digest_;  // of the first run; every later run must match
  std::vector<std::string> errors_;
  Ops ops_{.what = "inputs"};
};

}  // namespace

std::unique_ptr<Workload> MakeDecideGpu(const RunContext& ctx, uint64_t seed) {
  return std::make_unique<DecideGpu>(ctx, seed);
}

}  // namespace perfbench
