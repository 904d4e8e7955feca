// Section 4's overhead claim: ALERT's scheduler computation costs 0.6-1.7% of an
// input inference.  Times the per-input work — one Decide() (scores every candidate x
// power configuration) plus one Observe() (two Kalman updates) — on each evaluation
// platform's configuration space, and derives per platform
//
//   overhead_headroom_<platform> = 1.7% / ((Decide + Observe) / one inference)
//
// where one inference is the largest anytime DNN's mean latency at the default power
// setting (BaseDeadline).  A headroom >= 1 means the measured overhead is within the
// paper's bound; the committed baseline (bench/trajectory/BENCH_overhead.json)
// floors every platform at 1.0.  The filter-update and single-estimate cases are
// informational.
#include <string>
#include <vector>

#include "bench/bench_harness.h"
#include "src/common/simd.h"
#include "src/core/alert_scheduler.h"
#include "src/core/decision_engine.h"
#include "src/dnn/zoo.h"
#include "src/estimator/adaptive_kalman.h"
#include "src/harness/constraint_grid.h"
#include "src/sim/platform.h"

namespace alert {
namespace {

constexpr TaskId kTask = TaskId::kImageClassification;
constexpr double kPaperOverheadBound = 0.017;  // Section 4: at most 1.7%

struct Fixture {
  explicit Fixture(PlatformId platform)
      : models(BuildEvaluationSet(kTask, DnnSetChoice::kBoth)),
        sim(GetPlatform(platform), models), space(sim), engine(space) {
    goals.mode = GoalMode::kMinimizeEnergy;
    goals.deadline = 1.25 * BaseDeadline(kTask, platform);
    goals.accuracy_goal = 0.9;
  }
  std::vector<DnnModel> models;
  PlatformSimulator sim;
  ConfigSpace space;
  DecisionEngine engine;
  Goals goals;
};

Measurement ObservedInference() {
  Measurement m;
  m.latency = 0.05;
  m.period = 0.08;
  m.inference_power = 30.0;
  m.idle_power = 6.0;
  m.xi_anchor_time = 0.05;
  m.xi_anchor_fraction = 1.0;
  return m;
}

}  // namespace

int Main(int argc, char** argv) {
  bench::Harness h("overhead", argc, argv);
  h.Context("simd_backend", std::string(simd::BackendName(simd::CompiledBackend())));

  const struct {
    PlatformId id;
    const char* name;
  } platforms[] = {{PlatformId::kCpu1, "cpu1"},
                   {PlatformId::kCpu2, "cpu2"},
                   {PlatformId::kGpu, "gpu"}};
  for (const auto& platform : platforms) {
    const Fixture f(platform.id);
    const std::string suffix = platform.name;
    h.Context("simd_active", f.engine.simd_active());
    h.Context("configs_" + suffix, static_cast<double>(f.space.num_configurations()));
    const double inference_ns = 1e9 * BaseDeadline(kTask, platform.id);
    h.Context("inference_us_" + suffix, 1e-3 * inference_ns);

    AlertScheduler decider(f.engine, f.goals);
    InferenceRequest request;
    request.input_index = 0;
    request.deadline = f.goals.deadline;
    request.period = f.goals.deadline;
    const double decide_ns = h.RunCase("decide_" + suffix, [&] {
      bench::DoNotOptimize(decider.Decide(request).power_index);
    });

    AlertScheduler observer(f.engine, f.goals);
    SchedulingDecision decision;
    decision.candidate = f.space.candidate(0);
    decision.power_index = 0;
    decision.power_cap = f.space.cap(0);
    const Measurement measurement = ObservedInference();
    const double observe_ns = h.RunCase("observe_" + suffix, [&] {
      observer.Observe(decision, measurement);
    });

    const double overhead = (decide_ns + observe_ns) / inference_ns;
    h.Derive("overhead_headroom_" + suffix, kPaperOverheadBound / overhead);
  }

  AdaptiveKalmanFilter filter;
  double x = 1.0;
  h.RunCase("adaptive_kalman_update", [&] {
    filter.Update(x);
    x = x < 1.5 ? x + 1e-4 : 1.0;
    bench::DoNotOptimize(filter.mean());
  });

  const Fixture cpu1(PlatformId::kCpu1);
  AlertScheduler estimator(cpu1.engine, cpu1.goals);
  const Configuration config{cpu1.space.candidate(5), 4};
  const Seconds deadline = cpu1.goals.deadline;
  h.RunCase("config_estimate", [&] {
    bench::DoNotOptimize(
        estimator.Estimate(config, deadline, deadline).expected_energy);
  });
  return h.Finish();
}

}  // namespace alert

int main(int argc, char** argv) { return alert::Main(argc, argv); }
