// Static-oracle search benchmark: every one of a Table 4 GPU cell's 72 constraint
// settings (36 per goal mode) searched for its best static configuration, on one
// freshly built Experiment per operation.
//
//   per_setting  — the search without the experiment's static-run cache: RunStatic of
//                  every configuration, for every setting (72 full-space replays).
//   cached       — FindStaticOracle, which replays every configuration once per
//                  distinct deadline (6 here) and answers each setting from those
//                  summaries.
//
// Both cases build their Experiment inside the timed operation (from a captured
// profile, so neither pays profiling), because the cache lives in the Experiment:
// a shared one would make every operation after the first a pure cache read.  The
// derived `static_oracle_search_speedup` (per_setting / cached) feeds the
// perf-trajectory gate: if the search ever goes back to replaying the space per
// setting, the ratio collapses toward 1 and the gate fails.
#include <cstdio>
#include <limits>
#include <utility>
#include <vector>

#include "bench/bench_harness.h"
#include "src/core/decision_engine.h"
#include "src/harness/constraint_grid.h"
#include "src/harness/static_oracle.h"

namespace alert {
namespace {

constexpr TaskId kTask = TaskId::kImageClassification;
constexpr PlatformId kPlatform = PlatformId::kGpu;
constexpr ContentionType kContention = ContentionType::kMemory;

ExperimentOptions BenchOptions() {
  ExperimentOptions options;
  options.num_inputs = 300;  // the Table 4 trace length
  options.seed = 1;
  return options;
}

// The bench-local per-setting search: RunStatic of every configuration under these
// goals, with FindStaticOracle's selection rule.
StaticOracleResult PerSettingSearch(const Experiment& ex, const Stack& stack,
                                    const Goals& goals) {
  const ConfigSpace& space = stack.space();
  StaticOracleResult best;
  bool have_any = false;
  double best_objective = std::numeric_limits<double>::infinity();
  double best_violation = std::numeric_limits<double>::infinity();
  for (int ci = 0; ci < space.num_candidates(); ++ci) {
    for (int pi = 0; pi < space.num_powers(); ++pi) {
      const Configuration config{space.candidate(ci), pi};
      RunResult r = ex.RunStatic(stack, config, goals);
      const bool admissible = !SettingViolated(goals, r);
      const double objective =
          GoalObjective(goals.mode, r.avg_energy, r.avg_error, r.avg_latency);
      bool better = false;
      if (admissible) {
        better = !best.feasible || objective < best_objective;
      } else if (!best.feasible) {
        better = !have_any || r.violation_fraction < best_violation ||
                 (r.violation_fraction == best_violation && objective < best_objective);
      }
      if (better) {
        best.config = config;
        best.result = std::move(r);
        best.feasible = admissible;
        best_objective = objective;
        best_violation = best.result.violation_fraction;
        have_any = true;
      }
    }
  }
  return best;
}

}  // namespace

int Main(int argc, char** argv) {
  bench::Harness h("oracle", argc, argv);

  std::vector<Goals> settings =
      BuildConstraintGrid(GoalMode::kMinimizeEnergy, kTask, kPlatform);
  const std::vector<Goals> accuracy =
      BuildConstraintGrid(GoalMode::kMaximizeAccuracy, kTask, kPlatform);
  settings.insert(settings.end(), accuracy.begin(), accuracy.end());

  ProfileSnapshotStore profiles;
  {
    const Experiment profiled(kTask, kPlatform, kContention, BenchOptions());
    for (const DnnSetChoice choice : {DnnSetChoice::kTraditionalOnly,
                                      DnnSetChoice::kAnytimeOnly, DnnSetChoice::kBoth}) {
      profiles.Put(kTask, kPlatform, BenchOptions().seed, choice,
                   CaptureProfileSnapshot(profiled.stack(choice).space()));
    }
    const Stack& stack = profiled.stack(DnnSetChoice::kBoth);
    h.Context("settings", static_cast<double>(settings.size()));
    h.Context("configurations", static_cast<double>(stack.space().num_configurations()));
    h.Context("inputs", static_cast<double>(BenchOptions().num_inputs));
  }

  // Both searches must agree before either is timed.
  {
    const Experiment ex(kTask, kPlatform, kContention, BenchOptions(), &profiles);
    const Stack& stack = ex.stack(DnnSetChoice::kBoth);
    for (const Goals& goals : settings) {
      const StaticOracleResult a = PerSettingSearch(ex, stack, goals);
      const StaticOracleResult b = FindStaticOracle(ex, stack, goals);
      if (!(a.config.candidate == b.config.candidate) ||
          a.config.power_index != b.config.power_index || a.feasible != b.feasible ||
          a.result.avg_energy != b.result.avg_energy ||
          a.result.violation_fraction != b.result.violation_fraction) {
        std::fprintf(stderr, "bench_oracle: searches disagree\n");
        return 1;
      }
    }
  }

  const auto run_all = [&](bool cached) {
    const Experiment ex(kTask, kPlatform, kContention, BenchOptions(), &profiles);
    const Stack& stack = ex.stack(DnnSetChoice::kBoth);
    for (const Goals& goals : settings) {
      const StaticOracleResult best = cached ? FindStaticOracle(ex, stack, goals)
                                             : PerSettingSearch(ex, stack, goals);
      bench::DoNotOptimize(best.result.avg_energy);
    }
  };
  const double per_setting_ns =
      h.RunCase("static_oracle_per_setting_72", [&] { run_all(false); });
  const double cached_ns = h.RunCase("static_oracle_cached_72", [&] { run_all(true); });
  h.Derive("static_oracle_search_speedup", per_setting_ns / cached_ns);
  return h.Finish();
}

}  // namespace alert

int main(int argc, char** argv) { return alert::Main(argc, argv); }
