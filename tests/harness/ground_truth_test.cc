// Equivalence plane for the experiment's ground-truth caches: the memoized true
// latencies the Oracle reads and the per-deadline static-run summaries
// FindStaticOracle searches must reproduce, bit for bit, what the uncached
// simulator and a per-setting RunStatic search produce.
#include <algorithm>
#include <cstring>
#include <latch>
#include <limits>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/baselines/oracle.h"
#include "src/core/decision_engine.h"
#include "src/harness/constraint_grid.h"
#include "src/harness/schemes.h"
#include "src/harness/static_oracle.h"

namespace alert {
namespace {

template <typename T>
bool SameBits(const T& a, const T& b) {
  return std::memcmp(&a, &b, sizeof(T)) == 0;
}

void ExpectSameMeasurement(const Measurement& a, const Measurement& b,
                           const std::string& where) {
  EXPECT_TRUE(SameBits(a.latency, b.latency)) << where;
  EXPECT_TRUE(SameBits(a.period, b.period)) << where;
  EXPECT_TRUE(SameBits(a.energy, b.energy)) << where;
  EXPECT_TRUE(SameBits(a.inference_power, b.inference_power)) << where;
  EXPECT_TRUE(SameBits(a.idle_power, b.idle_power)) << where;
  EXPECT_TRUE(SameBits(a.accuracy, b.accuracy)) << where;
  EXPECT_TRUE(SameBits(a.deadline_met, b.deadline_met)) << where;
  EXPECT_TRUE(SameBits(a.delivered_stage, b.delivered_stage)) << where;
  EXPECT_TRUE(SameBits(a.xi_anchor_time, b.xi_anchor_time)) << where;
  EXPECT_TRUE(SameBits(a.xi_anchor_fraction, b.xi_anchor_fraction)) << where;
  EXPECT_TRUE(SameBits(a.xi_censored, b.xi_censored)) << where;
  EXPECT_TRUE(SameBits(a.deadline, b.deadline)) << where;
}

void ExpectSameRunResult(const RunResult& a, const RunResult& b, const std::string& where) {
  EXPECT_EQ(a.scheme, b.scheme) << where;
  EXPECT_EQ(a.num_inputs, b.num_inputs) << where;
  EXPECT_TRUE(SameBits(a.avg_energy, b.avg_energy)) << where;
  EXPECT_TRUE(SameBits(a.avg_accuracy, b.avg_accuracy)) << where;
  EXPECT_TRUE(SameBits(a.avg_error, b.avg_error)) << where;
  EXPECT_TRUE(SameBits(a.avg_perplexity, b.avg_perplexity)) << where;
  EXPECT_TRUE(SameBits(a.avg_latency, b.avg_latency)) << where;
  EXPECT_TRUE(SameBits(a.violation_fraction, b.violation_fraction)) << where;
  EXPECT_TRUE(SameBits(a.deadline_miss_fraction, b.deadline_miss_fraction)) << where;
  EXPECT_EQ(a.records.size(), b.records.size()) << where;
}

void ExpectSameStaticOracle(const StaticOracleResult& a, const StaticOracleResult& b,
                            const std::string& where) {
  EXPECT_EQ(a.config.candidate, b.config.candidate) << where;
  EXPECT_EQ(a.config.power_index, b.config.power_index) << where;
  EXPECT_EQ(a.feasible, b.feasible) << where;
  ExpectSameRunResult(a.result, b.result, where);
}

struct ExperimentCase {
  TaskId task;
  PlatformId platform;
  ContentionType contention;
};

// Image experiments on every platform plus a sentence experiment, whose shared
// per-sentence deadline budget makes each input's deadline history-dependent.
const std::vector<ExperimentCase>& Cases() {
  static const std::vector<ExperimentCase> cases = {
      {TaskId::kImageClassification, PlatformId::kCpu1, ContentionType::kCompute},
      {TaskId::kImageClassification, PlatformId::kCpu2, ContentionType::kMemory},
      {TaskId::kImageClassification, PlatformId::kGpu, ContentionType::kMemory},
      {TaskId::kSentencePrediction, PlatformId::kCpu1, ContentionType::kCompute},
  };
  return cases;
}

std::unique_ptr<Experiment> MakeExperiment(const ExperimentCase& c, int num_inputs) {
  ExperimentOptions options;
  options.num_inputs = num_inputs;
  options.seed = 3;
  return std::make_unique<Experiment>(c.task, c.platform, c.contention, options);
}

std::string Describe(const Experiment& ex) {
  return std::string(TaskName(ex.task())) + "/" + ex.platform().name;
}

// The grid's distinct deadlines (6 per cell).
std::vector<Seconds> GridDeadlines(const Experiment& ex) {
  std::set<Seconds> deadlines;
  for (const Goals& g :
       BuildConstraintGrid(GoalMode::kMinimizeEnergy, ex.task(), ex.platform().id)) {
    deadlines.insert(g.deadline);
  }
  return {deadlines.begin(), deadlines.end()};
}

// Both modes' 36 settings, plus one latency-minimization goal: its violation rule has
// no deadline clause, so it needs the summaries' late-delivery counts.
std::vector<Goals> AllSettings(const Experiment& ex) {
  std::vector<Goals> settings =
      BuildConstraintGrid(GoalMode::kMinimizeEnergy, ex.task(), ex.platform().id);
  const std::vector<Goals> accuracy =
      BuildConstraintGrid(GoalMode::kMaximizeAccuracy, ex.task(), ex.platform().id);
  settings.insert(settings.end(), accuracy.begin(), accuracy.end());
  Goals latency;
  latency.mode = GoalMode::kMinimizeLatency;
  latency.deadline = settings[7].deadline;
  latency.accuracy_goal = settings[7].accuracy_goal;
  latency.energy_budget = accuracy[20].energy_budget;
  settings.push_back(latency);
  return settings;
}

// The per-setting search FindStaticOracle replaced: RunStatic of every configuration
// under these goals, same enumeration order, same selection rule.
StaticOracleResult BruteForceStaticOracle(const Experiment& ex, const Stack& stack,
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

TEST(GroundTruthTest, TrueLatencyTableIsBitEqualToTrueLatency) {
  for (const ExperimentCase& c : Cases()) {
    const auto ex = MakeExperiment(c, 120);
    const Stack& stack = ex->stack(DnnSetChoice::kBoth);
    const ConfigSpace& space = stack.space();
    const PlatformSimulator& sim = stack.simulator();
    const TrueLatencyTable& table = ex->TrueLatencies(stack);
    EXPECT_EQ(&table, &ex->TrueLatencies(stack)) << "built once";
    ASSERT_EQ(table.num_inputs(), ex->trace().num_inputs());
    ASSERT_EQ(table.num_models(), space.num_models());
    ASSERT_EQ(table.num_powers(), space.num_powers());
    for (int n = 0; n < table.num_inputs(); ++n) {
      const ExecutionContext& ctx = ex->trace().inputs[static_cast<size_t>(n)];
      for (int m = 0; m < space.num_models(); ++m) {
        for (int p = 0; p < space.num_powers(); ++p) {
          const Seconds expected = sim.TrueLatency(m, space.cap(p), ctx);
          ASSERT_TRUE(SameBits(table.at(n, m, p), expected))
              << Describe(*ex) << " input " << n << " model " << m << " power " << p;
        }
      }
    }
  }
}

TEST(GroundTruthTest, ExecuteIsTheTailOverTheTable) {
  for (const ExperimentCase& c : Cases()) {
    const auto ex = MakeExperiment(c, 120);
    const Stack& stack = ex->stack(DnnSetChoice::kBoth);
    const ConfigSpace& space = stack.space();
    const PlatformSimulator& sim = stack.simulator();
    const TrueLatencyTable& table = ex->TrueLatencies(stack);
    const std::vector<Seconds> deadlines = GridDeadlines(*ex);
    ASSERT_EQ(deadlines.size(), 6u);
    for (const Seconds deadline : deadlines) {
      for (int ci = 0; ci < space.num_candidates(); ++ci) {
        for (int pi = 0; pi < space.num_powers(); ++pi) {
          SchedulingDecision d;
          d.candidate = space.candidate(ci);
          d.power_index = pi;
          d.power_cap = space.cap(pi);
          for (int n = 0; n < ex->trace().num_inputs(); ++n) {
            const ExecutionContext& ctx = ex->trace().inputs[static_cast<size_t>(n)];
            const ExecRequest request =
                d.ToExecRequest(InferenceRequest{n, deadline, deadline});
            const Measurement tail = sim.ExecuteWithLatency(
                request, ctx, table.at(n, d.candidate.model_index, pi));
            ExpectSameMeasurement(sim.Execute(request, ctx), tail,
                                  Describe(*ex) + " candidate " + std::to_string(ci) +
                                      " power " + std::to_string(pi) + " input " +
                                      std::to_string(n));
            if (HasFailure()) {
              return;
            }
          }
        }
      }
    }
  }
}

TEST(GroundTruthTest, StaticOracleMatchesPerSettingRunStaticSearch) {
  for (const ExperimentCase& c : Cases()) {
    const auto ex = MakeExperiment(c, 120);
    const Stack& stack = ex->stack(DnnSetChoice::kBoth);
    std::vector<Goals> settings = AllSettings(*ex);
    ASSERT_EQ(settings.size(), 73u);
    // Shuffled so that summaries are built and re-read in no particular order, with
    // both goal modes interleaved on one experiment.
    std::shuffle(settings.begin(), settings.end(), std::mt19937(11));
    for (size_t i = 0; i < settings.size(); ++i) {
      const Goals& goals = settings[i];
      const std::string where = Describe(*ex) + " setting " + std::to_string(i) +
                                " mode " + std::string(GoalModeName(goals.mode));
      ExpectSameStaticOracle(FindStaticOracle(*ex, stack, goals),
                             BruteForceStaticOracle(*ex, stack, goals), where);
      if (HasFailure()) {
        return;
      }
    }
  }
}

TEST(GroundTruthTest, StaticRunSummaryReproducesEveryRunStatic) {
  // Stronger than the search: every configuration's summary, not only the winner,
  // yields RunStatic's RunResult.
  const auto ex = MakeExperiment(Cases().back(), 80);
  const Stack& stack = ex->stack(DnnSetChoice::kBoth);
  const std::vector<Goals> settings = AllSettings(*ex);
  for (const size_t index : {size_t{0}, size_t{17}, size_t{40}, settings.size() - 1}) {
    const Goals& goals = settings[index];
    const auto runs = ex->StaticRuns(stack, goals.deadline);
    ASSERT_EQ(static_cast<int>(runs.size()), stack.space().num_configurations());
    for (const StaticRunSummary& run : runs) {
      ExpectSameRunResult(run.ResultFor(goals), ex->RunStatic(stack, run.config, goals),
                          "setting " + std::to_string(index));
    }
  }
}

TEST(GroundTruthTest, OracleFromMakeSchedulerMatchesDirectOracle) {
  for (const ExperimentCase& c : Cases()) {
    const auto ex = MakeExperiment(c, 120);
    const Stack& stack = ex->stack(SchemeDnnSet(SchemeId::kOracle));
    const std::vector<Goals> settings = AllSettings(*ex);
    for (const size_t index : {size_t{0}, size_t{14}, size_t{35}, size_t{36}, size_t{50},
                               size_t{71}, settings.size() - 1}) {
      const Goals& goals = settings[index];
      const auto memoized = MakeScheduler(SchemeId::kOracle, *ex, goals);
      OracleScheduler direct(stack.space(), goals, ex->trace().inputs);
      const RunResult a = ex->Run(stack, *memoized, goals, /*keep_records=*/true);
      const RunResult b = ex->Run(stack, direct, goals, /*keep_records=*/true);
      const std::string where = Describe(*ex) + " setting " + std::to_string(index);
      ExpectSameRunResult(a, b, where);
      ASSERT_EQ(a.records.size(), b.records.size());
      for (size_t n = 0; n < a.records.size(); ++n) {
        const SchedulingDecision& da = a.records[n].decision;
        const SchedulingDecision& db = b.records[n].decision;
        ASSERT_EQ(da.candidate, db.candidate) << where << " input " << n;
        ASSERT_EQ(da.power_index, db.power_index) << where << " input " << n;
        ASSERT_TRUE(SameBits(da.power_cap, db.power_cap)) << where << " input " << n;
        ExpectSameMeasurement(a.records[n].measurement, b.records[n].measurement,
                              where + " input " + std::to_string(n));
      }
    }
  }
}

TEST(GroundTruthDeathTest, RejectsAStackFromAnotherExperiment) {
  const auto a = MakeExperiment(Cases().front(), 20);
  const auto b = MakeExperiment(Cases().front(), 20);
  const Goals goals = AllSettings(*a).front();
  EXPECT_DEATH(FindStaticOracle(*a, b->stack(DnnSetChoice::kBoth), goals),
               "stacks_\\[index\\].get\\(\\) == &stack");
  EXPECT_DEATH(a->TrueLatencies(b->stack(DnnSetChoice::kBoth)),
               "stacks_\\[index\\].get\\(\\) == &stack");
}

// Eight threads race to build and read one experiment's caches — overlapping
// deadlines, static searches interleaved with Oracle runs — and must reproduce the
// serial results exactly.  Run under ThreadSanitizer in CI.
TEST(GroundTruthConcurrencyTest, ConcurrentReadersGetTheSerialResults) {
  const ExperimentCase c{TaskId::kImageClassification, PlatformId::kGpu,
                         ContentionType::kCompute};
  const auto serial_ex = MakeExperiment(c, 60);
  const auto shared_ex = MakeExperiment(c, 60);
  const std::vector<Goals> all = AllSettings(*serial_ex);
  // Two settings per grid deadline in each mode, so every deadline is contended.
  std::vector<Goals> settings;
  for (size_t i = 0; i < all.size(); i += 3) {
    settings.push_back(all[i]);
  }

  struct Outcome {
    StaticOracleResult static_best;
    RunResult oracle_run;
  };
  const auto evaluate = [](const Experiment& ex, const Goals& goals) {
    Outcome out;
    out.static_best = FindStaticOracle(ex, ex.stack(DnnSetChoice::kBoth), goals);
    const auto oracle = MakeScheduler(SchemeId::kOracle, ex, goals);
    out.oracle_run = ex.Run(ex.stack(SchemeDnnSet(SchemeId::kOracle)), *oracle, goals);
    return out;
  };
  std::vector<Outcome> serial;
  for (const Goals& goals : settings) {
    serial.push_back(evaluate(*serial_ex, goals));
  }

  constexpr int kThreads = 8;
  std::vector<std::vector<Outcome>> concurrent(kThreads);
  std::latch start(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      start.arrive_and_wait();
      // Each thread walks the settings from a different offset.
      std::vector<Outcome>& out = concurrent[static_cast<size_t>(t)];
      out.resize(settings.size());
      for (size_t k = 0; k < settings.size(); ++k) {
        const size_t i = (k + static_cast<size_t>(t) * 3) % settings.size();
        out[i] = evaluate(*shared_ex, settings[i]);
      }
    });
  }
  for (std::thread& th : threads) {
    th.join();
  }
  for (int t = 0; t < kThreads; ++t) {
    for (size_t i = 0; i < settings.size(); ++i) {
      const std::string where =
          "thread " + std::to_string(t) + " setting " + std::to_string(i);
      const Outcome& got = concurrent[static_cast<size_t>(t)][i];
      ExpectSameStaticOracle(got.static_best, serial[i].static_best, where);
      ExpectSameRunResult(got.oracle_run, serial[i].oracle_run, where);
    }
  }
}

}  // namespace
}  // namespace alert
