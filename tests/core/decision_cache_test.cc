// Cache-equivalence suite for src/core/decision_cache.h: exact-match caching must be
// bit-identical to uncached decisions — across goal modes, randomized belief-drift
// trajectories, and full harness runs of every ALERT scheme variant — plus LRU
// eviction/invalidation unit tests, a bounded score-gap check for bucketed mode, and
// a concurrency smoke test on the const scoring plane.  All randomness is
// seed-deterministic (std::mt19937_64 with fixed seeds); there is no time- or
// address-dependent input anywhere.
#include "src/core/decision_cache.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <random>
#include <thread>
#include <vector>

#include "src/core/alert_scheduler.h"
#include "src/dnn/zoo.h"
#include "src/harness/constraint_grid.h"
#include "src/harness/experiment.h"
#include "src/sim/platform.h"

namespace alert {
namespace {

constexpr Watts kInf = 1e18;

void ExpectSameSelection(const DecisionEngine::Selection& a,
                         const DecisionEngine::Selection& b, int step) {
  EXPECT_EQ(a.candidate_index, b.candidate_index) << "step " << step;
  EXPECT_EQ(a.power_index, b.power_index) << "step " << step;
  EXPECT_EQ(a.feasible, b.feasible) << "step " << step;
}

class DecisionCacheTest : public ::testing::Test {
 protected:
  DecisionCacheTest()
      : models_(BuildEvaluationSet(TaskId::kImageClassification, DnnSetChoice::kBoth)),
        sim_(GetPlatform(PlatformId::kCpu1), models_), space_(sim_), engine_(space_) {}

  static DecisionCachePolicy ExactPolicy(size_t capacity = 4096) {
    DecisionCachePolicy policy;
    policy.mode = DecisionCacheMode::kExact;
    policy.capacity = capacity;
    return policy;
  }

  DecisionInputs BaseInputs() const {
    DecisionInputs in;
    in.xi = XiBelief{1.1, 0.12};
    in.deadline = 0.08;
    in.period = 0.08;
    in.use_idle_ratio = true;
    in.idle_ratio = 0.22;
    return in;
  }

  // A belief-drift trajectory: a slow random walk that frequently *revisits* a
  // recently seen belief exactly — the converged-fleet shape that makes exact-match
  // caching pay off at all.
  std::vector<DecisionInputs> DriftTrajectory(uint64_t seed, int steps) const {
    std::mt19937_64 rng(seed);
    std::uniform_real_distribution<double> drift(-0.02, 0.02);
    std::uniform_real_distribution<double> unit(0.0, 1.0);
    std::vector<DecisionInputs> trajectory;
    DecisionInputs in = BaseInputs();
    for (int i = 0; i < steps; ++i) {
      if (!trajectory.empty() && unit(rng) < 0.5) {
        // Revisit one of the last few beliefs bit-exactly.
        const size_t back = 1 + static_cast<size_t>(unit(rng) * 3.0);
        trajectory.push_back(
            trajectory[trajectory.size() - std::min(back, trajectory.size())]);
        continue;
      }
      in.xi.mean = std::clamp(in.xi.mean + drift(rng), 0.8, 2.0);
      in.xi.stddev = std::clamp(in.xi.stddev + 0.5 * drift(rng), 0.0, 0.5);
      trajectory.push_back(in);
    }
    return trajectory;
  }

  Goals GoalsFor(GoalMode mode) const {
    Goals goals;
    goals.mode = mode;
    goals.deadline = 0.08;
    goals.accuracy_goal = 0.9;
    goals.energy_budget = 2.0;
    return goals;
  }

  std::vector<DnnModel> models_;
  PlatformSimulator sim_;
  ConfigSpace space_;
  DecisionEngine engine_;
};

// --- exact mode: bit-identical to uncached ------------------------------------------

TEST_F(DecisionCacheTest, ExactModeMatchesUncachedAcrossGoalModesAndDrifts) {
  for (const GoalMode mode : {GoalMode::kMinimizeEnergy, GoalMode::kMaximizeAccuracy,
                              GoalMode::kMinimizeLatency}) {
    for (const double pr_th : {0.0, 0.9}) {
      Goals goals = GoalsFor(mode);
      goals.prob_threshold = pr_th;
      DecisionCache cache(engine_, ExactPolicy());
      DecisionEngine::SelectScratch cached_scratch;
      DecisionEngine::SelectScratch plain_scratch;
      const auto trajectory =
          DriftTrajectory(100 + static_cast<uint64_t>(mode) * 7 +
                              static_cast<uint64_t>(pr_th > 0.0),
                          400);
      for (size_t i = 0; i < trajectory.size(); ++i) {
        const Watts limit = (i % 3 == 0) ? kInf : 30.0 + static_cast<double>(i % 5);
        const DecisionEngine::Selection cached = cache.Select(
            goals, goals.energy_budget, trajectory[i], limit, cached_scratch);
        const DecisionEngine::Selection plain = engine_.SelectBest(
            goals, goals.energy_budget, trajectory[i], limit, plain_scratch);
        ExpectSameSelection(cached, plain, static_cast<int>(i));
      }
      // The trajectory revisits beliefs, so the cache must actually be used.
      EXPECT_GT(cache.stats().hits, 0u) << GoalModeName(mode);
      EXPECT_GT(cache.stats().misses, 0u) << GoalModeName(mode);
    }
  }
}

TEST_F(DecisionCacheTest, SchedulerRunsAreBitIdenticalAcrossAlertSchemes) {
  // Full harness runs: an AlertScheduler with the exact-match cache must reproduce
  // the uncached run decision-for-decision for every ALERT variant (full / anytime /
  // traditional candidate sets, mean-only ALERT*, WCET hard-guarantee, paced budget).
  struct Variant {
    const char* name;
    DnnSetChoice choice;
    bool use_variance;
    int wcet_window;
    bool pace;
    GoalMode mode;
  };
  const Variant variants[] = {
      {"ALERT", DnnSetChoice::kBoth, true, 0, false, GoalMode::kMinimizeEnergy},
      {"ALERT-Any", DnnSetChoice::kAnytimeOnly, true, 0, false,
       GoalMode::kMinimizeEnergy},
      {"ALERT-Trad", DnnSetChoice::kTraditionalOnly, true, 0, false,
       GoalMode::kMinimizeEnergy},
      {"ALERT*", DnnSetChoice::kBoth, false, 0, false, GoalMode::kMaximizeAccuracy},
      {"ALERT-WCET", DnnSetChoice::kBoth, true, 16, false, GoalMode::kMinimizeEnergy},
      {"ALERT-paced", DnnSetChoice::kBoth, true, 0, true, GoalMode::kMaximizeAccuracy},
  };

  ExperimentOptions options;
  options.num_inputs = 120;
  options.seed = 7;
  const Experiment experiment(TaskId::kImageClassification, PlatformId::kCpu1,
                              ContentionType::kMemory, options);

  for (const Variant& v : variants) {
    const Stack& stack = experiment.stack(v.choice);
    Goals goals;
    goals.mode = v.mode;
    goals.deadline = 1.25 * BaseDeadline(TaskId::kImageClassification, PlatformId::kCpu1);
    goals.accuracy_goal = AccuracyGoalsFor(TaskId::kImageClassification)[2];
    goals.energy_budget =
        0.8 * (experiment.platform().cap_max + experiment.platform().base_power) *
        goals.deadline;

    AlertOptions base;
    base.use_variance = v.use_variance;
    base.wcet_window = v.wcet_window;
    base.pace_energy_budget = v.pace;
    AlertOptions with_cache = base;
    with_cache.decision_cache = ExactPolicy();

    AlertScheduler plain(stack.engine(), goals, base);
    AlertScheduler cached(stack.engine(), goals, with_cache);
    const RunResult plain_run = experiment.Run(stack, plain, goals, /*keep=*/true);
    const RunResult cached_run = experiment.Run(stack, cached, goals, /*keep=*/true);

    EXPECT_EQ(plain_run.avg_energy, cached_run.avg_energy) << v.name;
    EXPECT_EQ(plain_run.avg_accuracy, cached_run.avg_accuracy) << v.name;
    EXPECT_EQ(plain_run.avg_latency, cached_run.avg_latency) << v.name;
    EXPECT_EQ(plain_run.violation_fraction, cached_run.violation_fraction) << v.name;
    ASSERT_EQ(plain_run.records.size(), cached_run.records.size()) << v.name;
    for (size_t i = 0; i < plain_run.records.size(); ++i) {
      EXPECT_EQ(plain_run.records[i].decision.candidate,
                cached_run.records[i].decision.candidate)
          << v.name << " input " << i;
      EXPECT_EQ(plain_run.records[i].decision.power_index,
                cached_run.records[i].decision.power_index)
          << v.name << " input " << i;
    }
    ASSERT_NE(cached.decision_cache(), nullptr);
    EXPECT_EQ(cached.decision_cache()->stats().hits +
                  cached.decision_cache()->stats().misses,
              static_cast<uint64_t>(options.num_inputs))
        << v.name;
  }
}

TEST_F(DecisionCacheTest, ConvergedBeliefHitsInBucketedMode) {
  // The live Kalman filter updates mean and stddev on *every* input, so bit-exact
  // repeats essentially never happen in a real run — exact mode is the verification
  // mode.  Once the belief has converged, though, consecutive beliefs land in the
  // same quantization bucket, which is where the hit rate (and the hot-path win)
  // comes from.
  ExperimentOptions options;
  options.num_inputs = 200;
  options.seed = 3;
  const Experiment experiment(TaskId::kImageClassification, PlatformId::kCpu1,
                              ContentionType::kNone, options);
  const Stack& stack = experiment.stack(DnnSetChoice::kBoth);
  Goals goals;
  goals.mode = GoalMode::kMinimizeEnergy;
  goals.deadline = 1.25 * BaseDeadline(TaskId::kImageClassification, PlatformId::kCpu1);
  goals.accuracy_goal = AccuracyGoalsFor(TaskId::kImageClassification)[2];

  AlertOptions with_cache;
  with_cache.decision_cache.mode = DecisionCacheMode::kBucketed;
  with_cache.decision_cache.xi_mean_step = 0.01;
  with_cache.decision_cache.xi_stddev_step = 0.01;
  AlertScheduler cached(stack.engine(), goals, with_cache);
  (void)experiment.Run(stack, cached, goals);
  ASSERT_NE(cached.decision_cache(), nullptr);
  EXPECT_GT(cached.decision_cache()->stats().hits, 0u);
  // Deterministic trace: measured 0.265 with 0.01-wide buckets over 200 inputs.
  EXPECT_GT(cached.decision_cache()->stats().hit_rate(), 0.2);
}

// --- bucketed mode ------------------------------------------------------------------

TEST_F(DecisionCacheTest, BucketedModeHitsMoreAndStaysWithinScoreGapTolerance) {
  // Bucketed mode may return the selection of a *nearby* belief.  The contract is a
  // bounded objective gap: scoring the cached choice under the true inputs must come
  // within a small tolerance of the true optimum's objective.
  DecisionCachePolicy policy;
  policy.mode = DecisionCacheMode::kBucketed;
  policy.xi_mean_step = 0.01;
  policy.xi_stddev_step = 0.01;
  policy.capacity = 4096;
  DecisionCache cache(engine_, policy);

  const Goals goals = GoalsFor(GoalMode::kMinimizeEnergy);
  DecisionEngine::SelectScratch cached_scratch;
  DecisionEngine::SelectScratch plain_scratch;

  std::mt19937_64 rng(42);
  std::uniform_real_distribution<double> drift(-0.003, 0.003);
  DecisionInputs in = BaseInputs();
  int compared = 0;
  for (int i = 0; i < 500; ++i) {
    in.xi.mean = std::clamp(in.xi.mean + drift(rng), 0.9, 1.6);
    in.xi.stddev = std::clamp(in.xi.stddev + drift(rng), 0.01, 0.4);
    const DecisionEngine::Selection cached =
        cache.Select(goals, goals.energy_budget, in, kInf, cached_scratch);
    const DecisionEngine::Selection plain =
        engine_.SelectBest(goals, goals.energy_budget, in, kInf, plain_scratch);
    if (!(cached.feasible && plain.feasible)) {
      continue;  // fallback decisions have no objective to compare
    }
    ++compared;
    const ConfigScore cached_score =
        engine_.Score(cached.candidate_index, cached.power_index, in);
    const ConfigScore best_score =
        engine_.Score(plain.candidate_index, plain.power_index, in);
    // Energy-minimization objective: the cached choice may not beat the optimum, and
    // must not trail it by more than the bucket-width-induced tolerance.
    EXPECT_GE(cached_score.expected_energy, best_score.expected_energy - 1e-9)
        << "step " << i;
    EXPECT_LE(cached_score.expected_energy,
              best_score.expected_energy * (1.0 + 0.05) + 1e-9)
        << "step " << i;
  }
  EXPECT_GT(compared, 100);
  // The drift steps are far smaller than the bucket width, so bucketed keys must
  // collide — that is the hit-rate advantage over exact mode.
  EXPECT_GT(cache.stats().hits, cache.stats().misses);
}

// --- eviction / invalidation --------------------------------------------------------

TEST_F(DecisionCacheTest, LruEvictsLeastRecentlyUsedAtCapacity) {
  DecisionCache cache(engine_, ExactPolicy(/*capacity=*/2));
  const Goals goals = GoalsFor(GoalMode::kMinimizeEnergy);
  DecisionInputs a = BaseInputs();
  DecisionInputs b = BaseInputs();
  b.xi.mean = 1.2;
  DecisionInputs c = BaseInputs();
  c.xi.mean = 1.3;
  const DecisionEngine::Selection sel{1, 2, true};

  cache.Insert(goals, 1.0, a, kInf, sel);
  cache.Insert(goals, 1.0, b, kInf, sel);
  EXPECT_EQ(cache.size(), 2u);

  // Touch `a` so `b` becomes the LRU victim.
  DecisionEngine::Selection out;
  EXPECT_TRUE(cache.Lookup(goals, 1.0, a, kInf, &out));
  cache.Insert(goals, 1.0, c, kInf, sel);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_TRUE(cache.Lookup(goals, 1.0, a, kInf, &out));
  EXPECT_FALSE(cache.Lookup(goals, 1.0, b, kInf, &out));  // evicted
  EXPECT_TRUE(cache.Lookup(goals, 1.0, c, kInf, &out));
}

TEST_F(DecisionCacheTest, DistinctKeysDoNotAlias) {
  // Every key dimension must separate entries: goals mode, allowance, limit, and
  // each DecisionInputs field the selection reads.
  DecisionCache cache(engine_, ExactPolicy());
  const Goals goals = GoalsFor(GoalMode::kMinimizeEnergy);
  const DecisionInputs base = BaseInputs();
  const DecisionEngine::Selection sel{3, 1, true};
  cache.Insert(goals, 1.0, base, kInf, sel);

  DecisionEngine::Selection out;
  Goals other_mode = goals;
  other_mode.mode = GoalMode::kMaximizeAccuracy;
  EXPECT_FALSE(cache.Lookup(other_mode, 1.0, base, kInf, &out));
  EXPECT_FALSE(cache.Lookup(goals, 2.0, base, kInf, &out));
  EXPECT_FALSE(cache.Lookup(goals, 1.0, base, 30.0, &out));
  DecisionInputs changed = base;
  changed.deadline = 0.09;
  EXPECT_FALSE(cache.Lookup(goals, 1.0, changed, kInf, &out));
  changed = base;
  changed.idle_ratio = 0.3;
  EXPECT_FALSE(cache.Lookup(goals, 1.0, changed, kInf, &out));
  changed = base;
  changed.stop_at_cutoff = false;
  EXPECT_FALSE(cache.Lookup(goals, 1.0, changed, kInf, &out));
  EXPECT_TRUE(cache.Lookup(goals, 1.0, base, kInf, &out));
  EXPECT_EQ(out.candidate_index, sel.candidate_index);
  EXPECT_EQ(out.power_index, sel.power_index);
}

TEST_F(DecisionCacheTest, InvalidateDropsEverythingAndCountsStale) {
  DecisionCache cache(engine_, ExactPolicy());
  const Goals goals = GoalsFor(GoalMode::kMinimizeEnergy);
  DecisionInputs in = BaseInputs();
  const DecisionEngine::Selection sel{0, 0, true};
  for (int i = 0; i < 3; ++i) {
    in.xi.mean = 1.0 + 0.1 * i;
    cache.Insert(goals, 1.0, in, kInf, sel);
  }
  EXPECT_EQ(cache.size(), 3u);
  cache.Invalidate();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.stats().stale, 3u);
  DecisionEngine::Selection out;
  EXPECT_FALSE(cache.Lookup(goals, 1.0, in, kInf, &out));
}

TEST_F(DecisionCacheTest, SetGoalsInvalidatesTheSchedulerCache) {
  AlertOptions options;
  options.decision_cache = ExactPolicy();
  Goals goals = GoalsFor(GoalMode::kMinimizeEnergy);
  AlertScheduler scheduler(engine_, goals, options);
  const InferenceRequest request{0, goals.deadline, goals.deadline};
  (void)scheduler.Decide(request);
  ASSERT_NE(scheduler.decision_cache(), nullptr);
  EXPECT_EQ(scheduler.decision_cache()->size(), 1u);

  goals.accuracy_goal = 0.95;
  scheduler.set_goals(goals);
  EXPECT_EQ(scheduler.decision_cache()->size(), 0u);
  EXPECT_EQ(scheduler.decision_cache()->stats().stale, 1u);
}

// --- concurrency smoke --------------------------------------------------------------

TEST_F(DecisionCacheTest, ManyCachesSharingOneEngineConcurrently) {
  // The cache itself is single-owner, but the scoring plane underneath is const and
  // shared: N threads each drive a private exact-match cache against the same engine
  // and must all reproduce the serial reference decisions.
  const Goals goals = GoalsFor(GoalMode::kMinimizeEnergy);
  const auto trajectory = DriftTrajectory(99, 200);

  std::vector<DecisionEngine::Selection> reference;
  {
    DecisionEngine::SelectScratch scratch;
    for (const DecisionInputs& in : trajectory) {
      reference.push_back(
          engine_.SelectBest(goals, goals.energy_budget, in, kInf, scratch));
    }
  }

  constexpr int kThreads = 4;
  std::vector<int> mismatches(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t]() {
      DecisionCache cache(engine_, ExactPolicy());
      DecisionEngine::SelectScratch scratch;
      for (size_t i = 0; i < trajectory.size(); ++i) {
        const DecisionEngine::Selection got = cache.Select(
            goals, goals.energy_budget, trajectory[i], kInf, scratch);
        if (got.candidate_index != reference[i].candidate_index ||
            got.power_index != reference[i].power_index) {
          ++mismatches[static_cast<size_t>(t)];
        }
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(mismatches[static_cast<size_t>(t)], 0) << "thread " << t;
  }
}

}  // namespace
}  // namespace alert
