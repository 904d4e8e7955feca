// Multi-job decision-plane microbenchmark: ns/round for the historical
// per-scheduler loop (stateful set_power_limit + Decide, two full scans per job when
// the budget binds) vs. the batched plane (one ScoreBatch per family, allocation
// passes re-select from precomputed scores), over a K sweep.
//
// The budget is set to 60% of the jobs' unconstrained desire so the scaling pass
// always runs — the regime coordination exists for.  SharedFamily puts every job on
// one candidate family (the paper's shared-server case); Heterogeneous spreads K
// jobs over six distinct (task, candidate-set) families.  The membership cases time
// one arrival plus one departure at K=64 heterogeneous jobs: rebuilt (every belief
// exported, a fresh coordinator constructed, every belief restored, per change — the
// offline replayer's path) vs. incremental (AddJob + RemoveJobs on live schedulers,
// the daemon's path).  Derived metrics (ratios) feed the perf-trajectory gate — see
// bench/trajectory/.
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_harness.h"
#include "src/common/simd.h"
#include "src/core/alert_scheduler.h"
#include "src/core/config_space.h"
#include "src/core/decision_engine.h"
#include "src/core/multi_job.h"
#include "src/dnn/zoo.h"
#include "src/sim/platform.h"

namespace alert {
namespace {

Goals JobGoals(int j) {
  Goals g;
  g.mode = GoalMode::kMaximizeAccuracy;
  g.deadline = 0.08 * (1.0 + 0.05 * (j % 5));  // staggered deadlines
  g.energy_budget = 1e9;
  return g;
}

// One candidate family and K schedulers over it, plus the coordinator equivalent.
struct SharedFamilyFixture {
  explicit SharedFamilyFixture(int k)
      : models(BuildEvaluationSet(TaskId::kImageClassification, DnnSetChoice::kBoth)),
        sim(GetPlatform(PlatformId::kCpu1), models), space(sim), engine(space) {
    std::vector<JobSpec> specs;
    for (int j = 0; j < k; ++j) {
      const Goals goals = JobGoals(j);
      schedulers.push_back(std::make_unique<AlertScheduler>(engine, goals));
      requests.push_back(InferenceRequest{j, goals.deadline, goals.deadline});
      specs.push_back(JobSpec{"job" + std::to_string(j), &space, goals, {}});
    }
    // 60% of the unconstrained desire: the allocation pass always runs.
    budget = 0.6 * UnconstrainedDesire();
    coordinator = std::make_unique<MultiJobCoordinator>(std::move(specs), budget);
  }

  Watts UnconstrainedDesire() {
    Watts total = 0.0;
    for (size_t j = 0; j < schedulers.size(); ++j) {
      schedulers[j]->set_power_limit(std::numeric_limits<double>::infinity());
      total += schedulers[j]->Decide(requests[j]).power_cap;
    }
    return total;
  }

  std::vector<DnnModel> models;
  PlatformSimulator sim;
  ConfigSpace space;
  DecisionEngine engine;
  std::vector<std::unique_ptr<AlertScheduler>> schedulers;
  std::vector<InferenceRequest> requests;
  std::unique_ptr<MultiJobCoordinator> coordinator;
  Watts budget = 0.0;
};

// The pre-refactor MultiJobCoordinator::DecideRound: stateful limits, one full
// SelectBest scan per job per pass.
void OldStyleRound(std::vector<std::unique_ptr<AlertScheduler>>& schedulers,
                   const std::vector<InferenceRequest>& requests, Watts budget,
                   std::vector<SchedulingDecision>& decisions) {
  decisions.resize(schedulers.size());
  Watts desired_total = 0.0;
  for (size_t j = 0; j < schedulers.size(); ++j) {
    schedulers[j]->set_power_limit(std::numeric_limits<double>::infinity());
    decisions[j] = schedulers[j]->Decide(requests[j]);
    desired_total += decisions[j].power_cap;
  }
  if (desired_total <= budget + 1e-9) {
    return;
  }
  const double scale = budget / desired_total;
  for (size_t j = 0; j < schedulers.size(); ++j) {
    schedulers[j]->set_power_limit(decisions[j].power_cap * scale);
    decisions[j] = schedulers[j]->Decide(requests[j]);
  }
}

double RunPerSchedulerLoop(bench::Harness& h, int k) {
  SharedFamilyFixture f(k);
  std::vector<SchedulingDecision> decisions;
  return h.RunCase("per_scheduler_loop_shared_k" + std::to_string(k), [&] {
    OldStyleRound(f.schedulers, f.requests, f.budget, decisions);
    bench::DoNotOptimize(decisions.data());
  });
}

double RunBatchedRound(bench::Harness& h, int k) {
  SharedFamilyFixture f(k);
  std::vector<SchedulingDecision> decisions;
  f.coordinator->DecideRoundInto(f.requests, &decisions);  // warm the scratch
  return h.RunCase("batched_round_shared_k" + std::to_string(k), [&] {
    f.coordinator->DecideRoundInto(f.requests, &decisions);
    bench::DoNotOptimize(decisions.data());
  });
}

void RunSlackRecycling(bench::Harness& h, int k) {
  SharedFamilyFixture f(k);
  f.coordinator->set_allocation_policy(AllocationPolicy::kSlackRecycling);
  std::vector<SchedulingDecision> decisions;
  f.coordinator->DecideRoundInto(f.requests, &decisions);
  h.RunCase("batched_round_slack_recycling_k" + std::to_string(k), [&] {
    f.coordinator->DecideRoundInto(f.requests, &decisions);
    bench::DoNotOptimize(decisions.data());
  });
}

// K jobs over six distinct (task, candidate-set) families.
struct HeterogeneousFixture {
  explicit HeterogeneousFixture(int k) {
    const TaskId tasks[] = {TaskId::kImageClassification, TaskId::kSentencePrediction};
    const DnnSetChoice sets[] = {DnnSetChoice::kTraditionalOnly,
                                 DnnSetChoice::kAnytimeOnly, DnnSetChoice::kBoth};
    for (const TaskId task : tasks) {
      for (const DnnSetChoice set : sets) {
        auto family = std::make_unique<FamilyStack>();
        family->models = BuildEvaluationSet(task, set);
        family->sim = std::make_unique<PlatformSimulator>(GetPlatform(PlatformId::kCpu1),
                                                          family->models);
        family->space = std::make_unique<ConfigSpace>(*family->sim);
        families.push_back(std::move(family));
      }
    }
    Watts desired = 0.0;
    for (int j = 0; j < k; ++j) {
      const ConfigSpace* space = families[static_cast<size_t>(j) % families.size()]
                                     ->space.get();
      const Goals goals = JobGoals(j);
      requests.push_back(InferenceRequest{j, goals.deadline, goals.deadline});
      specs.push_back(JobSpec{"job" + std::to_string(j), space, goals, {}});
      AlertScheduler probe(*space, goals);
      desired += probe.Decide(requests.back()).power_cap;
    }
    budget = 0.6 * desired;
    coordinator = std::make_unique<MultiJobCoordinator>(specs, budget);
  }

  // The churn one hello/bye pair causes: the oldest job departs and rejoins last.
  // `specs` tracks the coordinator's job order.
  JobSpec RotateSpecs() {
    JobSpec next = specs.front();
    specs.erase(specs.begin());
    specs.push_back(next);
    return next;
  }

  struct FamilyStack {
    std::vector<DnnModel> models;
    std::unique_ptr<PlatformSimulator> sim;
    std::unique_ptr<ConfigSpace> space;
  };
  std::vector<std::unique_ptr<FamilyStack>> families;
  std::vector<JobSpec> specs;
  std::vector<InferenceRequest> requests;
  std::unique_ptr<MultiJobCoordinator> coordinator;
  Watts budget = 0.0;
};

void RunHeterogeneous(bench::Harness& h, int k) {
  HeterogeneousFixture f(k);
  std::vector<SchedulingDecision> decisions;
  f.coordinator->DecideRoundInto(f.requests, &decisions);
  h.RunCase("batched_round_heterogeneous_k" + std::to_string(k), [&] {
    f.coordinator->DecideRoundInto(f.requests, &decisions);
    bench::DoNotOptimize(decisions.data());
  });
}

// Replaces the coordinator with a fresh one over `specs`, transplanting the beliefs
// of every current job except `removed` (-1: none) into the leading jobs.
void RebuildWithBeliefs(HeterogeneousFixture& f, const std::vector<JobSpec>& specs,
                        int removed, std::vector<BeliefState>& beliefs) {
  beliefs.clear();
  for (int j = 0; j < f.coordinator->num_jobs(); ++j) {
    if (j != removed) {
      beliefs.push_back(f.coordinator->job(j).ExportBelief());
    }
  }
  f.coordinator = std::make_unique<MultiJobCoordinator>(specs, f.budget);
  for (size_t j = 0; j < beliefs.size(); ++j) {
    f.coordinator->job(static_cast<int>(j)).RestoreBelief(beliefs[j]);
  }
}

double RunMembershipRebuild(bench::Harness& h, int k) {
  HeterogeneousFixture f(k);
  std::vector<BeliefState> beliefs;
  std::vector<JobSpec> arrived;
  return h.RunCase("membership_rebuild_k" + std::to_string(k), [&] {
    arrived = f.specs;
    const JobSpec next = f.RotateSpecs();
    arrived.push_back(next);
    RebuildWithBeliefs(f, arrived, -1, beliefs);  // hello
    RebuildWithBeliefs(f, f.specs, 0, beliefs);   // bye of the oldest
    bench::DoNotOptimize(f.coordinator.get());
  });
}

double RunMembershipAddRemove(bench::Harness& h, int k) {
  HeterogeneousFixture f(k);
  const int oldest[] = {0};
  return h.RunCase("membership_add_remove_k" + std::to_string(k), [&] {
    f.coordinator->AddJob(f.RotateSpecs());
    f.coordinator->RemoveJobs(oldest);
    bench::DoNotOptimize(f.coordinator.get());
  });
}

}  // namespace

int Main(int argc, char** argv) {
  bench::Harness h("multi_job", argc, argv);
  h.Context("simd_backend", std::string(simd::BackendName(simd::CompiledBackend())));
  {
    SharedFamilyFixture probe(1);
    h.Context("simd_active", probe.engine.simd_active());
  }

  const int ks[] = {2, 4, 8, 16, 64};
  double loop_k16 = 0.0, batched_k16 = 0.0, loop_k64 = 0.0, batched_k64 = 0.0;
  for (const int k : ks) {
    const double loop_ns = RunPerSchedulerLoop(h, k);
    const double batched_ns = RunBatchedRound(h, k);
    if (k == 16) {
      loop_k16 = loop_ns;
      batched_k16 = batched_ns;
    }
    if (k == 64) {
      loop_k64 = loop_ns;
      batched_k64 = batched_ns;
    }
  }
  RunSlackRecycling(h, 16);
  RunSlackRecycling(h, 64);
  RunHeterogeneous(h, 8);
  RunHeterogeneous(h, 16);
  RunHeterogeneous(h, 64);
  const double rebuild_k64 = RunMembershipRebuild(h, 64);
  const double add_remove_k64 = RunMembershipAddRemove(h, 64);

  h.Derive("batched_round_speedup_k16", loop_k16 / batched_k16);
  h.Derive("batched_round_speedup_k64", loop_k64 / batched_k64);
  h.Derive("membership_change_speedup_k64", rebuild_k64 / add_remove_k64);
  return h.Finish();
}

}  // namespace alert

int main(int argc, char** argv) { return alert::Main(argc, argv); }
