#include "src/harness/experiment.h"

#include <algorithm>

#include "src/common/check.h"
#include "src/workload/deadline_policy.h"

namespace alert {
namespace {

std::unique_ptr<DeadlinePolicy> MakeDeadlinePolicy(const EnvironmentTrace& trace,
                                                   Seconds deadline) {
  if (trace.has_sentences()) {
    return std::make_unique<SentenceSharedDeadlinePolicy>(trace, deadline);
  }
  return std::make_unique<FixedDeadlinePolicy>(deadline);
}

// A trivial scheduler that always returns the same configuration.
class StaticScheduler final : public Scheduler {
 public:
  StaticScheduler(const ConfigSpace& space, const Configuration& config)
      : space_(space), config_(config) {}

  SchedulingDecision Decide(const InferenceRequest&) override {
    SchedulingDecision d;
    d.candidate = config_.candidate;
    d.power_index = config_.power_index;
    d.power_cap = space_.cap(config_.power_index);
    return d;
  }
  void Observe(const SchedulingDecision&, const Measurement&) override {}
  std::string_view name() const override { return "Static"; }

 private:
  const ConfigSpace& space_;
  Configuration config_;
};

// Adds one input's outcome to a static run's (accuracy -> met, late) bins.
void CountOutcome(const Measurement& m, std::vector<StaticRunSummary::AccuracyBin>& bins) {
  auto bin = std::find_if(bins.begin(), bins.end(),
                          [&m](const auto& b) { return b.accuracy == m.accuracy; });
  if (bin == bins.end()) {
    bin = bins.insert(bin, {m.accuracy, 0, 0});
  }
  ++(m.deadline_met ? bin->met : bin->unmet);
}

}  // namespace

void ProfileSnapshotStore::Put(TaskId task, PlatformId platform, uint64_t seed,
                               DnnSetChoice choice, ProfileSnapshot snapshot) {
  snapshots_[Key{static_cast<int>(task), static_cast<int>(platform), seed,
                 static_cast<int>(choice)}] = std::move(snapshot);
}

const ProfileSnapshot* ProfileSnapshotStore::Find(TaskId task, PlatformId platform,
                                                  uint64_t seed,
                                                  DnnSetChoice choice) const {
  const auto it = snapshots_.find(Key{static_cast<int>(task), static_cast<int>(platform),
                                      seed, static_cast<int>(choice)});
  return it == snapshots_.end() ? nullptr : &it->second;
}

Stack::Stack(DnnSetChoice choice, std::vector<DnnModel> models,
             const PlatformSpec& platform, double profile_noise_sigma, uint64_t seed,
             const ProfileSnapshot* warm_start)
    : choice_(choice), models_(std::move(models)) {
  ALERT_CHECK(!models_.empty());
  sim_ = std::make_unique<PlatformSimulator>(platform, models_);
  space_ = warm_start != nullptr
               ? std::make_unique<ConfigSpace>(*sim_, *warm_start)
               : std::make_unique<ConfigSpace>(*sim_, profile_noise_sigma, seed);
  engine_ = std::make_unique<DecisionEngine>(*space_);
}

Experiment::Experiment(TaskId task, PlatformId platform, ContentionType contention,
                       const ExperimentOptions& options,
                       const ProfileSnapshotStore* warm_start)
    : task_(task), contention_(contention), platform_(GetPlatform(platform)),
      options_(options) {
  TraceOptions trace_options;
  trace_options.num_inputs = options.num_inputs;
  trace_options.seed = options.seed;
  trace_options.contention_window = options.contention_window;
  trace_options.contention_scale = options.contention_scale;
  trace_ = MakeEnvironmentTrace(task, platform, contention, trace_options);

  for (DnnSetChoice choice : {DnnSetChoice::kTraditionalOnly, DnnSetChoice::kAnytimeOnly,
                              DnnSetChoice::kBoth}) {
    const ProfileSnapshot* snapshot =
        warm_start != nullptr ? warm_start->Find(task, platform, options.seed, choice)
                              : nullptr;
    stacks_.push_back(std::make_unique<Stack>(choice, BuildEvaluationSet(task, choice),
                                              platform_, options.profile_noise_sigma,
                                              options.seed, snapshot));
  }
}

const Stack& Experiment::stack(DnnSetChoice choice) const {
  return *stacks_[static_cast<size_t>(choice)];
}

bool Experiment::Violates(const Goals& goals, const Measurement& m) {
  return Violates(goals, m.accuracy, m.deadline_met);
}

bool Experiment::Violates(const Goals& goals, double accuracy, bool deadline_met) {
  if (goals.mode == GoalMode::kMinimizeLatency) {
    // No deadline constraint: only the accuracy floor is checkable per input.
    return accuracy < goals.accuracy_goal - 1e-9;
  }
  if (!deadline_met) {
    return true;  // latency constraint
  }
  if (goals.mode == GoalMode::kMinimizeEnergy) {
    // Accuracy constraint: the delivered result (model or anytime stage) must be at the
    // goal.  A scheme that *chooses* a sub-goal configuration (e.g. Sys-only's fixed
    // fast DNN) violates on every input.
    return accuracy < goals.accuracy_goal - 1e-9;
  }
  return false;
}

bool SettingViolated(const Goals& goals, const RunResult& result) {
  // Table 4's accounting unit: a scheme fails a constraint setting when it violates on
  // more than 10% of inputs.  The energy budget is cumulative (a battery or power
  // provisioning bound), so it is judged on the achieved average energy per input.
  if (result.violation_fraction > 0.10) {
    return true;
  }
  if (goals.mode != GoalMode::kMinimizeEnergy) {
    return result.avg_energy > goals.energy_budget + 1e-9;
  }
  return false;
}

template <typename OnInput>
RunResult Experiment::Replay(const Stack& stack, Scheduler& scheduler, Seconds deadline,
                             OnInput&& on_input) const {
  auto policy = MakeDeadlinePolicy(trace_, deadline);
  const PlatformSimulator& sim = stack.simulator();

  RunResult result;
  result.scheme = std::string(scheduler.name());
  result.num_inputs = trace_.num_inputs();

  double sum_energy = 0.0;
  double sum_accuracy = 0.0;
  double sum_perplexity = 0.0;
  double sum_latency = 0.0;
  int misses = 0;

  for (int n = 0; n < trace_.num_inputs(); ++n) {
    InferenceRequest request;
    request.input_index = n;
    request.deadline = policy->DeadlineFor(n);
    request.period = policy->PeriodFor(n);

    const SchedulingDecision decision = scheduler.Decide(request);
    const Measurement m =
        sim.Execute(decision.ToExecRequest(request), trace_.inputs[static_cast<size_t>(n)]);
    scheduler.Observe(decision, m);
    policy->OnCompleted(n, m.latency);

    sum_energy += m.energy;
    sum_accuracy += m.accuracy;
    sum_perplexity += PerplexityFromAccuracy(m.accuracy);
    sum_latency += m.latency;
    misses += m.deadline_met ? 0 : 1;
    on_input(decision, m);
  }

  const double count = static_cast<double>(trace_.num_inputs());
  result.avg_energy = sum_energy / count;
  result.avg_accuracy = sum_accuracy / count;
  result.avg_error = 1.0 - result.avg_accuracy;
  result.avg_perplexity = sum_perplexity / count;
  result.avg_latency = sum_latency / count;
  result.deadline_miss_fraction = static_cast<double>(misses) / count;
  return result;
}

RunResult Experiment::Run(const Stack& stack, Scheduler& scheduler, const Goals& goals,
                          bool keep_records) const {
  ALERT_CHECK(goals.Valid());
  int violations = 0;
  std::vector<InputRecord> records;
  RunResult result = Replay(stack, scheduler, goals.deadline,
                            [&](const SchedulingDecision& decision, const Measurement& m) {
                              const bool violated = Violates(goals, m);
                              violations += violated ? 1 : 0;
                              if (keep_records) {
                                records.push_back(InputRecord{decision, m, violated});
                              }
                            });
  result.violation_fraction =
      static_cast<double>(violations) / static_cast<double>(trace_.num_inputs());
  result.records = std::move(records);
  return result;
}

RunResult Experiment::RunStatic(const Stack& stack, const Configuration& config,
                                const Goals& goals, bool keep_records) const {
  StaticScheduler scheduler(stack.space(), config);
  return Run(stack, scheduler, goals, keep_records);
}

RunResult StaticRunSummary::ResultFor(const Goals& goals) const {
  int violations = 0;
  for (const AccuracyBin& bin : bins) {
    violations += (Experiment::Violates(goals, bin.accuracy, true) ? bin.met : 0) +
                  (Experiment::Violates(goals, bin.accuracy, false) ? bin.unmet : 0);
  }
  RunResult out = result;
  out.violation_fraction =
      static_cast<double>(violations) / static_cast<double>(result.num_inputs);
  return out;
}

size_t Experiment::StackIndex(const Stack& stack) const {
  const auto index = static_cast<size_t>(stack.choice());
  ALERT_CHECK(index < stacks_.size() && stacks_[index].get() == &stack);
  return index;
}

const TrueLatencyTable& Experiment::TrueLatencies(const Stack& stack) const {
  LatencyCache& cache = latency_caches_[StackIndex(stack)];
  std::call_once(cache.built, [&] {
    cache.table = std::make_unique<const TrueLatencyTable>(
        stack.simulator(), stack.space().caps(), trace_.inputs);
  });
  return *cache.table;
}

std::span<const StaticRunSummary> Experiment::StaticRuns(const Stack& stack,
                                                         Seconds deadline) const {
  StaticRunsCache* cache = nullptr;
  {
    const std::lock_guard<std::mutex> lock(static_runs_mutex_);
    auto& slot = static_runs_[{StackIndex(stack), deadline}];
    if (slot == nullptr) {
      slot = std::make_unique<StaticRunsCache>();
    }
    cache = slot.get();
  }
  // Built outside the map lock: other deadlines proceed in parallel, and callers of
  // this one wait here until its single build finishes.
  std::call_once(cache->built, [&] {
    const ConfigSpace& space = stack.space();
    std::vector<StaticRunSummary>& runs = cache->runs;
    runs.reserve(static_cast<size_t>(space.num_configurations()));
    for (int ci = 0; ci < space.num_candidates(); ++ci) {
      for (int pi = 0; pi < space.num_powers(); ++pi) {
        StaticRunSummary& run = runs.emplace_back();
        run.config = Configuration{space.candidate(ci), pi};
        StaticScheduler scheduler(space, run.config);
        run.result = Replay(stack, scheduler, deadline,
                            [&run](const SchedulingDecision&, const Measurement& m) {
                              CountOutcome(m, run.bins);
                            });
      }
    }
  });
  return cache->runs;
}

}  // namespace alert
