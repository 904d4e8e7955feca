// Experiment harness: drives one scheduler through one replayed environment trace.
//
// An Experiment fixes (task, platform, contention, #inputs, seed) and materializes:
//   * the environment trace (shared, replayed identically across schemes),
//   * one "stack" per DNN-candidate-set choice (Table 3): the owned model list, the
//     platform simulator over it, and the profiled configuration space.
//
// Run() executes the Section 3.2 loop — deadline policy, Decide, Execute, Observe —
// and aggregates the metrics the paper reports: average energy per input, average
// error (and perplexity for NLP), and the fraction of inputs violating the goals.
// The experiment also holds the ground-truth caches both clairvoyant baselines read
// (TrueLatencies, StaticRuns), each built on first use.
#ifndef SRC_HARNESS_EXPERIMENT_H_
#define SRC_HARNESS_EXPERIMENT_H_

#include <array>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "src/common/ids.h"
#include "src/core/config_space.h"
#include "src/core/decision_engine.h"
#include "src/core/goals.h"
#include "src/core/scheduler.h"
#include "src/dnn/zoo.h"
#include "src/sim/simulator.h"
#include "src/workload/trace.h"

namespace alert {

// Warm-start profiles keyed by (task, platform, seed, candidate-set choice) — the
// payload a sweep dispatcher captures once and ships to every worker so that no
// worker ever re-profiles.  Within one sweep the spec-global knobs
// (profile_noise_sigma) are shared, so this key identifies a profile uniquely.
// Values are owned copies: a store is safe to build in one process, serialize
// (sweep_io), and rebuild in another.
class ProfileSnapshotStore {
 public:
  // Inserts or replaces the snapshot for a key.
  void Put(TaskId task, PlatformId platform, uint64_t seed, DnnSetChoice choice,
           ProfileSnapshot snapshot);
  // Borrowed pointer, valid until the next Put; nullptr when absent.
  const ProfileSnapshot* Find(TaskId task, PlatformId platform, uint64_t seed,
                              DnnSetChoice choice) const;
  size_t size() const { return snapshots_.size(); }

  // Stable iteration order (the map key order) — serialization walks this.
  using Key = std::tuple<int, int, uint64_t, int>;  // task, platform, seed, choice
  const std::map<Key, ProfileSnapshot>& entries() const { return snapshots_; }

 private:
  std::map<Key, ProfileSnapshot> snapshots_;
};

// A candidate set together with its simulator and profiled config space.
class Stack {
 public:
  // Profiles the space locally, unless `warm_start` is non-null, in which case the
  // snapshot's tables are adopted (see ConfigSpace's snapshot constructor for the
  // compatibility contract).  `warm_start` is only read during construction.
  Stack(DnnSetChoice choice, std::vector<DnnModel> models, const PlatformSpec& platform,
        double profile_noise_sigma, uint64_t seed,
        const ProfileSnapshot* warm_start = nullptr);

  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;

  DnnSetChoice choice() const { return choice_; }
  const std::vector<DnnModel>& models() const { return models_; }
  const PlatformSimulator& simulator() const { return *sim_; }
  const ConfigSpace& space() const { return *space_; }
  // The stack's shared scoring plane: built once over `space()` and scanned (read-only)
  // by every scheduler the harness constructs for this stack, including concurrent
  // ParallelFor sweep workers.
  const DecisionEngine& engine() const { return *engine_; }

 private:
  DnnSetChoice choice_;
  std::vector<DnnModel> models_;
  std::unique_ptr<PlatformSimulator> sim_;
  std::unique_ptr<ConfigSpace> space_;
  std::unique_ptr<DecisionEngine> engine_;
};

struct InputRecord {
  SchedulingDecision decision;
  Measurement measurement;
  bool violated = false;
};

struct RunResult {
  std::string scheme;
  int num_inputs = 0;
  Joules avg_energy = 0.0;       // per input period
  double avg_accuracy = 0.0;     // delivered
  double avg_error = 0.0;        // 1 - avg_accuracy
  double avg_perplexity = 0.0;   // NLP reporting scale (Fig. 10)
  Seconds avg_latency = 0.0;
  // Fraction of inputs violating a constraint: a deadline miss, a delivered accuracy
  // below the goal (energy-minimization mode), or a period energy above the budget
  // (error-minimization mode).
  double violation_fraction = 0.0;
  double deadline_miss_fraction = 0.0;
  std::vector<InputRecord> records;  // filled only when requested
};

// One static configuration replayed over a trace under one deadline, reduced to what
// every goal setting with that deadline needs (FindStaticOracle).  The deadline alone
// fixes every per-input measurement of a static run — also under
// SentenceSharedDeadlinePolicy, whose deadline history depends only on the
// configuration and the per-word budget — so of the RunResult only the violation
// count depends on the rest of the goals.  It is recovered from how many inputs
// delivered each accuracy value in time and late.
struct StaticRunSummary {
  struct AccuracyBin {
    double accuracy = 0.0;  // one delivered accuracy value
    int met = 0;            // inputs that delivered it by their deadline
    int unmet = 0;          // inputs that delivered it late
  };

  Configuration config;
  RunResult result;  // every field except violation_fraction; no records
  std::vector<AccuracyBin> bins;

  // The RunResult RunStatic(config, goals) returns, bit for bit.  `goals.deadline`
  // must be the deadline the summary was replayed under.
  RunResult ResultFor(const Goals& goals) const;
};

// Whether a whole run fails its constraint setting — the Table 4 accounting unit: a
// scheme "incurs more than 10% violation of all inputs".  A per-input violation is a
// deadline miss, a delivered accuracy below the goal (energy-minimization mode), or a
// period energy above the budget (error-minimization mode).  Under this rule Sys-only
// violates most accuracy-constrained settings wholesale — its fixed fast DNN is below
// the goal on every input — matching the paper's "68% of the settings".
bool SettingViolated(const Goals& goals, const RunResult& result);

struct ExperimentOptions {
  int num_inputs = 300;
  uint64_t seed = 1;
  // Scripted contention window (Fig. 9); overrides the stochastic phase machine.
  std::optional<std::pair<int, int>> contention_window;
  double contention_scale = 1.0;
  // Systematic profiling error fed to the config spaces (robustness studies).
  double profile_noise_sigma = 0.0;
};

class Experiment {
 public:
  // `warm_start`, when non-null, supplies profile snapshots for this experiment's
  // stacks (looked up by (task, platform, options.seed, choice)); stacks with no
  // matching entry profile locally.  The store is only read during construction and
  // results are bit-identical either way — a snapshot carries the exact values local
  // profiling would produce.
  Experiment(TaskId task, PlatformId platform, ContentionType contention,
             const ExperimentOptions& options = {},
             const ProfileSnapshotStore* warm_start = nullptr);

  const EnvironmentTrace& trace() const { return trace_; }
  const PlatformSpec& platform() const { return platform_; }
  TaskId task() const { return task_; }
  ContentionType contention() const { return contention_; }
  const ExperimentOptions& options() const { return options_; }

  // The stack for a candidate-set choice (built eagerly for all three choices).
  const Stack& stack(DnnSetChoice choice) const;

  // Runs a scheduler over the trace under `goals`.
  RunResult Run(const Stack& stack, Scheduler& scheduler, const Goals& goals,
                bool keep_records = false) const;

  // Runs one fixed configuration (no adaptation) over the trace.
  RunResult RunStatic(const Stack& stack, const Configuration& config, const Goals& goals,
                      bool keep_records = false) const;

  // Whether an input's measurement violates a per-input-checkable constraint.
  static bool Violates(const Goals& goals, const Measurement& m);
  // The same rule over the only two measurement fields it reads.
  static bool Violates(const Goals& goals, double accuracy, bool deadline_met);

  // Ground-truth caches shared by both clairvoyant baselines (docs/ARCHITECTURE.md).
  // Each is built once, on first use, and is then read concurrently by any number of
  // threads; it lives as long as the experiment.  `stack` must be one of this
  // experiment's stacks.
  //
  // TrueLatency of `stack`'s simulator for every (input, model, cap) of the trace —
  // what MakeScheduler hands the Oracle.
  const TrueLatencyTable& TrueLatencies(const Stack& stack) const;
  // RunStatic of every configuration of `stack`'s space, candidate-major then power,
  // under deadline `deadline` — what FindStaticOracle searches.
  std::span<const StaticRunSummary> StaticRuns(const Stack& stack, Seconds deadline) const;

 private:
  // The Section 3.2 loop under `deadline`: fills every RunResult field except
  // violation_fraction and records, and hands each input's decision and measurement
  // to `on_input`.
  template <typename OnInput>
  RunResult Replay(const Stack& stack, Scheduler& scheduler, Seconds deadline,
                   OnInput&& on_input) const;
  size_t StackIndex(const Stack& stack) const;

  TaskId task_;
  ContentionType contention_;
  const PlatformSpec& platform_;
  ExperimentOptions options_;
  EnvironmentTrace trace_;
  std::vector<std::unique_ptr<Stack>> stacks_;  // indexed by DnnSetChoice

  struct LatencyCache {
    std::once_flag built;
    std::unique_ptr<const TrueLatencyTable> table;
  };
  struct StaticRunsCache {
    std::once_flag built;
    std::vector<StaticRunSummary> runs;
  };
  mutable std::array<LatencyCache, 3> latency_caches_;  // indexed like stacks_
  mutable std::mutex static_runs_mutex_;                 // guards the map, not entries
  mutable std::map<std::pair<size_t, Seconds>, std::unique_ptr<StaticRunsCache>>
      static_runs_;
};

}  // namespace alert

#endif  // SRC_HARNESS_EXPERIMENT_H_
