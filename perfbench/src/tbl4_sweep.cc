// tbl4_sweep: the full Table 4 / Fig. 7 plan through RunSweep, and a traced replay
// of the same plan from public calls whose CSV must equal RunSweep's.
#include <chrono>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <tuple>
#include <vector>

#include "src/common/parallel.h"
#include "src/harness/constraint_grid.h"
#include "src/harness/dispatch.h"
#include "src/harness/static_oracle.h"
#include "src/harness/sweep_io.h"
#include "src/harness/sweep_runner.h"
#include "sweep_common.h"
#include "trace.h"

namespace perfbench {

using namespace alert;

SweepSpec Table4Spec(uint64_t seed, int num_inputs, bool smoke) {
  struct CellDef {
    PlatformId platform;
    TaskId task;
    ContentionType contention;
  };
  // The 15 cells of bench_tbl4_fig07_main, in its order.
  std::vector<CellDef> defs;
  for (const PlatformId platform : {PlatformId::kCpu1, PlatformId::kCpu2}) {
    for (const TaskId task : {TaskId::kImageClassification, TaskId::kSentencePrediction}) {
      for (const ContentionType contention :
           {ContentionType::kNone, ContentionType::kCompute, ContentionType::kMemory}) {
        defs.push_back({platform, task, contention});
      }
    }
  }
  for (const ContentionType contention :
       {ContentionType::kNone, ContentionType::kCompute, ContentionType::kMemory}) {
    defs.push_back({PlatformId::kGpu, TaskId::kImageClassification, contention});
  }
  if (smoke) {
    defs = {defs.front(), defs.back()};
  }

  SweepSpec spec;
  for (const GoalMode mode : {GoalMode::kMinimizeEnergy, GoalMode::kMaximizeAccuracy}) {
    for (const CellDef& def : defs) {
      spec.cells.push_back({def.task, def.platform, def.contention, mode});
    }
  }
  spec.schemes = {SchemeId::kAlert,   SchemeId::kAlertAny, SchemeId::kSysOnly,
                  SchemeId::kAppOnly, SchemeId::kNoCoord,  SchemeId::kOracle};
  spec.seeds = {seed};
  spec.num_inputs = num_inputs;
  if (smoke) {
    spec.grid_indices = {0, 14, 35};
  }
  return spec;
}

PreparedPlan PreparePlan(const SweepSpec& spec) {
  PreparedPlan prepared;
  const int64_t t0 = NowNs();
  prepared.plan = std::make_unique<SweepPlan>(BuildSweepPlan(spec));
  const int64_t t1 = NowNs();
  prepared.snapshots =
      std::make_unique<ProfileSnapshotStore>(CapturePlanSnapshots(*prepared.plan));
  const int64_t t2 = NowNs();
  prepared.setup_s = 1e-9 * static_cast<double>(t2 - t0);
  prepared.profile_s = 1e-9 * static_cast<double>(t2 - t1);
  return prepared;
}

namespace {

// Per-scheme span names for the timing decorator.
struct SchemeSpans {
  const char* decide;
  const char* observe;
};

SchemeSpans SpansFor(SchemeId scheme) {
  switch (scheme) {
    case SchemeId::kAlert:
    case SchemeId::kAlertAny:
    case SchemeId::kAlertTrad:
    case SchemeId::kAlertStar:
    case SchemeId::kAlertStarAny:
    case SchemeId::kAlertStarTrad:
      return {"core.alert_decide", "estimator.alert_observe"};
    case SchemeId::kOracle:
      return {"baselines.oracle_decide", "baselines.observe"};
    case SchemeId::kSysOnly:
    case SchemeId::kAppOnly:
    case SchemeId::kNoCoord:
      return {"baselines.fixed_decide", "baselines.observe"};
  }
  return {"baselines.fixed_decide", "baselines.observe"};
}

// Timing decorator around the public Scheduler interface: Experiment::Run sees the
// wrapped scheduler unchanged, the spans see every Decide and Observe.
class TimedScheduler final : public Scheduler {
 public:
  TimedScheduler(Scheduler& inner, SchemeSpans spans) : inner_(inner), spans_(spans) {}

  SchedulingDecision Decide(const InferenceRequest& request) override {
    const Span span(spans_.decide);
    return inner_.Decide(request);
  }
  void Observe(const SchedulingDecision& decision, const Measurement& m) override {
    const Span span(spans_.observe);
    inner_.Observe(decision, m);
  }
  std::string_view name() const override { return inner_.name(); }

 private:
  Scheduler& inner_;
  SchemeSpans spans_;
};

using ExperimentKey = std::tuple<int, int, int, uint64_t>;
using SettingKey = std::tuple<int, int, int, int, uint64_t, int>;

ExperimentKey ExperimentKeyOf(const SweepUnit& unit) {
  return {static_cast<int>(unit.cell.task), static_cast<int>(unit.cell.platform),
          static_cast<int>(unit.cell.contention), unit.seed};
}

SettingKey SettingKeyOf(const SweepUnit& unit) {
  return {static_cast<int>(unit.cell.task),      static_cast<int>(unit.cell.platform),
          static_cast<int>(unit.cell.contention), static_cast<int>(unit.cell.mode),
          unit.seed,                              unit.grid_index};
}

struct ReplayResult {
  std::string csv;
  int executed_scheme_units = 0;
  int skipped_units = 0;
  double wall_s = 0.0;
};

// The plan again, from public calls only: one Experiment per (task, platform,
// contention, seed), FindStaticOracle per setting, then every scheme through
// Experiment::Run behind the timing decorator, merged by SweepMergeAccumulator.
// Same grouping, skip rule and thread count as RunSweepUnits, so the CSV must match.
ReplayResult ReplaySweep(const SweepPlan& plan, const ProfileSnapshotStore& snapshots,
                         int threads) {
  const int64_t t0 = NowNs();
  ReplayResult out;
  std::map<SettingKey, std::vector<const SweepUnit*>> groups;  // static unit first
  std::map<ExperimentKey, std::unique_ptr<Experiment>> experiments;
  {
    const Span span("harness.experiments");
    for (const SweepUnit& unit : plan.units) {
      groups[SettingKeyOf(unit)].push_back(&unit);
      auto& experiment = experiments[ExperimentKeyOf(unit)];
      if (experiment == nullptr) {
        ExperimentOptions options;
        options.num_inputs = plan.spec.num_inputs;
        options.seed = unit.seed;
        options.contention_window = plan.spec.contention_window;
        options.contention_scale = plan.spec.contention_scale;
        options.profile_noise_sigma = plan.spec.profile_noise_sigma;
        experiment = std::make_unique<Experiment>(unit.cell.task, unit.cell.platform,
                                                  unit.cell.contention, options,
                                                  &snapshots);
      }
    }
  }
  std::vector<const std::vector<const SweepUnit*>*> group_list;
  for (const auto& [key, units] : groups) {
    group_list.push_back(&units);
  }

  std::vector<SweepUnitResult> results(plan.units.size());
  std::mutex counts_mutex;
  ParallelFor(
      static_cast<int>(group_list.size()),
      [&](int g) {
        const std::vector<const SweepUnit*>& units = *group_list[static_cast<size_t>(g)];
        const SweepUnit& first = *units.front();
        const Experiment& experiment = *experiments.at(ExperimentKeyOf(first));
        const Goals goals = BuildConstraintGrid(first.cell.mode, first.cell.task,
                                                first.cell.platform)
            [static_cast<size_t>(first.grid_index)];
        bool static_infeasible = false;
        int executed = 0;
        int skipped = 0;
        for (const SweepUnit* unit : units) {
          SweepUnitResult& result = results[static_cast<size_t>(unit->id)];
          result.unit_id = unit->id;
          if (unit->kind == SweepUnitKind::kStaticOracle) {
            const Span unit_span("harness.unit", unit->id);
            StaticOracleResult best;
            {
              const Span span("harness.static_oracle");
              best = FindStaticOracle(experiment, experiment.stack(DnnSetChoice::kBoth),
                                      goals);
            }
            result.usable = best.feasible;
            if (best.feasible) {
              result.metric = MetricValue(unit->cell.mode, unit->cell.task, best.result);
            }
            static_infeasible = !best.feasible;
            continue;
          }
          if (static_infeasible) {
            result.skipped = true;
            ++skipped;
            continue;
          }
          const Span unit_span("harness.unit", unit->id);
          std::unique_ptr<Scheduler> scheduler =
              MakeScheduler(unit->scheme, experiment, goals);
          TimedScheduler timed(*scheduler, SpansFor(unit->scheme));
          RunResult run;
          {
            const Span span("sim.run");
            run = experiment.Run(experiment.stack(SchemeDnnSet(unit->scheme)), timed,
                                 goals);
          }
          if (!SettingViolated(goals, run)) {
            result.usable = true;
            result.metric = MetricValue(unit->cell.mode, unit->cell.task, run);
          }
          ++executed;
        }
        const std::lock_guard<std::mutex> lock(counts_mutex);
        out.executed_scheme_units += executed;
        out.skipped_units += skipped;
      },
      threads);

  std::vector<CellResult> cells;
  serde::Status merged = serde::Ok();
  {
    const Span span("harness.merge");
    SweepMergeAccumulator accumulator(plan);
    for (const SweepUnitResult& result : results) {
      merged = accumulator.Add(result);
      if (!merged) {
        break;
      }
    }
    if (merged) {
      merged = accumulator.Finalize(&cells);
    }
  }
  if (merged) {
    const Span span("harness.csv");
    out.csv = SweepAggregateCsv(plan, cells);
  } else {
    out.csv = "merge failed: " + merged.message;
  }
  out.wall_s = 1e-9 * static_cast<double>(NowNs() - t0);
  return out;
}

class Tbl4Sweep final : public Workload {
 public:
  Tbl4Sweep(const RunContext& ctx, uint64_t seed)
      : ctx_(ctx), spec_(Table4Spec(seed, ctx.smoke ? 30 : 300, ctx.smoke)) {}

  double Setup() override {
    prepared_ = PreparePlan(spec_);
    profile_s_.push_back(prepared_.profile_s);
    return prepared_.setup_s;
  }

  void Step() override {
    const double cpu0 = ProcessCpuSeconds();
    walls_.push_back(TimedSweep());
    cpus_.push_back(ProcessCpuSeconds() - cpu0);
  }

  Report Finish() override {
    Report report;
    const SweepPlan& plan = *prepared_.plan;
    const auto units = static_cast<int64_t>(plan.units.size());
    // In a traced pass, one untraced sweep right before the traced replay gives the
    // tracing overhead from two runs taken in the same stretch of machine time.
    const double untraced_s = ctx_.trace ? TimedSweep() : 0.0;
    if (mismatch_) {
      report.Fail("RunSweep CSV differs between repetitions");
    }
    ReplayResult replay;
    double busy_s = 0.0;
    const SpanTable spans = Traced(ctx_.trace, &busy_s, [&] {
      replay = ReplaySweep(plan, *prepared_.snapshots, ctx_.threads);
    });
    ops_.attempted += units;
    if (replay.csv != csv_) {
      ops_.failed += units;
      report.Fail("traced-replay CSV differs from RunSweep's");
    }
    report.ops = ops_;
    report.digest = Hex(Fnv1a(csv_));

    if (!ctx_.trace) {
      report.Set("sweep_s", BestOf(walls_), "s");
      report.Set("sweep_cpu_s", BestOf(cpus_), "s");
      return report;
    }
    const auto self = [&spans](const char* name) { return SelfSeconds(spans, name); };
    report.Set("harness.static_oracle_s", self("harness.static_oracle"), "s");
    report.Set("baselines.oracle_decide_s", self("baselines.oracle_decide"), "s");
    report.Set("sim.run_residual_s", self("sim.run"), "s");
    report.Set("core.alert_decide_s", self("core.alert_decide"), "s");
    report.Set("estimator.alert_observe_s", self("estimator.alert_observe"), "s");
    report.Set("baselines.fixed_decide_s", self("baselines.fixed_decide"), "s");
    report.Set("baselines.observe_s", self("baselines.observe"), "s");
    report.Set("harness.experiments_ms", 1e3 * self("harness.experiments"), "ms");
    report.Set("harness.profile_s", Median(profile_s_), "s");
    report.Set("harness.merge_ms", 1e3 * self("harness.merge"), "ms");
    report.Set("harness.csv_ms", 1e3 * self("harness.csv"), "ms");
    report.Set("harness.scheme_units", replay.executed_scheme_units, "count");
    report.Set("harness.skipped_units", replay.skipped_units, "count");
    const auto static_units = static_cast<int>(plan.grid_indices.size() * spec_.cells.size());
    report.Set("harness.useful_frac",
               static_cast<double>(static_units + replay.executed_scheme_units) /
                   static_cast<double>(units),
               "ratio");
    report.Set("trace.overhead_frac.tbl4_sweep", replay.wall_s / untraced_s - 1.0, "ratio");
    const double layered = LayerSeconds(
        spans, {"harness.static_oracle", "baselines.oracle_decide", "sim.run",
                "core.alert_decide", "estimator.alert_observe", "baselines.fixed_decide",
                "baselines.observe", "harness.experiments", "harness.merge", "harness.csv"});
    report.Set("trace.unaccounted_frac.tbl4_sweep",
               busy_s > 0.0 ? 1.0 - layered / busy_s : 0.0, "ratio");
    return report;
  }

 private:
  // One RunSweep; returns its wall time and holds its CSV to the first one's.
  double TimedSweep() {
    SweepRunOptions options;
    options.threads = ctx_.threads;
    options.warm_start = prepared_.snapshots.get();
    const int64_t t0 = NowNs();
    const std::vector<CellResult> cells = RunSweep(*prepared_.plan, options);
    const double wall_s = 1e-9 * static_cast<double>(NowNs() - t0);
    ops_.attempted += static_cast<int64_t>(prepared_.plan->units.size());
    std::string csv = SweepAggregateCsv(*prepared_.plan, cells);
    if (csv_.empty()) {
      csv_ = std::move(csv);
    } else if (csv != csv_) {
      ops_.failed += static_cast<int64_t>(prepared_.plan->units.size());
      mismatch_ = true;
    }
    return wall_s;
  }

  const RunContext& ctx_;
  SweepSpec spec_;
  PreparedPlan prepared_;
  std::vector<double> profile_s_;
  std::vector<double> walls_;
  std::vector<double> cpus_;
  std::string csv_;
  bool mismatch_ = false;
  Ops ops_{.what = "units"};
};

}  // namespace

std::unique_ptr<Workload> MakeTbl4Sweep(const RunContext& ctx, uint64_t seed) {
  return std::make_unique<Tbl4Sweep>(ctx, seed);
}

}  // namespace perfbench
