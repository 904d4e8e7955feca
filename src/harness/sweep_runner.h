// Execution and merge plane for sharded constraint-grid sweeps.
//
// `RunSweepUnits` executes any subset of a plan's units in-process — one shard, or the
// whole plan — sharing Experiments (trace + stacks + ground-truth caches) across units
// of the same (task, platform, contention, seed) and parallelizing across constraint
// settings with ParallelFor.  Every unit is a pure function of (plan spec, unit
// fields), so the results are independent of thread count, unit order, and how the
// plan was sharded.
//
// `SweepMergeAccumulator` is the single aggregation implementation: it accepts
// per-unit results one at a time — in any order, from any number of shards or remote
// workers, tolerating duplicate redelivery — and finalizes them into the Table 4
// accounting (one CellResult per (cell, seed), in plan order) with the exact
// arithmetic the monolithic harness always used.  `MergeSweepResults` is the strict
// batch form (duplicates are errors) layered on top of it; merging K shard result
// sets is byte-for-byte identical to aggregating the monolithic run — the
// shard-equivalence tests, the sweep_merge CLI, and the dispatcher's incremental
// merge all lean on that.
//
// `EvaluateCell` (evaluation.h) routes through this plane with a single-cell plan, so
// grid enumeration and aggregation exist exactly once in the codebase.
#ifndef SRC_HARNESS_SWEEP_RUNNER_H_
#define SRC_HARNESS_SWEEP_RUNNER_H_

#include <functional>
#include <span>
#include <vector>

#include "src/common/serde.h"
#include "src/harness/evaluation.h"
#include "src/harness/sweep_plan.h"

namespace alert {

struct SweepRunOptions {
  int threads = 0;  // ParallelFor width across settings; 0 = hardware concurrency

  // Warm-start profile snapshots (see ProfileSnapshotStore): when non-null,
  // Experiments constructed for the run adopt matching snapshots instead of
  // re-profiling.  Borrowed; must outlive the RunSweepUnits call.  Results are
  // bit-identical with or without it — it only skips work.
  const ProfileSnapshotStore* warm_start = nullptr;

  // Streaming hook: invoked once per finished unit, as soon as its setting group
  // completes.  `unit_ms` is the unit's observed wall time on this machine, including
  // its share of the ground-truth caches built for it up front (the dispatch worker
  // streams it back as cost-model feedback; 0.0 for skipped units).
  // Calls are serialized under an internal mutex but their order across setting
  // groups is nondeterministic (it follows ParallelFor completion order); consumers
  // that need determinism must key on result.unit_id, as the merge plane does.  The
  // returned result vector is unaffected.  The callback must not re-enter the sweep
  // runner.
  std::function<void(const SweepUnitResult& result, double unit_ms)> on_result;

  // Cooperative cancellation: polled (serialized under the same internal mutex as
  // on_result) before each ground-truth build and each setting group starts.  Once it returns true, groups that
  // have not started are neither executed nor streamed — their slots in the returned
  // vector stay default-initialized (unit_id == -1).  Groups already running finish
  // and stream normally.  The dispatch worker wires this to lease revocation.
  std::function<bool()> should_cancel;
};

// Executes `units` (any subset of plan.units; each must match the plan's unit of the
// same id — ALERT_CHECKed, a violated precondition is a caller bug) and returns one
// result per unit, in the same order.  Deterministic for a given (plan, units):
// thread count, shard shape, and warm-start never change a result — except under
// should_cancel, which leaves unstarted groups' slots default-initialized (callers
// stream executed results instead of consuming the vector).  When a setting's
// static-oracle unit is part of `units` and turns out infeasible, that setting's
// scheme units in `units` are marked skipped instead of run — the merge plane
// excludes such settings wholesale, so skipping never changes the aggregate (only
// saves the work, matching the historical in-process sweep).
std::vector<SweepUnitResult> RunSweepUnits(const SweepPlan& plan,
                                           std::span<const SweepUnit> units,
                                           const SweepRunOptions& options = {});

// Incremental merge: accepts per-unit results as they arrive and folds them into
// CellResults once complete.  This is the dispatcher's accumulator — results stream
// in from many workers, out of order, possibly more than once (a straggler and its
// retry replacement may both deliver a unit).
//
// Duplicate policy is first-wins: re-adding a result identical to the recorded one
// is a no-op (reported via `newly_recorded`), while a *conflicting* duplicate — same
// unit id, different payload — is an error, because it means two workers disagreed
// about a deterministic computation.  Unknown unit ids are errors.  All methods
// return diagnostics, never abort, except Finalize's internal plan-shape checks
// (which only a corrupted SweepPlan could trip).  Not thread-safe; the owner
// serializes access (the dispatcher's event loop is single-threaded).
class SweepMergeAccumulator {
 public:
  // `plan` is borrowed and must outlive the accumulator.
  explicit SweepMergeAccumulator(const SweepPlan& plan);

  // Records one result.  On success `*newly_recorded` (when non-null) says whether
  // this was the first delivery (true) or an identical redelivery (false).
  serde::Status Add(const SweepUnitResult& result, bool* newly_recorded = nullptr);

  bool complete() const { return num_recorded_ == recorded_.size(); }
  size_t num_recorded() const { return num_recorded_; }
  size_t num_expected() const { return recorded_.size(); }
  // Whether `unit_id` (which must be a valid plan id) already has a result.
  bool IsRecorded(int unit_id) const;
  // Plan ids still missing, ascending.  Empty iff complete().
  std::vector<int> MissingUnitIds() const;
  // Every recorded result, ascending by unit id — the checkpoint payload.
  std::vector<SweepUnitResult> RecordedResults() const;

  // Folds the recorded results into one CellResult per (cell, seed), ordered
  // cells-major as the plan enumerates them — arithmetic identical to the historical
  // monolithic EvaluateCell, so the aggregate CSV is byte-identical no matter how
  // results arrived.  Errors if incomplete, on a non-positive usable static metric,
  // and on a scheme result that was skipped even though its setting's static oracle
  // was feasible.
  serde::Status Finalize(std::vector<CellResult>* out) const;

 private:
  const SweepPlan* plan_;
  std::vector<SweepUnitResult> results_;  // indexed by unit id
  std::vector<bool> recorded_;
  size_t num_recorded_ = 0;
};

// Strict batch merge: every unit exactly once.  Errors (never aborts) on
// unknown/duplicate/missing unit ids and on everything Finalize rejects.  This is
// the sweep_merge CLI's semantics — a shard set that double-delivers a unit is
// rejected, whereas the dispatcher's accumulator dedups streamed redeliveries.
serde::Status MergeSweepResults(const SweepPlan& plan,
                                std::span<const SweepUnitResult> results,
                                std::vector<CellResult>* out);

// The monolithic in-process sweep: run every unit, merge, return the cells.
// Aborts (ALERT_CHECK) if the merge fails, which cannot happen for results produced
// by RunSweepUnits over the full plan.
std::vector<CellResult> RunSweep(const SweepPlan& plan,
                                 const SweepRunOptions& options = {});

}  // namespace alert

#endif  // SRC_HARNESS_SWEEP_RUNNER_H_
