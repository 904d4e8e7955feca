// The Table 4 plan shared by tbl4_sweep and dispatch_fine.
#ifndef PERFBENCH_SRC_SWEEP_COMMON_H_
#define PERFBENCH_SRC_SWEEP_COMMON_H_

#include <cstdint>
#include <memory>

#include "src/harness/experiment.h"
#include "src/harness/sweep_plan.h"
#include "workloads.h"

namespace perfbench {

// 15 cells x 2 goal modes x 36 settings x (static oracle + 6 schemes) = 7560 units
// at `num_inputs` inputs each.  `smoke` shrinks it to 2 cells x 3 settings.
alert::SweepSpec Table4Spec(uint64_t seed, int num_inputs, bool smoke);

struct PreparedPlan {
  std::unique_ptr<alert::SweepPlan> plan;
  std::unique_ptr<alert::ProfileSnapshotStore> snapshots;
  double setup_s = 0.0;    // BuildSweepPlan + CapturePlanSnapshots
  double profile_s = 0.0;  // the CapturePlanSnapshots part
};

// Set-up before the first unit is issued: the plan and its profile snapshots.
PreparedPlan PreparePlan(const alert::SweepSpec& spec);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_SWEEP_COMMON_H_
