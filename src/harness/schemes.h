// Scheme factory: the schedulers compared in Section 5 (Table 3, bottom).
#ifndef SRC_HARNESS_SCHEMES_H_
#define SRC_HARNESS_SCHEMES_H_

#include <memory>
#include <string_view>

#include "src/core/decision_cache.h"
#include "src/core/goals.h"
#include "src/core/scheduler.h"
#include "src/dnn/zoo.h"
#include "src/harness/experiment.h"

namespace alert {

enum class SchemeId : int {
  kAlert = 0,      // ALERT, traditional + anytime candidates
  kAlertAny,       // ALERT restricted to the anytime DNN
  kAlertTrad,      // ALERT restricted to traditional DNNs
  kAlertStar,      // ALERT* mean-only ablation (Fig. 10), full candidate set
  kAlertStarAny,   // ALERT* on the anytime set
  kAlertStarTrad,  // ALERT* on the traditional set
  kSysOnly,        // fastest traditional DNN + [63]-style power controller
  kAppOnly,        // anytime DNN at default power [5]
  kNoCoord,        // both adaptations, uncoordinated
  kOracle,         // clairvoyant dynamic optimum
};

// Number of SchemeId enumerators.  Keep in sync when adding a scheme; SchemeName's
// static_assert trips if the last enumerator moves without this being updated.
inline constexpr int kNumSchemeIds = 10;

std::string_view SchemeName(SchemeId id);

// Which candidate set the scheme's scheduler operates on.
DnnSetChoice SchemeDnnSet(SchemeId id);

// Builds a fresh scheduler (fresh feedback state) for one constraint setting.
// `cache` (default off ⇒ the exact historical behavior) applies decision
// memoization to the ALERT-family schemes; the fixed-configuration baselines and
// the clairvoyant Oracle ignore it — they have no per-input rescore to skip.  The
// Oracle instead reads `experiment`'s memoized true latencies (TrueLatencies), built
// on first use and shared by every Oracle of the experiment.
std::unique_ptr<Scheduler> MakeScheduler(SchemeId id, const Experiment& experiment,
                                         const Goals& goals,
                                         const DecisionCachePolicy& cache = {});

}  // namespace alert

#endif  // SRC_HARNESS_SCHEMES_H_
