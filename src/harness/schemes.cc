#include "src/harness/schemes.h"

#include "src/baselines/app_only.h"
#include "src/baselines/no_coord.h"
#include "src/baselines/oracle.h"
#include "src/baselines/sys_only.h"
#include "src/common/check.h"
#include "src/core/alert_scheduler.h"

namespace alert {

std::string_view SchemeName(SchemeId id) {
  // Exhaustive by construction: every enumerator returns from its case (-Wswitch flags
  // a missing one), and the guard below trips if a scheme is appended without this
  // switch — via kNumSchemeIds — being revisited.
  static_assert(static_cast<int>(SchemeId::kOracle) + 1 == kNumSchemeIds,
                "SchemeId grew: update kNumSchemeIds and the switches in schemes.cc");
  switch (id) {
    case SchemeId::kAlert:
      return "ALERT";
    case SchemeId::kAlertAny:
      return "ALERT-Any";
    case SchemeId::kAlertTrad:
      return "ALERT-Trad";
    case SchemeId::kAlertStar:
      return "ALERT*";
    case SchemeId::kAlertStarAny:
      return "ALERT*-Any";
    case SchemeId::kAlertStarTrad:
      return "ALERT*-Trad";
    case SchemeId::kSysOnly:
      return "Sys-only";
    case SchemeId::kAppOnly:
      return "App-only";
    case SchemeId::kNoCoord:
      return "No-coord";
    case SchemeId::kOracle:
      return "Oracle";
  }
  ALERT_CHECK(false);  // unreachable for in-range SchemeId values
  return {};
}

DnnSetChoice SchemeDnnSet(SchemeId id) {
  switch (id) {
    case SchemeId::kAlertAny:
    case SchemeId::kAlertStarAny:
    case SchemeId::kAppOnly:
    case SchemeId::kNoCoord:
      return DnnSetChoice::kAnytimeOnly;
    case SchemeId::kAlertTrad:
    case SchemeId::kAlertStarTrad:
      return DnnSetChoice::kTraditionalOnly;
    case SchemeId::kAlert:
    case SchemeId::kAlertStar:
    case SchemeId::kSysOnly:
    case SchemeId::kOracle:
      return DnnSetChoice::kBoth;
  }
  return DnnSetChoice::kBoth;
}

std::unique_ptr<Scheduler> MakeScheduler(SchemeId id, const Experiment& experiment,
                                         const Goals& goals,
                                         const DecisionCachePolicy& cache) {
  const Stack& stack = experiment.stack(SchemeDnnSet(id));
  switch (id) {
    case SchemeId::kAlert:
    case SchemeId::kAlertAny:
    case SchemeId::kAlertTrad: {
      AlertOptions options;
      options.name = std::string(SchemeName(id));
      options.decision_cache = cache;
      return std::make_unique<AlertScheduler>(stack.engine(), goals, options);
    }
    case SchemeId::kAlertStar:
    case SchemeId::kAlertStarAny:
    case SchemeId::kAlertStarTrad: {
      AlertOptions options;
      options.use_variance = false;
      options.name = std::string(SchemeName(id));
      options.decision_cache = cache;
      return std::make_unique<AlertScheduler>(stack.engine(), goals, options);
    }
    case SchemeId::kSysOnly:
      return std::make_unique<SysOnlyScheduler>(stack.engine(), goals);
    case SchemeId::kAppOnly:
      return std::make_unique<AppOnlyScheduler>(stack.space());
    case SchemeId::kNoCoord:
      return std::make_unique<NoCoordScheduler>(stack.engine(), goals);
    case SchemeId::kOracle:
      return std::make_unique<OracleScheduler>(stack.space(), goals,
                                               experiment.trace().inputs,
                                               &experiment.TrueLatencies(stack));
  }
  ALERT_CHECK(false);
  return nullptr;
}

}  // namespace alert
