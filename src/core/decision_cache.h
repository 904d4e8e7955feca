// DecisionCache: memoized selections in front of DecisionEngine::SelectBest.
//
// ALERT re-scores the full (candidate x power-cap) grid on every input, but the xi
// belief drifts slowly between frames — consecutive decisions usually see inputs that
// are identical (converged belief, fixed deadline) or nearly so.  This cache sits
// between AlertScheduler::Decide (opted into via AlertOptions::decision_cache) and
// the engine: it maps a *key* derived from everything a selection depends on — the
// DecisionInputs snapshot, the goals, the energy allowance, and the power limit — to
// the Selection the engine computed for it, bounded by an LRU capacity.
//
// == Modes and the correctness contract ==
//
//   kOff      — never constructed by callers; the policy's `enabled()` gates all
//               wiring, so the default is the exact historical code path.
//   kExact    — keys are the exact bit patterns of every field.  A hit can only occur
//               for inputs bit-identical to a previous SelectBest call on the same
//               engine, so cached decisions are *provably* identical to uncached ones
//               (the cache-equivalence suite asserts this across schemes and drifts).
//   kBucketed — the continuous fields (xi mean/stddev, deadline/period, allowance,
//               power limit) are quantized to configurable step widths before keying.
//               A hit returns the selection computed for a *nearby* snapshot: the
//               decision may differ from the uncached one, but only between
//               configurations whose score gap is bounded by the bucket width (the
//               equivalence suite measures the objective gap under the true inputs).
//
// == Invalidation contract ==
//
// The cache borrows its engine and is valid only while the engine's profile is: a new
// profile means a new engine, which means constructing a new cache (AlertScheduler
// ties cache lifetime to engine lifetime).  Goal changes must call
// `Invalidate()` — AlertScheduler::set_goals does — even though goal fields are part
// of the key (the key guards correctness; invalidation keeps dead entries from
// occupying LRU capacity).  Entries dropped this way are counted as `stale`.
//
// Thread-safety: NOT thread-safe — Lookup/Insert mutate LRU state.  One cache per
// decision-maker; any number of caches may share one const DecisionEngine (the scoring
// plane stays lock-free, see the concurrency smoke test).
#ifndef SRC_CORE_DECISION_CACHE_H_
#define SRC_CORE_DECISION_CACHE_H_

#include <cstdint>
#include <list>
#include <unordered_map>
#include <vector>

#include "src/core/decision_engine.h"
#include "src/core/goals.h"

namespace alert {

enum class DecisionCacheMode : int {
  kOff = 0,
  kExact = 1,
  kBucketed = 2,
};

struct DecisionCachePolicy {
  DecisionCacheMode mode = DecisionCacheMode::kOff;

  // Bucketed-mode quantization step widths; a step <= 0 keys that field exactly.
  // Ignored in exact mode.  deadline_step also quantizes the period (the two move
  // together in every workload the harness generates).
  double xi_mean_step = 0.0;
  double xi_stddev_step = 0.0;
  double deadline_step = 0.0;
  double allowance_step = 0.0;    // paced budgets drift every input
  double power_limit_step = 0.0;  // coordinator grants are continuous

  // LRU bound (entries).  Must be > 0 when enabled (checked).
  size_t capacity = 4096;

  bool enabled() const { return mode != DecisionCacheMode::kOff; }
};

struct DecisionCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t insertions = 0;
  uint64_t evictions = 0;  // LRU capacity pressure
  uint64_t stale = 0;      // entries dropped by Invalidate (goal change)

  double hit_rate() const {
    const uint64_t total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(total);
  }
};

class DecisionCache {
 public:
  // `engine` must outlive the cache; `policy` must be enabled with capacity > 0.
  DecisionCache(const DecisionEngine& engine, const DecisionCachePolicy& policy);

  DecisionCache(const DecisionCache&) = delete;
  DecisionCache& operator=(const DecisionCache&) = delete;

  // Memoized SelectBest: a hit returns the stored selection (refreshing its LRU
  // position); a miss runs the engine's SelectBest and stores the result.
  DecisionEngine::Selection Select(const Goals& goals, Joules allowance,
                                   const DecisionInputs& in, Watts power_limit,
                                   DecisionEngine::SelectScratch& scratch);

  // The two halves of Select.
  bool Lookup(const Goals& goals, Joules allowance, const DecisionInputs& in,
              Watts power_limit, DecisionEngine::Selection* out);
  void Insert(const Goals& goals, Joules allowance, const DecisionInputs& in,
              Watts power_limit, const DecisionEngine::Selection& selection);

  // Drops every entry (goal change / explicit reset); dropped entries count as stale.
  void Invalidate();

  const DecisionEngine& engine() const { return *engine_; }
  const DecisionCachePolicy& policy() const { return policy_; }
  const DecisionCacheStats& stats() const { return stats_; }
  size_t size() const { return map_.size(); }

 private:
  // One selection key: quantized (or exact) bit patterns of every field a SelectBest
  // result depends on.  Plain scalars so equality and hashing are trivial.
  struct Key {
    uint64_t xi_mean = 0;
    uint64_t xi_stddev = 0;
    uint64_t deadline = 0;
    uint64_t period = 0;
    uint64_t idle_ratio = 0;
    uint64_t fixed_idle_power = 0;
    uint64_t percentile = 0;
    uint64_t allowance = 0;
    uint64_t power_limit = 0;
    uint64_t accuracy_goal = 0;
    uint64_t energy_budget = 0;
    uint64_t prob_threshold = 0;
    int32_t mode = 0;
    uint8_t use_idle_ratio = 0;
    uint8_t stop_at_cutoff = 0;

    friend bool operator==(const Key&, const Key&) = default;
  };
  struct KeyHash {
    size_t operator()(const Key& key) const;
  };

  Key MakeKey(const Goals& goals, Joules allowance, const DecisionInputs& in,
              Watts power_limit) const;

  using LruList = std::list<std::pair<Key, DecisionEngine::Selection>>;

  const DecisionEngine* engine_;
  DecisionCachePolicy policy_;
  DecisionCacheStats stats_;
  LruList lru_;  // front = most recently used
  std::unordered_map<Key, LruList::iterator, KeyHash> map_;
};

}  // namespace alert

#endif  // SRC_CORE_DECISION_CACHE_H_
