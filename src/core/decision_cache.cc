#include "src/core/decision_cache.h"

#include <bit>
#include <cmath>

#include "src/common/check.h"

namespace alert {
namespace {

// Exact keying: the value's bit pattern (distinguishes -0.0 from 0.0, which is the
// right call — bit-identical inputs are the exact-mode contract).
uint64_t ExactBits(double value) { return std::bit_cast<uint64_t>(value); }

// Bucketed keying: the bucket ordinal as a double's bit pattern.  Values whose
// quotient cannot be represented as an integral double (infinite power limits,
// absurdly small steps) fall back to exact bits rather than colliding in one bucket.
uint64_t QuantizedBits(double value, double step) {
  if (step <= 0.0) {
    return ExactBits(value);
  }
  const double bucket = std::floor(value / step + 0.5);
  if (!std::isfinite(bucket) || std::abs(bucket) >= 9.0e15) {
    return ExactBits(value);
  }
  return std::bit_cast<uint64_t>(bucket);
}

uint64_t Mix(uint64_t h, uint64_t v) {
  // FNV-1a over the value's 8 bytes.
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xffu;
    h *= 1099511628211ull;
  }
  return h;
}

}  // namespace

size_t DecisionCache::KeyHash::operator()(const Key& key) const {
  uint64_t h = 14695981039346656037ull;
  h = Mix(h, key.xi_mean);
  h = Mix(h, key.xi_stddev);
  h = Mix(h, key.deadline);
  h = Mix(h, key.period);
  h = Mix(h, key.idle_ratio);
  h = Mix(h, key.fixed_idle_power);
  h = Mix(h, key.percentile);
  h = Mix(h, key.allowance);
  h = Mix(h, key.power_limit);
  h = Mix(h, key.accuracy_goal);
  h = Mix(h, key.energy_budget);
  h = Mix(h, key.prob_threshold);
  h = Mix(h, static_cast<uint64_t>(static_cast<uint32_t>(key.mode)));
  h = Mix(h, (static_cast<uint64_t>(key.use_idle_ratio) << 1) | key.stop_at_cutoff);
  return static_cast<size_t>(h);
}

DecisionCache::DecisionCache(const DecisionEngine& engine,
                             const DecisionCachePolicy& policy)
    : engine_(&engine), policy_(policy) {
  ALERT_CHECK(policy_.enabled());
  ALERT_CHECK(policy_.capacity > 0);
}

DecisionCache::Key DecisionCache::MakeKey(const Goals& goals, Joules allowance,
                                          const DecisionInputs& in,
                                          Watts power_limit) const {
  const bool bucketed = policy_.mode == DecisionCacheMode::kBucketed;
  const auto field = [bucketed](double value, double step) {
    return bucketed ? QuantizedBits(value, step) : ExactBits(value);
  };
  Key key;
  key.xi_mean = field(in.xi.mean, policy_.xi_mean_step);
  key.xi_stddev = field(in.xi.stddev, policy_.xi_stddev_step);
  key.deadline = field(in.deadline, policy_.deadline_step);
  key.period = field(in.period, policy_.deadline_step);
  key.idle_ratio = ExactBits(in.idle_ratio);
  key.fixed_idle_power = ExactBits(in.fixed_idle_power);
  key.percentile = ExactBits(in.percentile);
  key.allowance = field(allowance, policy_.allowance_step);
  key.power_limit = field(power_limit, policy_.power_limit_step);
  key.accuracy_goal = ExactBits(goals.accuracy_goal);
  key.energy_budget = ExactBits(goals.energy_budget);
  key.prob_threshold = ExactBits(goals.prob_threshold);
  key.mode = static_cast<int32_t>(goals.mode);
  key.use_idle_ratio = in.use_idle_ratio ? 1 : 0;
  key.stop_at_cutoff = in.stop_at_cutoff ? 1 : 0;
  return key;
}

bool DecisionCache::Lookup(const Goals& goals, Joules allowance,
                           const DecisionInputs& in, Watts power_limit,
                           DecisionEngine::Selection* out) {
  const auto it = map_.find(MakeKey(goals, allowance, in, power_limit));
  if (it == map_.end()) {
    ++stats_.misses;
    return false;
  }
  // The power limit is a *hard* external constraint (a shared package budget), not
  // part of the bounded-score-gap contract: with power_limit_step > 0 a bucket can
  // span limits on both sides of a cap step, and replaying the higher-limit
  // selection would overdraw the budget.  Such a hit is treated as a miss; the
  // recomputed selection then overwrites the bucket (Insert's same-key branch).
  const DecisionEngine::Selection& cached = it->second->second;
  if (cached.power_index > 0 &&
      engine_->space().cap(cached.power_index) > power_limit + 1e-9) {
    ++stats_.misses;
    return false;
  }
  lru_.splice(lru_.begin(), lru_, it->second);  // refresh recency
  ++stats_.hits;
  *out = cached;
  return true;
}

void DecisionCache::Insert(const Goals& goals, Joules allowance,
                           const DecisionInputs& in, Watts power_limit,
                           const DecisionEngine::Selection& selection) {
  const Key key = MakeKey(goals, allowance, in, power_limit);
  const auto it = map_.find(key);
  if (it != map_.end()) {
    // Same bucket, fresher selection (bucketed mode only — exact-mode recomputation
    // is deterministic, so overwriting is a no-op there).
    it->second->second = selection;
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  lru_.emplace_front(key, selection);
  map_.emplace(key, lru_.begin());
  ++stats_.insertions;
  if (map_.size() > policy_.capacity) {
    map_.erase(lru_.back().first);
    lru_.pop_back();
    ++stats_.evictions;
  }
}

DecisionEngine::Selection DecisionCache::Select(
    const Goals& goals, Joules allowance, const DecisionInputs& in, Watts power_limit,
    DecisionEngine::SelectScratch& scratch) {
  DecisionEngine::Selection selection;
  if (Lookup(goals, allowance, in, power_limit, &selection)) {
    return selection;
  }
  selection = engine_->SelectBest(goals, allowance, in, power_limit, scratch);
  Insert(goals, allowance, in, power_limit, selection);
  return selection;
}

void DecisionCache::Invalidate() {
  stats_.stale += map_.size();
  map_.clear();
  lru_.clear();
}

}  // namespace alert
