#include "src/daemon/alertd.h"

#include <poll.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <utility>

#include "src/common/check.h"

namespace alert::daemon {
namespace {

// Tasks with harness support for evaluation sets and environment traces (NLP2/BERT
// is profiling-figures-only upstream, so it is not serveable).
bool ServeableTask(int task) {
  return task == static_cast<int>(TaskId::kImageClassification) ||
         task == static_cast<int>(TaskId::kSentencePrediction);
}

bool KnownDnnSet(int dnn_set) {
  return dnn_set >= static_cast<int>(DnnSetChoice::kTraditionalOnly) &&
         dnn_set <= static_cast<int>(DnnSetChoice::kBoth);
}

std::string Sanitize(std::string_view text) {
  std::string out(text);
  for (char& c : out) {
    if (c == ' ' || c == '\t' || c == '\n' || c == '\r' || c == '\v' || c == '\f') {
      c = '_';
    }
  }
  return out;
}

}  // namespace

// --- grammar helpers --------------------------------------------------------------

void AppendGoalsFields(const Goals& goals, serde::RecordWriter* writer) {
  writer->Field("mode", static_cast<int>(goals.mode));
  writer->Field("deadline", goals.deadline);
  writer->Field("accuracy_goal", goals.accuracy_goal);
  writer->Field("energy_budget", goals.energy_budget);
  writer->Field("prob_threshold", goals.prob_threshold);
}

serde::Status ParseGoalsFields(serde::RecordReader* reader, Goals* out) {
  int mode = 0;
  Goals goals;
  if (serde::Status s = reader->Get("mode", &mode); !s) return s;
  if (serde::Status s = reader->Get("deadline", &goals.deadline); !s) return s;
  if (serde::Status s = reader->Get("accuracy_goal", &goals.accuracy_goal); !s) return s;
  if (serde::Status s = reader->Get("energy_budget", &goals.energy_budget); !s) return s;
  if (serde::Status s = reader->Get("prob_threshold", &goals.prob_threshold); !s) {
    return s;
  }
  if (mode < 0 || mode > static_cast<int>(GoalMode::kMinimizeLatency)) {
    return serde::Error("mode out of range");
  }
  goals.mode = static_cast<GoalMode>(mode);
  if (goals.prob_threshold < 0.0 || goals.prob_threshold >= 1.0) {
    return serde::Error("prob_threshold out of [0, 1)");
  }
  if (goals.accuracy_goal < 0.0 || goals.energy_budget < 0.0) {
    return serde::Error("negative goal field");
  }
  if (!goals.Valid()) {
    return serde::Error("goals invalid for mode");
  }
  *out = goals;
  return serde::Ok();
}

std::string FormatBeliefLine(std::string_view tag, std::string_view tenant,
                             const BeliefRecord& record) {
  serde::RecordWriter w(tag);
  w.Field("tenant", tenant);
  const BeliefState& b = record.belief;
  w.Field("kalman_mean", b.kalman.mean);
  w.Field("kalman_variance", b.kalman.variance);
  w.Field("kalman_gain", b.kalman.gain);
  w.Field("kalman_noise", b.kalman.process_noise);
  w.Field("kalman_innovation", b.kalman.last_innovation);
  w.Field("kalman_updates", b.kalman.num_updates);
  w.Field("xi_censored", b.xi_censored);
  w.Field("idle_ratio", b.idle.ratio);
  w.Field("idle_variance", b.idle.variance);
  w.Field("idle_gain", b.idle.gain);
  w.Field("idle_updates", b.idle.num_updates);
  w.Field("energy_spent", b.energy_spent);
  w.Field("inputs_observed", b.inputs_observed);
  w.Field("has_decision", record.has_decision);
  if (record.has_decision) {
    w.Field("model", record.decision.candidate.model_index);
    w.Field("stage", record.decision.candidate.stage_limit);
    w.Field("power_index", record.decision.power_index);
  }
  return w.line();
}

serde::Status ParseBeliefFields(serde::RecordReader* reader, const ConfigSpace& space,
                                BeliefRecord* out) {
  BeliefRecord rec;
  BeliefState& b = rec.belief;
  if (serde::Status s = reader->Get("kalman_mean", &b.kalman.mean); !s) return s;
  if (serde::Status s = reader->Get("kalman_variance", &b.kalman.variance); !s) return s;
  if (serde::Status s = reader->Get("kalman_gain", &b.kalman.gain); !s) return s;
  if (serde::Status s = reader->Get("kalman_noise", &b.kalman.process_noise); !s) {
    return s;
  }
  if (serde::Status s = reader->Get("kalman_innovation", &b.kalman.last_innovation);
      !s) {
    return s;
  }
  if (serde::Status s = reader->Get("kalman_updates", &b.kalman.num_updates); !s) {
    return s;
  }
  if (serde::Status s = reader->Get("xi_censored", &b.xi_censored); !s) return s;
  if (serde::Status s = reader->Get("idle_ratio", &b.idle.ratio); !s) return s;
  if (serde::Status s = reader->Get("idle_variance", &b.idle.variance); !s) return s;
  if (serde::Status s = reader->Get("idle_gain", &b.idle.gain); !s) return s;
  if (serde::Status s = reader->Get("idle_updates", &b.idle.num_updates); !s) return s;
  if (serde::Status s = reader->Get("energy_spent", &b.energy_spent); !s) return s;
  if (serde::Status s = reader->Get("inputs_observed", &b.inputs_observed); !s) {
    return s;
  }
  if (serde::Status s = reader->Get("has_decision", &rec.has_decision); !s) return s;

  if (b.kalman.variance < 0.0 || b.idle.variance < 0.0) {
    return serde::Error("negative variance");
  }
  if (b.kalman.num_updates < 0 || b.idle.num_updates < 0 || b.xi_censored < 0 ||
      b.inputs_observed < 0) {
    return serde::Error("negative counter");
  }
  if (rec.has_decision) {
    Candidate candidate;
    int power_index = 0;
    if (serde::Status s = reader->Get("model", &candidate.model_index); !s) return s;
    if (serde::Status s = reader->Get("stage", &candidate.stage_limit); !s) return s;
    if (serde::Status s = reader->Get("power_index", &power_index); !s) return s;
    // Scan for membership instead of ConfigSpace::CandidateIndex: that accessor
    // aborts on a non-member, and wire input must never be able to abort.
    bool member = false;
    for (const Candidate& c : space.candidates()) {
      if (c == candidate) {
        member = true;
        break;
      }
    }
    if (!member) {
      return serde::Error("unknown candidate");
    }
    if (power_index < 0 || power_index >= space.num_powers()) {
      return serde::Error("power_index out of range");
    }
    rec.decision.candidate = candidate;
    rec.decision.power_index = power_index;
    rec.decision.power_cap = space.cap(power_index);
  }
  if (serde::Status s = reader->ExpectAllConsumed(); !s) return s;
  *out = rec;
  return serde::Ok();
}

std::string FormatDecisionLine(std::string_view tenant, int round, int input,
                               const SchedulingDecision& decision) {
  serde::RecordWriter w("decision");
  w.Field("tenant", tenant);
  w.Field("round", round);
  w.Field("input", input);
  w.Field("model", decision.candidate.model_index);
  w.Field("stage", decision.candidate.stage_limit);
  w.Field("power_index", decision.power_index);
  w.Field("power_cap", decision.power_cap);
  return w.line();
}

std::string FormatErrorLine(std::string_view verb, std::string_view reason,
                            std::string_view detail) {
  serde::RecordWriter w("error");
  w.Field("verb", verb.empty() ? "?" : Sanitize(verb));
  w.Field("reason", Sanitize(reason));
  if (!detail.empty()) {
    w.Field("detail", Sanitize(detail));
  }
  return w.line();
}

std::string FormatOkLine(std::string_view verb, std::string_view tenant) {
  serde::RecordWriter w("ok");
  w.Field("verb", verb);
  w.Field("tenant", tenant);
  return w.line();
}

std::string FormatHelloOkLine(std::string_view tenant, int jobs) {
  serde::RecordWriter w("ok");
  w.Field("verb", "tenant-hello");
  w.Field("tenant", tenant);
  w.Field("jobs", jobs);
  return w.line();
}

std::string FormatLimitOkLine(Watts budget) {
  serde::RecordWriter w("ok");
  w.Field("verb", "limit-set");
  w.Field("budget", budget);
  return w.line();
}

// --- admission --------------------------------------------------------------------

Watts MinPowerFloor(const ConfigSpace& space) {
  Watts floor = space.cap(0);
  for (int p = 1; p < space.num_powers(); ++p) {
    floor = std::min(floor, space.cap(p));
  }
  return floor;
}

bool AdmissionAllows(Watts admitted_floor_sum, Watts new_floor, Watts budget) {
  // Small epsilon so a budget set to an exact floor sum admits it (the comparison
  // must be identical on the daemon and replay side — both call this).
  return admitted_floor_sum + new_floor <= budget + 1e-9;
}

// --- StackCache -------------------------------------------------------------------

StackCache::StackCache(PlatformId platform, uint64_t seed)
    : platform_(platform), seed_(seed) {}

const Stack& StackCache::Get(TaskId task, DnnSetChoice dnn_set) {
  for (const Entry& e : entries_) {
    if (e.task == task && e.dnn_set == dnn_set) {
      return *e.stack;
    }
  }
  Entry e;
  e.task = task;
  e.dnn_set = dnn_set;
  // profile_noise_sigma = 0 and the fixed seed make the profile a pure function of
  // (task, dnn_set, platform) — the bit-identical-ConfigSpace half of the
  // equivalence discipline.
  e.stack = std::make_unique<Stack>(dnn_set, BuildEvaluationSet(task, dnn_set),
                                    GetPlatform(platform_),
                                    /*profile_noise_sigma=*/0.0, seed_);
  entries_.push_back(std::move(e));
  return *entries_.back().stack;
}

// --- event log --------------------------------------------------------------------

std::string_view EventTypeName(Event::Type type) {
  switch (type) {
    case Event::Type::kAdmit:
      return "admit";
    case Event::Type::kReject:
      return "reject";
    case Event::Type::kDepart:
      return "depart";
    case Event::Type::kGoalSet:
      return "goal-set";
    case Event::Type::kLimitSet:
      return "limit-set";
    case Event::Type::kRestore:
      return "restore";
    case Event::Type::kDecision:
      return "decision";
    case Event::Type::kRound:
      return "round";
    case Event::Type::kError:
      return "error";
    case Event::Type::kShutdown:
      return "shutdown";
  }
  return "?";
}

std::string FormatEventLine(const Event& event) {
  if (event.type == Event::Type::kRound) {
    serde::RecordWriter w("alertd-round");
    w.Field("round", event.round);
    w.Field("jobs", event.i0);
    return w.line();
  }
  if (event.type == Event::Type::kShutdown) {
    serde::RecordWriter w("alertd-shutdown");
    w.Field("rounds", event.round);
    w.Field("clean", event.i0);
    w.Field("dropped", event.i1);
    return w.line();
  }
  serde::RecordWriter w("alertd-event");
  w.Field("type", EventTypeName(event.type));
  w.Field("round", event.round);
  w.Field("tenant", event.tenant);
  w.Field("i0", event.i0);
  w.Field("i1", event.i1);
  w.Field("i2", event.i2);
  w.Field("d0", event.d0);
  return w.line();
}

EventLog::EventLog(size_t ring_capacity, const std::string& path)
    : ring_(ring_capacity) {
  if (!path.empty()) {
    file_ = std::fopen(path.c_str(), "w");
    ALERT_CHECK(file_ != nullptr);
  }
  consumer_ = std::thread([this] { Consume(); });
}

EventLog::~EventLog() {
  stop_.store(true, std::memory_order_release);
  consumer_.join();
  if (file_ != nullptr) {
    std::fclose(file_);
  }
}

void EventLog::Push(const Event& event) { ring_.TryPush(event); }

void EventLog::Drain() {
  // The caller is the producer, so pushed() cannot advance underneath the wait.
  const uint64_t target = ring_.pushed();
  while (written_.load(std::memory_order_acquire) < target) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

void EventLog::Consume() {
  Event event;
  bool idle_flushed = true;
  for (;;) {
    if (ring_.TryPop(&event)) {
      if (file_ != nullptr) {
        const std::string line = FormatEventLine(event);
        std::fwrite(line.data(), 1, line.size(), file_);
        std::fputc('\n', file_);
      }
      written_.fetch_add(1, std::memory_order_release);
      idle_flushed = false;
      continue;
    }
    if (!idle_flushed && file_ != nullptr) {
      std::fflush(file_);
      idle_flushed = true;
    }
    if (stop_.load(std::memory_order_acquire)) {
      // One final sweep: events pushed between the last pop and the stop flag.
      if (ring_.TryPop(&event)) {
        if (file_ != nullptr) {
          const std::string line = FormatEventLine(event);
          std::fwrite(line.data(), 1, line.size(), file_);
          std::fputc('\n', file_);
        }
        written_.fetch_add(1, std::memory_order_release);
        idle_flushed = false;
        continue;
      }
      if (file_ != nullptr) {
        std::fflush(file_);
      }
      return;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
}

// --- stats ------------------------------------------------------------------------

std::string FormatStatsLine(const AlertdStats& stats, size_t ring_capacity) {
  serde::RecordWriter w("stats");
  w.Field("rounds", stats.rounds);
  w.Field("decisions", stats.decisions);
  w.Field("admitted", stats.admitted);
  w.Field("rejected", stats.rejected);
  w.Field("departed", stats.departed);
  w.Field("restores", stats.restores);
  w.Field("goal_sets", stats.goal_sets);
  w.Field("limit_sets", stats.limit_sets);
  w.Field("rebuilds", stats.rebuilds);
  w.Field("parse_errors", stats.parse_errors);
  w.Field("protocol_errors", stats.protocol_errors);
  w.Field("ring_pushed", stats.ring_pushed);
  w.Field("ring_dropped", stats.ring_dropped);
  w.Field("ring_written", stats.ring_written);
  w.Field("ring_capacity", static_cast<uint64_t>(ring_capacity));
  return w.line();
}

// --- AlertdCore -------------------------------------------------------------------

AlertdCore::AlertdCore(const AlertdOptions& options)
    : options_(options),
      stacks_(options.platform, options.stack_seed),
      log_(options.event_ring_capacity, options.event_log_path) {
  ALERT_CHECK(options_.total_power_budget > 0.0);
}

AlertdCore::~AlertdCore() { Shutdown(); }

void AlertdCore::HandleLine(int session, std::string_view line,
                            std::vector<Outgoing>* out) {
  serde::RecordReader reader;
  if (serde::Status s = serde::RecordReader::Parse(line, &reader); !s) {
    ++counters_.parse_errors;
    log_.Push(Event{.type = Event::Type::kError, .round = round_, .tenant = -1});
    out->push_back({session, FormatErrorLine("parse", "malformed-record", s.message)});
    return;
  }
  const std::string& verb = reader.tag();
  std::string reply;
  if (verb == "tenant-hello") {
    reply = HandleHello(session, reader);
  } else if (verb == "goal-set") {
    reply = HandleGoalSet(reader);
  } else if (verb == "limit-set") {
    reply = HandleLimitSet(reader);
  } else if (verb == "round-tick") {
    reply = HandleTick(session, reader, out);
  } else if (verb == "belief-snapshot") {
    reply = HandleBelieveSnapshot(session, reader);
  } else if (verb == "belief-restore") {
    reply = HandleBeliefRestore(session, reader);
  } else if (verb == "tenant-bye") {
    reply = HandleBye(session, reader, out);
  } else if (verb == "stats") {
    reply = FormatStatsLine(stats(), log_.ring_capacity());
  } else {
    reply = Error(verb, "unknown-verb");
  }
  // The reply to the issuing session goes first; a round fired by a tick has
  // already queued its decision lines behind it (HandleTick inserts the ack before
  // firing, so ordering on the issuing session is ack-then-decision).
  if (!reply.empty()) {
    out->push_back({session, std::move(reply)});
  }
}

std::string AlertdCore::Error(std::string_view verb, std::string_view reason,
                              std::string_view detail) {
  ++counters_.protocol_errors;
  log_.Push(Event{.type = Event::Type::kError, .round = round_, .tenant = -1});
  return FormatErrorLine(verb, reason, detail);
}

int AlertdCore::FindTenant(std::string_view name) const {
  for (size_t i = 0; i < tenants_.size(); ++i) {
    if (tenants_[i].config.name == name) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

Watts AlertdCore::AdmittedFloorSum() const {
  Watts sum = 0.0;
  for (const Tenant& t : tenants_) {
    sum += MinPowerFloor(t.stack->space());
  }
  return sum;
}

std::string AlertdCore::HandleHello(int session, serde::RecordReader& reader) {
  std::string name;
  int task = 0;
  int dnn_set = 0;
  Goals goals;
  if (serde::Status s = reader.Get("tenant", &name); !s) {
    return Error("tenant-hello", "parse", s.message);
  }
  if (serde::Status s = reader.Get("task", &task); !s) {
    return Error("tenant-hello", "parse", s.message);
  }
  if (serde::Status s = reader.Get("dnn_set", &dnn_set); !s) {
    return Error("tenant-hello", "parse", s.message);
  }
  if (serde::Status s = ParseGoalsFields(&reader, &goals); !s) {
    return Error("tenant-hello", "invalid-goals", s.message);
  }
  if (serde::Status s = reader.ExpectAllConsumed(); !s) {
    return Error("tenant-hello", "parse", s.message);
  }
  if (!ServeableTask(task)) {
    return Error("tenant-hello", "unknown-task");
  }
  if (!KnownDnnSet(dnn_set)) {
    return Error("tenant-hello", "unknown-dnn-set");
  }
  if (FindTenant(name) >= 0) {
    return Error("tenant-hello", "duplicate-tenant");
  }

  const Stack& stack =
      stacks_.Get(static_cast<TaskId>(task), static_cast<DnnSetChoice>(dnn_set));
  if (!AdmissionAllows(AdmittedFloorSum(), MinPowerFloor(stack.space()),
                       options_.total_power_budget)) {
    ++counters_.rejected;
    log_.Push(Event{.type = Event::Type::kReject, .round = round_, .tenant = -1});
    return FormatErrorLine("tenant-hello", "admission");
  }

  Tenant tenant;
  tenant.config.name = name;
  tenant.config.task = static_cast<TaskId>(task);
  tenant.config.dnn_set = static_cast<DnnSetChoice>(dnn_set);
  tenant.config.goals = goals;
  tenant.stack = &stack;
  tenant.session = session;
  tenant.id = next_tenant_id_++;

  // Transplant every existing tenant's belief across the rebuild; the newcomer
  // starts from the default prior.
  std::vector<std::optional<BeliefState>> beliefs;
  beliefs.reserve(tenants_.size() + 1);
  for (size_t i = 0; i < tenants_.size(); ++i) {
    beliefs.push_back(coordinator_->job(static_cast<int>(i)).ExportBelief());
  }
  beliefs.push_back(std::nullopt);
  tenants_.push_back(std::move(tenant));
  RebuildCoordinator(beliefs);

  ++counters_.admitted;
  log_.Push(Event{.type = Event::Type::kAdmit,
                  .round = round_,
                  .tenant = tenants_.back().id,
                  .i0 = task,
                  .i1 = dnn_set});
  return FormatHelloOkLine(name, num_tenants());
}

std::string AlertdCore::HandleGoalSet(serde::RecordReader& reader) {
  std::string name;
  Goals goals;
  if (serde::Status s = reader.Get("tenant", &name); !s) {
    return Error("goal-set", "parse", s.message);
  }
  if (serde::Status s = ParseGoalsFields(&reader, &goals); !s) {
    return Error("goal-set", "invalid-goals", s.message);
  }
  if (serde::Status s = reader.ExpectAllConsumed(); !s) {
    return Error("goal-set", "parse", s.message);
  }
  const int index = FindTenant(name);
  if (index < 0) {
    return Error("goal-set", "unknown-tenant");
  }
  // No rebuild and no round dropped: SetJobGoals swaps the live scheduler's goals.
  coordinator_->SetJobGoals(index, goals);
  tenants_[static_cast<size_t>(index)].config.goals = goals;
  ++counters_.goal_sets;
  log_.Push(Event{.type = Event::Type::kGoalSet,
                  .round = round_,
                  .tenant = tenants_[static_cast<size_t>(index)].id,
                  .i0 = static_cast<int32_t>(goals.mode)});
  return FormatOkLine("goal-set", name);
}

std::string AlertdCore::HandleLimitSet(serde::RecordReader& reader) {
  Watts budget = 0.0;
  if (serde::Status s = reader.Get("budget", &budget); !s) {
    return Error("limit-set", "parse", s.message);
  }
  if (serde::Status s = reader.ExpectAllConsumed(); !s) {
    return Error("limit-set", "parse", s.message);
  }
  if (budget <= 0.0) {
    return Error("limit-set", "non-positive-budget");
  }
  // Takes effect on the next round; admission of FUTURE tenants also checks
  // against it.  Already-admitted tenants are never evicted by a budget drop —
  // the allocator scales their grants down instead.
  options_.total_power_budget = budget;
  if (coordinator_ != nullptr) {
    coordinator_->set_total_power_budget(budget);
  }
  ++counters_.limit_sets;
  log_.Push(Event{
      .type = Event::Type::kLimitSet, .round = round_, .tenant = -1, .d0 = budget});
  return FormatLimitOkLine(budget);
}

std::string AlertdCore::HandleTick(int session, serde::RecordReader& reader,
                                   std::vector<Outgoing>* out) {
  std::string name;
  int input = 0;
  InferenceRequest request;
  if (serde::Status s = reader.Get("tenant", &name); !s) {
    return Error("round-tick", "parse", s.message);
  }
  if (serde::Status s = reader.Get("input", &input); !s) {
    return Error("round-tick", "parse", s.message);
  }
  if (serde::Status s = reader.Get("deadline", &request.deadline); !s) {
    return Error("round-tick", "parse", s.message);
  }
  if (serde::Status s = reader.Get("period", &request.period); !s) {
    return Error("round-tick", "parse", s.message);
  }
  const bool has_measurement = reader.Has("m_latency");
  Measurement m;
  if (has_measurement) {
    serde::Status s = reader.Get("m_latency", &m.latency);
    if (s) s = reader.Get("m_period", &m.period);
    if (s) s = reader.Get("m_energy", &m.energy);
    if (s) s = reader.Get("m_ipower", &m.inference_power);
    if (s) s = reader.Get("m_idle", &m.idle_power);
    if (s) s = reader.Get("m_xi_t", &m.xi_anchor_time);
    if (s) s = reader.Get("m_xi_f", &m.xi_anchor_fraction);
    if (s) s = reader.Get("m_xi_c", &m.xi_censored);
    if (!s) {
      return Error("round-tick", "parse", s.message);
    }
  }
  if (serde::Status s = reader.ExpectAllConsumed(); !s) {
    return Error("round-tick", "parse", s.message);
  }
  const int index = FindTenant(name);
  if (index < 0) {
    return Error("round-tick", "unknown-tenant");
  }
  Tenant& tenant = tenants_[static_cast<size_t>(index)];
  if (tenant.session != session) {
    return Error("round-tick", "not-owner");
  }
  if (tenant.has_tick) {
    return Error("round-tick", "duplicate-tick");
  }
  if (input != tenant.ticks) {
    // The client and daemon disagree about how many decisions this tenant has
    // consumed — refusing keeps the round stream consistent instead of silently
    // desynchronizing the equivalence transcript.
    return Error("round-tick", "tick-desync", std::to_string(tenant.ticks));
  }
  if (request.deadline <= 0.0 || request.period < 0.0) {
    return Error("round-tick", "bad-deadline");
  }
  if (has_measurement && !tenant.has_decision) {
    return Error("round-tick", "measurement-without-decision");
  }
  if (!has_measurement && tenant.has_decision) {
    return Error("round-tick", "missing-measurement");
  }
  if (has_measurement &&
      (m.xi_anchor_fraction <= 0.0 || m.xi_anchor_time < 0.0 || m.latency < 0.0 ||
       m.period < 0.0 || m.energy < 0.0)) {
    return Error("round-tick", "bad-measurement");
  }

  request.input_index = input;
  tenant.has_tick = true;
  tenant.pending_request = request;
  tenant.pending_has_measurement = has_measurement;
  tenant.pending_measurement = m;

  // Ack first, so the issuing session sees ack-then-decision in order.
  out->push_back({session, FormatOkLine("round-tick", name)});
  MaybeFireRound(out);
  return std::string();
}

std::string AlertdCore::HandleBelieveSnapshot(int session,
                                              serde::RecordReader& reader) {
  std::string name;
  if (serde::Status s = reader.Get("tenant", &name); !s) {
    return Error("belief-snapshot", "parse", s.message);
  }
  if (serde::Status s = reader.ExpectAllConsumed(); !s) {
    return Error("belief-snapshot", "parse", s.message);
  }
  const int index = FindTenant(name);
  if (index < 0) {
    return Error("belief-snapshot", "unknown-tenant");
  }
  const Tenant& tenant = tenants_[static_cast<size_t>(index)];
  if (tenant.session != session) {
    return Error("belief-snapshot", "not-owner");
  }
  BeliefRecord record;
  record.belief = coordinator_->job(index).ExportBelief();
  record.has_decision = tenant.has_decision;
  record.decision = tenant.last_decision;
  return FormatBeliefLine("belief", name, record);
}

std::string AlertdCore::HandleBeliefRestore(int session, serde::RecordReader& reader) {
  std::string name;
  if (serde::Status s = reader.Get("tenant", &name); !s) {
    return Error("belief-restore", "parse", s.message);
  }
  const int index = FindTenant(name);
  if (index < 0) {
    return Error("belief-restore", "unknown-tenant");
  }
  Tenant& tenant = tenants_[static_cast<size_t>(index)];
  if (tenant.session != session) {
    return Error("belief-restore", "not-owner");
  }
  if (tenant.ticks > 0 || tenant.has_tick) {
    // Restoring over live state would fork the learning history; only a freshly
    // admitted tenant (reconnect flow: bye -> hello -> restore) may restore.
    return Error("belief-restore", "restore-after-tick");
  }
  BeliefRecord record;
  if (serde::Status s = ParseBeliefFields(&reader, tenant.stack->space(), &record);
      !s) {
    return Error("belief-restore", "invalid-belief", s.message);
  }
  coordinator_->job(index).RestoreBelief(record.belief);
  tenant.has_decision = record.has_decision;
  tenant.last_decision = record.decision;
  tenant.ticks = record.ticks();
  ++counters_.restores;
  log_.Push(Event{.type = Event::Type::kRestore,
                  .round = round_,
                  .tenant = tenant.id,
                  .i0 = record.belief.inputs_observed});
  return FormatOkLine("belief-restore", name);
}

std::string AlertdCore::HandleBye(int session, serde::RecordReader& reader,
                                  std::vector<Outgoing>* out) {
  std::string name;
  if (serde::Status s = reader.Get("tenant", &name); !s) {
    return Error("tenant-bye", "parse", s.message);
  }
  if (serde::Status s = reader.ExpectAllConsumed(); !s) {
    return Error("tenant-bye", "parse", s.message);
  }
  const int index = FindTenant(name);
  if (index < 0) {
    return Error("tenant-bye", "unknown-tenant");
  }
  if (tenants_[static_cast<size_t>(index)].session != session) {
    return Error("tenant-bye", "not-owner");
  }
  RemoveTenants({index});
  out->push_back({session, FormatOkLine("tenant-bye", name)});
  // A departure can complete the barrier for everyone remaining.
  MaybeFireRound(out);
  return std::string();
}

void AlertdCore::OnSessionClosed(int session, std::vector<Outgoing>* out) {
  std::vector<int> owned;
  for (size_t i = 0; i < tenants_.size(); ++i) {
    if (tenants_[i].session == session) {
      owned.push_back(static_cast<int>(i));
    }
  }
  if (owned.empty()) {
    return;
  }
  RemoveTenants(owned);
  MaybeFireRound(out);
}

void AlertdCore::RemoveTenants(const std::vector<int>& indices) {
  // Export survivors' beliefs before the old coordinator (and its schedulers) die.
  std::vector<std::optional<BeliefState>> beliefs;
  std::vector<Tenant> survivors;
  size_t cut = 0;
  for (size_t i = 0; i < tenants_.size(); ++i) {
    const bool removed = cut < indices.size() &&
                         indices[cut] == static_cast<int>(i);
    if (removed) {
      ++cut;
      ++counters_.departed;
      log_.Push(Event{.type = Event::Type::kDepart,
                      .round = round_,
                      .tenant = tenants_[i].id,
                      .i0 = tenants_[i].ticks});
      continue;
    }
    beliefs.push_back(coordinator_->job(static_cast<int>(i)).ExportBelief());
    survivors.push_back(std::move(tenants_[i]));
  }
  tenants_ = std::move(survivors);
  RebuildCoordinator(beliefs);
}

void AlertdCore::RebuildCoordinator(
    const std::vector<std::optional<BeliefState>>& beliefs) {
  ALERT_CHECK(beliefs.size() == tenants_.size());
  coordinator_.reset();
  ++counters_.rebuilds;
  if (tenants_.empty()) {
    return;
  }
  std::vector<JobSpec> specs;
  specs.reserve(tenants_.size());
  for (const Tenant& t : tenants_) {
    JobSpec spec;
    spec.name = t.config.name;
    spec.space = &t.stack->space();
    spec.goals = t.config.goals;
    specs.push_back(std::move(spec));
  }
  coordinator_ = std::make_unique<MultiJobCoordinator>(
      std::move(specs), options_.total_power_budget, options_.policy);
  for (size_t i = 0; i < tenants_.size(); ++i) {
    if (beliefs[i].has_value()) {
      coordinator_->job(static_cast<int>(i)).RestoreBelief(*beliefs[i]);
    }
  }
}

void AlertdCore::MaybeFireRound(std::vector<Outgoing>* out) {
  if (tenants_.empty()) {
    return;
  }
  for (const Tenant& t : tenants_) {
    if (!t.has_tick) {
      return;
    }
  }

  const int k = num_tenants();
  // Feedback first, in job order — exactly the offline replay's loop shape.
  for (int i = 0; i < k; ++i) {
    Tenant& t = tenants_[static_cast<size_t>(i)];
    if (t.pending_has_measurement) {
      coordinator_->job(i).Observe(t.last_decision, t.pending_measurement);
    }
  }
  round_requests_.clear();
  for (int i = 0; i < k; ++i) {
    round_requests_.push_back(tenants_[static_cast<size_t>(i)].pending_request);
  }
  coordinator_->DecideRoundInto(round_requests_, &round_decisions_);

  for (int i = 0; i < k; ++i) {
    Tenant& t = tenants_[static_cast<size_t>(i)];
    t.last_decision = round_decisions_[static_cast<size_t>(i)];
    t.has_decision = true;
    t.has_tick = false;
    t.pending_has_measurement = false;
    out->push_back({t.session, FormatDecisionLine(t.config.name, round_, t.ticks,
                                                  t.last_decision)});
    ++t.ticks;
    ++counters_.decisions;
    log_.Push(Event{.type = Event::Type::kDecision,
                    .round = round_,
                    .tenant = t.id,
                    .i0 = t.last_decision.candidate.model_index,
                    .i1 = t.last_decision.candidate.stage_limit,
                    .i2 = t.last_decision.power_index,
                    .d0 = t.last_decision.power_cap});
  }
  // The round marker follows its decisions: a log whose tail has decisions after
  // the last marker was cut mid-round (the e2e drain check).
  log_.Push(
      Event{.type = Event::Type::kRound, .round = round_, .tenant = -1, .i0 = k});
  ++counters_.rounds;
  ++round_;
}

void AlertdCore::Shutdown() {
  if (shut_down_) {
    return;
  }
  shut_down_ = true;
  Event event;
  event.type = Event::Type::kShutdown;
  event.round = round_;
  event.i0 = 1;  // clean: rounds are atomic, so reaching here means no partial round
  event.i1 = static_cast<int32_t>(log_.dropped());
  log_.Push(event);
  log_.Drain();
}

AlertdStats AlertdCore::stats() const {
  AlertdStats s = counters_;
  s.ring_pushed = log_.pushed();
  s.ring_dropped = log_.dropped();
  s.ring_written = log_.written();
  return s;
}

// --- Alertd server ----------------------------------------------------------------

Alertd::Alertd(const AlertdOptions& options) : options_(options) {}

Alertd::~Alertd() {
  Stop();
  Join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
}

serde::Status Alertd::Start() {
  net::EnsureSigpipeIgnored();
  core_ = std::make_unique<AlertdCore>(options_);
  if (serde::Status s = net::ListenLocalhost(&listen_fd_, &port_); !s) {
    return s;
  }
  loop_ = std::thread([this] { Loop(); });
  return serde::Ok();
}

void Alertd::Join() {
  if (!joined_ && loop_.joinable()) {
    loop_.join();
    joined_ = true;
  }
}

AlertdStats Alertd::stats() const {
  ALERT_CHECK(core_ != nullptr);
  return core_->stats();
}

void Alertd::Dispatch(std::vector<Outgoing>& replies) {
  for (Outgoing& reply : replies) {
    for (Session& session : sessions_) {
      if (session.id == reply.session && session.channel != nullptr) {
        // A write failure means the peer died mid-round; the next poll iteration
        // observes the close and evicts its tenants — nothing to do here.
        (void)session.channel->WriteLine(reply.line);
        break;
      }
    }
  }
  replies.clear();
}

bool Alertd::ServiceSession(Session& session) {
  std::string line;
  std::vector<Outgoing> replies;
  for (;;) {
    const net::ReadStatus status = session.channel->ReadLine(0, &line);
    if (status == net::ReadStatus::kTimeout) {
      return true;
    }
    if (status == net::ReadStatus::kClosed) {
      core_->OnSessionClosed(session.id, &replies);
      Dispatch(replies);
      return false;
    }
    core_->HandleLine(session.id, line, &replies);
    Dispatch(replies);
  }
}

void Alertd::Loop() {
  std::vector<pollfd> fds;
  while (!stop_.load(std::memory_order_acquire)) {
    fds.clear();
    fds.push_back(pollfd{listen_fd_, POLLIN, 0});
    for (const Session& session : sessions_) {
      fds.push_back(pollfd{session.channel->read_fd(), POLLIN, 0});
    }
    const int ready = ::poll(fds.data(), fds.size(), options_.poll_interval_ms);
    if (ready <= 0) {
      continue;  // timeout or EINTR: re-check the stop flag
    }
    if (fds[0].revents != 0) {
      int conn_fd = -1;
      if (net::AcceptWithTimeout(listen_fd_, 0, &conn_fd)) {
        Session session;
        session.id = next_session_id_++;
        session.channel = std::make_unique<net::LineChannel>(conn_fd, conn_fd,
                                                             /*owns_fds=*/true);
        sessions_.push_back(std::move(session));
      }
    }
    // Service in session order; closed sessions are evicted in place.  Index-based:
    // ServiceSession never mutates sessions_ (only the core), so only the erase
    // below changes the vector.
    for (size_t i = 0; i < sessions_.size();) {
      // Sessions added by this very iteration sit past the polled set — serving
      // them now (their channel just connected, likely no data yet) is harmless:
      // ReadLine(0) returns kTimeout immediately.
      if (ServiceSession(sessions_[i])) {
        ++i;
      } else {
        sessions_.erase(sessions_.begin() + static_cast<long>(i));
      }
    }
  }
  // Graceful drain: no partial round can exist here (rounds fire inside
  // ServiceSession, which completed), so the shutdown record is truthful.
  core_->Shutdown();
  sessions_.clear();
}

}  // namespace alert::daemon
