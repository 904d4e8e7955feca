// alertd: a long-lived multi-tenant serving daemon over the ALERT decision plane.
//
// The paper evaluates ALERT one process at a time; the coordinator (Section 3.6's
// concurrent-jobs extension, src/core/multi_job.h) already shares one package power
// budget across K fixed jobs.  alertd closes the remaining gap to a deployment:
// tenants ARRIVE, DEPART, RECONNECT, and change goals while the daemon keeps serving
// rounds, all over the line/serde transport the dispatch stack already speaks
// (net::LineChannel carrying `tag key=value ...` records).
//
// == Control grammar (one serde record per line) ==
//
//   client -> daemon
//     tenant-hello    tenant=T task=I dnn_set=I mode=I deadline=F accuracy_goal=F
//                     energy_budget=F prob_threshold=F          admission request
//     goal-set        tenant=T mode=I deadline=F ...            live goal change
//     limit-set       budget=F                                  global budget change
//     round-tick      tenant=T input=I deadline=F period=F
//                     [m_latency=F m_period=F m_energy=F m_ipower=F m_idle=F
//                      m_xi_t=F m_xi_f=F m_xi_c=B]              barrier + feedback
//     belief-snapshot tenant=T                                  export learned state
//     belief-restore  tenant=T <belief fields>                  import learned state
//     tenant-bye      tenant=T                                  departure
//     stats                                                     counters dump
//
//   daemon -> client
//     ok       verb=V [tenant=T] [jobs=I] [budget=F]            ack
//     belief   tenant=T kalman_mean=F ... has_decision=B ...    snapshot reply
//     decision tenant=T round=I input=I model=I stage=I power_index=I power_cap=F
//     stats    rounds=I decisions=I ... ring_dropped=I ...      stats reply
//     error    verb=V reason=R [detail=D]                       typed failure
//
// Malformed input NEVER kills the daemon: every line goes through the strict serde
// parser and every failure becomes a typed `error` reply (serde::Status, not
// exceptions or aborts) while the session and all daemon state survive untouched —
// the protocol-fuzz suite drives tens of thousands of garbage lines through this
// contract.  Closing a connection without `tenant-bye` cleanly evicts the tenants
// that session admitted.
//
// == Round semantics ==
//
// A decision round fires when EVERY admitted tenant has a pending `round-tick`
// (a barrier, so the round is a pure function of daemon state and the tick
// payloads).  The tick carries the measurement of the tenant's PREVIOUS round —
// measurements are produced client-side by replaying the deterministic simulator,
// so the daemon never touches hardware.  Firing a round, in coordinator job order:
// Observe every carried measurement, then MultiJobCoordinator::DecideRoundInto
// under the shared budget, then one `decision` line to each tenant's session.
// Rounds are atomic with respect to shutdown: the event loop checks the stop flag
// only between poll iterations, so a SIGTERM drain can never emit a partial round.
//
// == Equivalence discipline ==
//
// The daemon's decisions must be BIT-IDENTICAL to an offline replay of the same
// churn script straight through a MultiJobCoordinator (src/daemon/churn_sim.h).
// Everything that feeds a decision is therefore deterministic and shared between
// the daemon and the replayer:
//   * profiles: StackCache builds stacks with profile_noise_sigma=0 from one fixed
//     seed, so daemon-side and client-side ConfigSpaces are bit-identical;
//   * membership: tenants enter the coordinator in admission order; arrivals and
//     departures REBUILD the coordinator (it owns its schedulers) and transplant
//     every surviving tenant's learned state via AlertScheduler::ExportBelief /
//     RestoreBelief — exact struct copies, so decisions are unchanged;
//   * goal/limit changes do NOT rebuild: they route through SetJobGoals and
//     set_total_power_budget;
//   * belief persistence: the `belief` record serializes BeliefState through
//     serde's %.17g exact-double round-trip, so a reconnecting tenant restores the
//     same bits it exported.
//
// == Instrumentation ==
//
// The event loop publishes fixed-size events into a lock-free SPSC ring
// (src/daemon/event_ring.h); a consumer thread turns them into structured serde
// log lines (`alertd-event`, `alertd-round`, `alertd-shutdown`).  The hot path
// never blocks on logging — a full ring drops events and counts the drops, and the
// `stats` verb exports the counters.
#ifndef SRC_DAEMON_ALERTD_H_
#define SRC_DAEMON_ALERTD_H_

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "src/common/ids.h"
#include "src/common/net.h"
#include "src/common/serde.h"
#include "src/core/alert_scheduler.h"
#include "src/core/decision_cache.h"
#include "src/core/goals.h"
#include "src/core/multi_job.h"
#include "src/daemon/event_ring.h"
#include "src/dnn/zoo.h"
#include "src/harness/experiment.h"

namespace alert::daemon {

// The one profiling seed every alertd endpoint uses.  The daemon, the churn driver,
// and the offline replayer must all build their Stacks from this seed (and
// profile_noise_sigma = 0) or the equivalence discipline above is void.
inline constexpr uint64_t kAlertdStackSeed = 20;

// ---------------------------------------------------------------------------------
// Shared grammar helpers.  Daemon, churn driver, and offline replayer format and
// parse through these exact functions wherever byte-identical behavior is required.
// ---------------------------------------------------------------------------------

// A tenant as admitted: identity plus the stack key and live goals.
struct TenantConfig {
  std::string name;
  TaskId task = TaskId::kImageClassification;
  DnnSetChoice dnn_set = DnnSetChoice::kBoth;
  Goals goals;
};

// Goal fields in the fixed wire order (mode deadline accuracy_goal energy_budget
// prob_threshold); ParseGoalsFields validates ranges and Goals::Valid().
void AppendGoalsFields(const Goals& goals, serde::RecordWriter* writer);
serde::Status ParseGoalsFields(serde::RecordReader* reader, Goals* out);

// Everything a reconnecting tenant carries across the wire: the learned BeliefState
// plus the last decision it still owes a measurement for.
struct BeliefRecord {
  BeliefState belief;
  bool has_decision = false;
  SchedulingDecision decision;  // meaningful only when has_decision

  // Ticks already consumed, derived (first tick carries no measurement, every later
  // tick exactly one): the value `round-tick input=` validation resumes from.
  int ticks() const { return belief.inputs_observed + (has_decision ? 1 : 0); }
};

// `<tag> tenant=T kalman_mean=F ... has_decision=B [model=I stage=I power_index=I]`.
// Doubles round-trip exactly (%.17g), so Format -> Parse -> Format is the identity.
std::string FormatBeliefLine(std::string_view tag, std::string_view tenant,
                             const BeliefRecord& record);
// Parses the belief fields of an already-opened reader (tag and tenant consumed).
// Validates against `space`: the decision's candidate must be a member (scanned, not
// CandidateIndex — wire input must not be able to abort) and the power index in
// range; counters and variances must be non-negative.  power_cap is recomputed from
// the space, never trusted from the wire.
serde::Status ParseBeliefFields(serde::RecordReader* reader, const ConfigSpace& space,
                                BeliefRecord* out);

// `decision tenant=T round=I input=I model=I stage=I power_index=I power_cap=F` —
// the line the equivalence tests byte-compare between live daemon and replay.
std::string FormatDecisionLine(std::string_view tenant, int round, int input,
                               const SchedulingDecision& decision);

// `error verb=V reason=R [detail=D]`.  `detail` is sanitized (whitespace -> '_') so
// arbitrary parser messages cannot break the record grammar; empty detail is omitted.
std::string FormatErrorLine(std::string_view verb, std::string_view reason,
                            std::string_view detail = {});

// Ack lines, shared so the offline replayer reproduces the daemon's byte-exact
// transcript: `ok verb=V tenant=T`, the hello ack with its job count, and the
// limit ack with the applied budget.
std::string FormatOkLine(std::string_view verb, std::string_view tenant);
std::string FormatHelloOkLine(std::string_view tenant, int jobs);
std::string FormatLimitOkLine(Watts budget);

// ---------------------------------------------------------------------------------
// Admission control.  A tenant is admitted only if every admitted tenant could still
// be granted its family's minimum power cap within the global budget — the weakest
// guarantee under which a round remains schedulable for everyone.
// ---------------------------------------------------------------------------------

// The smallest power cap in the space (the floor a job can always be driven at).
Watts MinPowerFloor(const ConfigSpace& space);

// Whether a tenant with floor `new_floor` fits next to tenants whose floors sum to
// `admitted_floor_sum` under `budget`.  Pure and shared: daemon and replayer must
// agree on every admission verdict.
bool AdmissionAllows(Watts admitted_floor_sum, Watts new_floor, Watts budget);

// ---------------------------------------------------------------------------------
// StackCache: lazily-built, owned (task, dnn_set) -> Stack map.  One per endpoint;
// all stacks share the platform and the fixed profiling seed, so two caches on two
// ends of a connection hand out bit-identical ConfigSpaces.
// ---------------------------------------------------------------------------------

class StackCache {
 public:
  StackCache(PlatformId platform, uint64_t seed);

  // Builds on first use (profile_noise_sigma = 0); the reference lives as long as
  // the cache.  Stacks survive coordinator rebuilds, so profiling happens once per
  // (task, dnn_set) over the daemon's whole lifetime.
  const Stack& Get(TaskId task, DnnSetChoice dnn_set);

  PlatformId platform() const { return platform_; }
  uint64_t seed() const { return seed_; }

 private:
  PlatformId platform_;
  uint64_t seed_;
  struct Entry {
    TaskId task;
    DnnSetChoice dnn_set;
    std::unique_ptr<Stack> stack;
  };
  std::vector<Entry> entries_;
};

// ---------------------------------------------------------------------------------
// Event log: SPSC ring + consumer thread writing structured serde records.
// ---------------------------------------------------------------------------------

struct Event {
  enum class Type : int32_t {
    kAdmit = 0,
    kReject = 1,
    kDepart = 2,
    kGoalSet = 3,
    kLimitSet = 4,
    kRestore = 5,
    kDecision = 6,  // i0=model i1=stage i2=power_index d0=power_cap
    kRound = 7,     // i0=jobs in the round
    kError = 8,
    kShutdown = 9,  // i0=clean d0=total rounds (emitted once, last)
  };
  Type type = Type::kAdmit;
  int32_t round = 0;
  int32_t tenant = 0;  // admission id; -1 when not tenant-scoped
  int32_t i0 = 0;
  int32_t i1 = 0;
  int32_t i2 = 0;
  double d0 = 0.0;
};

std::string_view EventTypeName(Event::Type type);
// One `alertd-event`/`alertd-round`/`alertd-shutdown` record line per event.
std::string FormatEventLine(const Event& event);

// Owns the ring and the consumer thread.  Push() is wait-free for the (single)
// producer; when `path` is empty events are drained and counted but not written.
class EventLog {
 public:
  EventLog(size_t ring_capacity, const std::string& path);
  ~EventLog();
  EventLog(const EventLog&) = delete;
  EventLog& operator=(const EventLog&) = delete;

  void Push(const Event& event);
  // Blocks until every pushed event has been written and flushed (producer thread
  // only — the push counter must be stable).  Used to order the shutdown record.
  void Drain();

  uint64_t pushed() const { return ring_.pushed(); }
  uint64_t dropped() const { return ring_.dropped(); }
  uint64_t written() const { return written_.load(std::memory_order_acquire); }
  size_t ring_capacity() const { return ring_.capacity(); }

 private:
  void Consume();

  EventRing<Event> ring_;
  std::FILE* file_ = nullptr;  // null = count-only
  std::atomic<uint64_t> written_{0};
  std::atomic<bool> stop_{false};
  std::thread consumer_;
};

// ---------------------------------------------------------------------------------
// The daemon core: transport-free protocol + round state machine.  Single-threaded
// by contract — one caller thread issues HandleLine/OnSessionClosed/Shutdown; the
// only concurrency inside is the event-log consumer behind the SPSC ring.
// ---------------------------------------------------------------------------------

struct AlertdOptions {
  PlatformId platform = PlatformId::kCpu1;
  Watts total_power_budget = 100.0;
  AllocationPolicy policy = AllocationPolicy::kProportional;
  uint64_t stack_seed = kAlertdStackSeed;
  size_t event_ring_capacity = 4096;
  std::string event_log_path;  // empty = events counted, not written

  // Server knobs (ignored by a bare AlertdCore).
  int port = 0;               // 0 = ephemeral
  int poll_interval_ms = 50;  // stop-flag latency bound
};

struct AlertdStats {
  uint64_t rounds = 0;
  uint64_t decisions = 0;
  uint64_t admitted = 0;
  uint64_t rejected = 0;
  uint64_t departed = 0;
  uint64_t restores = 0;
  uint64_t goal_sets = 0;
  uint64_t limit_sets = 0;
  uint64_t rebuilds = 0;
  uint64_t parse_errors = 0;     // line did not parse as a record
  uint64_t protocol_errors = 0;  // parsed, but violated the session state machine
  DecisionCacheStats cache;  // always zero: kept only for perfbench's cache-hit metric
  uint64_t ring_pushed = 0;
  uint64_t ring_dropped = 0;
  uint64_t ring_written = 0;
};

std::string FormatStatsLine(const AlertdStats& stats, size_t ring_capacity);

// A reply line destined for one session.
struct Outgoing {
  int session = 0;
  std::string line;
};

class AlertdCore {
 public:
  explicit AlertdCore(const AlertdOptions& options);
  ~AlertdCore();

  // Processes one wire line from `session`, appending every reply it provokes.  A
  // line that completes the round barrier appends `decision` lines addressed to
  // OTHER sessions too.  Never aborts on wire content.
  void HandleLine(int session, std::string_view line, std::vector<Outgoing>* out);

  // The session vanished without tenant-bye: evict every tenant it owns (one
  // rebuild), then fire the round if the departures completed the barrier.
  void OnSessionClosed(int session, std::vector<Outgoing>* out);

  // Graceful drain: emits the `alertd-shutdown clean=1` event and blocks until the
  // log consumer has written everything.  Idempotent.
  void Shutdown();

  AlertdStats stats() const;
  int num_tenants() const { return static_cast<int>(tenants_.size()); }
  int round() const { return round_; }

 private:
  struct Tenant {
    TenantConfig config;
    const Stack* stack = nullptr;
    int session = 0;  // owning session
    int id = 0;       // admission id (monotonic across the daemon's lifetime)
    int ticks = 0;    // decisions delivered (== next expected `input=`)
    bool has_tick = false;
    InferenceRequest pending_request;
    bool pending_has_measurement = false;
    Measurement pending_measurement;
    bool has_decision = false;
    SchedulingDecision last_decision;
  };

  // Verb handlers.  Each returns the reply line for the issuing session; round
  // firing appends to `out` separately.
  std::string HandleHello(int session, serde::RecordReader& reader);
  std::string HandleGoalSet(serde::RecordReader& reader);
  std::string HandleLimitSet(serde::RecordReader& reader);
  std::string HandleTick(int session, serde::RecordReader& reader,
                         std::vector<Outgoing>* out);
  std::string HandleBelieveSnapshot(int session, serde::RecordReader& reader);
  std::string HandleBeliefRestore(int session, serde::RecordReader& reader);
  std::string HandleBye(int session, serde::RecordReader& reader,
                        std::vector<Outgoing>* out);

  int FindTenant(std::string_view name) const;  // -1 when absent
  Watts AdmittedFloorSum() const;
  // Drops the current coordinator and rebuilds it over `tenants_` in admission
  // order, transplanting the given per-tenant beliefs (nullopt = fresh tenant).
  void RebuildCoordinator(const std::vector<std::optional<BeliefState>>& beliefs);
  // Removes tenants_[indices] (ascending, already-validated), one rebuild total.
  void RemoveTenants(const std::vector<int>& indices);
  // Fires the round if every tenant has a pending tick; appends `decision` lines.
  void MaybeFireRound(std::vector<Outgoing>* out);
  std::string Error(std::string_view verb, std::string_view reason,
                    std::string_view detail = {});

  AlertdOptions options_;
  StackCache stacks_;
  EventLog log_;
  std::vector<Tenant> tenants_;  // admission order == coordinator job order
  std::unique_ptr<MultiJobCoordinator> coordinator_;  // null while no tenants
  int round_ = 0;
  int next_tenant_id_ = 0;
  bool shut_down_ = false;
  AlertdStats counters_;  // the non-ring counters

  // Round scratch (reused; DecideRoundInto allocates nothing once warm).
  std::vector<InferenceRequest> round_requests_;
  std::vector<SchedulingDecision> round_decisions_;
};

// ---------------------------------------------------------------------------------
// The TCP server: one event-loop thread multiplexing the listener and every session
// channel over poll(2), delegating lines to AlertdCore.  Start() returns once the
// port is bound; Stop() is async-signal-safe (sets an atomic the loop checks
// between poll iterations — rounds are atomic, so a drain never splits one).
// ---------------------------------------------------------------------------------

class Alertd {
 public:
  explicit Alertd(const AlertdOptions& options);
  ~Alertd();

  serde::Status Start();
  int port() const { return port_; }
  void Stop() { stop_.store(true, std::memory_order_release); }
  // Waits for the loop to drain and exit.  stats() is valid only after Join().
  void Join();
  AlertdStats stats() const;

 private:
  struct Session {
    int id = 0;
    std::unique_ptr<net::LineChannel> channel;
  };

  void Loop();
  // Drains every complete line currently buffered on the session; returns false
  // when the session closed (already handed to the core).
  bool ServiceSession(Session& session);
  void Dispatch(std::vector<Outgoing>& replies);

  AlertdOptions options_;
  std::unique_ptr<AlertdCore> core_;
  int listen_fd_ = -1;
  int port_ = 0;
  std::atomic<bool> stop_{false};
  std::thread loop_;
  bool joined_ = false;
  std::vector<Session> sessions_;
  int next_session_id_ = 1;
};

}  // namespace alert::daemon

#endif  // SRC_DAEMON_ALERTD_H_
