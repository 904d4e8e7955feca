// alertd_churn: the real Alertd, in-process on an ephemeral port, driven over TCP by
// a seeded churn script whose tenants share at most nproc connections.  The live
// transcript must equal ChurnReplayBackend's; the traced run also replays the script
// straight through AlertdCore::HandleLine to split each round into daemon time and
// wire time.
#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/common/net.h"
#include "src/daemon/alertd.h"
#include "src/daemon/churn_sim.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {

using namespace alert;
using namespace alert::daemon;

namespace {

constexpr int kReadTimeoutMs = 10000;
constexpr int kControlEvents = 3000;

// An admission burst (half the universe says hello, in index order) opens the seeded
// script, so the measured rounds run at about 65 live tenants from the start instead
// of ramping up to that over the first ~800 events.
ChurnScript WithAdmissionBurst(ChurnScript script) {
  std::vector<ChurnEvent> burst;
  for (int t = 0; t < script.options.max_tenants / 2; ++t) {
    burst.push_back({ChurnEvent::Kind::kArrive, t, 0.0});
  }
  script.events.insert(script.events.begin(), burst.begin(), burst.end());
  return script;
}

// --- request lines, formatted exactly as ChurnDriverBackend formats them ----------

std::string HelloLine(const ChurnTenant& tenant, const Goals& goals) {
  serde::RecordWriter w("tenant-hello");
  w.Field("tenant", tenant.config.name);
  w.Field("task", static_cast<int>(tenant.config.task));
  w.Field("dnn_set", static_cast<int>(tenant.config.dnn_set));
  AppendGoalsFields(goals, &w);
  return w.line();
}

std::string TenantLine(const char* verb, const ChurnTenant& tenant) {
  serde::RecordWriter w(verb);
  w.Field("tenant", tenant.config.name);
  return w.line();
}

std::string GoalSetLine(const ChurnTenant& tenant, const Goals& goals) {
  serde::RecordWriter w("goal-set");
  w.Field("tenant", tenant.config.name);
  AppendGoalsFields(goals, &w);
  return w.line();
}

std::string LimitSetLine(Watts budget) {
  serde::RecordWriter w("limit-set");
  w.Field("budget", budget);
  return w.line();
}

std::string TickLine(const TickInfo& info) {
  serde::RecordWriter w("round-tick");
  w.Field("tenant", info.name);
  w.Field("input", info.request.input_index);
  w.Field("deadline", info.request.deadline);
  w.Field("period", info.request.period);
  if (info.has_measurement) {
    const Measurement& m = info.measurement;
    w.Field("m_latency", m.latency);
    w.Field("m_period", m.period);
    w.Field("m_energy", m.energy);
    w.Field("m_ipower", m.inference_power);
    w.Field("m_idle", m.idle_power);
    w.Field("m_xi_t", m.xi_anchor_time);
    w.Field("m_xi_f", m.xi_anchor_fraction);
    w.Field("m_xi_c", m.xi_censored);
  }
  return w.line();
}

// The snapshot reply, forwarded verbatim under the restore verb (bit-exact restore).
std::string RestoreLine(const std::string& saved_belief) {
  constexpr std::string_view kBeliefTag = "belief ";
  if (saved_belief.rfind(kBeliefTag, 0) != 0) {
    return {};
  }
  return "belief-restore " + saved_belief.substr(kBeliefTag.size());
}

bool IsAdmissionRejection(const std::string& reply) {
  return reply.rfind("error verb=tenant-hello reason=admission", 0) == 0;
}

bool IsOk(const std::string& reply) { return reply.rfind("ok ", 0) == 0; }

// Shared by the two backends that speak lines: which session owns which tenant.
// Sessions are assigned round-robin at admission, so a reconnect (bye, then hello)
// moves the tenant to the next session.
class SessionMap {
 public:
  SessionMap(int sessions, size_t tenants) : sessions_(sessions), owner_(tenants, -1) {}
  int Next() { return next_++ % sessions_; }
  int Of(int tenant) const { return owner_[static_cast<size_t>(tenant)]; }
  void Set(int tenant, int session) { owner_[static_cast<size_t>(tenant)] = session; }

 private:
  int sessions_;
  int next_ = 0;
  std::vector<int> owner_;
};

// --- live: the load generator over at most nproc TCP connections -------------------

class MuxDriverBackend final : public ChurnBackend {
 public:
  MuxDriverBackend(int port, int connections, size_t tenants, int64_t deadline_ns)
      : sessions_(connections, tenants), saved_(tenants), deadline_ns_(deadline_ns) {
    net::EnsureSigpipeIgnored();
    for (int i = 0; i < connections; ++i) {
      int fd = -1;
      if (!net::ConnectTcp("127.0.0.1", port, &fd)) {
        failed_ = true;
        errors_.push_back("connect failed");
        return;
      }
      conns_.push_back(std::make_unique<net::LineChannel>(fd, fd, /*owns_fds=*/true));
    }
  }

  void Hello(const ChurnTenant& tenant, const Goals& goals,
             std::vector<std::string>* transcript, bool* admitted) override {
    ++calls_;
    *admitted = false;
    const int session = sessions_.Next();
    if (!Control(session, HelloLine(tenant, goals), transcript)) {
      return;
    }
    if (IsOk(transcript->back())) {
      *admitted = true;
      sessions_.Set(Index(tenant), session);
    } else if (IsAdmissionRejection(transcript->back())) {
      ++rejected_;
    } else {
      ++unexpected_errors_;
    }
  }
  void Bye(const ChurnTenant& tenant, std::vector<std::string>* transcript) override {
    ++calls_;
    CheckedControl(sessions_.Of(Index(tenant)), TenantLine("tenant-bye", tenant),
                   transcript);
    sessions_.Set(Index(tenant), -1);
  }
  void GoalSet(const ChurnTenant& tenant, const Goals& goals,
               std::vector<std::string>* transcript) override {
    ++calls_;
    CheckedControl(sessions_.Of(Index(tenant)), GoalSetLine(tenant, goals), transcript);
  }
  void LimitSet(Watts budget, std::vector<std::string>* transcript) override {
    ++calls_;
    CheckedControl(0, LimitSetLine(budget), transcript);
  }
  void SnapshotForReconnect(const ChurnTenant& tenant,
                            std::vector<std::string>* transcript) override {
    ++calls_;
    if (Control(sessions_.Of(Index(tenant)), TenantLine("belief-snapshot", tenant),
                transcript)) {
      saved_[static_cast<size_t>(Index(tenant))] = transcript->back();
    }
  }
  void Restore(const ChurnTenant& tenant, std::vector<std::string>* transcript) override {
    ++calls_;
    CheckedControl(sessions_.Of(Index(tenant)),
                   RestoreLine(saved_[static_cast<size_t>(Index(tenant))]), transcript);
  }

  // Closed loop, one round at a time: tick every member in member order (reading
  // each ack), then read one decision per member off its session.  Each session
  // delivers its decisions in job order, which is member order.
  void Round(const std::vector<TickInfo>& ticks,
             std::vector<std::string>* transcript) override {
    ++calls_;
    if (failed_) {
      return;
    }
    const int64_t t0 = NowNs();
    for (const TickInfo& info : ticks) {
      if (!Exchange(sessions_.Of(info.tenant), TickLine(info), transcript)) {
        return;
      }
    }
    for (const TickInfo& info : ticks) {
      std::string line;
      if (!Read(sessions_.Of(info.tenant), &line)) {
        return;
      }
      transcript->push_back(std::move(line));
    }
    round_ms_.push_back(1e-6 * static_cast<double>(NowNs() - t0));
    members_.push_back(static_cast<double>(ticks.size()));
  }

  // A transport failure, or the time budget ran out (checked between events).
  bool failed() const override {
    if (!failed_ && !stopped_ && NowNs() >= deadline_ns_) {
      stopped_ = true;
    }
    return failed_ || stopped_;
  }

  void CloseAll() { conns_.clear(); }

  int64_t calls() const { return calls_; }
  bool stopped_early() const { return stopped_; }
  const std::vector<std::string>& errors() const { return errors_; }
  const std::vector<double>& round_ms() const { return round_ms_; }
  const std::vector<double>& control_ms() const { return control_ms_; }
  const std::vector<std::string>& control_verb() const { return control_verb_; }
  const std::vector<double>& members() const { return members_; }
  int64_t rejected() const { return rejected_; }
  int64_t unexpected_errors() const { return unexpected_errors_; }

 private:
  static int Index(const ChurnTenant& tenant) { return std::stoi(tenant.config.name.substr(1)); }

  bool Read(int session, std::string* line) {
    if (session < 0 || static_cast<size_t>(session) >= conns_.size()) {
      return Error("no session for tenant");
    }
    const net::ReadStatus status = conns_[static_cast<size_t>(session)]->ReadLine(
        kReadTimeoutMs, line);
    if (status != net::ReadStatus::kLine) {
      return Error(status == net::ReadStatus::kTimeout ? "read timeout"
                                                       : "connection closed");
    }
    return true;
  }

  bool Exchange(int session, const std::string& line,
                std::vector<std::string>* transcript) {
    if (failed_) {
      return false;
    }
    if (session < 0 || static_cast<size_t>(session) >= conns_.size()) {
      return Error("no session for tenant");
    }
    if (!conns_[static_cast<size_t>(session)]->WriteLine(line)) {
      return Error("write failed");
    }
    std::string reply;
    if (!Read(session, &reply)) {
      return false;
    }
    transcript->push_back(std::move(reply));
    return true;
  }

  // A timed control exchange (hello, bye, goal-set, limit-set, snapshot, restore).
  bool Control(int session, const std::string& line,
               std::vector<std::string>* transcript) {
    const int64_t t0 = NowNs();
    const bool ok = Exchange(session, line, transcript);
    if (ok) {
      control_ms_.push_back(1e-6 * static_cast<double>(NowNs() - t0));
      control_verb_.push_back(line.substr(0, line.find(' ')));
    }
    return ok;
  }

  // A control exchange whose only correct reply is `ok`.
  void CheckedControl(int session, const std::string& line,
                      std::vector<std::string>* transcript) {
    if (Control(session, line, transcript) && !IsOk(transcript->back())) {
      ++unexpected_errors_;
    }
  }

  bool Error(const char* why) {
    failed_ = true;
    errors_.push_back(why);
    return false;
  }

  std::vector<std::unique_ptr<net::LineChannel>> conns_;
  SessionMap sessions_;
  std::vector<std::string> saved_;  // belief replies, by tenant index
  int64_t deadline_ns_;
  bool failed_ = false;
  mutable bool stopped_ = false;
  int64_t calls_ = 0;
  int64_t rejected_ = 0;
  int64_t unexpected_errors_ = 0;
  std::vector<std::string> errors_;
  std::vector<double> round_ms_;
  std::vector<double> control_ms_;
  std::vector<std::string> control_verb_;
  std::vector<double> members_;
};

// --- in-core: the same lines straight into AlertdCore::HandleLine ------------------

class CoreBackend final : public ChurnBackend {
 public:
  CoreBackend(const AlertdOptions& options, int sessions, size_t tenants)
      : core_(options), sessions_(sessions, tenants), saved_(tenants) {}

  void Hello(const ChurnTenant& tenant, const Goals& goals,
             std::vector<std::string>* transcript, bool* admitted) override {
    const Span root("alertd.call");
    const int session = sessions_.Next();
    Handle("daemon.hello", session, HelloLine(tenant, goals), transcript);
    *admitted = IsOk(transcript->back());
    if (*admitted) {
      sessions_.Set(Index(tenant), session);
    }
  }
  void Bye(const ChurnTenant& tenant, std::vector<std::string>* transcript) override {
    const Span root("alertd.call");
    Handle("daemon.bye", sessions_.Of(Index(tenant)), TenantLine("tenant-bye", tenant),
           transcript);
    sessions_.Set(Index(tenant), -1);
  }
  void GoalSet(const ChurnTenant& tenant, const Goals& goals,
               std::vector<std::string>* transcript) override {
    const Span root("alertd.call");
    Handle("daemon.goal_set", sessions_.Of(Index(tenant)), GoalSetLine(tenant, goals),
           transcript);
  }
  void LimitSet(Watts budget, std::vector<std::string>* transcript) override {
    const Span root("alertd.call");
    Handle("daemon.limit_set", 0, LimitSetLine(budget), transcript);
  }
  void SnapshotForReconnect(const ChurnTenant& tenant,
                            std::vector<std::string>* transcript) override {
    const Span root("alertd.call");
    Handle("daemon.snapshot", sessions_.Of(Index(tenant)),
           TenantLine("belief-snapshot", tenant), transcript);
    saved_[static_cast<size_t>(Index(tenant))] = transcript->back();
  }
  void Restore(const ChurnTenant& tenant, std::vector<std::string>* transcript) override {
    const Span root("alertd.call");
    Handle("daemon.restore", sessions_.Of(Index(tenant)),
           RestoreLine(saved_[static_cast<size_t>(Index(tenant))]), transcript);
  }
  void Round(const std::vector<TickInfo>& ticks,
             std::vector<std::string>* transcript) override {
    const Span root("alertd.round", static_cast<int64_t>(round_ns_.size()));
    std::vector<std::string> decisions;
    int64_t core_ns = 0;
    for (size_t i = 0; i < ticks.size(); ++i) {
      std::string line;
      {
        const Span span("serde.format_request");
        line = TickLine(ticks[i]);
      }
      out_.clear();
      const int64_t t0 = NowNs();
      {
        const Span span(i + 1 == ticks.size() ? "daemon.round_fire" : "daemon.tick");
        core_.HandleLine(sessions_.Of(ticks[i].tenant), line, &out_);
      }
      core_ns += NowNs() - t0;
      // The issuing session's ack comes first, then (last tick only) the decisions
      // in job order.
      for (size_t j = 0; j < out_.size(); ++j) {
        (j == 0 ? *transcript : decisions).push_back(std::move(out_[j].line));
      }
    }
    transcript->insert(transcript->end(), std::make_move_iterator(decisions.begin()),
                       std::make_move_iterator(decisions.end()));
    round_ns_.push_back(static_cast<double>(core_ns));
  }

  const std::vector<double>& round_ns() const { return round_ns_; }

 private:
  static int Index(const ChurnTenant& tenant) { return std::stoi(tenant.config.name.substr(1)); }

  void Handle(const char* span_name, int session, const std::string& line,
              std::vector<std::string>* transcript) {
    out_.clear();
    {
      const Span span(span_name);
      core_.HandleLine(session, line, &out_);
    }
    transcript->push_back(out_.empty() ? std::string("no-reply") : out_.front().line);
  }

  AlertdCore core_;
  SessionMap sessions_;
  std::vector<std::string> saved_;
  std::vector<Outgoing> out_;
  std::vector<double> round_ns_;  // HandleLine time per round, by round index
};

// Forwards to `inner` until it has made `limit` calls, then reports failed() so
// the interpreter stops exactly where the time-limited live run stopped.
class CallLimit final : public ChurnBackend {
 public:
  CallLimit(ChurnBackend& inner, int64_t limit) : inner_(inner), limit_(limit) {}

  void Hello(const ChurnTenant& tenant, const Goals& goals,
             std::vector<std::string>* transcript, bool* admitted) override {
    ++calls_;
    inner_.Hello(tenant, goals, transcript, admitted);
  }
  void Bye(const ChurnTenant& tenant, std::vector<std::string>* transcript) override {
    ++calls_;
    inner_.Bye(tenant, transcript);
  }
  void GoalSet(const ChurnTenant& tenant, const Goals& goals,
               std::vector<std::string>* transcript) override {
    ++calls_;
    inner_.GoalSet(tenant, goals, transcript);
  }
  void LimitSet(Watts budget, std::vector<std::string>* transcript) override {
    ++calls_;
    inner_.LimitSet(budget, transcript);
  }
  void SnapshotForReconnect(const ChurnTenant& tenant,
                            std::vector<std::string>* transcript) override {
    ++calls_;
    inner_.SnapshotForReconnect(tenant, transcript);
  }
  void Restore(const ChurnTenant& tenant, std::vector<std::string>* transcript) override {
    ++calls_;
    inner_.Restore(tenant, transcript);
  }
  void Round(const std::vector<TickInfo>& ticks,
             std::vector<std::string>* transcript) override {
    ++calls_;
    const Span root("alertd.replay_call");
    const Span span("core.replay_round");
    inner_.Round(ticks, transcript);
  }
  bool failed() const override { return inner_.failed() || calls_ >= limit_; }

 private:
  ChurnBackend& inner_;
  int64_t limit_;
  int64_t calls_ = 0;
};

// Number of differing lines (length difference included).
int64_t TranscriptDiff(const std::vector<std::string>& a, const std::vector<std::string>& b) {
  int64_t diff = static_cast<int64_t>(a.size() > b.size() ? a.size() - b.size()
                                                          : b.size() - a.size());
  for (size_t i = 0; i < std::min(a.size(), b.size()); ++i) {
    diff += a[i] != b[i] ? 1 : 0;
  }
  return diff;
}

std::string TranscriptDigest(const std::vector<std::string>& lines) {
  uint64_t h = Fnv1a("");
  for (const std::string& line : lines) {
    h = Fnv1a(line, h);
    h = Fnv1a("\n", h);
  }
  return Hex(h);
}

// One live pass over the script: a fresh daemon, the script over TCP, a clean stop.
struct LivePass {
  std::vector<std::string> transcript;
  int64_t calls = 0;
  std::vector<double> round_ms;
  std::vector<double> control_ms;
  std::vector<std::string> control_verb;  // the request verb of each control exchange
  std::vector<double> members;
  AlertdStats stats;
};

class AlertdChurn final : public Workload {
 public:
  AlertdChurn(const RunContext& ctx, uint64_t seed) : ctx_(ctx) {
    ChurnScriptOptions script_options;
    script_options.seed = seed;
    script_options.max_tenants = ctx.smoke ? 8 : 128;
    script_options.num_events = ctx.smoke ? 40 : 180;
    script_options.platform = PlatformId::kCpu1;
    script_options.initial_budget = ctx.smoke ? 200.0 : 2000.0;
    script_ = WithAdmissionBurst(MakeChurnScript(script_options));
    // The control script: churn only, no rounds, so a pass of it issues thousands of
    // control exchanges in under a second, where a round pass issues ~150 among rounds
    // that each stall ~45 ms.  control_ms_p50 is measured on it.
    ChurnScriptOptions control_options = script_options;
    control_options.seed = seed ^ 0x636f6e74726f6cull;
    control_options.num_events = ctx.smoke ? 40 : kControlEvents;
    control_options.churn_prob = 1.0;
    control_script_ = WithAdmissionBurst(MakeChurnScript(control_options));
    std::erase_if(control_script_.events, [](const ChurnEvent& event) {
      return event.kind == ChurnEvent::Kind::kRound;
    });
    control_script_.num_rounds = 0;
    options_.platform = script_options.platform;
    options_.total_power_budget = script_options.initial_budget;
  }

  // Daemon construction up to a bound, listening port.
  double Setup() override {
    const int64_t t0 = NowNs();
    Alertd daemon(options_);
    const serde::Status started = daemon.Start();
    const double setup_s = 1e-9 * static_cast<double>(NowNs() - t0);
    if (!started) {
      errors_.push_back("alertd failed to start: " + started.message);
    }
    return setup_s;
  }

  void Step() override {
    Interleave();
    LivePass pass = RunLive(script_);
    CompareWithReplay(script_, pass);
    if (pass.round_ms.empty()) {
      errors_.push_back("no round completed");
    } else {
      round_p50_.push_back(Median(pass.round_ms));
      round_p90_.push_back(Quantile(pass.round_ms, 0.9));
    }
    if (passes_.empty()) {
      digest_ = TranscriptDigest(pass.transcript);
    }
    passes_.push_back(std::move(pass));
  }

  // A control pass: a fresh daemon, the control script over TCP.
  void Interleave() override {
    LivePass control = RunLive(control_script_);
    CompareWithReplay(control_script_, control);
    std::map<std::string, std::vector<double>> by_verb;
    for (size_t i = 0; i < control.control_ms.size(); ++i) {
      by_verb[control.control_verb[i]].push_back(control.control_ms[i]);
    }
    for (const auto& [verb, ms] : by_verb) {
      control_p50_by_verb_[verb].push_back(Median(ms));
    }
  }

  Report Finish() override {
    if (!ctx_.trace || passes_.empty()) {
      Report report = Base();
      report.Set("round_ms_p50", BestOf(round_p50_), "ms");
      report.Set("round_ms_p90", BestOf(round_p90_), "ms");
      // Each verb's median, minimum over the control passes, averaged over the verbs
      // so that the figure does not move with the seed's mix of verbs.
      double control_ms = 0.0;
      for (const auto& [verb, p50s] : control_p50_by_verb_) {
        control_ms += BestOf(p50s) / static_cast<double>(control_p50_by_verb_.size());
      }
      report.Set("control_ms_p50", control_ms, "ms");
      return report;
    }
    const LivePass& first = passes_.front();

    // The offline oracle again, traced: ChurnReplayBackend::Round per round.
    double replay_busy_s = 0.0;
    const SpanTable replay_spans = Traced(true, &replay_busy_s, [&] {
      ChurnReplayBackend replay(script_);
      CallLimit limited(replay, first.calls);
      RunChurnScript(script_, limited);
    });
    // In-core: the same lines through AlertdCore::HandleLine, untraced then traced.
    std::vector<double> core_round_ns;
    const auto run_core = [&] {
      CoreBackend core(options_, ctx_.threads, script_.tenants.size());
      CallLimit limited(core, first.calls);
      const int64_t t0 = NowNs();
      const std::vector<std::string> transcript = RunChurnScript(script_, limited);
      const double wall_s = 1e-9 * static_cast<double>(NowNs() - t0);
      Compare(first.transcript, transcript, "in-core AlertdCore::HandleLine");
      core_round_ns = core.round_ns();
      return wall_s;
    };
    // A pass in-core takes tens of milliseconds, so both sides are the best of a few,
    // alternating; the spans are those of the last traced pass.
    std::vector<double> untraced_core_s;
    std::vector<double> traced_core_s;
    double busy_s = 0.0;
    SpanTable spans;
    for (int i = 0; i < 5; ++i) {
      untraced_core_s.push_back(run_core());
      spans = Traced(true, &busy_s, [&] { traced_core_s.push_back(run_core()); });
    }

    Report report = Base();
    const auto p50 = [&spans](const char* name) { return MedianSelfSeconds(spans, name); };
    // Wire time per round: the live round (median over passes) minus the in-core round.
    std::vector<double> wire_ms;
    for (size_t i = 0; i < core_round_ns.size(); ++i) {
      std::vector<double> live_ms;
      for (const LivePass& pass : passes_) {
        if (i < pass.round_ms.size()) {
          live_ms.push_back(pass.round_ms[i]);
        }
      }
      if (!live_ms.empty()) {
        wire_ms.push_back(Median(live_ms) - 1e-6 * core_round_ns[i]);
      }
    }
    report.Set("net.wire_ms_p50", Median(wire_ms), "ms");
    report.Set("daemon.round_fire_ms_p50", 1e3 * p50("daemon.round_fire"), "ms");
    report.Set("core.replay_round_ms_p50",
               1e3 * MedianSelfSeconds(replay_spans, "core.replay_round"), "ms");
    report.Set("daemon.hello_ms_p50", 1e3 * p50("daemon.hello"), "ms");
    report.Set("daemon.bye_ms_p50", 1e3 * p50("daemon.bye"), "ms");
    report.Set("daemon.restore_ms_p50", 1e3 * p50("daemon.restore"), "ms");
    report.Set("daemon.snapshot_us_p50", 1e6 * p50("daemon.snapshot"), "us");
    report.Set("daemon.goal_set_us_p50", 1e6 * p50("daemon.goal_set"), "us");
    report.Set("daemon.tick_us_p50", 1e6 * p50("daemon.tick"), "us");
    const AlertdStats& stats = first.stats;
    const double lookups = static_cast<double>(stats.cache.hits + stats.cache.misses);
    report.Set("core.cache_hit_rate",
               lookups > 0 ? static_cast<double>(stats.cache.hits) / lookups : 0.0, "ratio");
    report.Set("daemon.rebuilds", static_cast<double>(stats.rebuilds), "count");
    report.Set("daemon.rounds", static_cast<double>(stats.rounds), "count");
    report.Set("daemon.decisions", static_cast<double>(stats.decisions), "count");
    double members = 0.0;
    for (const double m : first.members) {
      members += m;
    }
    report.Set("daemon.live_tenants_mean",
               first.members.empty() ? 0.0
                                     : members / static_cast<double>(first.members.size()),
               "count");
    report.Set("daemon.rejected", static_cast<double>(stats.rejected), "count");
    report.Set("daemon.errors",
               static_cast<double>(stats.parse_errors + stats.protocol_errors), "count");
    report.Set("daemon.ring_dropped", static_cast<double>(stats.ring_dropped), "count");
    report.Set("trace.overhead_frac.alertd_churn",
               BestOf(traced_core_s) / BestOf(untraced_core_s) - 1.0, "ratio");
    const double layered = LayerSeconds(
        spans, {"daemon.hello", "daemon.bye", "daemon.goal_set", "daemon.limit_set",
                "daemon.snapshot", "daemon.restore", "daemon.tick", "daemon.round_fire",
                "serde.format_request"});
    report.Set("trace.unaccounted_frac.alertd_churn",
               busy_s > 0.0 ? 1.0 - layered / busy_s : 0.0, "ratio");
    return report;
  }

 private:
  LivePass RunLive(const ChurnScript& script) {
    LivePass pass;
    Alertd daemon(options_);
    if (const serde::Status started = daemon.Start(); !started) {
      errors_.push_back("alertd failed to start: " + started.message);
      ++ops_.failed;
      return pass;
    }
    // A safety cap: a pass that stalls this long stops between events.
    const int64_t deadline = NowNs() + 60'000'000'000;
    MuxDriverBackend live(daemon.port(), ctx_.threads, script.tenants.size(), deadline);
    pass.transcript = RunChurnScript(script, live);
    live.CloseAll();
    daemon.Stop();
    daemon.Join();
    pass.stats = daemon.stats();
    pass.calls = live.calls();
    pass.round_ms = live.round_ms();
    pass.control_ms = live.control_ms();
    pass.control_verb = live.control_verb();
    pass.members = live.members();
    ops_.attempted += static_cast<int64_t>(pass.round_ms.size() + pass.control_ms.size());
    ops_.rejected += live.rejected();
    ops_.failed += static_cast<int64_t>(live.errors().size()) + live.unexpected_errors();
    for (const std::string& error : live.errors()) {
      errors_.push_back("live driver: " + error);
    }
    if (live.unexpected_errors() > 0) {
      errors_.push_back("alertd answered " + std::to_string(live.unexpected_errors()) +
                        " request(s) with an unexpected error");
    }
    if (live.stopped_early()) {
      errors_.push_back("a live pass hit the 60 s safety cap");
    }
    return pass;
  }

  // The offline oracle, cut at the same call as the live pass.
  void CompareWithReplay(const ChurnScript& script, const LivePass& pass) {
    ChurnReplayBackend replay(script);
    CallLimit limited(replay, pass.calls);
    Compare(pass.transcript, RunChurnScript(script, limited), "ChurnReplayBackend");
  }

  void Compare(const std::vector<std::string>& live, const std::vector<std::string>& other,
               const char* what) {
    if (const int64_t diff = TranscriptDiff(live, other); diff > 0) {
      ++ops_.failed;
      errors_.push_back(std::string("live transcript differs from the ") + what +
                        " transcript in " + std::to_string(diff) + " line(s)");
    }
  }

  Report Base() const {
    Report report;
    for (const std::string& error : errors_) {
      report.Fail(error);
    }
    report.ops = ops_;
    report.digest = digest_;
    return report;
  }

  const RunContext& ctx_;
  ChurnScript script_;
  ChurnScript control_script_;
  AlertdOptions options_;
  std::vector<LivePass> passes_;
  std::vector<double> round_p50_;
  std::vector<double> round_p90_;
  // Each control pass's median exchange time, by verb.
  std::map<std::string, std::vector<double>> control_p50_by_verb_;
  std::string digest_;
  std::vector<std::string> errors_;
  Ops ops_{.what = "rounds+control"};
};

}  // namespace

std::unique_ptr<Workload> MakeAlertdChurn(const RunContext& ctx, uint64_t seed) {
  return std::make_unique<AlertdChurn>(ctx, seed);
}

}  // namespace perfbench
