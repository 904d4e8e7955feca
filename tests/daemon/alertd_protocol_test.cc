// Protocol robustness tests for the alertd control grammar: round-trips of every
// message type through the shared formatters/parsers, the session state machine's
// typed error replies, and a fuzz plane that feeds tens of thousands of garbage,
// truncated, mutated, and duplicate-key lines into AlertdCore — which must never
// crash, never abort, and stay fully serviceable afterwards.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/common/serde.h"
#include "src/daemon/alertd.h"

namespace alert::daemon {
namespace {

Goals AccuracyGoals(Seconds deadline) {
  Goals g;
  g.mode = GoalMode::kMaximizeAccuracy;
  g.deadline = deadline;
  g.energy_budget = 1e9;
  return g;
}

class AlertdProtocolTest : public ::testing::Test {
 protected:
  AlertdProtocolTest() : core_(Options()) {}

  static AlertdOptions Options() {
    AlertdOptions options;
    options.platform = PlatformId::kCpu1;
    options.total_power_budget = 200.0;
    return options;
  }

  // Sends one line on `session`, returns every reply it provoked (all sessions).
  std::vector<Outgoing> Send(int session, const std::string& line) {
    std::vector<Outgoing> out;
    core_.HandleLine(session, line, &out);
    return out;
  }

  static std::string HelloLine(const std::string& name, const Goals& goals,
                               int task = 0, int dnn_set = 2) {
    serde::RecordWriter w("tenant-hello");
    w.Field("tenant", name);
    w.Field("task", task);
    w.Field("dnn_set", dnn_set);
    AppendGoalsFields(goals, &w);
    return w.line();
  }

  static std::string TickLine(const std::string& name, int input, double deadline) {
    serde::RecordWriter w("round-tick");
    w.Field("tenant", name);
    w.Field("input", input);
    w.Field("deadline", deadline);
    w.Field("period", deadline);
    return w.line();
  }

  // The one reply a line must have produced, as a parsed record.
  serde::RecordReader OnlyReply(const std::vector<Outgoing>& out) {
    EXPECT_EQ(out.size(), 1u);
    serde::RecordReader reader;
    EXPECT_TRUE(static_cast<bool>(
        serde::RecordReader::Parse(out.empty() ? "" : out[0].line, &reader)));
    return reader;
  }

  void ExpectError(const std::vector<Outgoing>& out, const std::string& reason) {
    serde::RecordReader reader = OnlyReply(out);
    EXPECT_EQ(reader.tag(), "error");
    std::string got;
    ASSERT_TRUE(static_cast<bool>(reader.Get("reason", &got)));
    EXPECT_EQ(got, reason);
  }

  AlertdCore core_;
};

// --- round-trips ------------------------------------------------------------------

TEST_F(AlertdProtocolTest, GoalsFieldsRoundTripExactly) {
  Rng rng(11);
  for (int i = 0; i < 200; ++i) {
    Goals goals;
    goals.mode = static_cast<GoalMode>(rng.UniformInt(0, 2));
    goals.deadline = rng.Uniform(0.01, 2.0);
    goals.accuracy_goal = rng.Uniform(0.05, 1.0);
    goals.energy_budget = rng.Uniform(0.1, 1e9);
    goals.prob_threshold = rng.Bernoulli(0.5) ? rng.Uniform(0.0, 0.999) : 0.0;
    ASSERT_TRUE(goals.Valid());

    serde::RecordWriter w("probe");
    AppendGoalsFields(goals, &w);
    serde::RecordReader reader;
    ASSERT_TRUE(static_cast<bool>(serde::RecordReader::Parse(w.line(), &reader)));
    Goals parsed;
    ASSERT_TRUE(static_cast<bool>(ParseGoalsFields(&reader, &parsed))) << w.line();
    EXPECT_EQ(parsed.mode, goals.mode);
    EXPECT_EQ(parsed.deadline, goals.deadline);  // %.17g: exact
    EXPECT_EQ(parsed.accuracy_goal, goals.accuracy_goal);
    EXPECT_EQ(parsed.energy_budget, goals.energy_budget);
    EXPECT_EQ(parsed.prob_threshold, goals.prob_threshold);
  }
}

TEST_F(AlertdProtocolTest, BeliefLineFormatParseFormatIsIdentity) {
  StackCache stacks(PlatformId::kCpu1, kAlertdStackSeed);
  const Stack& stack = stacks.Get(TaskId::kImageClassification, DnnSetChoice::kBoth);
  const ConfigSpace& space = stack.space();
  Rng rng(13);
  for (int i = 0; i < 100; ++i) {
    BeliefRecord record;
    record.belief.kalman.mean = rng.Uniform(0.5, 3.0);
    record.belief.kalman.variance = rng.Uniform(1e-4, 0.5);
    record.belief.kalman.gain = rng.Uniform(0.0, 1.0);
    record.belief.kalman.process_noise = rng.Uniform(1e-4, 0.5);
    record.belief.kalman.last_innovation = rng.Uniform(-0.5, 0.5);
    record.belief.kalman.num_updates = rng.UniformInt(0, 500);
    record.belief.xi_censored = rng.UniformInt(0, 20);
    record.belief.idle.ratio = rng.Uniform(0.0, 1.0);
    record.belief.idle.variance = rng.Uniform(1e-5, 0.1);
    record.belief.idle.gain = rng.Uniform(0.0, 1.0);
    record.belief.idle.num_updates = rng.UniformInt(0, 500);
    record.belief.energy_spent = rng.Uniform(0.0, 1e4);
    record.belief.inputs_observed = rng.UniformInt(0, 1000);
    record.has_decision = rng.Bernoulli(0.7);
    if (record.has_decision) {
      const int c = rng.UniformInt(0, space.num_candidates() - 1);
      const int p = rng.UniformInt(0, space.num_powers() - 1);
      record.decision.candidate = space.candidate(c);
      record.decision.power_index = p;
      record.decision.power_cap = space.cap(p);
    }

    const std::string line = FormatBeliefLine("belief", "t0", record);
    serde::RecordReader reader;
    ASSERT_TRUE(static_cast<bool>(serde::RecordReader::Parse(line, &reader)));
    EXPECT_EQ(reader.tag(), "belief");
    std::string tenant;
    ASSERT_TRUE(static_cast<bool>(reader.Get("tenant", &tenant)));
    BeliefRecord parsed;
    ASSERT_TRUE(static_cast<bool>(ParseBeliefFields(&reader, space, &parsed))) << line;
    EXPECT_EQ(FormatBeliefLine("belief", tenant, parsed), line);
    EXPECT_EQ(parsed.ticks(), record.ticks());
  }
}

TEST_F(AlertdProtocolTest, EventLinesAreParseableRecords) {
  for (int type = 0; type <= 9; ++type) {
    Event event;
    event.type = static_cast<Event::Type>(type);
    event.round = 3;
    event.tenant = 1;
    event.i0 = 4;
    event.i1 = -1;
    event.i2 = 8;
    event.d0 = 12.5;
    serde::RecordReader reader;
    EXPECT_TRUE(static_cast<bool>(
        serde::RecordReader::Parse(FormatEventLine(event), &reader)))
        << FormatEventLine(event);
  }
}

// --- the session state machine's typed errors -------------------------------------

TEST_F(AlertdProtocolTest, HappyPathSpeaksEveryVerb) {
  const Goals goals = AccuracyGoals(0.1);
  auto out = Send(1, HelloLine("t0", goals));
  EXPECT_EQ(OnlyReply(out).tag(), "ok");

  out = Send(1, TickLine("t0", 0, goals.deadline));
  ASSERT_EQ(out.size(), 2u);  // ack, then the decision (single tenant: round fires)
  serde::RecordReader ack;
  ASSERT_TRUE(static_cast<bool>(serde::RecordReader::Parse(out[0].line, &ack)));
  EXPECT_EQ(ack.tag(), "ok");
  serde::RecordReader decision;
  ASSERT_TRUE(static_cast<bool>(serde::RecordReader::Parse(out[1].line, &decision)));
  EXPECT_EQ(decision.tag(), "decision");

  serde::RecordWriter gw("goal-set");
  gw.Field("tenant", "t0");
  AppendGoalsFields(AccuracyGoals(0.15), &gw);
  EXPECT_EQ(OnlyReply(Send(1, gw.line())).tag(), "ok");

  serde::RecordWriter lw("limit-set");
  lw.Field("budget", 150.0);
  EXPECT_EQ(OnlyReply(Send(1, lw.line())).tag(), "ok");

  serde::RecordWriter sw("belief-snapshot");
  sw.Field("tenant", "t0");
  EXPECT_EQ(OnlyReply(Send(1, sw.line())).tag(), "belief");

  EXPECT_EQ(OnlyReply(Send(1, "stats")).tag(), "stats");

  serde::RecordWriter bw("tenant-bye");
  bw.Field("tenant", "t0");
  EXPECT_EQ(OnlyReply(Send(1, bw.line())).tag(), "ok");
  EXPECT_EQ(core_.num_tenants(), 0);
}

TEST_F(AlertdProtocolTest, StateMachineViolationsGetTypedErrors) {
  const Goals goals = AccuracyGoals(0.1);
  ASSERT_EQ(OnlyReply(Send(1, HelloLine("t0", goals))).tag(), "ok");

  ExpectError(Send(1, HelloLine("t0", goals)), "duplicate-tenant");
  ExpectError(Send(1, HelloLine("t1", goals, /*task=*/2)), "unknown-task");
  ExpectError(Send(1, HelloLine("t1", goals, /*task=*/0, /*dnn_set=*/7)),
              "unknown-dnn-set");
  ExpectError(Send(1, "made-up-verb x=1"), "unknown-verb");
  ExpectError(Send(1, TickLine("ghost", 0, 0.1)), "unknown-tenant");
  ExpectError(Send(2, TickLine("t0", 0, 0.1)), "not-owner");  // wrong session
  ExpectError(Send(1, TickLine("t0", 5, 0.1)), "tick-desync");
  ExpectError(Send(1, TickLine("t0", 0, -1.0)), "bad-deadline");

  // Restore is only legal before the first tick.
  ASSERT_EQ(Send(1, TickLine("t0", 0, 0.1)).size(), 2u);
  const std::string snapshot =
      Send(1, "belief-snapshot tenant=t0").front().line;
  ExpectError(Send(1, "belief-restore " + snapshot.substr(snapshot.find(' ') + 1)),
              "restore-after-tick");

  // Second tick without the measurement owed for the first decision.
  ExpectError(Send(1, TickLine("t0", 1, 0.1)), "missing-measurement");

  EXPECT_GT(core_.stats().protocol_errors, 0u);
  EXPECT_EQ(core_.stats().parse_errors, 0u);  // every line above parsed fine
}

TEST_F(AlertdProtocolTest, SessionCloseEvictsItsTenantsAndCompletesTheBarrier) {
  const Goals goals = AccuracyGoals(0.1);
  ASSERT_EQ(OnlyReply(Send(1, HelloLine("t0", goals))).tag(), "ok");
  ASSERT_EQ(OnlyReply(Send(1, HelloLine("t1", goals))).tag(), "ok");
  ASSERT_EQ(OnlyReply(Send(2, HelloLine("t2", goals))).tag(), "ok");
  ASSERT_EQ(core_.num_tenants(), 3);

  // Session 2's tenant ticks; the barrier still waits on session 1's two tenants.
  auto out = Send(2, TickLine("t2", 0, goals.deadline));
  ASSERT_EQ(out.size(), 1u);  // ack only, no round yet

  // Session 1 vanishes without tenant-bye: its tenants are evicted in one
  // membership change (`rebuilds` counts one) and the departure completes the
  // barrier — t2's decision must come out.
  const uint64_t changes_before = core_.stats().rebuilds;
  std::vector<Outgoing> replies;
  core_.OnSessionClosed(1, &replies);
  EXPECT_EQ(core_.stats().rebuilds, changes_before + 1);
  EXPECT_EQ(core_.num_tenants(), 1);
  ASSERT_EQ(replies.size(), 1u);
  EXPECT_EQ(replies[0].session, 2);
  serde::RecordReader decision;
  ASSERT_TRUE(static_cast<bool>(serde::RecordReader::Parse(replies[0].line, &decision)));
  EXPECT_EQ(decision.tag(), "decision");
  EXPECT_EQ(core_.stats().departed, 2u);
  EXPECT_EQ(core_.stats().rounds, 1u);
}

// --- fuzz -------------------------------------------------------------------------

// Mutates a valid wire line: truncation (torn line), random byte edits, token
// duplication (duplicate keys), token deletion, and splices of two lines.
std::string Mutate(Rng& rng, const std::string& base, const std::string& other) {
  std::string line = base;
  switch (rng.UniformInt(0, 4)) {
    case 0:  // torn line
      line = line.substr(0, static_cast<size_t>(
                                rng.UniformInt(0, static_cast<int>(line.size()))));
      break;
    case 1: {  // byte edit
      if (!line.empty()) {
        const int pos = rng.UniformInt(0, static_cast<int>(line.size()) - 1);
        line[static_cast<size_t>(pos)] = static_cast<char>(rng.UniformInt(32, 126));
      }
      break;
    }
    case 2: {  // duplicate a token (duplicate key)
      const size_t space = line.find(' ');
      if (space != std::string::npos) {
        const size_t next = line.find(' ', space + 1);
        const std::string token = line.substr(
            space, (next == std::string::npos ? line.size() : next) - space);
        line += token;
      }
      break;
    }
    case 3: {  // drop a token
      const size_t space = line.rfind(' ');
      if (space != std::string::npos) {
        line = line.substr(0, space);
      }
      break;
    }
    default:  // splice two lines at random offsets
      line = line.substr(0, static_cast<size_t>(rng.UniformInt(
                                0, static_cast<int>(line.size())))) +
             other.substr(static_cast<size_t>(
                 rng.UniformInt(0, static_cast<int>(other.size()))));
      break;
  }
  return line;
}

std::string GarbageLine(Rng& rng) {
  const int len = rng.UniformInt(0, 120);
  std::string line;
  line.reserve(static_cast<size_t>(len));
  for (int i = 0; i < len; ++i) {
    // Any byte except '\n' (the framing layer strips newlines by construction).
    char c = static_cast<char>(rng.UniformInt(1, 255));
    if (c == '\n') {
      c = ' ';
    }
    line.push_back(c);
  }
  return line;
}

TEST_F(AlertdProtocolTest, TenThousandHostileLinesNeverCrashTheCore) {
  const Goals goals = AccuracyGoals(0.1);
  ASSERT_EQ(OnlyReply(Send(1, HelloLine("t0", goals))).tag(), "ok");

  // Seed corpus: one valid line of every verb (against live and ghost tenants).
  const std::vector<std::string> corpus = {
      HelloLine("t1", goals),
      HelloLine("t0", goals),
      TickLine("t0", 0, goals.deadline),
      TickLine("ghost", 3, -2.5),
      "goal-set tenant=t0 mode=1 deadline=0.1 accuracy_goal=0 energy_budget=1e9 "
      "prob_threshold=0",
      "limit-set budget=150",
      "limit-set budget=-1",
      "belief-snapshot tenant=t0",
      "belief-restore tenant=t0 kalman_mean=1 kalman_variance=-5",
      "tenant-bye tenant=t0",
      "stats",
      "round-tick tenant=t0 input=99999999999999999999 deadline=nan period=inf",
      "round-tick tenant=t0 input=0 deadline=0.1 period=0.1 m_latency=0.05",
  };
  Rng rng(17);
  int lines_sent = 0;
  for (int i = 0; i < 12000; ++i) {
    std::string line;
    if (rng.Bernoulli(0.4)) {
      line = GarbageLine(rng);
    } else {
      const std::string& a =
          corpus[static_cast<size_t>(rng.UniformInt(0, static_cast<int>(corpus.size()) - 1))];
      const std::string& b =
          corpus[static_cast<size_t>(rng.UniformInt(0, static_cast<int>(corpus.size()) - 1))];
      line = Mutate(rng, a, b);
    }
    // Sessions 1-3: garbage lands both on the tenant-owning session and others.
    std::vector<Outgoing> out;
    core_.HandleLine(rng.UniformInt(1, 3), line, &out);
    ++lines_sent;
    // Every reply must itself be a well-formed record.
    for (const Outgoing& reply : out) {
      serde::RecordReader reader;
      EXPECT_TRUE(static_cast<bool>(serde::RecordReader::Parse(reply.line, &reader)))
          << "unparseable reply '" << reply.line << "' to input '" << line << "'";
    }
  }
  ASSERT_GE(lines_sent, 10000);
  const AlertdStats stats = core_.stats();
  EXPECT_GT(stats.parse_errors, 0u);
  EXPECT_GT(stats.protocol_errors, 0u);

  // The core must still be fully serviceable.  Mutants may have admitted tenants
  // under arbitrary names or shrunk the budget, so recover deterministically first:
  // close the fuzz sessions (evicting every mutant tenant in one sweep each), then
  // restore a roomy budget.
  std::vector<Outgoing> drain;
  core_.OnSessionClosed(1, &drain);
  core_.OnSessionClosed(2, &drain);
  core_.OnSessionClosed(3, &drain);
  ASSERT_EQ(core_.num_tenants(), 0);
  EXPECT_EQ(OnlyReply(Send(9, "limit-set budget=500")).tag(), "ok");
  ASSERT_EQ(OnlyReply(Send(9, HelloLine("afterfuzz", goals))).tag(), "ok");
  auto out = Send(9, TickLine("afterfuzz", 0, goals.deadline));
  ASSERT_EQ(out.size(), 2u);  // sole tenant: ack then decision
  serde::RecordReader decision;
  ASSERT_TRUE(static_cast<bool>(serde::RecordReader::Parse(out[1].line, &decision)));
  EXPECT_EQ(decision.tag(), "decision");
  EXPECT_EQ(OnlyReply(Send(9, "stats")).tag(), "stats");
}

}  // namespace
}  // namespace alert::daemon
