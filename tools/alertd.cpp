// alertd — the ALERT serving daemon.
//
// Listens on localhost, speaks the line-oriented control grammar documented in
// src/daemon/alertd.h (tenant-hello / goal-set / round-tick / belief-snapshot /
// belief-restore / tenant-bye / limit-set / stats), and routes every decision through
// one MultiJobCoordinator shared by all admitted tenants.  SIGTERM/SIGINT drain
// gracefully: in-flight rounds complete, the event log flushes, and the final record
// is `alertd-shutdown clean=1`.
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <thread>

#include "src/common/serde.h"
#include "src/daemon/alertd.h"

using namespace alert;
using namespace alert::daemon;

namespace {

[[noreturn]] void Usage(const char* argv0) {
  std::printf(
      "usage: %s [--port=N] [--port-file=PATH] [--budget=W] [--platform=NAME]\n"
      "          [--policy=proportional|slack] [--log=PATH]\n"
      "  --port=N        listen port (default 0 = ephemeral)\n"
      "  --port-file=PATH  write the bound port here once listening\n"
      "  --budget=W      total power budget in watts (default 100)\n"
      "  --platform=NAME embedded|cpu1|cpu2|gpu (default cpu1)\n"
      "  --policy=NAME   budget split policy (default proportional)\n"
      "  --log=PATH      event log file (serde records, default: none)\n",
      argv0);
  std::exit(2);
}

[[noreturn]] void Fail(const std::string& message) {
  std::fprintf(stderr, "alertd: %s\n", message.c_str());
  std::exit(1);
}

std::optional<std::string> ArgValue(const char* arg, const char* name) {
  const size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) == 0 && arg[len] == '=') {
    return std::string(arg + len + 1);
  }
  return std::nullopt;
}

std::sig_atomic_t g_stop = 0;

void HandleSignal(int) { g_stop = 1; }

}  // namespace

int main(int argc, char** argv) {
  AlertdOptions options;
  std::string port_file;

  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (auto v = ArgValue(arg, "--port")) {
      options.port = std::atoi(v->c_str());
    } else if (auto v = ArgValue(arg, "--port-file")) {
      port_file = *v;
    } else if (auto v = ArgValue(arg, "--budget")) {
      options.total_power_budget = std::atof(v->c_str());
    } else if (auto v = ArgValue(arg, "--platform")) {
      if (*v == "embedded") {
        options.platform = PlatformId::kEmbedded;
      } else if (*v == "cpu1") {
        options.platform = PlatformId::kCpu1;
      } else if (*v == "cpu2") {
        options.platform = PlatformId::kCpu2;
      } else if (*v == "gpu") {
        options.platform = PlatformId::kGpu;
      } else {
        Fail("unknown platform '" + *v + "'");
      }
    } else if (auto v = ArgValue(arg, "--policy")) {
      if (*v == "proportional") {
        options.policy = AllocationPolicy::kProportional;
      } else if (*v == "slack") {
        options.policy = AllocationPolicy::kSlackRecycling;
      } else {
        Fail("unknown policy '" + *v + "'");
      }
    } else if (auto v = ArgValue(arg, "--log")) {
      options.event_log_path = *v;
    } else {
      Usage(argv[0]);
    }
  }
  if (options.total_power_budget <= 0.0) {
    Fail("--budget must be positive");
  }

  std::signal(SIGTERM, HandleSignal);
  std::signal(SIGINT, HandleSignal);

  Alertd daemon(options);
  serde::Status status = daemon.Start();
  if (!status) {
    Fail(status.message);
  }
  std::fprintf(stderr, "alertd: listening on 127.0.0.1:%d\n", daemon.port());
  if (!port_file.empty()) {
    status = serde::WriteFile(port_file, std::to_string(daemon.port()) + "\n");
    if (!status) {
      Fail(status.message);
    }
  }

  while (g_stop == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  std::fprintf(stderr, "alertd: draining\n");
  daemon.Stop();
  daemon.Join();
  const AlertdStats stats = daemon.stats();
  std::fprintf(stderr, "alertd: %s\n",
               FormatStatsLine(stats, options.event_ring_capacity).c_str());
  return 0;
}
