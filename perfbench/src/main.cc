// perfbench: one process runs the four workloads (tbl4_sweep, decide_gpu,
// alertd_churn, dispatch_fine), checks each one's outputs, and prints every metric
// by name and unit.  The last stdout line is one JSON object:
//   {"correct": true, "attempted": N, "failed": 0, "metrics": {name: {value, unit}}}
// with the end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).  A
// failed correctness check prints no numbers and exits 1.  perfbench/README.md
// describes the workloads and metrics; perfbench/run.py builds and runs this.
#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <iterator>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "trace.h"
#include "workloads.h"

namespace perfbench {

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + 1e-6 * static_cast<double>(tv.tv_usec);
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

PinnedToCpu::PinnedToCpu(size_t turn) {
  CPU_ZERO(&allowed_);
  if (sched_getaffinity(0, sizeof(allowed_), &allowed_) != 0) {
    return;
  }
  const auto count = static_cast<size_t>(CPU_COUNT(&allowed_));
  size_t skip = turn % count;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &allowed_) && skip-- == 0) {
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpu, &one);
      pinned_ = sched_setaffinity(0, sizeof(one), &one) == 0;
      return;
    }
  }
}

PinnedToCpu::~PinnedToCpu() {
  if (pinned_) {
    sched_setaffinity(0, sizeof(allowed_), &allowed_);
  }
}

uint64_t Fnv1a(std::string_view bytes, uint64_t h) {
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

std::string Hex(uint64_t value) {
  char buffer[17];
  std::snprintf(buffer, sizeof(buffer), "%016" PRIx64, value);
  return buffer;
}

}  // namespace perfbench

namespace {

using namespace perfbench;

struct WorkloadDef {
  const char* name;
  uint64_t default_seed;  // the dev stream's seed at --seed 0
  std::unique_ptr<Workload> (*make)(const RunContext&, uint64_t);
};

// Recorded default seeds; README.md lists them too.
constexpr WorkloadDef kWorkloads[] = {
    {"tbl4_sweep", 20200715, MakeTbl4Sweep},
    {"decide_gpu", 7, MakeDecideGpu},
    {"alertd_churn", 1, MakeAlertdChurn},
    {"dispatch_fine", 20200715, MakeDispatchFine},
};

// Every workload is set up this many times, round-robin, before the first step, and
// `setup_s` sums the workloads' median set-up times.  The count is fixed so that every
// pass summarizes the same number of samples.
constexpr int kSetupRounds = 31;
// Each cycle steps every workload once; after each step, every other workload
// interleaves one short repetition.
constexpr int kMinCycles = 2;
// Share of --seconds spent cycling; the rest is for the checks and, in a traced
// run, the traced and differential extras.
constexpr double kCycleShare = 0.90;
constexpr double kTracedCycleShare = 0.45;

// The holdout stream's seeds sit this far from the dev stream's.
constexpr uint64_t kHoldoutOffset = 1000003;

[[noreturn]] void Usage(const char* message) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload dev|holdout --seed N --seconds S --trace 0|1\n"
               "                 --worker-bin PATH --work-dir DIR [--smoke]\n"
               "                 [--expect-digest WORKLOAD:HEX]\n",
               message);
  std::exit(2);
}

std::string FormatValue(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  uint64_t seed = 0;
  bool have_seed = false;
  double seconds = 0.0;
  int trace = -1;
  RunContext ctx;
  ctx.threads = std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        Usage(("missing value for " + arg).c_str());
      }
      return argv[++i];
    };
    if (arg == "--workload") {
      workload = value();
    } else if (arg == "--seed") {
      seed = std::strtoull(value().c_str(), nullptr, 10);
      have_seed = true;
    } else if (arg == "--seconds") {
      seconds = std::atof(value().c_str());
    } else if (arg == "--trace") {
      trace = std::atoi(value().c_str());
    } else if (arg == "--worker-bin") {
      ctx.worker_bin = value();
    } else if (arg == "--work-dir") {
      ctx.work_dir = value();
    } else if (arg == "--expect-digest") {
      ctx.expect_digest = value();
      const std::string prefix = ctx.expect_digest.substr(0, ctx.expect_digest.find(':'));
      if (ctx.expect_digest.find(':') == std::string::npos ||
          std::none_of(std::begin(kWorkloads), std::end(kWorkloads),
                       [&](const WorkloadDef& def) { return prefix == def.name; })) {
        Usage(("--expect-digest " + ctx.expect_digest +
               " names no workload; use WORKLOAD:HEX")
                  .c_str());
      }
    } else if (arg == "--smoke") {
      ctx.smoke = true;
    } else {
      Usage(("unknown argument " + arg).c_str());
    }
  }
  if (workload != "dev" && workload != "holdout") {
    Usage("--workload must be dev or holdout");
  }
  if (!have_seed || !(seconds > 0.0) || (trace != 0 && trace != 1) ||
      ctx.worker_bin.empty() || ctx.work_dir.empty()) {
    Usage("--seed, --seconds > 0, --trace 0|1, --worker-bin and --work-dir are required");
  }
  ctx.trace = trace == 1;
  std::filesystem::create_directories(ctx.work_dir);

  std::vector<std::unique_ptr<Workload>> workloads;
  for (const WorkloadDef& def : kWorkloads) {
    const uint64_t workload_seed =
        def.default_seed + seed + (workload == "holdout" ? kHoldoutOffset : 0);
    workloads.push_back(def.make(ctx, workload_seed));
  }
  std::vector<std::vector<double>> setups(workloads.size());
  for (int round = 0; round < (ctx.smoke ? 1 : kSetupRounds); ++round) {
    for (size_t w = 0; w < workloads.size(); ++w) {
      setups[w].push_back(workloads[w]->Setup());
    }
  }
  const int64_t start = NowNs();
  const double cycle_s = seconds * (ctx.trace ? kTracedCycleShare : kCycleShare);
  for (int cycle = 1;; ++cycle) {
    for (const auto& w : workloads) {
      w->Step();
      for (const auto& other : workloads) {
        if (other != w) {
          other->Interleave();
        }
      }
    }
    // Stop once one more cycle of the average length would overrun the budget.
    const double elapsed_s = 1e-9 * static_cast<double>(NowNs() - start);
    if (cycle >= (ctx.smoke ? 1 : kMinCycles) && elapsed_s * (cycle + 1) / cycle > cycle_s) {
      std::fprintf(stderr, "perfbench: %d cycles in %.2f s\n", cycle, elapsed_s);
      break;
    }
  }

  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  double setup_s = 0.0;
  std::vector<std::pair<std::string, Metric>> metrics;
  for (size_t w = 0; w < workloads.size(); ++w) {
    const WorkloadDef& def = kWorkloads[w];
    Report report = workloads[w]->Finish();
    const double workload_setup_s = Median(setups[w]);
    const std::string prefix = std::string(def.name) + ":";
    if (ctx.expect_digest.rfind(prefix, 0) == 0 &&
        ctx.expect_digest.substr(prefix.size()) != report.digest) {
      ++report.ops.failed;
      report.Fail("output digest " + report.digest + " differs from the expected " +
                  ctx.expect_digest.substr(prefix.size()));
    }
    std::printf("workload %s digest=%s setup_s=%.6f correct=%d\n", def.name,
                report.digest.c_str(), workload_setup_s, report.correct ? 1 : 0);
    std::printf("  ops %s attempted=%" PRId64 " succeeded=%" PRId64 " failed=%" PRId64
                " rejected_as_expected=%" PRId64 "\n",
                report.ops.what.c_str(), report.ops.attempted,
                report.ops.attempted - report.ops.failed, report.ops.failed,
                report.ops.rejected);
    attempted += report.ops.attempted;
    failed += report.ops.failed;
    for (const auto& [name, metric] : report.metrics) {
      if (!std::isfinite(metric.value)) {
        report.Fail("metric " + name + " is not finite");
      }
      metrics.emplace_back(name, metric);
    }
    for (const std::string& error : report.errors) {
      std::fprintf(stderr, "perfbench: %s: CHECK FAILED: %s\n", def.name, error.c_str());
    }
    correct = correct && report.correct;
    setup_s += workload_setup_s;
  }
  if (!correct) {
    std::printf("{\"correct\": false, \"attempted\": %" PRId64 ", \"failed\": %" PRId64
                ", \"metrics\": {}}\n",
                std::max<int64_t>(attempted, 1), std::max<int64_t>(failed, 1));
    return 1;
  }
  if (!ctx.trace) {
    metrics.emplace_back("setup_s", Metric{setup_s, "s"});
  }
  std::string json = "{\"correct\": true, \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    const auto& [name, metric] = metrics[i];
    std::printf("  metric %s %s %s\n", name.c_str(), FormatValue(metric.value).c_str(),
                metric.unit.c_str());
    json += (i == 0 ? "\"" : ", \"") + name + "\": {\"value\": " +
            FormatValue(metric.value) + ", \"unit\": \"" + metric.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}
