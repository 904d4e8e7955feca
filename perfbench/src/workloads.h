// The four workloads one perfbench run executes, and what each reports.
//
// main.cc drives them together: every workload is set up a fixed number of times
// (round-robin, for the set-up median), then the run cycles through them (one
// measured step each) until its time is spent, so every workload's samples spread
// over the whole run instead of one stretch of it.  Finish() then checks the outputs and computes the metrics; in
// a traced run it first runs the workload's traced and differential extras.
#ifndef PERFBENCH_SRC_WORKLOADS_H_
#define PERFBENCH_SRC_WORKLOADS_H_

#include <sched.h>

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench {

// Settings every workload receives from the command line.
struct RunContext {
  bool trace = false;         // traced run: per-layer metrics instead of end-to-end ones
  bool smoke = false;         // tiny inputs for the self-test; numbers are meaningless
  int threads = 1;            // nproc: no workload uses more threads or connections
  std::string work_dir;       // scratch space inside the checkout (checkpoints)
  std::string worker_bin;     // the repository's sweep_shard, for socket dispatch
  std::string expect_digest;  // WORKLOAD:HEX; that workload's output digest must match
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

// Operations one workload issued.  `rejected` counts refusals the workload expects
// (alertd admission control): they succeed as protocol exchanges and are not failures.
struct Ops {
  std::string what;  // what one operation is ("units", "inputs", ...)
  int64_t attempted = 0;
  int64_t failed = 0;
  int64_t rejected = 0;
};

struct Report {
  bool correct = true;
  std::vector<std::string> errors;  // why `correct` is false
  std::string digest;               // hex digest of the checked output
  Ops ops;
  std::map<std::string, Metric> metrics;

  void Set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  void Fail(std::string why) {
    correct = false;
    errors.push_back(std::move(why));
  }
};

class Workload {
 public:
  virtual ~Workload() = default;
  // One set-up, everything before the first unit of work is issued; returns seconds.
  virtual double Setup() = 0;
  // One measured repetition.
  virtual void Step() = 0;
  // A short measured repetition run after each other workload's step, so that a
  // workload whose samples take little time draws them from every part of the cycle
  // rather than from one short stretch of it.
  virtual void Interleave() {}
  // Correctness checks and metrics (end-to-end, or per-layer in a traced run).
  virtual Report Finish() = 0;
};

std::unique_ptr<Workload> MakeTbl4Sweep(const RunContext& ctx, uint64_t seed);
std::unique_ptr<Workload> MakeDecideGpu(const RunContext& ctx, uint64_t seed);
std::unique_ptr<Workload> MakeAlertdChurn(const RunContext& ctx, uint64_t seed);
std::unique_ptr<Workload> MakeDispatchFine(const RunContext& ctx, uint64_t seed);

// --- helpers shared by the workloads ----------------------------------------------

// Linear-interpolated quantile (q in [0, 1]) of an unsorted sample; 0 when empty.
double Quantile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) { return Quantile(std::move(values), 0.5); }
// How an end-to-end metric summarizes its repetitions: the least disturbed one.  On
// a shared VM, co-located load slows every core by up to ~1.5x for stretches of
// seconds to minutes, so medians over repetitions (and over runs) flip between the
// two states.  The minimum over repetitions spread through the run is the code's
// cost in the quietest window; a change to the code moves it as it moves every
// repetition.
inline double BestOf(const std::vector<double>& values) {
  return Quantile(values, 0.0);
}

// Pins the calling thread, and the threads it starts meanwhile, to the `turn`-th
// allowed CPU (modulo their count) until destroyed, then restores the affinity it
// found.  On a shared VM the host slows the vCPUs by up to ~1.5x, each at its own
// times, and a lone thread otherwise stays on whichever vCPU it started on; taking
// turns makes a pass sample all of them.
class PinnedToCpu {
 public:
  explicit PinnedToCpu(size_t turn);
  ~PinnedToCpu();
  PinnedToCpu(const PinnedToCpu&) = delete;
  PinnedToCpu& operator=(const PinnedToCpu&) = delete;

 private:
  cpu_set_t allowed_;
  bool pinned_ = false;
};

// User + system CPU seconds this process has used so far.
double ProcessCpuSeconds();

// 64-bit FNV-1a, continued from `h`.
uint64_t Fnv1a(std::string_view bytes, uint64_t h = 14695981039346656037ull);
std::string Hex(uint64_t value);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_WORKLOADS_H_
