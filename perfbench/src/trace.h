// In-memory span tracing for the benchmark's traced runs.
//
// Every thread appends spans (name, start, end, parent, id) to its own buffer; no
// lock is taken on the recording path and nothing is written until the run ends and
// `Tracer::Collect` folds the buffers into per-name totals.  A span's self time is
// its duration minus the time its direct children cover.  When the tracer is
// disabled, `Span` is a no-op, so untraced runs time only what the end-to-end
// metrics need.
#ifndef PERFBENCH_SRC_TRACE_H_
#define PERFBENCH_SRC_TRACE_H_

#include <chrono>
#include <cstdint>
#include <initializer_list>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct SpanRecord {
  const char* name = nullptr;  // a string literal; spans of one layer share it
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t parent = -1;  // index into the same thread's buffer, -1 for a root
  int64_t id = -1;      // unit / input / round id, inherited from the parent
};

// Per-name aggregate over every collected span.
struct SpanTotals {
  double self_s = 0.0;                 // summed durations minus child coverage
  std::vector<double> self_samples_s;  // one self time per span, collection order
};

using SpanTable = std::map<std::string, SpanTotals>;

class Tracer {
 public:
  // Turns recording on or off for the whole process (call between phases, never
  // while spans are open).  Enabling also clears every buffer.
  static void Enable(bool on);
  static bool enabled();

  // Folds every thread's closed spans into per-name totals and clears the buffers.
  // `roots` receives the summed duration of root spans: the traced busy time.
  static SpanTable Collect(double* roots_s);

  // Recording primitives used by `Span`.
  static int32_t Open(const char* name, int64_t id);
  static void Close(int32_t index);
};

// Summed self time of the spans named `name` (0 when there are none).
double SelfSeconds(const SpanTable& spans, const char* name);
// Median self time of one span named `name` (0 when there are none).
double MedianSelfSeconds(const SpanTable& spans, const char* name);
// Summed self time of the named layers.
double LayerSeconds(const SpanTable& spans, std::initializer_list<const char*> layers);

// Runs `fn` with recording on (when `on`) and returns its spans; `busy_s` receives
// their root time.  With `on` false the table is empty and `fn` runs untraced.
template <typename Fn>
SpanTable Traced(bool on, double* busy_s, Fn&& fn) {
  Tracer::Enable(on);
  fn();
  SpanTable spans = Tracer::Collect(busy_s);
  Tracer::Enable(false);
  return spans;
}

// RAII span on the calling thread.  `id` < 0 inherits the enclosing span's id.
class Span {
 public:
  explicit Span(const char* name, int64_t id = -1)
      : index_(Tracer::enabled() ? Tracer::Open(name, id) : -1) {}
  ~Span() {
    if (index_ >= 0) {
      Tracer::Close(index_);
    }
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  int32_t index_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SRC_TRACE_H_
