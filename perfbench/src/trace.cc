#include "trace.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <mutex>

namespace perfbench {
namespace {

struct ThreadBuffer {
  std::vector<SpanRecord> spans;
  std::vector<int32_t> open;  // stack of open span indices
};

std::atomic<bool> g_enabled{false};
std::mutex g_buffers_mutex;
// Every buffer any thread ever used; a buffer outlives its thread so that spans of
// joined worker threads are still there when the run ends.
std::vector<std::unique_ptr<ThreadBuffer>> g_buffers;
thread_local ThreadBuffer* t_buffer = nullptr;

ThreadBuffer& LocalBuffer() {
  if (t_buffer == nullptr) {
    auto buffer = std::make_unique<ThreadBuffer>();
    buffer->spans.reserve(1 << 14);
    buffer->open.reserve(16);
    const std::lock_guard<std::mutex> lock(g_buffers_mutex);
    g_buffers.push_back(std::move(buffer));
    t_buffer = g_buffers.back().get();
  }
  return *t_buffer;
}

}  // namespace

void Tracer::Enable(bool on) {
  {
    const std::lock_guard<std::mutex> lock(g_buffers_mutex);
    for (auto& buffer : g_buffers) {
      buffer->spans.clear();
      buffer->open.clear();
    }
  }
  g_enabled.store(on, std::memory_order_release);
}

bool Tracer::enabled() { return g_enabled.load(std::memory_order_relaxed); }

int32_t Tracer::Open(const char* name, int64_t id) {
  ThreadBuffer& buffer = LocalBuffer();
  const auto index = static_cast<int32_t>(buffer.spans.size());
  SpanRecord span;
  span.name = name;
  span.parent = buffer.open.empty() ? -1 : buffer.open.back();
  span.id = id >= 0 ? id
                    : (span.parent >= 0 ? buffer.spans[static_cast<size_t>(span.parent)].id
                                        : -1);
  buffer.spans.push_back(span);
  buffer.open.push_back(index);
  // Read the clock last, so the bookkeeping above is not charged to the span.
  buffer.spans.back().start_ns = NowNs();
  return index;
}

void Tracer::Close(int32_t index) {
  const int64_t end = NowNs();
  ThreadBuffer& buffer = LocalBuffer();
  buffer.spans[static_cast<size_t>(index)].end_ns = end;
  buffer.open.pop_back();
}

SpanTable Tracer::Collect(double* roots_s) {
  SpanTable totals;
  double roots = 0.0;
  const std::lock_guard<std::mutex> lock(g_buffers_mutex);
  for (auto& buffer : g_buffers) {
    const std::vector<SpanRecord>& spans = buffer->spans;
    std::vector<int64_t> child_ns(spans.size(), 0);
    for (const SpanRecord& span : spans) {
      if (span.parent >= 0 && span.end_ns > 0) {
        child_ns[static_cast<size_t>(span.parent)] += span.end_ns - span.start_ns;
      }
    }
    for (size_t i = 0; i < spans.size(); ++i) {
      const SpanRecord& span = spans[i];
      if (span.end_ns == 0) {
        continue;  // still open: not part of this run
      }
      const double duration = 1e-9 * static_cast<double>(span.end_ns - span.start_ns);
      const double self = duration - 1e-9 * static_cast<double>(child_ns[i]);
      SpanTotals& t = totals[span.name];
      t.self_s += self;
      t.self_samples_s.push_back(self);
      if (span.parent < 0) {
        roots += duration;
      }
    }
    buffer->spans.clear();
    buffer->open.clear();
  }
  if (roots_s != nullptr) {
    *roots_s = roots;
  }
  return totals;
}

double SelfSeconds(const SpanTable& spans, const char* name) {
  const auto it = spans.find(name);
  return it == spans.end() ? 0.0 : it->second.self_s;
}

double MedianSelfSeconds(const SpanTable& spans, const char* name) {
  const auto it = spans.find(name);
  if (it == spans.end() || it->second.self_samples_s.empty()) {
    return 0.0;
  }
  std::vector<double> samples = it->second.self_samples_s;
  const auto mid = samples.begin() + static_cast<long>(samples.size() / 2);
  std::nth_element(samples.begin(), mid, samples.end());
  return *mid;
}

double LayerSeconds(const SpanTable& spans, std::initializer_list<const char*> layers) {
  double total = 0.0;
  for (const char* layer : layers) {
    total += SelfSeconds(spans, layer);
  }
  return total;
}

}  // namespace perfbench
