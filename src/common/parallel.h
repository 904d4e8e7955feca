// Minimal data-parallel loop for embarrassingly parallel work: the harness's
// per-setting experiment sweeps.
#ifndef SRC_COMMON_PARALLEL_H_
#define SRC_COMMON_PARALLEL_H_

#include <atomic>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace alert {

// Invokes fn(i) for every i in [0, count) across up to `max_threads` worker threads
// (hardware concurrency by default).  fn must be safe to call concurrently for
// distinct i.  Indices are handed out dynamically, so uneven work is balanced.
//
// If a worker throws, the first exception is captured and rethrown on the calling
// thread after all workers have drained (instead of std::terminate taking the process
// down).  Once a failure is observed the remaining indices are abandoned — the sweep's
// result would be discarded anyway.
inline void ParallelFor(int count, const std::function<void(int)>& fn,
                        int max_threads = 0) {
  if (count <= 0) {
    return;
  }
  int threads = max_threads > 0 ? max_threads
                                : static_cast<int>(std::thread::hardware_concurrency());
  if (threads <= 1 || count == 1) {
    for (int i = 0; i < count; ++i) {
      fn(i);
    }
    return;
  }
  threads = std::min(threads, count);
  std::atomic<int> next{0};
  std::atomic<bool> failed{false};
  std::exception_ptr first_error;
  std::mutex error_mutex;
  std::vector<std::thread> pool;
  pool.reserve(static_cast<size_t>(threads));
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&] {
      for (int i = next.fetch_add(1); i < count; i = next.fetch_add(1)) {
        if (failed.load(std::memory_order_relaxed)) {
          return;
        }
        try {
          fn(i);
        } catch (...) {
          {
            const std::lock_guard<std::mutex> lock(error_mutex);
            if (first_error == nullptr) {
              first_error = std::current_exception();
            }
          }
          failed.store(true, std::memory_order_relaxed);
          return;
        }
      }
    });
  }
  for (std::thread& th : pool) {
    th.join();
  }
  if (first_error != nullptr) {
    std::rethrow_exception(first_error);
  }
}

}  // namespace alert

#endif  // SRC_COMMON_PARALLEL_H_
