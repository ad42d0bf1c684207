#include "common/parallel.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <system_error>
#include <thread>
#include <vector>

namespace bionicdb {

namespace {
/// True on a thread while it runs a job of a ParallelFor that fanned out.
thread_local bool in_parallel_for = false;
}  // namespace

uint32_t HostHardwareThreads() {
  const unsigned n = std::thread::hardware_concurrency();
  return n > 0 ? n : 1;  // 0 = "unknown" per the standard
}

void ParallelFor(size_t n, uint32_t max_threads,
                 const std::function<void(size_t)>& job) {
  size_t width = HostHardwareThreads();
  if (max_threads != 0) width = std::min<size_t>(width, max_threads);
  width = std::min(width, n);
  if (width <= 1 || in_parallel_for) {
    for (size_t i = 0; i < n; ++i) job(i);
    return;
  }
  std::atomic<size_t> next{0};
  // Set once any job has thrown: stops further claims. Every index below
  // the lowest throwing one was claimed before it, so that job always runs.
  std::atomic<bool> failed{false};
  std::mutex error_mu;
  size_t error_index = n;  // guarded by error_mu
  std::exception_ptr error;  // guarded by error_mu
  auto work = [&] {
    in_parallel_for = true;
    while (!failed.load(std::memory_order_relaxed)) {
      const size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) break;
      try {
        job(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(error_mu);
        if (i < error_index) {
          error_index = i;
          error = std::current_exception();
        }
        failed.store(true, std::memory_order_relaxed);
      }
    }
    in_parallel_for = false;
  };
  std::vector<std::thread> pool;
  pool.reserve(width - 1);
  for (size_t k = 1; k < width; ++k) {
    try {
      pool.emplace_back(work);
    } catch (const std::system_error&) {
      break;  // no more threads: the ones running share the rest
    }
  }
  work();  // the calling thread is worker 0
  for (std::thread& t : pool) t.join();
  if (error) std::rethrow_exception(error);
}

}  // namespace bionicdb
