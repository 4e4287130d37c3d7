#include "sim/sweep_runner.h"

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <limits>
#include <thread>

#include "common/annotations.h"
#include "common/flags.h"
#include "common/mutex.h"
#include "obs/metrics.h"

namespace politewifi::sim {

namespace {

/// First-exception slot shared by the worker pool: whichever worker
/// faults first wins, later exceptions are dropped (the sweep is
/// aborting either way). The mutex is the capability guarding `first_`;
/// clang -Wthread-safety proves both accessors hold it.
class ErrorSlot {
 public:
  /// Records std::current_exception() if no earlier error is held.
  void capture_current() PW_EXCLUDES(mutex_) {
    common::MutexLock lock(mutex_);
    if (!first_) first_ = std::current_exception();
  }

  /// Rethrows the captured exception, if any. Called after join, but
  /// takes the lock anyway — correctness shouldn't depend on call-site
  /// phasing the analysis can't see.
  void rethrow_if_set() PW_EXCLUDES(mutex_) {
    std::exception_ptr error;
    {
      common::MutexLock lock(mutex_);
      error = first_;
    }
    if (error) std::rethrow_exception(error);
  }

 private:
  common::Mutex mutex_;
  std::exception_ptr first_ PW_GUARDED_BY(mutex_);
};

}  // namespace

unsigned SweepRunner::default_threads() {
  const char* s = std::getenv("PW_THREADS");
  if (s != nullptr && *s != '\0') {
    std::int64_t v = 0;
    if (!common::parse_int64(s, &v) || v < 1 ||
        v > std::numeric_limits<unsigned>::max()) {
      std::fprintf(stderr,
                   "PW_THREADS: expected a positive integer, got \"%s\"\n", s);
      std::exit(2);
    }
    return static_cast<unsigned>(v);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw >= 1 ? hw : 1;
}

SweepRunner::SweepRunner(unsigned threads)
    : threads_(threads >= 1 ? threads : 1) {}

void SweepRunner::for_each_index(
    std::size_t n, const std::function<void(std::size_t)>& job) const {
  if (n == 0) return;

  std::atomic<std::size_t> next{0};
  ErrorSlot first_error;

  const auto worker = [&] {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) return;
      try {
        PW_COUNT(kSweepJobs);
        PW_TIMEIT(kSweepJobWallNs, "sweep_job");
        job(i);
      } catch (...) {
        first_error.capture_current();
      }
    }
  };

  const std::size_t pool =
      std::min<std::size_t>(threads_, n);
  if (pool <= 1) {
    worker();
  } else {
    std::vector<std::thread> workers;
    workers.reserve(pool);
    for (std::size_t t = 0; t < pool; ++t) workers.emplace_back(worker);
    for (auto& w : workers) w.join();
  }

  first_error.rethrow_if_set();
}

}  // namespace politewifi::sim
