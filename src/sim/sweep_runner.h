// Parallel sweep runner: a worker pool for *independent* simulations.
//
// The paper's figures are sweeps — Fig 6 is victim power over 15 injection
// rates, Table 1 is one attack per chipset, the Wi-Peep extension ranges
// one target per anchor set. Each sweep point is a complete, self-seeded
// Simulation (its own Scheduler, Medium and RNG), so the points are
// embarrassingly parallel. SweepRunner fans them out across PW_THREADS
// worker threads and collects results *by index*, which makes the output
// bit-identical no matter how many threads execute: determinism lives in
// each point's seed, not in scheduling order. (Per-medium radio ids — see
// Medium::allocate_radio_id — are what make that true; a process-wide id
// counter would leak ordering between concurrent points.)
//
// Jobs must not touch shared mutable state. The simulator's own globals
// are safe: OuiDatabase is immutable after construction and the Logger is
// only read at the default Warn level.
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

namespace politewifi::sim {

class SweepRunner {
 public:
  /// `threads` <= 1 degrades to plain sequential execution in the calling
  /// thread (still index order) — the 0/1-thread path and the N-thread
  /// path produce identical results by construction.
  explicit SweepRunner(unsigned threads = default_threads());

  /// PW_THREADS env override, else hardware concurrency (min 1). A set
  /// PW_THREADS that is not a positive integer exits 2 with a named
  /// error instead of falling back to the default.
  static unsigned default_threads();

  unsigned threads() const { return threads_; }

  /// Invokes `job(i)` for every i in [0, n) across the pool; blocks until
  /// all complete. The first exception thrown by a job is rethrown here
  /// (remaining jobs still run to completion).
  void for_each_index(std::size_t n,
                      const std::function<void(std::size_t)>& job) const;

  /// Runs fn(0..n-1) and returns the results in index order.
  template <typename Fn>
  auto run_indexed(std::size_t n, Fn&& fn) const
      -> std::vector<decltype(fn(std::size_t{}))> {
    std::vector<decltype(fn(std::size_t{}))> results(n);
    for_each_index(n, [&](std::size_t i) { results[i] = fn(i); });
    return results;
  }

 private:
  unsigned threads_;
};

}  // namespace politewifi::sim
