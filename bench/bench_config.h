// Copyright (c) 2026 moqo authors. MIT license.
//
// Shared configuration of the figure-reproduction benches.
//
// The paper ran on a 12-core server with a TWO-HOUR timeout per optimizer
// run and 20 test cases per cell; a faithful rerun takes weeks. The
// benches therefore scale the whole experiment down —
// search space (TPC-H scale factor, operator fan-out), timeout, and case
// count — such that the paper's relative shapes (who times out, who wins,
// by how many orders of magnitude) are preserved at CI-scale runtimes.
// Every knob can be restored toward paper scale via environment variables:
//
//   MOQO_SF          TPC-H scale factor                (default 0.01)
//   MOQO_TIMEOUT_MS  per-run timeout in milliseconds   (default 5000 for
//                    Figure 5, 18000 for Figures 9/10)
//   MOQO_CASES       test cases per cell               (default 2; paper 20)
//   MOQO_THREADS     concurrent optimizer runs         (default 5, like the
//                    paper's "five optimizer threads ran in parallel")
//   MOQO_FULL_OPS    1 = paper-faithful operator space (12 scan/12 join
//                    configs); default 0 = reduced (6 scan/8 join)

#ifndef MOQO_BENCH_BENCH_CONFIG_H_
#define MOQO_BENCH_BENCH_CONFIG_H_

#include <atomic>
#include <functional>
#include <thread>
#include <vector>

#include "harness/experiment.h"

namespace moqo {
namespace bench {

struct BenchConfig {
  double scale_factor;
  int cases;
  int threads;
  OptimizerOptions options;  ///< timeout + operator space preconfigured.
};

inline BenchConfig MakeConfig(int default_timeout_ms) {
  BenchConfig config;
  config.scale_factor = EnvDouble("MOQO_SF", 0.01);
  config.cases = EnvInt("MOQO_CASES", 2);
  config.threads = EnvInt("MOQO_THREADS", 5);
  config.options.timeout_ms = EnvInt("MOQO_TIMEOUT_MS", default_timeout_ms);
  if (EnvInt("MOQO_FULL_OPS", 0) == 0) {
    config.options.operators.sampling_rates = {0.05, 0.01};
    config.options.operators.dops = {1, 4};
  }
  return config;
}

/// Runs jobs[0..n) on `threads` workers; blocks until all complete.
inline void ParallelFor(int n, int threads,
                        const std::function<void(int)>& job) {
  std::atomic<int> next{0};
  auto worker = [&] {
    for (int i = next.fetch_add(1); i < n; i = next.fetch_add(1)) job(i);
  };
  std::vector<std::thread> pool;
  const int workers = std::max(1, std::min(threads, n));
  pool.reserve(workers);
  for (int t = 0; t < workers; ++t) pool.emplace_back(worker);
  for (std::thread& t : pool) t.join();
}

}  // namespace bench
}  // namespace moqo

#endif  // MOQO_BENCH_BENCH_CONFIG_H_
