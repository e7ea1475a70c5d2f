// Copyright (c) 2026 moqo authors. MIT license.
//
// Pieces every workload shares: the closed-loop client runner, the
// counter snapshots that become per-layer numbers, seeded sampling, and
// the trace export of a traced run.

#ifndef MOQO_PERFBENCH_HARNESS_H_
#define MOQO_PERFBENCH_HARNESS_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "net/net_server.h"
#include "service/optimization_service.h"

namespace perfbench {

/// Closed loop: `clients` threads each take the next stream index and
/// call `body(index, client)`, sending their next request only after the
/// previous one returned, until NowMs() passes `deadline_ms` or
/// `max_requests` were issued. Returns the number issued.
template <typename Body>
uint64_t RunClosedLoop(int clients, uint64_t first_index, double deadline_ms,
                       uint64_t max_requests, Body body) {
  std::atomic<uint64_t> issued{0};
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      while (NowMs() < deadline_ms) {
        const uint64_t n = issued.fetch_add(1);
        if (n >= max_requests) break;
        body(first_index + n, c);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  return std::min<uint64_t>(issued.load(), max_requests);
}

/// Online processors; the client-count cap of every workload.
int HardwareThreads();

/// Counters the program exports, read before and after a window.
struct CounterSnapshot {
  moqo::ServiceStatsSnapshot service;
  moqo::SubplanMemo::Stats memo;
  moqo::persist::PersistStatsSnapshot persist;
  moqo::net::NetStatsSnapshot net;
};

CounterSnapshot ReadCounters(const moqo::OptimizationService& service,
                             const moqo::net::NetServer* server = nullptr);

/// Adds the service.*, memo.*, persist.tier_* and net.* counter deltas
/// of a window to result->layer. `sessions` divides the per-session
/// net numbers.
void AddCounterLayers(const CounterSnapshot& before,
                      const CounterSnapshot& after, long sessions,
                      Result* result);

/// `count` distinct indices below `n`, drawn from `seed`, ascending.
std::vector<size_t> SampleIndices(uint64_t seed, size_t n, size_t count);

/// Service options shared by the workloads: tracing is compiled in as
/// always, and a traced run gets a ring large enough that its traced half
/// never wraps.
moqo::TraceOptions BenchTraceOptions(bool traced);

/// Writes both tracers' spans under args.state_dir and records the paths
/// and the clock offset in `result`; run.py merges them into one
/// Chrome-trace file.
bool ExportTraces(const Args& args, moqo::Tracer* service_tracer,
                  moqo::Tracer* bench_tracer, Result* result);

}  // namespace perfbench

#endif  // MOQO_PERFBENCH_HARNESS_H_
