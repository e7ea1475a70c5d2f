// Copyright (c) 2026 moqo authors. MIT license.

#include "harness.h"

#include <algorithm>
#include <set>

#include "util/random.h"

namespace perfbench {

int HardwareThreads() {
  return std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
}

CounterSnapshot ReadCounters(const moqo::OptimizationService& service,
                             const moqo::net::NetServer* server) {
  CounterSnapshot snapshot;
  snapshot.service = service.Stats();
  snapshot.memo = service.MemoStats();
  snapshot.persist = service.PersistStats();
  if (server != nullptr) snapshot.net = server->Stats();
  return snapshot;
}

void AddCounterLayers(const CounterSnapshot& before,
                      const CounterSnapshot& after, long sessions,
                      Result* r) {
  auto delta = [](uint64_t a, uint64_t b) {
    return static_cast<double>(b >= a ? b - a : 0);
  };
  const moqo::ServiceStatsSnapshot& s0 = before.service;
  const moqo::ServiceStatsSnapshot& s1 = after.service;
  const double hits = delta(s0.cache_hits, s1.cache_hits);
  const double misses = delta(s0.cache_misses, s1.cache_misses);
  const double requests = delta(s0.requests_total, s1.requests_total) +
                          delta(s0.sessions_opened, s1.sessions_opened);
  r->layer["service.cache_hit_ratio"] =
      hits + misses > 0 ? hits / (hits + misses) : 0;
  r->layer["service.frontier_hit_ratio"] =
      requests > 0 ? delta(s0.frontier_hits, s1.frontier_hits) / requests
                   : 0;
  r->layer["service.coalesced"] =
      delta(s0.coalesced_hits, s1.coalesced_hits) +
      delta(s0.sessions_coalesced, s1.sessions_coalesced);
  r->layer["service.cache_evictions"] =
      delta(s0.cache_evictions, s1.cache_evictions);
  r->layer["service.rejected"] =
      delta(s0.admissions_rejected, s1.admissions_rejected);
  r->layer["service.refinement_sheds"] =
      delta(s0.refinement_sheds, s1.refinement_sheds);
  r->layer["service.watchdog_fires"] =
      delta(s0.watchdog_fires, s1.watchdog_fires);
  r->layer["service.deadline_timeouts"] =
      delta(s0.deadline_timeouts, s1.deadline_timeouts);

  const moqo::SubplanMemo::Stats& m0 = before.memo;
  const moqo::SubplanMemo::Stats& m1 = after.memo;
  const double lookups =
      delta(m0.hits, m1.hits) + delta(m0.misses, m1.misses);
  r->layer["memo.lookups"] = lookups;
  r->layer["memo.hit_ratio"] =
      lookups > 0 ? delta(m0.hits, m1.hits) / lookups : 0;
  r->layer["memo.publishes"] = delta(m0.insertions, m1.insertions);
  r->layer["memo.admission_rejects"] =
      delta(m0.admission_rejects, m1.admission_rejects);
  r->layer["memo.evictions"] = delta(m0.evictions, m1.evictions);
  r->layer["memo.bytes"] = static_cast<double>(m1.bytes);

  const moqo::persist::PersistStatsSnapshot& p0 = before.persist;
  const moqo::persist::PersistStatsSnapshot& p1 = after.persist;
  r->layer["persist.tier_demotions"] =
      delta(p0.cache_tier_demotions, p1.cache_tier_demotions) +
      delta(p0.memo_tier_demotions, p1.memo_tier_demotions);
  r->layer["persist.tier_promotions"] =
      delta(p0.cache_tier_promotions, p1.cache_tier_promotions) +
      delta(p0.memo_tier_promotions, p1.memo_tier_promotions);

  const moqo::net::NetStatsSnapshot& n0 = before.net;
  const moqo::net::NetStatsSnapshot& n1 = after.net;
  r->layer["net.pushes_dropped"] = delta(n0.pushes_dropped, n1.pushes_dropped);
  r->layer["net.protocol_errors"] =
      delta(n0.protocol_errors, n1.protocol_errors);
  r->layer["net.bytes_per_session"] =
      sessions > 0 ? (delta(n0.bytes_in, n1.bytes_in) +
                      delta(n0.bytes_out, n1.bytes_out)) /
                         sessions
                   : 0;
}

std::vector<size_t> SampleIndices(uint64_t seed, size_t n, size_t count) {
  std::vector<size_t> out;
  if (n == 0) return out;
  moqo::Xoshiro256 rng(seed);
  for (int i : rng.SampleWithoutReplacement(static_cast<int>(n),
                                            static_cast<int>(std::min(n, count)))) {
    out.push_back(static_cast<size_t>(i));
  }
  std::sort(out.begin(), out.end());
  return out;
}

moqo::TraceOptions BenchTraceOptions(bool traced) {
  moqo::TraceOptions options;
  if (traced) options.ring_capacity = size_t{1} << 16;
  return options;
}

bool ExportTraces(const Args& args, moqo::Tracer* service_tracer,
                  moqo::Tracer* bench_tracer, Result* r) {
  r->service_trace_path = args.state_dir + "/service_trace.json";
  r->bench_trace_path = args.state_dir + "/bench_trace.json";
  const int64_t service_now = service_tracer->NowUs();
  const int64_t bench_now = bench_tracer->NowUs();
  r->trace_offset_us = static_cast<double>(bench_now - service_now);
  r->report["trace.dropped_events"] =
      static_cast<double>(service_tracer->dropped_events() +
                          bench_tracer->dropped_events());
  return service_tracer->WriteChromeTrace(r->service_trace_path) &&
         bench_tracer->WriteChromeTrace(r->bench_trace_path);
}

}  // namespace perfbench
