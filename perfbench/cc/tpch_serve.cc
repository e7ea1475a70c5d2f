// Copyright (c) 2026 moqo authors. MIT license.
//
// tpch_serve: the paper's Section 8 workload behind a warm, persistent
// service. nproc closed-loop clients call SubmitAndWait, the way Postgres
// backends wait for their plans. Specs come from a seeded universe larger
// than the 1024-entry plan cache and are drawn by Zipf popularity with a
// fresh preference each time, so most requests are frontier hits, the
// cold tail runs RTA, and evictions, tier demotions and tier hits all
// occur. The service starts by restoring a snapshot that an untimed
// preparation pass (its own process) wrote from the stream's warm-up
// prefix.

#include <cstdio>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "checks.h"
#include "harness.h"
#include "inputs.h"
#include "replay.h"
#include "util/thread_pool.h"
#include "workloads.h"

namespace perfbench {
namespace {

using moqo::OptimizationService;
using moqo::ServiceRequest;
using moqo::ServiceResponse;

constexpr int kSetupReps = 9;
/// The traced half stops issuing after this many requests, so no
/// thread's trace ring wraps.
constexpr uint64_t kMaxTracedRequests = 40000;
/// Alpha-guarantee checks per run, and the budget of one exact reference.
constexpr int kAlphaChecks = 3;
constexpr int64_t kExactBudgetMs = 1500;

moqo::ServiceOptions TpchServiceOptions(const Args& args, bool traced) {
  moqo::ServiceOptions options;
  options.persist.directory = args.state_dir;
  options.persist.restore_on_start = false;  // Timed separately below.
  options.persist.snapshot_on_shutdown = false;
  options.persist.tier_capacity_bytes = size_t{64} << 20;
  options.trace = BenchTraceOptions(traced);
  return options;
}

/// What one client saw in a window.
struct ClientLog {
  std::vector<double> latency_ms;
  long attempted = 0, completed = 0, failed = 0, target_reached = 0;
  /// Last plan-carrying response per spec rank, for the alpha check.
  std::map<int, std::pair<ServiceRequest, ServiceResponse>> by_spec;
};

}  // namespace

bool PrepareTpchServe(const Args& args) {
  const moqo::Catalog catalog = moqo::Catalog::TpcH(1.0);
  OptimizationService service(TpchServiceOptions(args, false));
  const TpchInputs inputs = MakeTpchInputs(args.seed, args.size, &catalog);
  const int clients = HardwareThreads();
  std::vector<TpchStream> streams;
  for (int c = 0; c < clients; ++c) streams.emplace_back(&inputs);
  std::atomic<long> failed{0};
  RunClosedLoop(clients, 0, 1e300, inputs.warmup_requests,
                [&](uint64_t index, int client) {
                  if (!HasPlan(service.SubmitAndWait(
                          streams[client].Request(index)))) {
                    failed.fetch_add(1);
                  }
                });
  return failed.load() == 0 && service.SnapshotNow();
}

bool RunTpchServe(const Args& args, Result* r) {
  moqo::Tracer bench_tracer;
  bench_tracer.SetEnabled(args.trace);

  // Set-up: catalog, service construction, snapshot restore.
  std::unique_ptr<moqo::Catalog> catalog;
  std::unique_ptr<OptimizationService> service;
  std::vector<double> restore_ms;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    service.reset();
    catalog.reset();
    moqo::TraceSpan span(&bench_tracer, "bench", "setup", kBenchIdBase);
    const double t0 = NowMs();
    catalog = std::make_unique<moqo::Catalog>(moqo::Catalog::TpcH(1.0));
    service = std::make_unique<OptimizationService>(
        TpchServiceOptions(args, args.trace));
    const double t1 = NowMs();
    {
      moqo::TraceSpan restore(&bench_tracer, "bench", "persist.restore",
                              kBenchIdBase);
      if (service->RestoreNow() == 0) return false;  // Prepare never ran.
    }
    const double t2 = NowMs();
    r->setup_s.push_back((t2 - t0) / 1000.0);
    restore_ms.push_back(t2 - t1);
  }
  const moqo::persist::PersistStatsSnapshot restored = service->PersistStats();

  const TpchInputs inputs = MakeTpchInputs(args.seed, args.size, catalog.get());
  const int clients = HardwareThreads();
  r->sizes["spec_universe"] = static_cast<double>(inputs.specs.size());
  r->sizes["plan_cache_entries"] =
      static_cast<double>(service->options().cache.capacity);
  r->sizes["warmup_requests"] = static_cast<double>(inputs.warmup_requests);
  r->sizes["clients"] = clients;
  r->sizes["restored_entries"] =
      static_cast<double>(restored.restored_entries());

  std::vector<TpchStream> streams;
  for (int c = 0; c < clients; ++c) streams.emplace_back(&inputs);
  uint64_t next_index = inputs.warmup_requests;
  std::vector<ClientLog> logs;

  auto window = [&](double seconds, bool traced) {
    logs.assign(clients, ClientLog());
    service->tracer()->SetEnabled(traced);
    const CounterSnapshot before = ReadCounters(*service);
    const double cpu0 = ProcessCpuMs();
    const double start = NowMs();
    const uint64_t issued = RunClosedLoop(
        clients, next_index, start + seconds * 1000.0,
        traced ? kMaxTracedRequests : UINT64_MAX,
        [&](uint64_t index, int client) {
          ClientLog& log = logs[client];
          int rank = 0;
          ServiceRequest request = streams[client].Request(index, &rank);
          moqo::TraceSpan span(service->tracer(), "bench", "bench.submit",
                               kBenchIdBase + index);
          const double t0 = NowMs();
          ServiceResponse response = service->SubmitAndWait(request);
          const double ms = NowMs() - t0;
          span.End();
          ++log.attempted;
          if (!HasPlan(response)) {
            ++log.failed;
            return;
          }
          ++log.completed;
          log.latency_ms.push_back(ms);
          if (response.status == moqo::ResponseStatus::kCompleted) {
            ++log.target_reached;
          }
          log.by_spec[rank] = {std::move(request), std::move(response)};
        });
    next_index += issued;
    r->window_s = (NowMs() - start) / 1000.0;
    r->sizes["memo_bytes_end"] = static_cast<double>(service->MemoStats().bytes);
    r->cpu_ms = ProcessCpuMs() - cpu0;
    r->rss_mb = ResidentMb();
    service->tracer()->SetEnabled(false);
    if (traced) AddCounterLayers(before, ReadCounters(*service), 0, r);
    std::vector<double> latencies;
    r->attempted = r->completed = r->failed = r->target_reached = 0;
    for (const ClientLog& log : logs) {
      latencies.insert(latencies.end(), log.latency_ms.begin(),
                       log.latency_ms.end());
      r->attempted += log.attempted;
      r->completed += log.completed;
      r->failed += log.failed;
      r->target_reached += log.target_reached;
    }
    return latencies;
  };

  if (args.trace) {
    r->untraced_latency_ms = window(args.seconds / 2, false);
    r->latency_ms = window(args.seconds / 2, true);
  } else {
    r->latency_ms = window(args.seconds, false);
  }
  r->first_frontier_ms = r->latency_ms;

  // ---- Output checks, outside the window. ----
  // Every served response carries a plan (failures were counted above).
  r->checks["response_has_plan"].checked = r->attempted;
  r->checks["response_has_plan"].failed = r->failed;
  // Served RTA frontiers (cached, restored or fresh) stay within their
  // alpha of the exact frontier, on specs of at most 8 tables and 6
  // objectives. Specs are visited in seeded order; an exact reference
  // that does not finish within its budget (the 6-table queries at six
  // objectives can take half a minute) is skipped, not counted.
  std::map<int, const std::pair<ServiceRequest, ServiceResponse>*> served;
  for (const ClientLog& log : logs) {
    for (const auto& [rank, entry] : log.by_spec) served[rank] = &entry;
  }
  moqo::ThreadPool pool(HardwareThreads());
  int checked = 0, tried = 0;
  for (const size_t rank : SampleIndices(Mix(args.seed, 2), inputs.specs.size(),
                                   inputs.specs.size())) {
    if (checked == kAlphaChecks || tried == 4 * kAlphaChecks) break;
    const auto it = served.find(static_cast<int>(rank));
    if (it == served.end()) continue;
    const auto& [request, response] = *it->second;
    if (response.algorithm != moqo::AlgorithmKind::kRta ||
        request.spec.query->num_tables() > 8 ||
        request.spec.objectives.size() > 6) {
      continue;
    }
    ++tried;
    const auto exact = ReferenceFrontier(
        request.spec, moqo::AlgorithmKind::kExa, 1.0, &pool,
        HardwareThreads(), kExactBudgetMs);
    if (exact == nullptr) continue;
    ++checked;
    const double over =
        CoverageOverBound(*response.plan_set(), *exact, response.alpha);
    r->layer_samples["frontier.coverage_alpha_over_bound"].push_back(over);
    r->AddCheck("rta_alpha_guarantee", over <= 1.0 + 1e-9);
    if (over > 1.0 + 1e-9) {
      std::fprintf(stderr,
                   "rta_alpha_guarantee failed: %s objectives %s alpha %g "
                   "outcome %d coverage/alpha %.6f (%d vs %d exact plans)\n",
                   request.spec.query->name().c_str(),
                   request.spec.objectives.ToString().c_str(), response.alpha,
                   static_cast<int>(response.cache), over,
                   response.plan_set()->size(), exact->size());
    }
  }
  r->layer["frontier.checked"] =
      static_cast<double>(r->checks["rta_alpha_guarantee"].checked);

  if (args.trace) {
    r->layer_samples["persist.restore_ms"] = restore_ms;
    r->layer["persist.restored_entries"] =
        static_cast<double>(restored.restored_entries());
    r->layer["persist.restore_bytes"] =
        static_cast<double>(restored.restore_bytes);
    const moqo::persist::PersistStatsSnapshot p0 = service->PersistStats();
    {
      moqo::TraceSpan span(&bench_tracer, "bench", "persist.snapshot",
                           kBenchIdBase);
      const double t0 = NowMs();
      if (!service->SnapshotNow()) return false;
      r->layer["persist.snapshot_write_ms"] = NowMs() - t0;
    }
    r->layer["persist.snapshot_bytes"] = static_cast<double>(
        service->PersistStats().snapshot_bytes - p0.snapshot_bytes);

    std::vector<ServiceRequest> sample;
    for (size_t i : SampleIndices(Mix(args.seed, 3), next_index, 6)) {
      sample.push_back(streams[0].Request(i));
    }
    ReplayLayers(sample, &bench_tracer, r);
    if (!ExportTraces(args, service->tracer(), &bench_tracer, r)) return false;
  }
  return true;
}

}  // namespace perfbench
