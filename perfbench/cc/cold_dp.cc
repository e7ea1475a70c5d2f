// Copyright (c) 2026 moqo authors. MIT license.
//
// cold_dp: how long one hard query takes (the paper's Figure 5 question).
// One closed-loop client calls SubmitAndWait with the plan cache and the
// subplan memo off, so every request is a full DP that fans out over the
// service's shared DP pool. DP enumeration, the cost model and dominance
// pruning do almost all the work; cache, memo, net and persist do none.

#include <memory>
#include <string>
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

constexpr int kSetupReps = 51;

moqo::ServiceOptions ColdDpServiceOptions(bool traced) {
  moqo::ServiceOptions options;
  options.enable_cache = false;
  options.enable_subplan_memo = false;
  options.trace = BenchTraceOptions(traced);
  return options;
}

struct Served {
  uint64_t index = 0;
  int stratum = 0;
  ServiceRequest request;
  ServiceResponse response;
};

}  // namespace

bool RunColdDp(const Args& args, Result* r) {
  moqo::Tracer bench_tracer;
  bench_tracer.SetEnabled(args.trace);

  // Set-up: catalog and service, several times; the last one serves.
  std::unique_ptr<moqo::Catalog> catalog;
  std::unique_ptr<OptimizationService> service;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    service.reset();
    catalog.reset();
    moqo::TraceSpan span(&bench_tracer, "bench", "setup", kBenchIdBase);
    const double t0 = NowMs();
    catalog = MakeColdDpCatalog();
    service = std::make_unique<OptimizationService>(
        ColdDpServiceOptions(args.trace));
    r->setup_s.push_back((NowMs() - t0) / 1000.0);
  }

  const ColdDpInputs inputs =
      MakeColdDpInputs(args.seed, args.size, catalog.get());
  r->sizes["strata"] = static_cast<double>(inputs.classes.size());
  r->sizes["catalog_tables"] = catalog->num_tables();
  r->sizes["clients"] = 1;

  // Warm-up, untimed: one request, so the service's lazily created DP
  // pool exists before timing starts. It is the stream's request 0.
  service->SubmitAndWait(ColdDpRequest(inputs, 0));

  std::vector<Served> served;
  uint64_t next_index = 1;
  // One window: the single client runs until the deadline; returns the
  // window's latencies.
  auto window = [&](double seconds, bool traced) {
    std::vector<double> latencies;
    service->tracer()->SetEnabled(traced);
    const CounterSnapshot before = ReadCounters(*service);
    const double cpu0 = ProcessCpuMs();
    const double start = NowMs();
    const double deadline = start + seconds * 1000.0;
    while (NowMs() < deadline) {
      Served s;
      s.index = next_index++;
      s.request = ColdDpRequest(inputs, s.index, &s.stratum);
      moqo::TraceSpan span(service->tracer(), "bench", "bench.submit",
                           kBenchIdBase + s.index);
      const double t0 = NowMs();
      s.response = service->SubmitAndWait(s.request);
      const double ms = NowMs() - t0;
      span.End();
      ++r->attempted;
      if (HasPlan(s.response)) {
        ++r->completed;
        latencies.push_back(ms);
        if (s.response.status == moqo::ResponseStatus::kCompleted) {
          ++r->target_reached;
        }
      } else {
        ++r->failed;
      }
      served.push_back(std::move(s));
    }
    r->window_s = (NowMs() - start) / 1000.0;
    r->cpu_ms = ProcessCpuMs() - cpu0;
    r->rss_mb = ResidentMb();
    service->tracer()->SetEnabled(false);
    if (traced) AddCounterLayers(before, ReadCounters(*service), 0, r);
    return latencies;
  };

  if (args.trace) {
    r->untraced_latency_ms = window(args.seconds / 2, false);
    served.clear();
    r->attempted = r->completed = r->failed = 0;
    r->target_reached = 0;
    r->latency_ms = window(args.seconds / 2, true);
  } else {
    r->latency_ms = window(args.seconds, false);
  }
  // A one-shot call's first usable frontier is its response.
  r->first_frontier_ms = r->latency_ms;

  // ---- Output checks, outside the window. ----
  moqo::ThreadPool pool(HardwareThreads());
  for (const Served& s : served) r->AddCheck("response_has_plan", HasPlan(s.response));
  // (1) Parallel service frontiers are bit-identical to a serial,
  // memo-off rerun of the same spec.
  const size_t identity_samples = args.size == Size::kTiny ? 1 : 3;
  for (size_t i : SampleIndices(Mix(args.seed, 1), served.size(),
                                identity_samples)) {
    const Served& s = served[i];
    if (!HasPlan(s.response)) continue;
    const auto reference = ReferenceFrontier(
        s.request.spec, *s.request.spec.algorithm, *s.request.spec.alpha);
    r->AddCheck("frontier_bit_identical",
                BitIdentical(*reference, *s.response.plan_set()));
  }
  // (2) RTA stays within alpha of the exact frontier, on inputs of at most
  // 8 tables and 6 objectives whose exact reference takes well under a
  // second (three objectives, or the star shape).
  std::vector<size_t> eligible;
  for (size_t i = 0; i < served.size(); ++i) {
    const ColdDpClass& cls = inputs.classes[served[i].stratum];
    if (cls.algorithm == moqo::AlgorithmKind::kRta && cls.tables <= 8 &&
        cls.objectives <= 6 &&
        (cls.objectives <= 3 || std::string(cls.shape) == "star") &&
        HasPlan(served[i].response)) {
      eligible.push_back(i);
    }
  }
  for (size_t k : SampleIndices(Mix(args.seed, 2), eligible.size(), 2)) {
    const Served& s = served[eligible[k]];
    const auto exact =
        ReferenceFrontier(s.request.spec, moqo::AlgorithmKind::kExa, 1.0,
                          &pool, HardwareThreads());
    const double over = CoverageOverBound(*s.response.plan_set(), *exact,
                                          *s.request.spec.alpha);
    r->layer_samples["frontier.coverage_alpha_over_bound"].push_back(over);
    r->AddCheck("rta_alpha_guarantee", over <= 1.0 + 1e-9);
  }
  r->layer["frontier.checked"] =
      static_cast<double>(r->checks["rta_alpha_guarantee"].checked);

  if (args.trace) {
    std::vector<ServiceRequest> sample;
    for (size_t i : SampleIndices(Mix(args.seed, 3), served.size(), 6)) {
      sample.push_back(served[i].request);
    }
    ReplayLayers(sample, &bench_tracer, r);
    if (!ExportTraces(args, service->tracer(), &bench_tracer, r)) return false;
  }
  return true;
}

}  // namespace perfbench
