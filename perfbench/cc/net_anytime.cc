// Copyright (c) 2026 moqo authors. MIT license.
//
// net_anytime: the anytime serving shape over the wire. OPENs arrive on a
// seeded Poisson schedule at a fixed offered rate (an open loop:
// independent users do not wait for each other) at a NetServer on
// loopback; each latency is timed from the moment its session was due, so
// a stall also charges the sessions queued behind it. Each session is a
// popular window (a plan-cache hit: wire framing and push dominate) or a
// fresh window one short walk along a shared chain (a plan-cache miss
// that overlaps recent windows: memo probes, memo publishes and
// approximate DP dominate). Every session opens an RTA ladder with a quick
// first frontier, alpha 2.5 -> 1.25 in 3 rungs, so refinement competes
// with first-frontier work in the service's two-lane pool. After the
// window a short ladder of higher rates finds the highest rate whose
// first-frontier p99 stays under the latency limit.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "harness.h"
#include "inputs.h"
#include "net/blocking_client.h"
#include "replay.h"
#include "workloads.h"

namespace perfbench {
namespace {

using moqo::OptimizationService;
using moqo::net::BlockingNetClient;
using moqo::net::MsgType;
using moqo::net::NetServer;

constexpr int kSetupReps = 21;
/// Offered rate of the measured window, well below the rate at which four
/// connections stop keeping up with this mix: near it, a hot session
/// mostly waits for a free connection, and latency measures that queue
/// instead of the server.
constexpr double kNominalRate = 100;
/// Rates of the max-rate ladder, and how long each is offered.
constexpr double kLadderRates[] = {200, 300, 400};
constexpr double kLadderSeconds = 2;
constexpr int64_t kEventTimeoutMs = 30000;
constexpr double kWarmupSeconds = 1;
constexpr double kFailedMs = 1e12;

moqo::net::OpenFrontierMsg SessionOpen(const std::string& query_id) {
  moqo::net::OpenFrontierMsg open;
  open.query_id = query_id;
  open.objectives = NetObjectives();
  open.algorithm = static_cast<int8_t>(moqo::AlgorithmKind::kRta);
  open.alpha = 1.25;
  open.alpha_start = 2.5;
  open.alpha_target = 1.25;
  open.max_steps = 3;
  open.quick_first = 1;
  return open;
}

/// What the client saw of one session; times are NowMs() instants.
struct SessionLog {
  double due = 0, start = 0, first = 0, done = 0;
  double connect_ms = 0;
  int frames = 0;
  bool ok = false;
  bool target_reached = false;
};

/// Runs one session on a fresh connection. `id` tags the session's spans
/// and travels in the query id, so the resolver can tag the server side.
SessionLog RunSession(uint16_t port, const std::string& key, uint64_t id,
                      double due, moqo::Tracer* tracer) {
  SessionLog log;
  log.due = due;
  log.start = NowMs();
  moqo::TraceSpan top(tracer, "bench", "client.session", id);
  BlockingNetClient client;
  {
    moqo::TraceSpan span(tracer, "bench", "client.connect", id);
    const double t0 = NowMs();
    if (!client.Connect("127.0.0.1", port)) return log;
    log.connect_ms = NowMs() - t0;
  }
  {
    moqo::TraceSpan span(tracer, "bench", "client.send", id);
    const std::string query_id =
        key + "#" + std::to_string(id - kBenchIdBase);
    if (!client.SendOpen(SessionOpen(query_id))) return log;
  }
  moqo::TraceSpan await_first(tracer, "bench", "client.await_first", id);
  double last_alpha = INFINITY;
  bool decreasing = true;
  while (true) {
    BlockingNetClient::Event event;
    if (!client.NextEvent(&event, kEventTimeoutMs)) return log;
    if (event.type == MsgType::kFrontierUpdate) {
      const double now = NowMs();
      if (log.frames == 0) {
        log.first = now;
        await_first.End();
      } else if (!(event.frontier.alpha < last_alpha)) {
        decreasing = false;
      }
      last_alpha = event.frontier.alpha;
      ++log.frames;
    } else if (event.type == MsgType::kDone) {
      log.done = NowMs();
      log.target_reached = event.done.target_reached != 0;
      break;
    } else if (event.type == MsgType::kError) {
      return log;
    }
  }
  client.SendClose();
  log.ok = decreasing && log.frames > 0;
  return log;
}

/// Open loop: sessions [first, first + count) of the stream, due at
/// their scaled arrival offsets from `start`; at most one connection per
/// client thread.
std::vector<SessionLog> RunOpenLoop(uint16_t port, const NetInputs& inputs,
                                    size_t first, size_t count, double rate,
                                    double start, int clients,
                                    moqo::Tracer* tracer) {
  std::vector<SessionLog> logs(count);
  std::atomic<size_t> next{0};
  const double base = inputs.unit_arrivals_ms[first];
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&] {
      for (size_t k = next.fetch_add(1); k < count; k = next.fetch_add(1)) {
        const size_t i = first + k;
        const double due = start + (inputs.unit_arrivals_ms[i] - base) / rate;
        const double wait = due - NowMs();
        if (wait > 0) {
          std::this_thread::sleep_for(
              std::chrono::duration<double, std::milli>(wait));
        }
        logs[k] = RunSession(port, inputs.session_keys[i],
                             kBenchIdBase + i, due, tracer);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  return logs;
}

/// Sessions of the stream due within `seconds` at `rate`, from `first`.
size_t SessionsDue(const NetInputs& inputs, size_t first, double rate,
                   double seconds) {
  const double base = inputs.unit_arrivals_ms[first];
  size_t n = 0;
  while (first + n < inputs.unit_arrivals_ms.size() &&
         (inputs.unit_arrivals_ms[first + n] - base) / rate <
             seconds * 1000.0) {
    ++n;
  }
  return n;
}

long BacklogAt(const std::vector<SessionLog>& logs, double end) {
  long backlog = 0;
  for (const SessionLog& log : logs) {
    if (log.due < end && (!log.ok || log.done > end)) ++backlog;
  }
  return backlog;
}

}  // namespace

bool RunNetAnytime(const Args& args, Result* r) {
  moqo::Tracer bench_tracer;
  bench_tracer.SetEnabled(args.trace);
  const bool tiny = args.size == Size::kTiny;
  const double rate = tiny ? 40 : kNominalRate;
  double offered = rate * (args.seconds + kWarmupSeconds);
  if (!args.trace && !tiny) {
    for (double ladder_rate : kLadderRates) offered += ladder_rate * kLadderSeconds;
  }
  const size_t max_sessions = static_cast<size_t>(offered * 1.5) + 200;
  const moqo::SharedSubgraphOptions chain = NetChain(args.size, max_sessions);

  // Set-up: catalog, service construction, server start.
  const NetInputs* inputs_ptr = nullptr;
  std::unique_ptr<moqo::Catalog> catalog;
  std::unique_ptr<OptimizationService> service;
  std::unique_ptr<NetServer> server;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    server.reset();
    service.reset();
    catalog.reset();
    moqo::TraceSpan span(&bench_tracer, "bench", "setup", kBenchIdBase);
    const double t0 = NowMs();
    catalog = std::make_unique<moqo::Catalog>(
        moqo::MakeSharedSubgraphCatalog(chain));
    moqo::ServiceOptions options;
    options.trace = BenchTraceOptions(args.trace);
    service = std::make_unique<OptimizationService>(options);
    moqo::net::NetOptions net_options;
    OptimizationService* raw_service = service.get();
    net_options.resolve_query =
        [&inputs_ptr, raw_service](
            const std::string& id) -> std::shared_ptr<const moqo::Query> {
      const size_t hash = id.find('#');
      const uint64_t n =
          hash == std::string::npos ? 0 : std::stoull(id.substr(hash + 1));
      moqo::TraceSpan span(raw_service->tracer(), "bench", "net.resolve",
                           kBenchIdBase + n);
      const auto it = inputs_ptr->queries.find(id.substr(0, hash));
      return it == inputs_ptr->queries.end() ? nullptr : it->second;
    };
    server = std::make_unique<NetServer>(service.get(), net_options);
    if (!server->Start()) return false;
    r->setup_s.push_back((NowMs() - t0) / 1000.0);
  }

  const NetInputs inputs =
      MakeNetInputs(args.seed, args.size, max_sessions, catalog.get());
  inputs_ptr = &inputs;
  const uint16_t port = server->port();
  const int clients = HardwareThreads();
  r->sizes["clients"] = clients;
  r->sizes["hot_windows"] = static_cast<double>(inputs.hot_keys.size());
  r->sizes["hot_share"] = inputs.hot_share;
  r->sizes["chain_tables"] = catalog->num_tables();
  r->sizes["offered_rate_rps"] = rate;
  r->sizes["memo_budget_bytes"] =
      static_cast<double>(service->options().subplan_memo.capacity_bytes);

  // Warm-up, untimed: every hot window once, so hot sessions are hits.
  for (size_t h = 0; h < inputs.hot_keys.size(); ++h) {
    const SessionLog log =
        RunSession(port, inputs.hot_keys[h], kBenchIdBase + (uint64_t{1} << 41) + h,
                   NowMs(), nullptr);
    if (!log.ok) {
      server->Stop();  // The resolver reads `inputs`, destroyed first.
      return false;
    }
  }

  // Warm-up, untimed: one second of the stream at the offered rate, so
  // the memo holds the chain around the first fresh window and lazy
  // set-up (the DP pool) is done before timing starts.
  size_t next = SessionsDue(inputs, 0, rate, kWarmupSeconds);
  RunOpenLoop(port, inputs, 0, next, rate, NowMs(), clients, nullptr);

  std::vector<SessionLog> window_logs;
  auto window = [&](double seconds, bool traced) {
    const size_t count = SessionsDue(inputs, next, rate, seconds);
    service->tracer()->SetEnabled(traced);
    const CounterSnapshot before = ReadCounters(*service, server.get());
    const double cpu0 = ProcessCpuMs();
    const double start = NowMs() + 5;
    window_logs = RunOpenLoop(port, inputs, next, count, rate, start,
                              clients, service->tracer());
    const double end = start + seconds * 1000.0;
    double last_done = end;
    for (const SessionLog& log : window_logs) {
      last_done = std::max(last_done, log.done);
    }
    r->window_s = (last_done - start) / 1000.0;
    r->cpu_ms = ProcessCpuMs() - cpu0;
    r->rss_mb = ResidentMb();
    r->sizes["memo_bytes_end"] = static_cast<double>(service->MemoStats().bytes);
    service->tracer()->SetEnabled(false);
    next += count;

    std::vector<double> latencies;
    r->attempted = r->completed = r->failed = r->target_reached = 0;
    r->first_frontier_ms.clear();
    r->layer_samples["loadgen.lag_ms"].clear();
    r->layer_samples["net.connect_ms"].clear();
    double frames = 0;
    for (const SessionLog& log : window_logs) {
      ++r->attempted;
      r->AddCheck("session_alpha_decreasing_and_done", log.ok);
      if (!log.ok) {
        ++r->failed;
        continue;
      }
      ++r->completed;
      if (log.target_reached) ++r->target_reached;
      latencies.push_back(log.done - log.due);
      r->first_frontier_ms.push_back(log.first - log.due);
      r->layer_samples["loadgen.lag_ms"].push_back(log.start - log.due);
      r->layer_samples["net.connect_ms"].push_back(log.connect_ms);
      frames += log.frames;
    }
    r->layer["loadgen.backlog_end"] =
        static_cast<double>(BacklogAt(window_logs, end));
    r->layer["net.frames_per_session"] =
        r->completed > 0 ? frames / r->completed : 0;
    if (traced) {
      AddCounterLayers(before, ReadCounters(*service, server.get()),
                       r->attempted, r);
    }
    return latencies;
  };

  if (args.trace) {
    r->untraced_latency_ms = window(args.seconds / 2, false);
    r->checks.clear();
    r->latency_ms = window(args.seconds / 2, true);
  } else {
    r->latency_ms = window(args.seconds, false);
  }
  const std::vector<SessionLog> measured = window_logs;

  // Max-rate ladder (untraced runs): the same stream continued at higher
  // offered rates; run.py picks the highest rate whose first-frontier
  // tail meets the limit with no backlog left at the end of its step.
  if (!args.trace && !tiny) {
    for (double ladder_rate : kLadderRates) {
      const size_t count =
          SessionsDue(inputs, next, ladder_rate, kLadderSeconds);
      const double start = NowMs() + 5;
      const std::vector<SessionLog> logs = RunOpenLoop(
          port, inputs, next, count, ladder_rate, start, clients, nullptr);
      next += count;
      std::vector<double> first_ms;
      // A failed session misses any latency limit.
      for (const SessionLog& log : logs) {
        first_ms.push_back(log.ok ? log.first - log.due : kFailedMs);
      }
      r->rate_ladder.emplace_back(ladder_rate, std::move(first_ms));
      r->rate_ladder_backlog.push_back(
          BacklogAt(logs, start + kLadderSeconds * 1000.0));
    }
  }

  if (args.trace) {
    // Replay the windows of a seeded sample of the measured sessions.
    std::vector<moqo::ServiceRequest> sample;
    for (size_t i : SampleIndices(Mix(args.seed, 3), measured.size(), 6)) {
      moqo::ServiceRequest request;
      request.spec.query =
          inputs.queries.at(inputs.session_keys[next - measured.size() + i]);
      std::vector<moqo::Objective> objectives;
      for (uint8_t o : NetObjectives()) {
        objectives.push_back(static_cast<moqo::Objective>(o));
      }
      request.spec.objectives = moqo::ObjectiveSet(objectives);
      request.spec.algorithm = moqo::AlgorithmKind::kRta;
      request.spec.alpha = 1.25;
      request.preference.weights = moqo::WeightVector::Uniform(3);
      sample.push_back(std::move(request));
    }
    ReplayLayers(sample, &bench_tracer, r);
  }
  server->Stop();
  return !args.trace ||
         ExportTraces(args, service->tracer(), &bench_tracer, r);
}

}  // namespace perfbench
