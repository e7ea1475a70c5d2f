// Copyright (c) 2026 moqo authors. MIT license.

#include "replay.h"

#include <algorithm>
#include <string>
#include <thread>

#include "core/dp_driver.h"
#include "core/optimizer.h"
#include "core/plan_set.h"
#include "model/cost_model.h"
#include "net/wire.h"
#include "persist/frontier_codec.h"
#include "persist/plan_set_codec.h"
#include "service/plan_cache.h"
#include "service/policy.h"
#include "service/signature.h"
#include "util/thread_pool.h"

namespace perfbench {
namespace {

/// Repetitions of the sub-millisecond calls, so one sample is long enough
/// to time.
constexpr int kFastReps = 200;

}  // namespace

void ReplayLayers(const std::vector<moqo::ServiceRequest>& sample,
                  moqo::Tracer* tracer, Result* r) {
  const moqo::OptimizerOptions defaults;
  const moqo::OperatorRegistry registry(defaults.operators);
  const moqo::PolicyOptions policy;
  const int hardware =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  // Same shape as the service's shared DP pool: the calling thread plus
  // helpers, fan-out from policy.parallel_min_tables up.
  moqo::ThreadPool pool(hardware);

  double considered = 0, inserted = 0, barrier_ms = 0, levels = 0;
  double memory = 0, plans = 0, bytes = 0, dp_ms_total = 0;
  for (size_t i = 0; i < sample.size(); ++i) {
    const moqo::ServiceRequest& request = sample[i];
    const moqo::Query& query = *request.spec.query;
    const uint64_t id = kBenchIdBase + (uint64_t{1} << 40) + i;
    moqo::PolicyDecision decision = moqo::ChooseAlgorithm(
        query, request.spec.objectives, request.preference.deadline_ms,
        policy);
    if (request.spec.algorithm) decision.algorithm = *request.spec.algorithm;
    if (request.spec.alpha) decision.alpha = *request.spec.alpha;
    if (decision.algorithm == moqo::AlgorithmKind::kExa) decision.alpha = 1.0;

    {
      moqo::TraceSpan span(tracer, "bench", "replay.signature", id);
      const double t0 = NowMs();
      for (int rep = 0; rep < kFastReps; ++rep) {
        moqo::ComputeSignature(query, request.spec.objectives,
                               decision.algorithm, decision.alpha, defaults);
      }
      r->layer_samples["query.signature_us"].push_back(
          (NowMs() - t0) * 1000.0 / kFastReps);
    }

    moqo::CostModel model(&query, &registry, request.spec.objectives);
    moqo::Arena arena;
    moqo::DPPlanGenerator generator(&model, &registry, &arena);
    moqo::DPOptions dp;
    dp.alpha = decision.algorithm == moqo::AlgorithmKind::kExa
                   ? 1.0
                   : moqo::RTAInternalPrecision(decision.alpha,
                                                query.num_tables());
    if (query.num_tables() >= policy.parallel_min_tables) {
      dp.parallelism = hardware;
      dp.pool = &pool;
    }
    double dp_ms = 0;
    const moqo::ParetoSet* final_set = nullptr;
    {
      moqo::TraceSpan span(tracer, "bench", "replay.dp", id);
      const double t0 = NowMs();
      final_set = &generator.Run(query, dp);
      dp_ms = NowMs() - t0;
    }
    const moqo::DPStats& stats = generator.stats();
    r->layer_samples["core.dp_ms"].push_back(dp_ms);
    dp_ms_total += dp_ms;
    considered += stats.considered_plans;
    inserted += stats.inserted_plans;
    barrier_ms += stats.barrier_wait_us / 1000.0;
    levels += stats.parallel_levels;
    memory += static_cast<double>(generator.MemoryBytes());

    std::shared_ptr<const moqo::PlanSet> set;
    {
      moqo::TraceSpan span(tracer, "bench", "replay.plan_set_copy", id);
      const double t0 = NowMs();
      set = moqo::PlanSet::FromParetoSet(*final_set);
      r->layer_samples["plan_set.copy_ms"].push_back(NowMs() - t0);
    }
    plans += set->size();
    bytes += static_cast<double>(set->MemoryBytes());

    const moqo::WeightVector& weights = request.preference.weights;
    const moqo::BoundVector& bounds = request.preference.bounds;
    moqo::PlanSelection selection;
    {
      moqo::TraceSpan span(tracer, "bench", "replay.select", id);
      const double t0 = NowMs();
      for (int rep = 0; rep < kFastReps; ++rep) {
        selection = moqo::SelectPlan(*set, weights, bounds);
      }
      r->layer_samples["plan_set.select_us"].push_back(
          (NowMs() - t0) * 1000.0 / kFastReps);
    }

    // Persist codec: one plan-cache entry, as the snapshot and the disk
    // tier write it.
    auto result = std::make_shared<moqo::OptimizerResult>();
    result->plan_set = set;
    result->plan = selection.plan;
    result->cost = selection.cost;
    result->weighted_cost = selection.weighted_cost;
    moqo::CachedFrontier entry;
    entry.result = result;
    entry.weights = weights;
    entry.bounds = bounds;
    entry.achieved_alpha = decision.alpha;
    const double per_plan = std::max(1, set->size());
    std::string payload;
    {
      moqo::TraceSpan span(tracer, "bench", "replay.persist_encode", id);
      const double t0 = NowMs();
      for (int rep = 0; rep < kFastReps / 10; ++rep) {
        payload.clear();
        moqo::persist::EncodeFrontierPayload(entry, &payload);
      }
      r->layer_samples["persist.codec_encode_us_per_plan"].push_back(
          (NowMs() - t0) * 1000.0 / (kFastReps / 10) / per_plan);
    }
    {
      moqo::TraceSpan span(tracer, "bench", "replay.persist_decode", id);
      const double t0 = NowMs();
      bool ok = true;
      for (int rep = 0; rep < kFastReps / 10; ++rep) {
        std::shared_ptr<const moqo::CachedFrontier> decoded =
            moqo::persist::DecodeFrontierPayload(payload.data(),
                                                 payload.size(),
                                                 decision.alpha);
        ok = ok && decoded != nullptr && decoded->result != nullptr &&
             decoded->result->plan_set->size() == set->size();
      }
      r->layer_samples["persist.codec_decode_us_per_plan"].push_back(
          (NowMs() - t0) * 1000.0 / (kFastReps / 10) / per_plan);
      r->AddCheck("replay.persist_round_trip", ok);
    }

    // Wire codec: the FRONTIER_UPDATE a net session pushes for this set.
    std::string frame;
    {
      moqo::TraceSpan span(tracer, "bench", "replay.wire_encode", id);
      const double t0 = NowMs();
      for (int rep = 0; rep < kFastReps / 10; ++rep) {
        frame = moqo::net::EncodeFrontierUpdate(moqo::net::MakeFrontierUpdate(
            0, decision.alpha, false, dp_ms, *set));
      }
      r->layer_samples["net.wire_encode_us"].push_back(
          (NowMs() - t0) * 1000.0 / (kFastReps / 10));
    }
    {
      moqo::TraceSpan span(tracer, "bench", "replay.wire_decode", id);
      const auto* bytes_in =
          reinterpret_cast<const uint8_t*>(frame.data()) +
          moqo::net::kHeaderBytes;
      const size_t size = frame.size() - moqo::net::kHeaderBytes;
      moqo::net::FrontierUpdateMsg decoded;
      bool ok = true;
      const double t0 = NowMs();
      for (int rep = 0; rep < kFastReps / 10; ++rep) {
        ok = moqo::net::DecodeFrontierUpdate(bytes_in, size, &decoded) && ok;
      }
      r->layer_samples["net.wire_decode_us"].push_back(
          (NowMs() - t0) * 1000.0 / (kFastReps / 10));
      r->AddCheck("replay.wire_round_trip",
                  ok && static_cast<int>(decoded.num_plans()) == set->size());
    }
  }
  r->layer["core.considered_plans"] = considered;
  r->layer["core.inserted_plans"] = inserted;
  r->layer["core.insert_ratio"] = considered > 0 ? inserted / considered : 0;
  r->layer["core.considered_per_s"] =
      dp_ms_total > 0 ? considered / (dp_ms_total / 1000.0) : 0;
  r->layer["core.barrier_wait_ms"] = barrier_ms;
  r->layer["core.parallel_levels"] = levels;
  r->layer["core.memory_bytes"] = memory;
  r->layer["plan_set.plans"] = plans;
  r->layer["plan_set.bytes"] = bytes;
  r->sizes["replay_requests"] = static_cast<double>(sample.size());
}

}  // namespace perfbench
