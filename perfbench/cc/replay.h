// Copyright (c) 2026 moqo authors. MIT license.
//
// Layer replay of the traced run: re-runs a seeded sample of a workload's
// requests through each layer's public functions directly — signature,
// DP (with DPStats), PlanSet copy, selection, the persist codecs and the
// wire codec — timing each call. This is how the benchmark sees inside
// the optimizer without instrumenting it.

#ifndef MOQO_PERFBENCH_REPLAY_H_
#define MOQO_PERFBENCH_REPLAY_H_

#include <vector>

#include "common.h"
#include "service/request.h"

namespace perfbench {

/// Replays `sample` and adds the core.*, plan_set.*, query.*,
/// persist.codec_* and net.wire_* per-layer numbers to `result`. Spans go
/// to `tracer` (category "bench", names "replay.*").
void ReplayLayers(const std::vector<moqo::ServiceRequest>& sample,
                  moqo::Tracer* tracer, Result* result);

}  // namespace perfbench

#endif  // MOQO_PERFBENCH_REPLAY_H_
