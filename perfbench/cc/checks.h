// Copyright (c) 2026 moqo authors. MIT license.
//
// Output checks, run by every workload outside its timed window. A failed
// check counts against the run's error rate, and run.py exits non-zero.

#ifndef MOQO_PERFBENCH_CHECKS_H_
#define MOQO_PERFBENCH_CHECKS_H_

#include <memory>

#include "core/plan_set.h"
#include "service/request.h"

namespace moqo {
class ThreadPool;
}  // namespace moqo

namespace perfbench {

/// True iff both frontiers hold the same cost vectors, bit for bit, in the
/// same order.
bool BitIdentical(const moqo::PlanSet& a, const moqo::PlanSet& b);

/// Optimizes `spec` outside the service: `algorithm` at `alpha`, serial
/// unless `pool` is given, no subplan memo, the service's default plan
/// space. The reference every frontier check compares against. Null when
/// `timeout_ms` (>= 0) expired first: a partial run is no reference.
std::shared_ptr<const moqo::PlanSet> ReferenceFrontier(
    const moqo::ProblemSpec& spec, moqo::AlgorithmKind algorithm,
    double alpha, moqo::ThreadPool* pool = nullptr, int parallelism = 1,
    int64_t timeout_ms = -1);

/// CoverageAlpha(approx, exact) / alpha_bound: the share of its guarantee
/// an approximate frontier uses. Above 1 means the guarantee is broken.
double CoverageOverBound(const moqo::PlanSet& approx,
                         const moqo::PlanSet& exact, double alpha_bound);

/// A served response is usable: not rejected, and it carries a plan.
bool HasPlan(const moqo::ServiceResponse& response);

}  // namespace perfbench

#endif  // MOQO_PERFBENCH_CHECKS_H_
