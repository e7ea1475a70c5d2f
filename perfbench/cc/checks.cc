// Copyright (c) 2026 moqo authors. MIT license.

#include "checks.h"

#include <bit>
#include <cstdint>

#include "core/algorithm.h"
#include "frontier/frontier.h"

namespace perfbench {

bool BitIdentical(const moqo::PlanSet& a, const moqo::PlanSet& b) {
  if (a.size() != b.size()) return false;
  for (int i = 0; i < a.size(); ++i) {
    const moqo::CostVector& x = a.cost(i);
    const moqo::CostVector& y = b.cost(i);
    if (x.size() != y.size()) return false;
    for (int d = 0; d < x.size(); ++d) {
      if (std::bit_cast<uint64_t>(x[d]) != std::bit_cast<uint64_t>(y[d])) {
        return false;
      }
    }
  }
  return true;
}

std::shared_ptr<const moqo::PlanSet> ReferenceFrontier(
    const moqo::ProblemSpec& spec, moqo::AlgorithmKind algorithm,
    double alpha, moqo::ThreadPool* pool, int parallelism,
    int64_t timeout_ms) {
  moqo::OptimizerOptions options;
  options.alpha = alpha;
  options.timeout_ms = timeout_ms;
  options.dp_pool = pool;
  options.parallelism = pool != nullptr ? parallelism : 1;
  std::unique_ptr<moqo::OptimizerBase> optimizer =
      moqo::MakeOptimizer(algorithm, options);
  moqo::MOQOProblem problem;
  problem.query = spec.query.get();
  problem.objectives = spec.objectives;
  problem.weights = moqo::WeightVector::Uniform(spec.objectives.size());
  moqo::OptimizerResult result = optimizer->Optimize(problem);
  if (result.metrics.timed_out) return nullptr;
  return result.plan_set;
}

double CoverageOverBound(const moqo::PlanSet& approx,
                         const moqo::PlanSet& exact, double alpha_bound) {
  return moqo::CoverageAlpha(approx.costs(), exact.costs()) / alpha_bound;
}

bool HasPlan(const moqo::ServiceResponse& response) {
  return response.status != moqo::ResponseStatus::kRejected &&
         response.result != nullptr && response.result->plan != nullptr &&
         response.plan_set() != nullptr && !response.plan_set()->empty();
}

}  // namespace perfbench
