// Copyright (c) 2026 moqo authors. MIT license.
//
// The nine-objective cost model (Section 4).
//
// Structure: every objective's plan cost is computed recursively from the
// costs of the two sub-plans plus an operator-local term, using only the
// PONO-preserving building blocks of Section 6.1:
//
//   * sum, max, min of child cost components,
//   * multiplication by values that are CONSTANT GIVEN THE OPERANDS'
//     CARDINALITIES (cardinalities are plan properties, not costs, so
//     scaling child costs by e.g. the number of inner rescans of a
//     block-nested-loop join is "multiplication by a constant" in the sense
//     of the paper's structural-induction proof),
//   * the tuple-loss composition 1 - (1-a)(1-b).
//
// tests/model/pono_test.cc verifies the principle of near-optimality
// (Definition 7) for every objective x operator combination.
//
// The absolute constants (below) are synthetic but Postgres-flavoured.
// Only the formula structure matters for reproducing the paper: the
// guarantees rest on PONO, and every algorithm is compared on the same
// model, so other constants shift all curves alike.

#ifndef MOQO_MODEL_COST_MODEL_H_
#define MOQO_MODEL_COST_MODEL_H_

#include "cost/cost_vector.h"
#include "cost/objective.h"
#include "model/cardinality.h"
#include "plan/operators.h"
#include "plan/plan_node.h"
#include "query/query.h"

namespace moqo {

/// Version stamp of the cost-model formulas + constants. Bumped whenever a
/// change would make previously computed plan costs stale; persisted
/// snapshots (src/persist/) embed it and refuse to restore across a
/// mismatch, since cached frontiers are only valid under the model that
/// priced them.
inline constexpr uint64_t kCostModelVersion = 1;

/// Cost-model constants, Postgres-flavoured units. Exposed so ablation
/// benches can perturb them.
struct CostModelParams {
  double seq_page_cost = 1.0;       ///< Sequential page read (time units).
  double random_page_cost = 4.0;    ///< Random page read.
  double cpu_tuple_cost = 0.01;     ///< Per-tuple CPU work.
  double cpu_operator_cost = 0.0025;
  double index_probe_cost = 0.3;    ///< B-tree descent per probe.
  double parallel_setup_cost = 10.0;  ///< Per-core coordination overhead.
  double parallel_overhead = 0.05;  ///< Extra CPU fraction per extra core.
  double work_mem_bytes = 4.0 * 1024 * 1024;  ///< Spill threshold.
  double page_bytes = 8192.0;
  /// Energy: Joule per CPU time unit and per IO time unit. IO is weighted
  /// differently from CPU so that energy is correlated with but not
  /// proportional to time (Section 4: "Energy consumption is not always
  /// correlated with time").
  double energy_per_cpu = 0.08;
  double energy_per_io = 0.25;
  /// Extra energy fraction per additional core (coordination makes
  /// parallel plans faster but less energy-efficient).
  double energy_parallel_penalty = 0.12;
};

/// Derived statistics of one operand (plan output) that the operator-local
/// cost terms consume. These are plan *properties*, not costs.
struct OperandStats {
  double rows = 0;     ///< Estimated output cardinality.
  double width = 0;    ///< Average row width, bytes.

  double bytes() const { return rows * width; }
  double pages(double page_bytes) const {
    return std::max(1.0, bytes() / page_bytes);
  }
};

/// The cost model facade used by all optimizers. One instance per
/// (query, objective selection) pair; stateless and cheap to copy.
class CostModel {
 public:
  CostModel(const Query* query, const OperatorRegistry* registry,
            ObjectiveSet objectives,
            CostModelParams params = CostModelParams())
      : query_(query),
        registry_(registry),
        objectives_(std::move(objectives)),
        params_(params),
        estimator_(query) {
    for (int i = 0; i < kNumObjectives; ++i) {
      dimension_[i] = objectives_.IndexOf(static_cast<Objective>(i));
    }
  }

  const ObjectiveSet& objectives() const { return objectives_; }
  const CardinalityEstimator& estimator() const { return estimator_; }
  const CostModelParams& params() const { return params_; }

  /// True iff scan config `config_id` may be used on `local_table`
  /// (IndexScan requires an index on some filter or join column).
  bool ScanApplicable(int config_id, int local_table) const;

  /// True iff join config `config_id` may combine `left` and `right`
  /// (IndexNLJoin requires the inner/right operand to be a base-table scan
  /// with an index on the join column of an applicable join predicate).
  bool JoinApplicable(int config_id, const PlanNode& left,
                      const PlanNode& right) const;

  /// Builds a scan node value for `local_table` with scan config
  /// `config_id` (cost, cardinality and width filled in). The DP driver
  /// cost-evaluates candidates on the stack and copies survivors into its
  /// arena, so pruned candidates never allocate.
  PlanNode ScanNode(int config_id, int local_table) const;

  /// Builds the join of `left` and `right` with join config `config_id`.
  /// The child pointers must outlive the returned value's use.
  PlanNode JoinNode(int config_id, const PlanNode* left,
                    const PlanNode* right) const;

  /// Arena-allocating conveniences for examples and tests.
  PlanNode* MakeScan(int config_id, int local_table, Arena* arena) const {
    return arena->New<PlanNode>(ScanNode(config_id, local_table));
  }
  PlanNode* MakeJoin(int config_id, const PlanNode* left,
                     const PlanNode* right, Arena* arena) const {
    return arena->New<PlanNode>(JoinNode(config_id, left, right));
  }

  /// Core recursive step, exposed for property tests: combines child cost
  /// vectors under fixed operand statistics. MakeJoin delegates here.
  CostVector CombineJoinCost(const OperatorConfig& op,
                             const OperandStats& left_stats,
                             const CostVector& left_cost,
                             const OperandStats& right_stats,
                             const CostVector& right_cost,
                             double output_rows) const;

  /// Scan cost vector for the given table/config (also used by tests).
  CostVector ScanCost(const OperatorConfig& op, int local_table,
                      double output_rows) const;

  /// Precomputed, plan-independent facts about one split (q1, q2): the
  /// product of applicable join-predicate selectivities and whether an
  /// index-nested-loop join can probe the inner side. Computed once per
  /// split by the DP driver instead of once per candidate plan.
  struct SplitInfo {
    double selectivity = 1.0;      ///< Product over connecting predicates.
    bool has_predicate = false;    ///< False = Cartesian product split.
    bool index_nl_applicable = false;  ///< Inner singleton with usable index.
  };

  /// Analyzes the split (left_set, right_set); right is the inner side.
  SplitInfo AnalyzeSplit(TableSet left_set, TableSet right_set) const;

  /// Fast-path join construction using a precomputed SplitInfo. Both
  /// overloads produce identical nodes; JoinNode recomputes the SplitInfo.
  PlanNode JoinNode(int config_id, const PlanNode* left,
                    const PlanNode* right, const SplitInfo& split) const;

  /// Fast applicability check against a precomputed SplitInfo.
  bool JoinApplicableFast(const OperatorConfig& op,
                          const SplitInfo& split) const {
    return op.type != OperatorType::kIndexNLJoin || split.index_nl_applicable;
  }

 private:
  /// Returns the value of objective `objective` inside `cost`, or 0 if the
  /// objective is not active. Helper for cross-dimension formulas.
  double Get(const CostVector& cost, Objective objective) const {
    const int index = dimension_[static_cast<int>(objective)];
    return index >= 0 ? cost[index] : 0.0;
  }
  /// Sets dimension for `objective` if active.
  void Set(CostVector* cost, Objective objective, double value) const {
    const int index = dimension_[static_cast<int>(objective)];
    if (index >= 0) (*cost)[index] = value;
  }

  const Query* query_;
  const OperatorRegistry* registry_;
  ObjectiveSet objectives_;
  CostModelParams params_;
  CardinalityEstimator estimator_;
  /// dimension_[o] = active index of objective o, or -1.
  int dimension_[kNumObjectives];
};

}  // namespace moqo

#endif  // MOQO_MODEL_COST_MODEL_H_
