// Ablations of the two plan-space switches in OptimizerOptions:
//   (1) bushy vs left-deep plan enumeration,
//   (2) the Cartesian-product heuristic on vs off.
//
// Expected shape: left-deep optimization is faster but can miss better
// bushy tradeoffs; disabling the Cartesian heuristic inflates optimization
// time without improving (predicate-connected) TPC-H plans.

#include <cstdio>

#include "bench/bench_config.h"
#include "harness/table_printer.h"
#include "harness/workload.h"

using namespace moqo;
using namespace moqo::bench;

int main() {
  BenchConfig config = MakeConfig(/*default_timeout_ms=*/10000);
  Catalog catalog = Catalog::TpcH(config.scale_factor);
  WorkloadGenerator generator(&catalog, config.options);

  std::printf("Ablation: plan-space switches (RTA alpha=1.5, SF=%g)\n\n",
              config.scale_factor);
  TablePrinter table({"query", "objs", "variant", "time_ms", "considered",
                      "wcost_vs_default"});

  for (int query : {3, 10, 5}) {
    for (int l : {3, 6}) {
      const TestCase tc = generator.WeightedCase(query, l, 6000);
      OptimizerOptions base = config.options;
      base.alpha = 1.5;
      const RunOutcome def = RunCase(AlgorithmKind::kRta, catalog, tc, base);

      OptimizerOptions leftdeep = base;
      leftdeep.bushy = false;
      const RunOutcome ld =
          RunCase(AlgorithmKind::kRta, catalog, tc, leftdeep);

      OptimizerOptions no_heuristic = base;
      no_heuristic.cartesian_heuristic = false;
      const RunOutcome cart =
          RunCase(AlgorithmKind::kRta, catalog, tc, no_heuristic);

      auto add = [&](const char* name, const RunOutcome& o) {
        table.AddRow(
            {"q" + std::to_string(query), std::to_string(l), name,
             FormatDouble(o.metrics.optimization_ms, 1),
             std::to_string(o.metrics.considered_plans),
             FormatDouble(def.weighted_cost > 0
                              ? o.weighted_cost / def.weighted_cost
                              : 1.0,
                          4)});
      };
      add("bushy+heuristic", def);
      add("left-deep", ld);
      add("no-cartesian-heur", cart);
    }
  }
  std::printf("%s\n", table.Render().c_str());
  return 0;
}
