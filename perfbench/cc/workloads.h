// Copyright (c) 2026 moqo authors. MIT license.
//
// The three workloads. Each fills `result` with raw samples and counters;
// a false return means the workload could not run at all (a failed
// request or check is not that — it is counted in the result).

#ifndef MOQO_PERFBENCH_WORKLOADS_H_
#define MOQO_PERFBENCH_WORKLOADS_H_

#include "common.h"

namespace perfbench {

/// cold_dp: one closed-loop client, SubmitAndWait, cache and memo off.
bool RunColdDp(const Args& args, Result* result);

/// tpch_serve: nproc closed-loop clients against a persistent service
/// restored from the snapshot PrepareTpchServe wrote.
bool RunTpchServe(const Args& args, Result* result);
/// The untimed preparation pass: serves the stream's warm-up prefix and
/// writes the snapshot into args.state_dir. Runs in its own process.
bool PrepareTpchServe(const Args& args);

/// net_anytime: open-loop OPENs on a Poisson schedule to a NetServer over
/// loopback, then a short ladder of higher rates.
bool RunNetAnytime(const Args& args, Result* result);

}  // namespace perfbench

#endif  // MOQO_PERFBENCH_WORKLOADS_H_
