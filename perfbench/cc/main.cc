// Copyright (c) 2026 moqo authors. MIT license.
//
// moqo_perfbench: the measuring half of the moqo benchmark. perfbench/run.py
// builds and drives it; see perfbench/README.md.
//
//   moqo_perfbench --mode run --workload cold_dp --seed 7 --seconds 10
//                  --trace 0 --out raw.json --state-dir DIR [--size tiny]
//   moqo_perfbench --mode prepare --workload tpch_serve ...  (snapshot)
//   moqo_perfbench --mode hash --workload W --seed N         (input hash)
//   moqo_perfbench --mode selftest                           (checkers)

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "checks.h"
#include "common.h"
#include "core/algorithm.h"
#include "inputs.h"
#include "persist/plan_set_codec.h"
#include "workloads.h"

namespace perfbench {
namespace {

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--mode") {
      args->mode = value;
    } else if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args->seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      args->trace = value == "1";
    } else if (key == "--size") {
      if (value != "full" && value != "tiny") return false;
      args->size = value == "tiny" ? Size::kTiny : Size::kFull;
    } else if (key == "--out") {
      args->out = value;
    } else if (key == "--state-dir") {
      args->state_dir = value;
    } else {
      std::fprintf(stderr, "unknown argument %s\n", key.c_str());
      return false;
    }
  }
  return args->seconds > 0;
}

/// The checkers must reject a frontier that was tampered with: one flipped
/// cost bit breaks bit identity, and costs inflated past the guarantee
/// break the alpha check. Both tampered sets go through the persist codec,
/// the only way to build a PlanSet with chosen costs from outside.
int SelfTest() {
  auto catalog = MakeColdDpCatalog();
  const ColdDpInputs inputs = MakeColdDpInputs(1, Size::kTiny, catalog.get());
  moqo::ServiceRequest request = ColdDpRequest(inputs, 0);
  const double alpha = 1.5;
  const auto exact = ReferenceFrontier(request.spec, moqo::AlgorithmKind::kExa,
                                       1.0);
  const auto approx = ReferenceFrontier(request.spec,
                                        moqo::AlgorithmKind::kRta, alpha);
  std::string bytes;
  moqo::persist::PlanSetCodec::Append(*exact, &bytes);
  uint32_t plans = 0, dims = 0;
  std::memcpy(&plans, bytes.data(), 4);
  std::memcpy(&dims, bytes.data() + 8, 4);
  const size_t costs_at = 16;
  if (plans != static_cast<uint32_t>(exact->size()) || dims == 0 ||
      bytes.size() < costs_at + 8 * plans * dims) {
    std::printf("{\"selftest\":false,\"reason\":\"codec layout\"}\n");
    return 1;
  }
  auto decode = [&](const std::string& block) {
    size_t used = 0;
    return moqo::persist::PlanSetCodec::Decode(block.data(), block.size(),
                                               &used);
  };
  std::string flipped = bytes;
  flipped[costs_at] = static_cast<char>(flipped[costs_at] ^ 1);
  std::string inflated = bytes;
  for (size_t k = 0; k < size_t{plans} * dims; ++k) {
    double v = 0;
    std::memcpy(&v, inflated.data() + costs_at + 8 * k, 8);
    v *= 2 * alpha;
    std::memcpy(inflated.data() + costs_at + 8 * k, &v, 8);
  }
  const auto round_trip = decode(bytes);
  const auto tampered_bit = decode(flipped);
  const auto tampered_cost = decode(inflated);
  const bool accepts = round_trip != nullptr &&
                       BitIdentical(*exact, *round_trip) &&
                       CoverageOverBound(*approx, *exact, alpha) <= 1.0;
  const bool rejects_bit =
      tampered_bit != nullptr && !BitIdentical(*exact, *tampered_bit);
  const bool rejects_cost =
      tampered_cost != nullptr &&
      CoverageOverBound(*tampered_cost, *exact, alpha) > 1.0;
  std::printf(
      "{\"accepts_untampered\":%s,\"bit_identity_rejects_tamper\":%s,"
      "\"coverage_rejects_tamper\":%s}\n",
      accepts ? "true" : "false", rejects_bit ? "true" : "false",
      rejects_cost ? "true" : "false");
  return accepts && rejects_bit && rejects_cost ? 0 : 1;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr, "usage: see perfbench/README.md\n");
    return 2;
  }
  if (args.mode == "selftest") return SelfTest();
  if (args.mode == "hash") {
    std::printf("{\"hash\":\"%llu\"}\n",
                static_cast<unsigned long long>(HashInputs(args)));
    return 0;
  }
  if (args.mode == "prepare") {
    if (args.workload != "tpch_serve") return 2;
    return PrepareTpchServe(args) ? 0 : 1;
  }
  Result result;
  bool ok = false;
  if (args.workload == "cold_dp") {
    ok = RunColdDp(args, &result);
  } else if (args.workload == "tpch_serve") {
    ok = RunTpchServe(args, &result);
  } else if (args.workload == "net_anytime") {
    ok = RunNetAnytime(args, &result);
  } else {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  if (!ok) {
    std::fprintf(stderr, "workload %s could not run\n", args.workload.c_str());
    return 1;
  }
  return WriteResult(args, result, args.out) ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
