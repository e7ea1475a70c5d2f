// Copyright (c) 2026 moqo authors. MIT license.
//
// Seeded input generators of the three workloads. Every generated request
// is a pure function of (seed, index), so the stream is the same no matter
// how many client threads draw from it or in which order, and the
// service receives only these generated inputs.

#ifndef MOQO_PERFBENCH_INPUTS_H_
#define MOQO_PERFBENCH_INPUTS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "common.h"
#include "harness/workload.h"
#include "service/request.h"

namespace perfbench {

/// Adds a request's full content (query, objectives, algorithm, alpha,
/// weights, bounds) to `hasher`.
void HashRequest(const moqo::ServiceRequest& request, InputHasher* hasher);

// ---- cold_dp: hard one-shot queries. ----

/// One stratum of the cold_dp mix: join-graph shape and size, objective
/// count, algorithm and precision. Sizes are set so one request takes
/// tens to hundreds of ms on a 4-core host.
struct ColdDpClass {
  const char* shape;  ///< chain | cycle | star | clique
  int tables;
  int objectives;
  moqo::AlgorithmKind algorithm;
  double alpha;
};

/// Synthetic catalog: varied cardinalities and widths, one indexed join
/// key per table with varied distinct counts. The same for every seed.
std::unique_ptr<moqo::Catalog> MakeColdDpCatalog();

struct ColdDpInputs {
  uint64_t seed = 0;
  const moqo::Catalog* catalog = nullptr;
  std::vector<ColdDpClass> classes;
};

ColdDpInputs MakeColdDpInputs(uint64_t seed, Size size,
                              const moqo::Catalog* catalog);

/// Request `index` of the stream. Strata are visited in seeded random
/// order, each exactly once per block of classes.size() requests, so every
/// run sees the same mix. Each stratum's query and objectives are fixed;
/// the weights are drawn per request.
moqo::ServiceRequest ColdDpRequest(const ColdDpInputs& inputs, uint64_t index,
                                   int* class_index = nullptr);

// ---- tpch_serve: the Section 8 generator behind a warm cache. ----

/// One spec of the universe: a TPC-H query, its objective set, and
/// whether requests for it carry bounds.
struct TpchSpec {
  int query_number = 0;
  std::shared_ptr<const moqo::Query> query;
  moqo::ObjectiveSet objectives;  ///< Sorted, so equal sets share a key.
  bool bounded = false;
  int num_bounds = 0;
};

struct TpchInputs {
  uint64_t seed = 0;
  const moqo::Catalog* catalog = nullptr;  ///< Catalog::TpcH(1.0).
  std::unique_ptr<moqo::WorkloadGenerator> generator;
  std::vector<TpchSpec> specs;  ///< Popularity rank order.
  std::unique_ptr<Zipf> popularity;
  /// Requests of the warm-up prefix (the preparation pass).
  long warmup_requests = 0;
};

TpchInputs MakeTpchInputs(uint64_t seed, Size size,
                          const moqo::Catalog* catalog);

/// Request `index`: a Zipf-drawn spec with fresh weights (and fresh
/// bounds for bounded specs), per the Section 8 rules. Not thread-safe on
/// a shared TpchInputs (the generator caches minima); each client thread
/// draws through its own TpchStream, which copies the generator.
class TpchStream {
 public:
  explicit TpchStream(const TpchInputs* inputs);
  moqo::ServiceRequest Request(uint64_t index, int* spec_index = nullptr);

 private:
  const TpchInputs* inputs_;
  moqo::WorkloadGenerator generator_;
};

// ---- net_anytime: anytime sessions over a shared-subgraph chain. ----

/// The chain the net_anytime windows slide along, long enough for
/// `max_sessions` fresh windows.
moqo::SharedSubgraphOptions NetChain(Size size, size_t max_sessions);

struct NetInputs {
  const moqo::Catalog* catalog = nullptr;  ///< From NetChain's options.
  /// Every window the stream names, by query key.
  std::map<std::string, std::shared_ptr<const moqo::Query>> queries;
  std::vector<std::string> hot_keys;  ///< Popularity rank order.
  /// The whole session stream: each session's window, "w<offset>_<length>".
  std::vector<std::string> session_keys;
  /// Offered-rate schedule offsets (ms from window start) at 1 session/s,
  /// scaled by the offered rate: seeded exponential gaps.
  std::vector<double> unit_arrivals_ms;
  double hot_share = 0.7;
};

/// `max_sessions` bounds the pre-generated stream (the open loop never
/// offers more); `catalog` comes from NetChain(size, max_sessions).
NetInputs MakeNetInputs(uint64_t seed, Size size, size_t max_sessions,
                        const moqo::Catalog* catalog);

/// Hash of the first requests of args.workload's input stream at
/// args.seed (the self-test: same seed, same hash).
uint64_t HashInputs(const Args& args);

/// Objectives of every net_anytime session (the chain catalog's leading
/// three; equal objective sets are part of subplan-key equality).
std::vector<uint8_t> NetObjectives();

}  // namespace perfbench

#endif  // MOQO_PERFBENCH_INPUTS_H_
