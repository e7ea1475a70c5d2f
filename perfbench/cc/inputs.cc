// Copyright (c) 2026 moqo authors. MIT license.

#include "inputs.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <set>
#include <utility>

#include "query/tpch_queries.h"
#include "util/random.h"

namespace perfbench {

using moqo::AlgorithmKind;
using moqo::Catalog;
using moqo::ObjectiveSet;
using moqo::Query;
using moqo::ServiceRequest;
using moqo::Xoshiro256;

namespace {

ObjectiveSet SortedObjectives(std::vector<moqo::Objective> objectives) {
  std::sort(objectives.begin(), objectives.end());
  return ObjectiveSet(std::move(objectives));
}

/// Per-stream salts, so the three workloads never share random streams.
constexpr uint64_t kColdDpSalt = 0xC01DD9;
constexpr uint64_t kTpchSalt = 0x7BC4;
constexpr uint64_t kNetSalt = 0x4E7;

}  // namespace

void HashRequest(const ServiceRequest& request, InputHasher* hasher) {
  hasher->AddString(request.spec.query->ToString());
  hasher->AddString(request.spec.objectives.ToString());
  hasher->AddInt(request.spec.algorithm
                     ? static_cast<int>(*request.spec.algorithm)
                     : -1);
  hasher->AddDouble(request.spec.alpha.value_or(0));
  for (int i = 0; i < request.preference.weights.size(); ++i) {
    hasher->AddDouble(request.preference.weights[i]);
  }
  for (int i = 0; i < request.preference.bounds.size(); ++i) {
    hasher->AddDouble(request.preference.bounds[i]);
  }
}

// ---------------------------------------------------------------- cold_dp --

std::unique_ptr<Catalog> MakeColdDpCatalog() {
  // A fixed draw: cardinalities from 10^2.5 to 10^6.5 rows, join-key
  // distinct counts from 1% to 100% of the rows. Frontier sizes (and so
  // DP times) depend on these statistics by orders of magnitude; a
  // per-seed catalog would make the mix depend on the seed more than on
  // the system.
  auto catalog = std::make_unique<Catalog>();
  Xoshiro256 rng(7);
  for (int i = 0; i < 24; ++i) {
    const double rows = std::pow(10.0, rng.NextDouble(2.5, 6.5));
    moqo::Table table(std::string("t").append(std::to_string(i)), rows,
                      32 + static_cast<double>(rng.NextInt(96)));
    moqo::ColumnStats key;
    key.name = "k";
    key.ndv = std::max(10.0, rows * rng.NextDouble(0.01, 1.0));
    key.min_value = 0;
    key.max_value = key.ndv - 1;
    key.histogram = moqo::Histogram::Uniform(0, key.ndv - 1, 8, rows);
    table.AddColumn(key);
    table.AddIndex("k");
    catalog->AddTable(std::move(table));
  }
  return catalog;
}

ColdDpInputs MakeColdDpInputs(uint64_t seed, Size size,
                              const Catalog* catalog) {
  ColdDpInputs inputs;
  inputs.seed = seed;
  inputs.catalog = catalog;
  constexpr AlgorithmKind kExa = AlgorithmKind::kExa;
  constexpr AlgorithmKind kRta = AlgorithmKind::kRta;
  if (size == Size::kTiny) {
    inputs.classes = {{"chain", 6, 3, kExa, 1.0}, {"star", 6, 3, kRta, 2.0}};
    return inputs;
  }
  // Sized from single-request timings on a 4-core host: each stratum
  // takes 15 to 170 ms. The four costliest (145-170 ms) form a plateau
  // around the 90th percentile, so the reported tail does not sit on the
  // gap between two strata. Six-objective EXA is kept to the one shape
  // where 8 tables stay under a second.
  inputs.classes = {
      {"chain", 10, 3, kExa, 1.0},  {"chain", 12, 3, kRta, 1.5},
      {"chain", 12, 3, kRta, 2.0},  {"cycle", 9, 3, kExa, 1.0},
      {"cycle", 11, 3, kRta, 1.5},  {"cycle", 11, 3, kRta, 2.0},
      {"star", 10, 3, kExa, 1.0},   {"star", 11, 3, kRta, 1.5},
      {"star", 12, 3, kRta, 2.0},   {"cycle", 10, 3, kExa, 1.0},
      {"clique", 8, 3, kRta, 1.5},  {"clique", 8, 3, kRta, 2.0},
      {"star", 8, 6, kExa, 1.0},    {"chain", 8, 6, kRta, 2.0},
      {"cycle", 8, 6, kRta, 2.0},   {"star", 9, 6, kRta, 1.5},
      {"star", 8, 6, kRta, 2.0},    {"star", 12, 3, kRta, 1.5},
  };
  return inputs;
}

ServiceRequest ColdDpRequest(const ColdDpInputs& inputs, uint64_t index,
                             int* class_index) {
  const size_t strata = inputs.classes.size();
  // Seeded permutation of the strata for this block.
  std::vector<int> order(strata);
  for (size_t i = 0; i < strata; ++i) order[i] = static_cast<int>(i);
  Xoshiro256 block_rng(Mix(inputs.seed ^ kColdDpSalt, index / strata));
  for (size_t i = strata; i > 1; --i) {
    std::swap(order[i - 1], order[block_rng.NextInt(i)]);
  }
  const int chosen = order[index % strata];
  if (class_index != nullptr) *class_index = chosen;
  const ColdDpClass& cls = inputs.classes[chosen];

  Xoshiro256 rng(Mix(inputs.seed, kColdDpSalt + index + 1));
  auto query = std::make_shared<Query>(inputs.catalog,
                                       "cold" + std::to_string(index));
  // Each stratum's join graph is fixed: every other catalog table, the
  // odd ones for alpha 1.5. Moving a star's hub or a chain's ends to
  // another table changes one request's time by up to 30x, so the seed
  // draws the stratum order and the preference, not the graph.
  const int parity = cls.alpha == 1.5 ? 1 : 0;
  for (int i = 0; i < cls.tables; ++i) query->AddTable(2 * i + parity);
  const int n = cls.tables;
  const std::string shape = cls.shape;
  if (shape == "chain" || shape == "cycle") {
    for (int i = 0; i + 1 < n; ++i) query->AddJoin(i, "k", i + 1, "k");
    if (shape == "cycle") query->AddJoin(n - 1, "k", 0, "k");
  } else if (shape == "star") {
    for (int i = 1; i < n; ++i) query->AddJoin(0, "k", i, "k");
  } else {
    for (int i = 0; i < n; ++i) {
      for (int j = i + 1; j < n; ++j) query->AddJoin(i, "k", j, "k");
    }
  }
  // The leading objectives: a random subset can grow frontiers (and one
  // request's time) by orders of magnitude, which would make the mix
  // depend on the seed more than on the system.
  std::vector<moqo::Objective> objectives(
      moqo::kAllObjectives.begin(),
      moqo::kAllObjectives.begin() + cls.objectives);

  ServiceRequest request;
  request.spec.query = std::move(query);
  request.spec.objectives = SortedObjectives(std::move(objectives));
  request.spec.algorithm = cls.algorithm;
  request.spec.alpha = cls.alpha;
  request.preference.weights = moqo::WeightVector(cls.objectives);
  for (int i = 0; i < cls.objectives; ++i) {
    request.preference.weights[i] = rng.NextDouble();
  }
  return request;
}

// ------------------------------------------------------------- tpch_serve --

TpchInputs MakeTpchInputs(uint64_t seed, Size size, const Catalog* catalog) {
  TpchInputs inputs;
  inputs.seed = seed;
  inputs.catalog = catalog;
  inputs.generator = std::make_unique<moqo::WorkloadGenerator>(
      catalog, moqo::OptimizerOptions());
  const int universe = size == Size::kTiny ? 66 : 1500;
  inputs.warmup_requests = size == Size::kTiny ? 64 : 2000;

  // (query, objective count) combinations. Left out: six or more
  // objectives on the queries of 6 and more tables and nine on Q2, whose
  // cold misses take 0.2 to 33 s each on a 4-core host. A handful of them
  // per window decide the whole run's throughput, whichever specs the
  // seed happens to draw (cold_dp measures single hard queries).
  std::vector<std::pair<int, int>> combos;
  for (int q : moqo::TpcHQueryOrder()) {
    const int tables = moqo::TpcHQueryTableCount(q);
    for (int m : {3, 6, 9}) {
      if ((tables >= 5 && m == 9) || (tables >= 6 && m >= 6)) continue;
      combos.emplace_back(q, m);
    }
  }
  // Popularity ranks are stratified over the combinations: every block
  // of ranks holds each combination once. The universe itself is a fixed
  // draw, like a catalog: one spec's cold miss costs from microseconds to
  // a second depending on its objectives, and a per-seed universe would
  // make throughput depend on the seed more than on the system. The seed
  // drives the request stream.
  const int blocks = static_cast<int>(combos.size());
  Xoshiro256 rng(kTpchSalt);
  std::set<std::pair<int, std::string>> seen;
  std::vector<int> order;
  for (int rank = 0; static_cast<int>(inputs.specs.size()) < universe;
       ++rank) {
    if (rank % blocks == 0) {
      order.resize(blocks);
      for (int i = 0; i < blocks; ++i) order[i] = i;
      for (int i = blocks; i > 1; --i) {
        std::swap(order[i - 1], order[rng.NextInt(i)]);
      }
    }
    const auto [query_number, objectives] = combos[order[rank % blocks]];
    TpchSpec spec;
    spec.query_number = query_number;
    // Bounded MOQO uses all nine objectives (Section 8), so only
    // nine-objective specs can carry bounds. There is one nine-objective
    // set per query; later draws of it are skipped.
    spec.bounded = objectives == moqo::kNumObjectives && rng.NextInt(2) == 0;
    spec.num_bounds = 1 + static_cast<int>(rng.NextInt(3));
    bool fresh = false;
    for (int attempt = 0; attempt < 8 && !fresh; ++attempt) {
      const moqo::TestCase shape = inputs.generator->WeightedCase(
          spec.query_number, objectives, rng.Next());
      spec.objectives = SortedObjectives(shape.objectives.objectives());
      fresh = seen.emplace(spec.query_number, spec.objectives.ToString()).second;
    }
    if (!fresh) continue;
    spec.query = std::make_shared<const Query>(
        moqo::MakeTpcHQuery(catalog, spec.query_number));
    inputs.specs.push_back(std::move(spec));
  }
  // Warm the generator's per-(query, objective) minima once, so every
  // stream copy draws bounds without running the optimizer.
  for (int q : moqo::TpcHQueryOrder()) {
    for (moqo::Objective objective : moqo::kAllObjectives) {
      inputs.generator->ObjectiveMinimum(q, objective);
    }
  }
  // Zipf(0.8): about a tenth of the requests go to specs outside the
  // 1024 most recent, so RAM evictions, disk-tier hits and cold misses
  // make up a few percent of requests and the p99 sits inside that tail,
  // not on its edge (at Zipf(1.0) they were ~1% and the p99 moved 40%
  // between runs).
  inputs.popularity = std::make_unique<Zipf>(universe, 0.8);
  return inputs;
}

TpchStream::TpchStream(const TpchInputs* inputs)
    : inputs_(inputs), generator_(*inputs->generator) {}

ServiceRequest TpchStream::Request(uint64_t index, int* spec_index) {
  Xoshiro256 rng(Mix(inputs_->seed, kTpchSalt + index + 1));
  const int rank = inputs_->popularity->Sample(rng.NextDouble());
  if (spec_index != nullptr) *spec_index = rank;
  const TpchSpec& spec = inputs_->specs[rank];
  const int dims = spec.objectives.size();
  // Fresh Section 8 preference: weights U[0,1]; bounds from the domain or
  // scaled per-objective minima.
  const moqo::TestCase draw =
      spec.bounded
          ? generator_.BoundedCase(spec.query_number, spec.num_bounds,
                                   rng.Next())
          : generator_.WeightedCase(spec.query_number, dims, rng.Next());

  ServiceRequest request;
  request.spec.query = spec.query;
  request.spec.objectives = spec.objectives;
  request.preference.weights = moqo::WeightVector(dims);
  if (spec.bounded) {
    request.preference.bounds = moqo::BoundVector::Unbounded(dims);
    for (int d = 0; d < dims; ++d) {
      const int from = draw.objectives.IndexOf(spec.objectives.at(d));
      request.preference.weights[d] = draw.weights[from];
      request.preference.bounds[d] = draw.bounds[from];
    }
  } else {
    for (int d = 0; d < dims; ++d) {
      request.preference.weights[d] = draw.weights[d];
    }
  }
  return request;
}

// ------------------------------------------------------------ net_anytime --

std::vector<uint8_t> NetObjectives() { return {0, 1, 2}; }

namespace {

int NetHotWindows(Size size) { return size == Size::kTiny ? 4 : 16; }
int NetWindowLength(Size size) { return size == Size::kTiny ? 4 : 5; }
/// Hot windows sit at fixed offsets below this; fresh windows walk the
/// chain above it, so a fresh window is never a plan-cache entry but
/// overlaps the windows opened just before it.
int NetFreshStart(Size size) {
  return 4 * NetHotWindows(size) + NetWindowLength(size) + 2;
}

}  // namespace

moqo::SharedSubgraphOptions NetChain(Size size, size_t max_sessions) {
  const int length = NetWindowLength(size);
  const int tables =
      NetFreshStart(size) + static_cast<int>(max_sessions) + length + 4;
  moqo::SharedSubgraphOptions chain;
  chain.num_queries = tables - length + 1;
  chain.tables_per_query = length;
  chain.stride = 1;
  chain.num_objectives = 3;
  return chain;
}

NetInputs MakeNetInputs(uint64_t seed, Size size, size_t max_sessions,
                        const Catalog* catalog) {
  NetInputs inputs;
  inputs.catalog = catalog;
  const int hot = NetHotWindows(size);
  const int base_length = NetWindowLength(size);
  const int fresh_start = NetFreshStart(size);
  const int chain_tables = catalog->num_tables();

  auto window = [&](int offset, int length) {
    const std::string key = std::string("w")
                                .append(std::to_string(offset))
                                .append("_")
                                .append(std::to_string(length));
    if (inputs.queries.count(key) == 0) {
      auto query = std::make_shared<Query>(inputs.catalog, key);
      std::vector<int> locals;
      for (int i = offset; i < offset + length; ++i) {
        locals.push_back(
            query->AddTable(std::string("r").append(std::to_string(i))));
      }
      for (size_t i = 0; i + 1 < locals.size(); ++i) {
        query->AddJoin(locals[i], "k", locals[i + 1], "k");
      }
      inputs.queries.emplace(key, std::move(query));
    }
    return key;
  };

  for (int h = 0; h < hot; ++h) {
    inputs.hot_keys.push_back(window(4 * h, base_length));
  }
  const Zipf popularity(hot, 1.0);
  Xoshiro256 rng(Mix(seed, kNetSalt));
  // The walk of fresh windows is a fixed draw: how expensive the k-th
  // fresh window is depends on the cardinalities it spans, and a per-seed
  // walk made the latency tail depend on the seed. The seed draws the
  // arrivals, which sessions are hot, and which hot window.
  Xoshiro256 walk(kNetSalt);
  int offset = fresh_start;
  std::set<std::pair<int, int>> used;
  double t = 0;
  for (size_t i = 0; i < max_sessions; ++i) {
    if (rng.NextDouble() < inputs.hot_share) {
      inputs.session_keys.push_back(
          inputs.hot_keys[popularity.Sample(rng.NextDouble())]);
    } else {
      // Short forward-biased walk; a window already opened moves on, so
      // every fresh session misses the plan cache.
      offset += static_cast<int>(walk.NextInt(3));
      int length = base_length - 1 + static_cast<int>(walk.NextInt(3));
      while (!used.emplace(offset, length).second) ++offset;
      offset = std::min(offset, chain_tables - length);
      inputs.session_keys.push_back(window(offset, length));
    }
    t += -std::log(1.0 - rng.NextDouble()) * 1000.0;  // Exp(1/s), in ms.
    inputs.unit_arrivals_ms.push_back(t);
  }
  return inputs;
}

// ----------------------------------------------------------------- hashing --

uint64_t HashInputs(const Args& args) {
  constexpr uint64_t kRequests = 64;
  InputHasher hasher;
  if (args.workload == "cold_dp") {
    auto catalog = MakeColdDpCatalog();
    const ColdDpInputs inputs =
        MakeColdDpInputs(args.seed, args.size, catalog.get());
    for (uint64_t i = 0; i < kRequests; ++i) {
      HashRequest(ColdDpRequest(inputs, i), &hasher);
    }
  } else if (args.workload == "tpch_serve") {
    const Catalog catalog = Catalog::TpcH(1.0);
    const TpchInputs inputs = MakeTpchInputs(args.seed, args.size, &catalog);
    TpchStream stream(&inputs);
    for (uint64_t i = 0; i < kRequests; ++i) {
      HashRequest(stream.Request(i), &hasher);
    }
  } else if (args.workload == "net_anytime") {
    const Catalog catalog =
        moqo::MakeSharedSubgraphCatalog(NetChain(args.size, kRequests));
    const NetInputs inputs =
        MakeNetInputs(args.seed, args.size, kRequests, &catalog);
    for (uint64_t i = 0; i < kRequests; ++i) {
      hasher.AddString(inputs.session_keys[i]);
      hasher.AddDouble(inputs.unit_arrivals_ms[i]);
    }
  }
  return hasher.value();
}

}  // namespace perfbench
