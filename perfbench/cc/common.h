// Copyright (c) 2026 moqo authors. MIT license.
//
// Shared plumbing of the moqo benchmark binary: command-line arguments,
// the raw result record every workload fills, process measurements (CPU
// time, resident memory), the result writer, and the id space of the
// binary's own spans.
//
// The binary only *measures*: it writes raw samples and counters, and
// perfbench/run.py turns them into percentiles and metrics. Keeping all
// statistics in one place means there is one percentile function, and it
// is the one the self-tests check.

#ifndef MOQO_PERFBENCH_COMMON_H_
#define MOQO_PERFBENCH_COMMON_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "obs/trace.h"

namespace perfbench {

/// Input scale: `full` is the benchmark; `tiny` shrinks every workload so
/// the self-tests can run each one end to end in a second or two.
enum class Size { kFull, kTiny };

struct Args {
  std::string mode = "run";  ///< run | prepare | hash | selftest
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  Size size = Size::kFull;
  std::string out;        ///< Raw result JSON path.
  std::string state_dir;  ///< Scratch state (snapshots, tier, traces).
};

/// One correctness check: how many outputs it looked at, how many failed.
struct Check {
  long checked = 0;
  long failed = 0;
};

/// Everything one run measured. Sample vectors hold one value per event,
/// unsorted, in the unit their name says.
struct Result {
  std::vector<double> setup_s;
  double window_s = 0;
  long attempted = 0;
  long completed = 0;
  long failed = 0;  ///< Rejected, degraded-without-plan, or wrong answers.
  double cpu_ms = 0;
  double rss_mb = 0;
  std::vector<double> latency_ms;
  std::vector<double> first_frontier_ms;
  long target_reached = 0;
  /// Traced runs only: the untraced half's latencies, the base of
  /// trace.overhead_ratio.
  std::vector<double> untraced_latency_ms;
  std::map<std::string, Check> checks;
  /// Workload sizes for the fingerprint.
  std::map<std::string, double> sizes;
  /// Per-layer scalars, keyed by metric name.
  std::map<std::string, double> layer;
  /// Per-layer samples, keyed by metric name without the percentile
  /// suffix (run.py computes core.dp_ms.p50 from "core.dp_ms").
  std::map<std::string, std::vector<double>> layer_samples;
  /// Run facts the report prints and no metric uses.
  std::map<std::string, double> report;
  /// Rate ladder (net_anytime): offered rate -> first-frontier samples.
  std::vector<std::pair<double, std::vector<double>>> rate_ladder;
  std::vector<long> rate_ladder_backlog;
  /// Trace pieces written by a traced run, merged by run.py.
  std::string service_trace_path;
  std::string bench_trace_path;
  /// bench tracer time minus service tracer time, in microseconds.
  double trace_offset_us = 0;

  void AddCheck(const std::string& name, bool ok) {
    Check& check = checks[name];
    ++check.checked;
    if (!ok) ++check.failed;
  }
};

/// Writes `result` as JSON to `path`; false on I/O failure.
bool WriteResult(const Args& args, const Result& result,
                 const std::string& path);

// ---- Measurements. ----

/// Monotonic milliseconds since an arbitrary epoch.
double NowMs();
/// User + system CPU time of the whole process, in ms.
double ProcessCpuMs();
/// Resident set size of the process, in MiB (VmRSS).
double ResidentMb();

// ---- Spans. ----

/// The binary marks its own calls into each layer with moqo::TraceSpan,
/// category "bench", on the tracer the call belongs to. Their correlation
/// ids (request ids) live above this base, so they never collide with the
/// service tracer's NextId() values.
inline constexpr uint64_t kBenchIdBase = uint64_t{1} << 62;

// ---- Deterministic randomness. ----

/// SplitMix64 finalizer: a well-mixed 64-bit function of its input. The
/// per-request generators key on Mix(seed, index) so request i is the
/// same no matter which client thread draws it.
uint64_t Mix(uint64_t a, uint64_t b);

/// FNV-1a accumulator over the generated inputs (the seed self-test).
class InputHasher {
 public:
  void Add(const void* data, size_t size);
  void AddString(const std::string& s) { Add(s.data(), s.size()); }
  void AddDouble(double v) { Add(&v, sizeof(v)); }
  void AddInt(int64_t v) { Add(&v, sizeof(v)); }
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 1469598103934665603ULL;
};

/// Zipf(s) over ranks 0..n-1 by inverse CDF.
class Zipf {
 public:
  Zipf(int n, double s);
  /// `u` uniform in [0, 1).
  int Sample(double u) const;
  int n() const { return static_cast<int>(cdf_.size()); }

 private:
  std::vector<double> cdf_;
};

}  // namespace perfbench

#endif  // MOQO_PERFBENCH_COMMON_H_
