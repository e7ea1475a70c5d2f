// Copyright (c) 2026 moqo authors. MIT license.

#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace perfbench {
namespace {

/// Shortest text that reads back as the same double (JSON has no
/// infinities or NaN; those become null).
std::string Num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string Array(const std::vector<double>& values) {
  std::string out = "[";
  for (size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ',';
    out += Num(values[i]);
  }
  return out + "]";
}

std::string NumberMap(const std::map<std::string, double>& values) {
  std::string out = "{";
  bool first = true;
  for (const auto& [key, value] : values) {
    if (!first) out += ',';
    first = false;
    out += Quote(key) + ":" + Num(value);
  }
  return out + "}";
}

}  // namespace

bool WriteResult(const Args& args, const Result& r, const std::string& path) {
  std::ostringstream o;
  o << "{\"workload\":" << Quote(args.workload) << ",\"seed\":" << args.seed
    << ",\"trace\":" << (args.trace ? 1 : 0) << ",\"size\":"
    << Quote(args.size == Size::kTiny ? "tiny" : "full")
    << ",\"window_s\":" << Num(r.window_s) << ",\"attempted\":" << r.attempted
    << ",\"completed\":" << r.completed << ",\"failed\":" << r.failed
    << ",\"cpu_ms\":" << Num(r.cpu_ms) << ",\"rss_mb\":" << Num(r.rss_mb)
    << ",\"target_reached\":" << r.target_reached
    << ",\"setup_s\":" << Array(r.setup_s)
    << ",\"latency_ms\":" << Array(r.latency_ms)
    << ",\"first_frontier_ms\":" << Array(r.first_frontier_ms)
    << ",\"untraced_latency_ms\":" << Array(r.untraced_latency_ms)
    << ",\"sizes\":" << NumberMap(r.sizes)
    << ",\"layer\":" << NumberMap(r.layer)
    << ",\"report\":" << NumberMap(r.report) << ",\"layer_samples\":{";
  bool first = true;
  for (const auto& [key, values] : r.layer_samples) {
    if (!first) o << ',';
    first = false;
    o << Quote(key) << ":" << Array(values);
  }
  o << "},\"checks\":{";
  first = true;
  for (const auto& [key, check] : r.checks) {
    if (!first) o << ',';
    first = false;
    o << Quote(key) << ":{\"checked\":" << check.checked
      << ",\"failed\":" << check.failed << "}";
  }
  o << "},\"rate_ladder\":[";
  for (size_t i = 0; i < r.rate_ladder.size(); ++i) {
    if (i > 0) o << ',';
    o << "{\"rate_rps\":" << Num(r.rate_ladder[i].first)
      << ",\"first_frontier_ms\":" << Array(r.rate_ladder[i].second)
      << ",\"backlog_end\":"
      << (i < r.rate_ladder_backlog.size() ? r.rate_ladder_backlog[i] : 0)
      << "}";
  }
  o << "],\"service_trace\":" << Quote(r.service_trace_path)
    << ",\"bench_trace\":" << Quote(r.bench_trace_path)
    << ",\"trace_offset_us\":" << Num(r.trace_offset_us) << "}\n";
  std::ofstream file(path);
  file << o.str();
  return static_cast<bool>(file);
}

double NowMs() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double ProcessCpuMs() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto ms = [](const timeval& tv) {
    return tv.tv_sec * 1000.0 + tv.tv_usec / 1000.0;
  };
  return ms(usage.ru_utime) + ms(usage.ru_stime);
}

double ResidentMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmRSS:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
    }
  }
  return 0;
}

uint64_t Mix(uint64_t a, uint64_t b) {
  uint64_t z = a * 0x9e3779b97f4a7c15ULL + b + 0x632be59bd9b4e019ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

void InputHasher::Add(const void* data, size_t size) {
  const unsigned char* bytes = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < size; ++i) {
    hash_ ^= bytes[i];
    hash_ *= 1099511628211ULL;
  }
}

Zipf::Zipf(int n, double s) {
  cdf_.resize(n);
  double total = 0;
  for (int k = 0; k < n; ++k) {
    total += 1.0 / std::pow(k + 1.0, s);
    cdf_[k] = total;
  }
  for (double& c : cdf_) c /= total;
}

int Zipf::Sample(double u) const {
  const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
  return std::min(static_cast<int>(it - cdf_.begin()), n() - 1);
}

}  // namespace perfbench
