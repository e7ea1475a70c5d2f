// Copyright (c) 2026 moqo authors. MIT license.
//
// Deadline and StopWatch: wall-clock helpers for optimizer timeouts.
//
// Section 5.1: "If the optimization time exceeds two hours, the modified EXA
// finishes quickly by only generating one plan for all table sets that have
// not been treated so far." The optimizers poll a Deadline at table-set
// granularity to implement that behaviour; the experiment harness scales the
// paper's two-hour budget down so a rerun takes minutes, not weeks (see
// bench/bench_config.h).

#ifndef MOQO_UTIL_DEADLINE_H_
#define MOQO_UTIL_DEADLINE_H_

#include <atomic>
#include <chrono>
#include <cstdint>

namespace moqo {

/// Monotonic stopwatch measuring elapsed milliseconds.
class StopWatch {
 public:
  StopWatch() : start_(Clock::now()) {}

  void Restart() { start_ = Clock::now(); }

  double ElapsedMillis() const {
    return std::chrono::duration<double, std::milli>(Clock::now() - start_)
        .count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

/// A wall-clock budget, optionally tied to an external cancellation flag.
/// A default-constructed Deadline never expires. A set cancel flag makes
/// the deadline report expiry immediately — everything already polling the
/// deadline (the DP's table-set loops, the IRA's iteration check, the memo
/// probe) becomes a cancellation point for free; the run then degrades to
/// the same Section 5.1 quick finish a timeout triggers, so a cancelled
/// optimization still unwinds through ordinary (fast) code paths.
class Deadline {
 public:
  /// Never expires.
  Deadline() : expires_(Clock::time_point::max()) {}

  static Deadline AfterMillis(int64_t millis) {
    Deadline d;
    d.expires_ = Clock::now() + std::chrono::milliseconds(millis);
    return d;
  }

  static Deadline Infinite() { return Deadline(); }

  /// The earlier of two deadlines; keeps either one's cancel flag (a's
  /// wins if both carry one).
  static Deadline Earliest(const Deadline& a, const Deadline& b) {
    Deadline d = a.expires_ <= b.expires_ ? a : b;
    d.cancel_ = a.cancel_ != nullptr ? a.cancel_ : b.cancel_;
    return d;
  }

  /// Copy of this deadline that additionally expires once `*cancel`
  /// becomes true. `cancel` is not owned and must outlive the deadline;
  /// null detaches.
  Deadline WithCancel(const std::atomic<bool>* cancel) const {
    Deadline d = *this;
    d.cancel_ = cancel;
    return d;
  }

  bool Expired() const {
    if (cancel_ != nullptr && cancel_->load(std::memory_order_relaxed)) {
      return true;
    }
    return expires_ != Clock::time_point::max() && Clock::now() >= expires_;
  }

  /// True iff no wall-clock limit is set (a cancel flag may still expire
  /// the deadline early).
  bool IsInfinite() const { return expires_ == Clock::time_point::max(); }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point expires_;
  const std::atomic<bool>* cancel_ = nullptr;
};

}  // namespace moqo

#endif  // MOQO_UTIL_DEADLINE_H_
