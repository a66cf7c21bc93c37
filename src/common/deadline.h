#ifndef RDFREF_COMMON_DEADLINE_H_
#define RDFREF_COMMON_DEADLINE_H_

#include <chrono>
#include <cstdint>
#include <limits>

namespace rdfref {

/// \brief A point on the monotonic clock past which work should stop.
///
/// A default-constructed Deadline is infinite (never expires), so APIs can
/// take one by value and callers that don't care pay nothing. Deadlines are
/// checked cooperatively: the UCQ/JUCQ evaluator polls expired() at every
/// CQ boundary and inside each CQ's join, and returns
/// StatusCode::kDeadlineExceeded when the budget is gone — the paper's
/// exploding reformulations (Example 1's 318,096-CQ UCQ) become boundable
/// instead of runaway.
class Deadline {
 public:
  /// \brief Infinite: never expires.
  Deadline() = default;

  static Deadline Infinite() { return Deadline(); }

  /// \brief Expires `millis` (fractional) from now.
  static Deadline AfterMillis(double millis) {
    return AfterMicros(static_cast<int64_t>(millis * 1000.0));
  }

  /// \brief Expires `micros` from now.
  static Deadline AfterMicros(int64_t micros) {
    Deadline d;
    d.has_deadline_ = true;
    d.at_ = Clock::now() + std::chrono::microseconds(micros);
    return d;
  }

  [[nodiscard]] bool is_infinite() const { return !has_deadline_; }

  /// \brief True once the budget is gone. [[nodiscard]]: polling a
  /// deadline and dropping the answer means the overrun goes unhandled.
  [[nodiscard]] bool expired() const {
    return has_deadline_ && Clock::now() >= at_;
  }

  /// \brief Milliseconds until expiry: +infinity when infinite, <= 0 once
  /// expired.
  [[nodiscard]] double remaining_millis() const {
    if (!has_deadline_) return std::numeric_limits<double>::infinity();
    auto left = std::chrono::duration_cast<std::chrono::microseconds>(
        at_ - Clock::now());
    return static_cast<double>(left.count()) / 1000.0;
  }

 private:
  using Clock = std::chrono::steady_clock;
  bool has_deadline_ = false;
  Clock::time_point at_{};
};

}  // namespace rdfref

#endif  // RDFREF_COMMON_DEADLINE_H_
