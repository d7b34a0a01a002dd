// Wall-clock timing helpers for benchmarks and experiment harnesses.
#ifndef DX_SRC_UTIL_TIMER_H_
#define DX_SRC_UTIL_TIMER_H_

#include <chrono>

namespace dx {

// Measures elapsed wall time since construction (or the last Reset()).
class Timer {
 public:
  Timer() : start_(Clock::now()) {}

  void Reset() { start_ = Clock::now(); }

  double ElapsedSeconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace dx

#endif  // DX_SRC_UTIL_TIMER_H_
