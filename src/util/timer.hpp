// Timing infrastructure.
//
// MLOC experiments combine two notions of time:
//   * measured CPU time (decompression, filtering, assembly) from a
//     monotonic wall clock, and
//   * modeled I/O time produced by the PFS emulator's virtual clock
//     (seek + transfer + contention), since this reproduction has no
//     physical Lustre deployment.
// ComponentTimes carries the per-phase breakdown the paper reports in
// Fig. 6 (I/O, decompression, reconstruction).
#pragma once

#include <chrono>
#include <string>

namespace mloc {

/// Monotonic stopwatch for CPU phases.
class Stopwatch {
 public:
  Stopwatch() noexcept : start_(clock::now()) {}

  void restart() noexcept { start_ = clock::now(); }

  /// Seconds elapsed since construction/restart.
  [[nodiscard]] double seconds() const noexcept {
    return std::chrono::duration<double>(clock::now() - start_).count();
  }

 private:
  using clock = std::chrono::steady_clock;
  clock::time_point start_;
};

/// Per-phase time breakdown of one data access (paper Fig. 6). Units: sec.
struct ComponentTimes {
  double io = 0.0;           ///< modeled seek+read+contention on the PFS
  double decompress = 0.0;   ///< measured codec decode time
  double reconstruct = 0.0;  ///< measured filtering + value assembly time

  [[nodiscard]] double total() const noexcept {
    return io + decompress + reconstruct;
  }

  bool operator==(const ComponentTimes&) const = default;

  ComponentTimes& operator+=(const ComponentTimes& other) noexcept {
    io += other.io;
    decompress += other.decompress;
    reconstruct += other.reconstruct;
    return *this;
  }

  /// Per-component max — models phases that overlap across parallel ranks
  /// only at barriers (each phase's makespan is its slowest rank).
  void max_with(const ComponentTimes& other) noexcept {
    if (other.io > io) io = other.io;
    if (other.decompress > decompress) decompress = other.decompress;
    if (other.reconstruct > reconstruct) reconstruct = other.reconstruct;
  }

  ComponentTimes& operator/=(double divisor) noexcept {
    io /= divisor;
    decompress /= divisor;
    reconstruct /= divisor;
    return *this;
  }

  [[nodiscard]] std::string to_string() const;
};

}  // namespace mloc
