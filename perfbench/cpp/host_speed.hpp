// Host-speed reference: a fixed piece of CPU work that shares no code with
// the program (and no heap: it allocates from its own buffer), timed
// between reps. The benchmark's host is a few cores of a shared machine
// whose speed drifts by up to 2x over minutes; CPU time tracks wall time,
// so it is contention, not stolen time. The end-to-end timing metrics are
// reported at the reference speed: a run's measured times are scaled by
// kReferenceMs / (median reference time of the run), so that a run on a
// slowed host is not mistaken for a slower program. The metrics stay in
// seconds; the report lines print the measured values beside them.
#pragma once

#include <string>
#include <vector>

#include "spans.hpp"

namespace perfbench {

/// Reference time, in ms, of a host at the reference speed: about the
/// median the 4-vCPU Xeon VM described in README.md gives when it is not
/// contended. It only sets the scale of the reported times.
inline constexpr f64 kReferenceMs = 4.5;

/// Records the reference time before the first rep and after every rep.
class HostSpeed {
 public:
  /// Takes the first sample.
  HostSpeed();

  /// Takes a sample (call after each rep).
  void sample();

  /// Median reference time of the samples so far, in ms.
  [[nodiscard]] f64 reference_ms() const;

  /// How much slower than the reference speed the host ran: measured
  /// times divide by it, throughputs multiply by it.
  [[nodiscard]] f64 slowdown() const { return slowdown_of(ms_); }
  [[nodiscard]] static f64 slowdown_of(const std::vector<f64>& reference_ms);

  /// "host reference: ..." report line: median, range and sample count.
  [[nodiscard]] std::string note() const;

 private:
  std::vector<f64> ms_;
};

}  // namespace perfbench
