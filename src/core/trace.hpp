// Trace containers shared across the trust-evaluation pipeline. A Trace is
// one recorded sensor window; a TraceSet is an acquisition campaign with its
// sampling metadata. The detectors consume these and never see the simulator
// — on a real deployment they would be filled from the oscilloscope instead.
#pragma once

#include <cmath>
#include <cstddef>
#include <vector>

namespace emts::core {

/// One recorded sensor capture (volts per sample).
using Trace = std::vector<double>;

/// Sums `trace` front to back, as stats::mean sums, and checks each sample
/// in the same loop: one NaN or ±inf sample would poison every statistic
/// fitted or scored from the trace. Returns the index of the first
/// non-finite sample (the sum stops there), or trace.size() when every
/// sample is finite.
inline std::size_t sum_finite(const Trace& trace, double& sum) {
  sum = 0.0;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    if (!std::isfinite(trace[i])) return i;
    sum += trace[i];
  }
  return trace.size();
}

/// The mean of trace `index` of a calibration or suspect set, equal to
/// stats::mean(trace) bit for bit. Throws precondition_error naming the
/// trace and its first NaN or ±inf sample. Requires a non-empty trace.
double finite_mean(const Trace& trace, std::size_t index);

/// A set of equal-length traces plus acquisition metadata.
struct TraceSet {
  std::vector<Trace> traces;
  double sample_rate = 0.0;  // Hz

  std::size_t size() const { return traces.size(); }
  bool empty() const { return traces.empty(); }
  std::size_t trace_length() const { return traces.empty() ? 0 : traces.front().size(); }

  void add(Trace trace);

  /// Pre-allocates room for `n` additional traces.
  void reserve(std::size_t n);

  /// Moves a whole batch in at once (the parallel capture engine produces
  /// traces slot-by-slot and hands them over in one append). Validates the
  /// shared-length invariant against the batch and any existing traces.
  void add_all(std::vector<Trace> batch);

  /// Validates the invariant that all traces share one length.
  void validate() const;

  /// Element-wise mean trace; requires a non-empty set.
  Trace mean_trace() const;
};

}  // namespace emts::core
