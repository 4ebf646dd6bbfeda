// Time-domain filters used by the measurement chain (sensor bandwidth) and
// the preprocessing stage (denoising before PCA, paper Sec. III-D).
#pragma once

#include <cstddef>
#include <vector>

namespace emts::dsp {

/// Centered moving-average smoother with odd window length.
std::vector<double> moving_average(const std::vector<double>& signal, std::size_t window_length);

/// moving_average writing into caller-owned buffers: `prefix` is scratch for
/// the prefix sums, `out` receives the smoothed signal. Bit-identical to
/// moving_average; zero allocations once both buffers' capacity is warm.
void moving_average_into(const std::vector<double>& signal, std::size_t window_length,
                         std::vector<double>& prefix, std::vector<double>& out);

/// Single-pole IIR low-pass (models the sensor/amplifier bandwidth).
/// cutoff_hz is the -3 dB point; sample_rate in Hz.
class OnePoleLowPass {
 public:
  OnePoleLowPass(double cutoff_hz, double sample_rate);

  /// Processes one sample, carrying state across calls.
  double step(double x) {
    state_ += alpha_ * (x - state_);
    return state_;
  }

  /// Filters a whole signal starting from zero state.
  std::vector<double> process(const std::vector<double>& signal);

  void reset();
  double alpha() const { return alpha_; }

 private:
  double alpha_;
  double state_ = 0.0;
};

/// First-difference derivative scaled by the sample rate: y[i] ≈ dx/dt.
/// Faraday's law turns coil flux into emf via exactly this operation.
std::vector<double> differentiate(const std::vector<double>& signal, double sample_rate);

}  // namespace emts::dsp
