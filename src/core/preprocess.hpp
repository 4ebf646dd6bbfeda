// Preprocessing stage of the data-analysis module (paper Sec. III-D):
// denoising and feature extraction ahead of PCA. Raw oscilloscope traces are
// detrended, optionally smoothed and normalized, then reduced to a feature
// vector by block decimation so the PCA stage works on hundreds rather than
// thousands of dimensions.
#pragma once

#include <cstddef>
#include <vector>

#include "core/trace.hpp"
#include "linalg/matrix.hpp"
#include "util/binio.hpp"

namespace emts::core {

class Preprocessor {
 public:
  struct Options {
    bool remove_mean = true;          // detrend DC offset
    std::size_t smooth_window = 1;    // odd moving-average length; 1 = off
    // Off by default: amplitude IS a signature (T4's whole payload is an
    // amplitude increase); normalizing away RMS would blind the detector to
    // it. Enable for setups with uncontrolled per-capture gain.
    bool normalize_rms = false;
    std::size_t decimation = 16;      // samples per feature (mean pooling)
  };

  Preprocessor();  // default options
  explicit Preprocessor(const Options& options);

  /// Feature vector of one trace.
  std::vector<double> features(const Trace& trace) const;

  /// features() writing every intermediate into caller-owned buffers
  /// (`work`, `aux`, `aux2` are scratch; `features` receives the result).
  /// `mean` is the trace's mean summed in stats::mean's order (the runtime
  /// monitor's input gate computes it); it is subtracted only when
  /// remove_mean is set. Bit-identical to features(trace); zero allocations
  /// once the buffers' capacity is warm — the streaming monitor's per-push
  /// path. Without smoothing or RMS normalisation the block means come
  /// straight from the trace and `work` is not touched.
  void features_into(const Trace& trace, double mean, std::vector<double>& work,
                     std::vector<double>& aux, std::vector<double>& aux2,
                     std::vector<double>& features) const;
  /// features_into computing the trace's mean itself.
  void features_into(const Trace& trace, std::vector<double>& work, std::vector<double>& aux,
                     std::vector<double>& aux2, std::vector<double>& features) const;

  /// Feature matrix of a whole set (rows = traces).
  linalg::Matrix feature_matrix(const TraceSet& set) const;

  /// Feature dimension for traces of `trace_length` samples.
  std::size_t feature_dim(std::size_t trace_length) const;

  const Options& options() const { return options_; }

 private:
  Options options_;
};

/// Binary round-trip of preprocessing parameters inside an EMCA calibration
/// artifact: a deployed detector must preprocess exactly as it was fitted.
void save_preprocessor_options(util::ByteWriter& out, const Preprocessor::Options& options);
Preprocessor::Options load_preprocessor_options(util::ByteReader& in);

}  // namespace emts::core
