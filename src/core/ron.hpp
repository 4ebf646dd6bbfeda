// Third detector stage ("ron"): the ring-oscillator-network z-test of
// baseline/ron.hpp, applied to EM trace features instead of RO counts.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>
#include <vector>

#include "core/detector.hpp"
#include "core/trace.hpp"

namespace emts::core {

/// The classic RON statistical test rehosted onto EM trace features: golden
/// traces are mean-pooled into coarse feature vectors (the trace-domain
/// analogue of per-RO cycle counts), per-coordinate mean/std are fitted, and
/// a suspect trace scores as its largest |z| over the coordinates. Shares
/// RON's blind spot by construction — signatures that barely move local
/// means (sparse bursts, tiny fast tones) stay invisible — which is exactly
/// why it earns its keep as a low-cost extra vote next to the paper's
/// detectors rather than a replacement for them.
class RonTraceDetector : public Detector {
 public:
  struct Options {
    std::size_t decimation = 64;    // samples per pooled feature
    double sigma_threshold = 4.0;   // classic RON z-test gate
  };

  /// Fits per-feature moments on golden traces. Requires >= 3 traces.
  static RonTraceDetector calibrate(const TraceSet& golden);
  static RonTraceDetector calibrate(const TraceSet& golden, const Options& options);

  std::string name() const override { return "ron"; }
  std::string describe() const override;
  double threshold() const override { return options_.sigma_threshold; }

  /// Largest |z| of the pooled features against the golden moments.
  double score(const Trace& trace) const override;

  void save(std::ostream& out) const override;
  static RonTraceDetector load(util::ByteReader& in);

 private:
  RonTraceDetector(const Options& options, std::vector<double> mean,
                   std::vector<double> stddev);

  std::vector<double> feature(const Trace& trace) const;

  Options options_;
  std::vector<double> mean_;
  std::vector<double> stddev_;
};

}  // namespace emts::core
