// Combined trust evaluator: the "data analysis module" of Fig. 1. Composes
// an ordered stack of calibrated detectors drawn from the closed set in
// core/detector.hpp (by default the paper's pair: Euclidean-distance for
// digital Trojans, spectral for A2-style / fast-toggling Trojans; "ron" is
// the optional third stage) behind one calibrate-then-evaluate API
// and merges their per-stage verdicts into a trust report. A fitted
// evaluator serializes into an EMCA calibration artifact
// (io/save_calibration) so deployments calibrate once and monitor many.
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "core/detector.hpp"
#include "core/euclidean.hpp"
#include "core/spectral.hpp"
#include "core/trace.hpp"

namespace emts::core {

enum class Verdict { kTrusted, kSuspicious, kCompromised };

struct TrustReport {
  Verdict verdict = Verdict::kTrusted;

  /// Per-detector stage outcomes, in evaluator order.
  std::vector<DetectorReport> stages;

  // Euclidean stage conveniences (filled when an "euclidean" stage ran).
  double mean_distance = 0.0;
  double max_distance = 0.0;
  double threshold = 0.0;       // Eq. 1
  double anomalous_fraction = 0.0;  // traces beyond the threshold

  // Spectral stage (filled when a "spectral" stage ran).
  SpectralReport spectral;

  std::size_t alarmed_stages() const;
  std::string summary() const;
};

class TrustEvaluator {
 public:
  struct Options {
    // Detector stack, by name (kDetectorNames), in evaluation order.
    // "euclidean" and "spectral" get the typed options below; "ron" is
    // calibrated with its defaults.
    std::vector<std::string> detectors{"euclidean", "spectral"};
    EuclideanDetector::Options euclidean{};
    SpectralDetector::Options spectral{};
    // Fraction of over-threshold traces that flips a per-trace stage's
    // verdict. Golden noise occasionally exceeds the Eq. 1 max; a
    // population-level exceedance rate is the runtime-robust form of the rule.
    double anomalous_fraction_alarm = 0.05;
  };

  /// Calibrates every configured detector on golden traces.
  static TrustEvaluator calibrate(const TraceSet& golden, const Options& options);
  static TrustEvaluator calibrate(const TraceSet& golden);  // default options

  /// Assembles an evaluator from already-fitted detectors — the
  /// io::load_calibration path. No golden traces, no refitting.
  static TrustEvaluator assemble(std::vector<std::shared_ptr<const Detector>> detectors,
                                 double anomalous_fraction_alarm, double sample_rate);

  /// Evaluates a batch of runtime traces. Verdict: no stage alarmed =
  /// trusted, one = suspicious, two or more = compromised.
  TrustReport evaluate(const TraceSet& suspect) const;

  const std::vector<std::shared_ptr<const Detector>>& detectors() const { return detectors_; }
  const Detector* find(const std::string& name) const;

  /// Typed accessors for the paper's two stages. The try_ forms return null
  /// when the stage is absent; the reference forms require it.
  const EuclideanDetector* try_euclidean() const;
  const SpectralDetector* try_spectral() const;
  const EuclideanDetector& euclidean() const;
  const SpectralDetector& spectral() const;

  /// Whether traces of `trace_length` samples are shape-compatible with the
  /// fitted stack. With a euclidean stage this requires the preprocessed
  /// feature count to match the fitted PCA input dimension — the gate the
  /// runtime monitor applies before a capture may pin its stream shape.
  /// Stacks without a euclidean stage accept any non-zero length.
  bool accepts_trace_length(std::size_t trace_length) const;

  /// Sample rate of the calibration campaign (Hz).
  double sample_rate() const { return sample_rate_; }
  const Options& options() const { return options_; }

 private:
  TrustEvaluator(std::vector<std::shared_ptr<const Detector>> detectors, Options options,
                 double sample_rate);

  std::vector<std::shared_ptr<const Detector>> detectors_;
  Options options_;
  double sample_rate_ = 0.0;
};

const char* verdict_label(Verdict verdict);

}  // namespace emts::core
