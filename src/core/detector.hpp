// Detector interface of the data-analysis module. The paper wires two
// detectors into its analysis pipeline (PCA/Euclidean, Sec. III-D; spectral,
// Sec. III-E); EMSentry adds the RON z-test as a third stage. The set is
// closed: `kDetectorNames` lists every stage name an evaluator or an EMCA
// calibration artifact (io/calibration.hpp) may use, and `detector_kind` is
// the one place a name is matched, shared by TrustEvaluator::calibrate and
// `load_detector`.
#pragma once

#include <array>
#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "core/trace.hpp"
#include "util/binio.hpp"

namespace emts::core {

/// Set-level outcome of one detector stage inside a trust report.
struct DetectorReport {
  std::string name;
  double mean_score = 0.0;
  double max_score = 0.0;
  double threshold = 0.0;
  double anomalous_fraction = 0.0;  // traces beyond the threshold
  bool alarm = false;
  std::string detail;  // human-readable stage summary
};

/// Caller-owned working buffers for the allocation-free scoring path. One
/// scratch serves one evaluation stream: the buffers are resized on first
/// use and reused verbatim afterwards, so a steady stream of equal-length
/// traces scores with zero heap allocations. Detectors may use any subset.
struct ScoreScratch {
  std::vector<double> work;       // preprocessing working signal
  std::vector<double> aux;        // smoother prefix sums / generic scratch
  std::vector<double> aux2;       // second preprocessing scratch
  std::vector<double> features;   // preprocessed feature vector
  std::vector<double> embedding;  // model-space embedding
  std::vector<double> recon;      // reconstruction scratch
};

/// A fitted (calibrated) Trojan detector. Implementations are immutable once
/// fitted: score() and friends are const and thread-safe, so one fitted
/// detector can serve concurrent evaluation streams.
class Detector {
 public:
  virtual ~Detector() = default;

  /// Stage name, one of kDetectorNames.
  virtual std::string name() const = 0;

  /// Human-readable calibration summary (model shape, thresholds).
  virtual std::string describe() const = 0;

  /// Per-trace anomaly score; larger = more suspicious.
  virtual double score(const Trace& trace) const = 0;

  /// score() writing every intermediate into caller-owned buffers. `mean`
  /// is the trace's mean as stats::mean(trace) computes it (the runtime
  /// monitor's input gate sums every capture once and hands the mean to
  /// each stage). Returns a value bit-identical to score(trace); overrides
  /// must preserve that equality — the streaming monitor relies on it. The
  /// default ignores the mean and the scratch and delegates, so detectors
  /// without a buffered path stay correct (merely not allocation-free).
  virtual double score_buffered(const Trace& trace, double mean, ScoreScratch& scratch) const {
    (void)mean;
    (void)scratch;
    return score(trace);
  }

  /// score_buffered computing the trace's mean itself.
  double score_buffered(const Trace& trace, ScoreScratch& scratch) const;

  /// Score level above which a single trace counts as anomalous.
  virtual double threshold() const = 0;

  /// Verdict for one trace; defaults to the score/threshold rule.
  virtual bool is_anomalous(const Trace& trace) const;

  /// Windowed detectors analyze a whole capture window at once (e.g. a mean
  /// spectrum); per-trace score() still works but is not the natural grain.
  virtual bool windowed() const { return false; }

  /// Set-level verdict of a per-trace stage: scores every trace and alarms
  /// when the over-threshold fraction exceeds `alarm_fraction`. Refuses a
  /// set holding a NaN or ±inf sample (see finite_mean). (The evaluator
  /// runs the windowed spectral stage through its mean spectrum.)
  DetectorReport evaluate_set(const TraceSet& suspect, double alarm_fraction) const;

  /// Serializes the fitted state (payload only — the EMCA container frames
  /// it with the detector name and payload size).
  virtual void save(util::ByteWriter& out) const = 0;

  /// Scores a whole set, trace by trace.
  std::vector<double> score_all(const TraceSet& set) const;
};

/// The closed set of detector stages.
enum class DetectorKind { kEuclidean, kSpectral, kRon };

/// Stage names, indexed by DetectorKind.
inline constexpr std::array<const char*, 3> kDetectorNames{"euclidean", "spectral", "ron"};

/// Maps a stage name onto the closed set. Throws precondition_error
/// "unknown detector '<name>'" for any other name.
DetectorKind detector_kind(const std::string& name);

/// Rehydrates the named detector from its EMCA payload (Detector::save
/// output). Throws precondition_error on an unknown name or a corrupt payload.
std::shared_ptr<const Detector> load_detector(const std::string& name, util::ByteReader& in);

}  // namespace emts::core
