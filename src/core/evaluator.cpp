#include "core/evaluator.hpp"

#include <algorithm>
#include <sstream>

#include "core/ron.hpp"
#include "util/assert.hpp"

namespace emts::core {

const char* verdict_label(Verdict verdict) {
  switch (verdict) {
    case Verdict::kTrusted:
      return "TRUSTED";
    case Verdict::kSuspicious:
      return "SUSPICIOUS";
    case Verdict::kCompromised:
      return "COMPROMISED";
  }
  return "?";
}

std::size_t TrustReport::alarmed_stages() const {
  std::size_t alarms = 0;
  for (const DetectorReport& stage : stages) alarms += stage.alarm ? 1 : 0;
  return alarms;
}

std::string TrustReport::summary() const {
  std::ostringstream out;
  if (stages.empty()) {
    // Reports assembled without stage detail (e.g. the monitor's alarm
    // snapshot) fall back to the classic two-stage wording.
    out << verdict_label(verdict) << ": mean distance " << mean_distance << " (threshold "
        << threshold << "), " << 100.0 * anomalous_fraction << "% traces beyond EDth, "
        << spectral.anomalies.size() << " spectral anomalies";
    return out.str();
  }
  out << verdict_label(verdict) << ": " << alarmed_stages() << "/" << stages.size()
      << " stages alarmed";
  for (const DetectorReport& stage : stages) {
    out << "; " << stage.name << (stage.alarm ? "[!] " : " ") << stage.detail;
  }
  return out.str();
}

TrustEvaluator::TrustEvaluator(std::vector<std::shared_ptr<const Detector>> detectors,
                               Options options, double sample_rate)
    : detectors_{std::move(detectors)}, options_{std::move(options)}, sample_rate_{sample_rate} {}

TrustEvaluator TrustEvaluator::calibrate(const TraceSet& golden) {
  return calibrate(golden, Options{});
}

TrustEvaluator TrustEvaluator::calibrate(const TraceSet& golden, const Options& options) {
  EMTS_REQUIRE(options.anomalous_fraction_alarm > 0.0 && options.anomalous_fraction_alarm <= 1.0,
               "alarm fraction must be in (0, 1]");
  EMTS_REQUIRE(!options.detectors.empty(), "evaluator needs at least one detector");

  // Check the whole list before fitting any stage: a bad name refuses the
  // stack without paying for the stages before it.
  for (auto name = options.detectors.begin(); name != options.detectors.end(); ++name) {
    detector_kind(*name);
    EMTS_REQUIRE(std::find(options.detectors.begin(), name, *name) == name,
                 "duplicate detector '" + *name + "'");
  }

  std::vector<std::shared_ptr<const Detector>> detectors;
  detectors.reserve(options.detectors.size());
  for (const std::string& name : options.detectors) {
    switch (detector_kind(name)) {
      case DetectorKind::kEuclidean:
        detectors.push_back(std::make_shared<const EuclideanDetector>(
            EuclideanDetector::calibrate(golden, options.euclidean)));
        break;
      case DetectorKind::kSpectral:
        detectors.push_back(std::make_shared<const SpectralDetector>(
            SpectralDetector::calibrate(golden, options.spectral)));
        break;
      case DetectorKind::kRon:
        detectors.push_back(
            std::make_shared<const RonTraceDetector>(RonTraceDetector::calibrate(golden)));
        break;
    }
  }
  return TrustEvaluator{std::move(detectors), options, golden.sample_rate};
}

TrustEvaluator TrustEvaluator::assemble(std::vector<std::shared_ptr<const Detector>> detectors,
                                        double anomalous_fraction_alarm, double sample_rate) {
  EMTS_REQUIRE(anomalous_fraction_alarm > 0.0 && anomalous_fraction_alarm <= 1.0,
               "alarm fraction must be in (0, 1]");
  EMTS_REQUIRE(!detectors.empty(), "evaluator needs at least one detector");
  Options options;
  options.detectors.clear();
  for (const auto& detector : detectors) {
    EMTS_REQUIRE(detector != nullptr, "assemble: null detector");
    options.detectors.push_back(detector->name());
  }
  options.anomalous_fraction_alarm = anomalous_fraction_alarm;
  return TrustEvaluator{std::move(detectors), std::move(options), sample_rate};
}

const Detector* TrustEvaluator::find(const std::string& name) const {
  for (const auto& detector : detectors_) {
    if (detector->name() == name) return detector.get();
  }
  return nullptr;
}

const EuclideanDetector* TrustEvaluator::try_euclidean() const {
  for (const auto& detector : detectors_) {
    if (const auto* e = dynamic_cast<const EuclideanDetector*>(detector.get())) return e;
  }
  return nullptr;
}

const SpectralDetector* TrustEvaluator::try_spectral() const {
  for (const auto& detector : detectors_) {
    if (const auto* s = dynamic_cast<const SpectralDetector*>(detector.get())) return s;
  }
  return nullptr;
}

const EuclideanDetector& TrustEvaluator::euclidean() const {
  const EuclideanDetector* detector = try_euclidean();
  EMTS_REQUIRE(detector != nullptr, "evaluator has no euclidean stage");
  return *detector;
}

const SpectralDetector& TrustEvaluator::spectral() const {
  const SpectralDetector* detector = try_spectral();
  EMTS_REQUIRE(detector != nullptr, "evaluator has no spectral stage");
  return *detector;
}

bool TrustEvaluator::accepts_trace_length(std::size_t trace_length) const {
  if (trace_length == 0) return false;
  if (const EuclideanDetector* e = try_euclidean()) {
    if (e->preprocessor().feature_dim(trace_length) != e->pca().input_dim()) return false;
  }
  if (const SpectralDetector* s = try_spectral()) {
    // Golden bins = padded/2 + 1, so the suspect's padded length must land on
    // the same grid or every bin comparison would be against the wrong
    // frequency.
    const std::size_t golden_bins = s->golden_spectrum().size();
    if (golden_bins < 2) return false;
    if (dsp::next_power_of_two(trace_length) != 2 * (golden_bins - 1)) return false;
  }
  return true;
}

TrustReport TrustEvaluator::evaluate(const TraceSet& suspect) const {
  EMTS_REQUIRE(!suspect.empty(), "evaluate needs traces");

  TrustReport report;
  std::size_t alarms = 0;
  for (const auto& detector : detectors_) {
    DetectorReport stage;
    if (const auto* sd = dynamic_cast<const SpectralDetector*>(detector.get())) {
      // One mean-spectrum pass feeds both the generic stage and the typed
      // spectral report.
      SpectralReport spectral_report = sd->analyze(suspect);
      stage = sd->to_stage(spectral_report);
      report.spectral = std::move(spectral_report);
    } else {
      stage = detector->evaluate_set(suspect, options_.anomalous_fraction_alarm);
      if (dynamic_cast<const EuclideanDetector*>(detector.get()) != nullptr) {
        report.mean_distance = stage.mean_score;
        report.max_distance = stage.max_score;
        report.threshold = stage.threshold;
        report.anomalous_fraction = stage.anomalous_fraction;
      }
    }
    if (stage.alarm) ++alarms;
    report.stages.push_back(std::move(stage));
  }

  report.verdict = alarms == 0   ? Verdict::kTrusted
                   : alarms == 1 ? Verdict::kSuspicious
                                 : Verdict::kCompromised;
  return report;
}

}  // namespace emts::core
