#include "core/detector.hpp"

#include <algorithm>
#include <sstream>

#include "core/euclidean.hpp"
#include "core/ron.hpp"
#include "core/spectral.hpp"
#include "stats/descriptive.hpp"
#include "util/assert.hpp"

namespace emts::core {

bool Detector::is_anomalous(const Trace& trace) const { return score(trace) > threshold(); }

double Detector::score_buffered(const Trace& trace, ScoreScratch& scratch) const {
  return score_buffered(trace, stats::mean(trace), scratch);
}

DetectorReport Detector::evaluate_set(const TraceSet& suspect, double alarm_fraction) const {
  EMTS_REQUIRE(!suspect.empty(), "evaluate_set needs traces");
  DetectorReport report;
  report.name = name();
  report.threshold = threshold();

  double sum = 0.0;
  std::size_t beyond = 0;
  ScoreScratch scratch;
  for (std::size_t i = 0; i < suspect.size(); ++i) {
    const Trace& trace = suspect.traces[i];
    const double s = score_buffered(trace, finite_mean(trace, i), scratch);
    sum += s;
    report.max_score = std::max(report.max_score, s);
    if (s > report.threshold) ++beyond;
  }
  const auto n = static_cast<double>(suspect.size());
  report.mean_score = sum / n;
  report.anomalous_fraction = static_cast<double>(beyond) / n;
  report.alarm = report.anomalous_fraction > alarm_fraction;

  std::ostringstream detail;
  detail << "mean " << report.mean_score << " (threshold " << report.threshold << "), "
         << 100.0 * report.anomalous_fraction << "% beyond";
  report.detail = detail.str();
  return report;
}

std::vector<double> Detector::score_all(const TraceSet& set) const {
  std::vector<double> out;
  out.reserve(set.size());
  for (const Trace& trace : set.traces) out.push_back(score(trace));
  return out;
}

DetectorKind detector_kind(const std::string& name) {
  for (std::size_t k = 0; k < kDetectorNames.size(); ++k) {
    if (name == kDetectorNames[k]) return static_cast<DetectorKind>(k);
  }
  throw precondition_error("unknown detector '" + name + "'");
}

std::shared_ptr<const Detector> load_detector(const std::string& name, util::ByteReader& in) {
  switch (detector_kind(name)) {
    case DetectorKind::kEuclidean:
      return std::make_shared<const EuclideanDetector>(EuclideanDetector::load(in));
    case DetectorKind::kSpectral:
      return std::make_shared<const SpectralDetector>(SpectralDetector::load(in));
    case DetectorKind::kRon:
      return std::make_shared<const RonTraceDetector>(RonTraceDetector::load(in));
  }
  EMTS_ASSERT(false);
  return nullptr;
}

}  // namespace emts::core
