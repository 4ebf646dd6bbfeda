#include "core/ron.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <utility>

#include "core/preprocess.hpp"
#include "stats/descriptive.hpp"
#include "util/assert.hpp"
#include "util/binio.hpp"

namespace emts::core {

RonTraceDetector::RonTraceDetector(const Options& options, std::vector<double> mean,
                                   std::vector<double> stddev)
    : options_{options}, mean_{std::move(mean)}, stddev_{std::move(stddev)} {}

std::vector<double> RonTraceDetector::feature(const Trace& trace, double mean) const {
  Preprocessor::Options pre;
  pre.remove_mean = false;  // mean level IS the RON observable
  pre.smooth_window = 1;
  pre.normalize_rms = false;
  pre.decimation = options_.decimation;
  std::vector<double> work;
  std::vector<double> aux;
  std::vector<double> aux2;
  std::vector<double> out;
  Preprocessor{pre}.features_into(trace, mean, work, aux, aux2, out);
  return out;
}

RonTraceDetector RonTraceDetector::calibrate(const TraceSet& golden) {
  return calibrate(golden, Options{});
}

RonTraceDetector RonTraceDetector::calibrate(const TraceSet& golden,
                                             const Options& options) {
  EMTS_REQUIRE(golden.size() >= 3, "RON calibration needs >= 3 traces");
  EMTS_REQUIRE(options.decimation >= 1, "RON decimation must be >= 1");
  EMTS_REQUIRE(options.sigma_threshold > 0.0, "sigma threshold must be positive");

  RonTraceDetector fitted{options, {}, {}};
  std::vector<std::vector<double>> features;
  features.reserve(golden.size());
  for (std::size_t i = 0; i < golden.size(); ++i) {
    features.push_back(fitted.feature(golden.traces[i], finite_mean(golden.traces[i], i)));
    EMTS_REQUIRE(features.back().size() == features.front().size(), "ragged golden traces");
  }

  const std::size_t n = features.front().size();
  fitted.mean_.assign(n, 0.0);
  fitted.stddev_.assign(n, 0.0);
  std::vector<double> samples(features.size());
  for (std::size_t o = 0; o < n; ++o) {
    for (std::size_t t = 0; t < features.size(); ++t) samples[t] = features[t][o];
    fitted.mean_[o] = stats::mean(samples);
    // EM features are continuous (no counter quantization), but golden sets
    // can still be degenerate per coordinate; floor keeps z finite.
    fitted.stddev_[o] = std::max(stats::stddev(samples), 1e-12);
  }
  return fitted;
}

double RonTraceDetector::score(const Trace& trace) const {
  const std::vector<double> f = feature(trace, stats::mean(trace));
  EMTS_REQUIRE(f.size() == mean_.size(), "trace length differs from RON calibration");
  double best = 0.0;
  for (std::size_t o = 0; o < f.size(); ++o) {
    best = std::max(best, std::abs(f[o] - mean_[o]) / stddev_[o]);
  }
  return best;
}

std::string RonTraceDetector::describe() const {
  std::ostringstream out;
  out << "ron: z-test over " << mean_.size() << " mean-pooled features (decimation "
      << options_.decimation << "), gate " << options_.sigma_threshold << " sigma";
  return out.str();
}

void RonTraceDetector::save(util::ByteWriter& out) const {
  out.u64(options_.decimation);
  out.f64(options_.sigma_threshold);
  out.f64_vec(mean_);
  out.f64_vec(stddev_);
}

RonTraceDetector RonTraceDetector::load(util::ByteReader& in) {
  Options options;
  options.decimation = static_cast<std::size_t>(in.u64());
  options.sigma_threshold = in.f64();
  EMTS_REQUIRE(options.decimation >= 1 && options.decimation < (1u << 20),
               "ron artifact: bad decimation");
  EMTS_REQUIRE(std::isfinite(options.sigma_threshold) && options.sigma_threshold > 0.0,
               "ron artifact: bad sigma threshold");
  std::vector<double> mean = in.f64_vec();
  std::vector<double> stddev = in.f64_vec();
  EMTS_REQUIRE(!mean.empty(), "ron artifact: empty model");
  EMTS_REQUIRE(mean.size() == stddev.size(), "ron artifact: mean/stddev size mismatch");
  for (double s : stddev) {
    EMTS_REQUIRE(std::isfinite(s) && s > 0.0, "ron artifact: non-positive stddev");
  }
  return RonTraceDetector{options, std::move(mean), std::move(stddev)};
}

}  // namespace emts::core
