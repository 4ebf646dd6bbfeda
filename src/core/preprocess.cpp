#include "core/preprocess.hpp"

#include <cmath>

#include "dsp/filter.hpp"
#include "dsp/resample.hpp"
#include "stats/descriptive.hpp"
#include "util/assert.hpp"
#include "util/binio.hpp"

namespace emts::core {

Preprocessor::Preprocessor() : Preprocessor(Options{}) {}

Preprocessor::Preprocessor(const Options& options) : options_{options} {
  EMTS_REQUIRE(options.smooth_window % 2 == 1, "smooth window must be odd");
  EMTS_REQUIRE(options.decimation >= 1, "decimation must be >= 1");
}

std::vector<double> Preprocessor::features(const Trace& trace) const {
  std::vector<double> work;
  std::vector<double> aux;
  std::vector<double> aux2;
  std::vector<double> out;
  features_into(trace, work, aux, aux2, out);
  return out;
}

void Preprocessor::features_into(const Trace& trace, std::vector<double>& work,
                                 std::vector<double>& aux, std::vector<double>& aux2,
                                 std::vector<double>& features) const {
  EMTS_REQUIRE(!trace.empty(), "cannot preprocess an empty trace");
  features_into(trace, stats::mean(trace), work, aux, aux2, features);
}

void Preprocessor::features_into(const Trace& trace, double mean, std::vector<double>& work,
                                 std::vector<double>& aux, std::vector<double>& aux2,
                                 std::vector<double>& features) const {
  EMTS_REQUIRE(!trace.empty(), "cannot preprocess an empty trace");
  const double offset = options_.remove_mean ? mean : 0.0;
  const std::size_t n = trace.size();

  if (options_.smooth_window == 1 && !options_.normalize_rms) {
    // One pass: each block mean sums the detrended samples in the order
    // decimate_mean_into would sum the detrended copy.
    const std::size_t f = options_.decimation;
    if (f == 1) {
      features.resize(n);
      for (std::size_t i = 0; i < n; ++i) features[i] = trace[i] - offset;
    } else {
      features.resize(n / f);
      for (std::size_t b = 0; b < features.size(); ++b) {
        const double* block = trace.data() + b * f;
        double acc = 0.0;
        for (std::size_t i = 0; i < f; ++i) acc += block[i] - offset;
        features[b] = acc / static_cast<double>(f);
      }
    }
    EMTS_REQUIRE(!features.empty(), "decimation left no features");
    return;
  }

  work.resize(n);
  for (std::size_t i = 0; i < n; ++i) work[i] = trace[i] - offset;

  if (options_.smooth_window > 1) {
    // aux holds the prefix sums, aux2 the smoothed signal; the swap keeps
    // both buffers' storage alive for the next call.
    dsp::moving_average_into(work, options_.smooth_window, aux, aux2);
    work.swap(aux2);
  }

  if (options_.normalize_rms) {
    double acc = 0.0;
    for (double v : work) acc += v * v;
    const double rms = std::sqrt(acc / static_cast<double>(work.size()));
    if (rms > 0.0) {
      for (double& v : work) v /= rms;
    }
  }

  if (options_.decimation > 1) {
    dsp::decimate_mean_into(work, options_.decimation, features);
  } else {
    features.assign(work.begin(), work.end());
  }
  EMTS_REQUIRE(!features.empty(), "decimation left no features");
}

linalg::Matrix Preprocessor::feature_matrix(const TraceSet& set) const {
  EMTS_REQUIRE(!set.empty(), "cannot preprocess an empty trace set");
  const auto first = features(set.traces.front());
  linalg::Matrix out{set.size(), first.size()};
  for (std::size_t c = 0; c < first.size(); ++c) out(0, c) = first[c];
  for (std::size_t r = 1; r < set.size(); ++r) {
    const auto f = features(set.traces[r]);
    EMTS_ASSERT(f.size() == first.size());
    for (std::size_t c = 0; c < f.size(); ++c) out(r, c) = f[c];
  }
  return out;
}

std::size_t Preprocessor::feature_dim(std::size_t trace_length) const {
  return options_.decimation > 1 ? trace_length / options_.decimation : trace_length;
}

void save_preprocessor_options(util::ByteWriter& out, const Preprocessor::Options& options) {
  out.u8(options.remove_mean ? 1 : 0);
  out.u64(options.smooth_window);
  out.u8(options.normalize_rms ? 1 : 0);
  out.u64(options.decimation);
}

Preprocessor::Options load_preprocessor_options(util::ByteReader& in) {
  Preprocessor::Options options;
  options.remove_mean = in.u8() != 0;
  options.smooth_window = in.u64();
  options.normalize_rms = in.u8() != 0;
  options.decimation = in.u64();
  EMTS_REQUIRE(options.smooth_window % 2 == 1, "preprocessor options: smooth window must be odd");
  EMTS_REQUIRE(options.decimation >= 1 && options.decimation < (1ull << 20),
               "preprocessor options: implausible decimation");
  return options;
}

}  // namespace emts::core
