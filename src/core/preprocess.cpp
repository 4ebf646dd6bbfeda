#include "core/preprocess.hpp"

#include <cmath>

#include "dsp/filter.hpp"
#include "dsp/resample.hpp"
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
  work.assign(trace.begin(), trace.end());

  if (options_.remove_mean) {
    double mean = 0.0;
    for (double v : work) mean += v;
    mean /= static_cast<double>(work.size());
    for (double& v : work) v -= mean;
  }

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

void save_preprocessor_options(std::ostream& out, const Preprocessor::Options& options) {
  util::write_u8(out, options.remove_mean ? 1 : 0);
  util::write_u64(out, options.smooth_window);
  util::write_u8(out, options.normalize_rms ? 1 : 0);
  util::write_u64(out, options.decimation);
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
