#include "core/trace.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "core/preprocess.hpp"
#include "dsp/filter.hpp"
#include "dsp/resample.hpp"
#include "stats/descriptive.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace emts::core {
namespace {

TEST(TraceSet, AddEnforcesEqualLengths) {
  TraceSet set;
  set.add(Trace{1, 2, 3});
  EXPECT_THROW(set.add(Trace{1, 2}), emts::precondition_error);
  EXPECT_THROW(set.add(Trace{}), emts::precondition_error);
  EXPECT_EQ(set.size(), 1u);
  EXPECT_EQ(set.trace_length(), 3u);
}

TEST(TraceSet, ValidateChecksSampleRate) {
  TraceSet set;
  set.add(Trace{1, 2});
  EXPECT_THROW(set.validate(), emts::precondition_error);
  set.sample_rate = 1e6;
  EXPECT_NO_THROW(set.validate());
}

TEST(TraceSet, MeanTraceAverages) {
  TraceSet set;
  set.add(Trace{1, 3});
  set.add(Trace{3, 5});
  const Trace mean = set.mean_trace();
  EXPECT_DOUBLE_EQ(mean[0], 2.0);
  EXPECT_DOUBLE_EQ(mean[1], 4.0);
}

TEST(TraceSet, MeanOfEmptySetRejected) {
  TraceSet set;
  EXPECT_THROW(set.mean_trace(), emts::precondition_error);
}

TEST(Preprocessor, RemoveMeanCentersTrace) {
  Preprocessor::Options opt{};
  opt.decimation = 1;
  opt.normalize_rms = false;
  const Preprocessor pre{opt};
  const auto f = pre.features(Trace{1, 2, 3, 4});
  double sum = 0.0;
  for (double v : f) sum += v;
  EXPECT_NEAR(sum, 0.0, 1e-12);
}

TEST(Preprocessor, NormalizeRmsGivesUnitRms) {
  Preprocessor::Options opt{};
  opt.decimation = 1;
  opt.normalize_rms = true;
  const Preprocessor pre{opt};
  emts::Rng rng{1};
  Trace t(1024);
  for (double& v : t) v = rng.gaussian(0.0, 7.0);
  const auto f = pre.features(t);
  double acc = 0.0;
  for (double v : f) acc += v * v;
  EXPECT_NEAR(std::sqrt(acc / static_cast<double>(f.size())), 1.0, 1e-9);
}

TEST(Preprocessor, ConstantTraceSurvivesNormalization) {
  Preprocessor::Options opt{};
  opt.decimation = 1;
  opt.normalize_rms = true;
  const Preprocessor pre{opt};
  // After mean removal a constant trace is all-zero; normalization must not
  // divide by zero.
  const auto f = pre.features(Trace(64, 5.0));
  for (double v : f) EXPECT_DOUBLE_EQ(v, 0.0);
}

TEST(Preprocessor, DecimationReducesDimension) {
  Preprocessor::Options opt{};
  opt.decimation = 16;
  const Preprocessor pre{opt};
  const auto f = pre.features(Trace(4096, 1.0));
  EXPECT_EQ(f.size(), 256u);
  EXPECT_EQ(pre.feature_dim(4096), 256u);
}

// features_into takes block means straight from the trace minus its mean,
// and fills `work` only to smooth or normalise. Every option mix must equal
// the separate passes it replaced (copy, subtract stats::mean, smooth,
// normalise, decimate_mean_into) bit for bit, through both forms.
TEST(Preprocessor, FeaturesEqualTheSeparatePassesBitwise) {
  emts::Rng rng{3};
  Trace t(1000);  // 62 blocks of 16; the partial tail block is dropped
  for (double& v : t) v = rng.gaussian(0.4, 1.0);
  const double mean = stats::mean(t);
  for (bool remove_mean : {true, false}) {
    for (std::size_t smooth : {std::size_t{1}, std::size_t{5}}) {
      for (bool rms : {false, true}) {
        for (std::size_t decimation : {std::size_t{1}, std::size_t{16}}) {
          Preprocessor::Options opt{};
          opt.remove_mean = remove_mean;
          opt.smooth_window = smooth;
          opt.normalize_rms = rms;
          opt.decimation = decimation;

          std::vector<double> work = t;
          if (remove_mean) {
            for (double& v : work) v -= mean;
          }
          if (smooth > 1) work = dsp::moving_average(work, smooth);
          if (rms) {
            double acc = 0.0;
            for (double v : work) acc += v * v;
            const double level = std::sqrt(acc / static_cast<double>(work.size()));
            for (double& v : work) v /= level;
          }
          std::vector<double> expected = work;
          if (decimation > 1) dsp::decimate_mean_into(work, decimation, expected);

          const Preprocessor pre{opt};
          std::vector<double> scratch;
          std::vector<double> aux;
          std::vector<double> aux2;
          std::vector<double> features;
          pre.features_into(t, mean, scratch, aux, aux2, features);
          EXPECT_EQ(features, expected) << remove_mean << smooth << rms << decimation;
          EXPECT_EQ(pre.features(t), expected) << remove_mean << smooth << rms << decimation;
        }
      }
    }
  }
}

TEST(Preprocessor, SmoothingReducesNoise) {
  Preprocessor::Options raw{};
  raw.decimation = 1;
  raw.remove_mean = false;
  raw.normalize_rms = false;
  Preprocessor::Options smooth = raw;
  smooth.smooth_window = 9;
  emts::Rng rng{2};
  Trace t(2048);
  for (double& v : t) v = rng.gaussian();
  const auto fr = Preprocessor{raw}.features(t);
  const auto fs = Preprocessor{smooth}.features(t);
  double er = 0.0;
  double es = 0.0;
  for (std::size_t i = 0; i < t.size(); ++i) {
    er += fr[i] * fr[i];
    es += fs[i] * fs[i];
  }
  EXPECT_LT(es, er / 4.0);
}

TEST(Preprocessor, FeatureMatrixRowsMatchTraces) {
  TraceSet set;
  set.add(Trace(64, 1.0));
  set.add(Trace(64, 2.0));
  set.add(Trace(64, 3.0));
  Preprocessor::Options opt{};
  opt.decimation = 8;
  const auto m = Preprocessor{opt}.feature_matrix(set);
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_EQ(m.cols(), 8u);
}

TEST(Preprocessor, RejectsBadOptions) {
  Preprocessor::Options even{};
  even.smooth_window = 4;
  EXPECT_THROW(Preprocessor{even}, emts::precondition_error);
  Preprocessor::Options zero{};
  zero.decimation = 0;
  EXPECT_THROW(Preprocessor{zero}, emts::precondition_error);
}

TEST(Preprocessor, RejectsEmptyInputs) {
  const Preprocessor pre;
  EXPECT_THROW(pre.features({}), emts::precondition_error);
  EXPECT_THROW(pre.feature_matrix(TraceSet{}), emts::precondition_error);
}

}  // namespace
}  // namespace emts::core
