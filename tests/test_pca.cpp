#include "stats/pca.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <utility>
#include <vector>

#include "linalg/matrix.hpp"
#include "util/alloc_counter.hpp"
#include "util/assert.hpp"
#include "util/binio.hpp"
#include "util/rng.hpp"

namespace emts::stats {
namespace {

using linalg::Matrix;

// Data along a known 2D direction with small orthogonal jitter.
Matrix line_data(std::size_t n, double jitter, std::uint64_t seed) {
  emts::Rng rng{seed};
  Matrix data{n, 2};
  for (std::size_t i = 0; i < n; ++i) {
    const double t = rng.gaussian(0.0, 3.0);
    const double j = rng.gaussian(0.0, jitter);
    // Direction (1, 2)/sqrt(5), orthogonal (-2, 1)/sqrt(5).
    data(i, 0) = t * (1.0 / std::sqrt(5.0)) + j * (-2.0 / std::sqrt(5.0));
    data(i, 1) = t * (2.0 / std::sqrt(5.0)) + j * (1.0 / std::sqrt(5.0));
  }
  return data;
}

TEST(Pca, FirstComponentAlignsWithDominantDirection) {
  const auto data = line_data(500, 0.05, 42);
  const auto model = PcaModel::fit(data, 1);
  ASSERT_EQ(model.components(), 1u);
  // Project the direction itself: the loading vector should be (1,2)/sqrt(5)
  // up to sign. Check by projecting two points along the line.
  const auto p1 = model.project({1.0 / std::sqrt(5.0), 2.0 / std::sqrt(5.0)});
  const auto p0 = model.project({0.0, 0.0});
  EXPECT_NEAR(std::abs(p1[0] - p0[0]), 1.0, 1e-3);
}

TEST(Pca, ExplainedVarianceRatioNearOneForLineData) {
  const auto data = line_data(500, 0.01, 7);
  const auto model = PcaModel::fit(data, 1);
  EXPECT_GT(model.explained_variance_ratio(), 0.99);
}

TEST(Pca, ComponentsClampToRank) {
  const auto data = line_data(10, 0.1, 3);
  const auto model = PcaModel::fit(data, 50);
  EXPECT_LE(model.components(), 2u);
}

TEST(Pca, MeanIsCaptured) {
  Matrix data{4, 2};
  for (std::size_t i = 0; i < 4; ++i) {
    data(i, 0) = 10.0 + static_cast<double>(i);
    data(i, 1) = -5.0;
  }
  const auto model = PcaModel::fit(data, 1);
  EXPECT_NEAR(model.feature_mean()[0], 11.5, 1e-12);
  EXPECT_NEAR(model.feature_mean()[1], -5.0, 1e-12);
}

TEST(Pca, ProjectionOfMeanIsZero) {
  const auto data = line_data(100, 0.2, 9);
  const auto model = PcaModel::fit(data, 2);
  const auto proj = model.project(model.feature_mean());
  for (double v : proj) EXPECT_NEAR(v, 0.0, 1e-9);
}

TEST(Pca, ReconstructionErrorSmallWithFullRank) {
  const auto data = line_data(50, 0.5, 11);
  const auto model = PcaModel::fit(data, 2);
  for (std::size_t i = 0; i < data.rows(); ++i) {
    const std::vector<double> x{data(i, 0), data(i, 1)};
    const auto back = model.reconstruct(model.project(x));
    EXPECT_NEAR(back[0], x[0], 1e-8);
    EXPECT_NEAR(back[1], x[1], 1e-8);
  }
}

TEST(Pca, GramPathMatchesCovariancePathOnProjections) {
  // samples < features triggers the Gram path; embed 2-D line data in 8-D.
  emts::Rng rng{13};
  const std::size_t n = 6;
  const std::size_t d = 8;
  Matrix wide{n, d};
  for (std::size_t i = 0; i < n; ++i) {
    const double t = rng.gaussian();
    for (std::size_t j = 0; j < d; ++j) {
      wide(i, j) = t * static_cast<double>(j + 1) * 0.25;
    }
  }
  const auto model = PcaModel::fit(wide, 3);  // Gram path (6 < 8)
  // Rank is 1, so only one meaningful component should survive.
  ASSERT_GE(model.components(), 1u);
  EXPECT_GT(model.explained_variance()[0], 0.0);
  // Projection must preserve pairwise distances along the line (isometry on
  // the data subspace).
  std::vector<double> row0(d);
  std::vector<double> row1(d);
  for (std::size_t j = 0; j < d; ++j) {
    row0[j] = wide(0, j);
    row1[j] = wide(1, j);
  }
  const double orig = linalg::euclidean_distance(row0, row1);
  const double proj = linalg::euclidean_distance(model.project(row0), model.project(row1));
  EXPECT_NEAR(proj, orig, 1e-6 * std::max(1.0, orig));
}

TEST(Pca, ProjectAllMatchesRowwiseProject) {
  const auto data = line_data(20, 0.3, 17);
  const auto model = PcaModel::fit(data, 2);
  const auto all = model.project_all(data);
  for (std::size_t i = 0; i < data.rows(); ++i) {
    const auto one = model.project({data(i, 0), data(i, 1)});
    for (std::size_t c = 0; c < model.components(); ++c) {
      EXPECT_NEAR(all(i, c), one[c], 1e-12);
    }
  }
}

// project_into and reconstruct_into walk the basis a row at a time; every
// output still sums its terms in the order of the column-wise dot product,
// so both equal that loop bit for bit, on the Gram and covariance paths.
TEST(Pca, RowWiseProjectAndReconstructEqualColumnOrderLoopsBitwise) {
  emts::Rng rng{29};
  for (const auto& [n, d] : {std::pair<std::size_t, std::size_t>{40, 96}, {200, 16}}) {
    Matrix data{n, d};
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = 0; j < d; ++j) data(i, j) = rng.gaussian(0.0, 1.0 + 0.1 * static_cast<double>(j));
    const auto model = PcaModel::fit(data, 8);
    const Matrix& basis = model.basis();
    const std::vector<double>& mean = model.feature_mean();
    const std::size_t k = model.components();

    std::vector<double> projected;
    std::vector<double> back;
    for (int trial = 0; trial < 5; ++trial) {
      std::vector<double> sample(d);
      for (double& v : sample) v = rng.gaussian(0.0, 2.0);

      std::vector<double> expected_projection(k);
      for (std::size_t c = 0; c < k; ++c) {
        double acc = 0.0;
        for (std::size_t j = 0; j < d; ++j) acc += (sample[j] - mean[j]) * basis(j, c);
        expected_projection[c] = acc;
      }
      model.project_into(sample, projected);
      EXPECT_EQ(projected, expected_projection) << "n " << n << " trial " << trial;

      std::vector<double> expected_back = mean;
      for (std::size_t j = 0; j < d; ++j) {
        double acc = 0.0;
        for (std::size_t c = 0; c < k; ++c) acc += basis(j, c) * projected[c];
        expected_back[j] += acc;
      }
      model.reconstruct_into(projected, back);
      EXPECT_EQ(back, expected_back) << "n " << n << " trial " << trial;
    }
  }
}

TEST(Pca, EigenvaluesDescending) {
  emts::Rng rng{23};
  Matrix data{200, 5};
  for (std::size_t i = 0; i < 200; ++i)
    for (std::size_t j = 0; j < 5; ++j)
      data(i, j) = rng.gaussian(0.0, static_cast<double>(5 - j));
  const auto model = PcaModel::fit(data, 5);
  const auto& ev = model.explained_variance();
  for (std::size_t c = 1; c < ev.size(); ++c) EXPECT_GE(ev[c - 1], ev[c] - 1e-9);
}

TEST(Pca, RejectsDegenerateInputs) {
  EXPECT_THROW(PcaModel::fit(Matrix{1, 3}, 1), emts::precondition_error);
  EXPECT_THROW(PcaModel::fit(Matrix{3, 3}, 0), emts::precondition_error);
}

TEST(Pca, ProjectRejectsWrongDimension) {
  const auto model = PcaModel::fit(line_data(10, 0.1, 1), 1);
  EXPECT_THROW(model.project({1.0, 2.0, 3.0}), emts::precondition_error);
}

class PcaVarianceSweep : public ::testing::TestWithParam<std::size_t> {};

// Property: keeping more components never decreases explained variance.
TEST_P(PcaVarianceSweep, ExplainedVarianceMonotoneInComponents) {
  emts::Rng rng{GetParam()};
  Matrix data{100, 6};
  for (std::size_t i = 0; i < 100; ++i)
    for (std::size_t j = 0; j < 6; ++j)
      data(i, j) = rng.gaussian(0.0, 1.0 + static_cast<double>(j));
  double prev = 0.0;
  for (std::size_t k = 1; k <= 6; ++k) {
    const auto model = PcaModel::fit(data, k);
    const double ratio = model.explained_variance_ratio();
    EXPECT_GE(ratio, prev - 1e-9);
    prev = ratio;
  }
  EXPECT_NEAR(prev, 1.0, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PcaVarianceSweep, ::testing::Values<std::size_t>(1, 2, 3, 4));

// A 65,576-byte payload declaring a 4096 x 4096 basis it does not carry must
// be refused before the basis is sized: allocating first requests (and
// zeroes) 134 MB before the first basis read fails.
TEST(Pca, LoadRefusesABasisTheBytesCannotBack) {
  std::string payload;
  util::ByteWriter out{payload};
  out.u64(4096);  // input dimension
  out.u64(4096);  // components
  out.f64(1.0);   // total variance
  out.f64_vec(std::vector<double>(4096, 0.0));  // mean
  out.f64_vec(std::vector<double>(4096, 1.0));  // eigenvalues
  util::ByteReader in{payload};
  const std::uint64_t before = util::alloc::thread_counts().bytes;
  EXPECT_THROW(PcaModel::load(in), emts::precondition_error);
  if (util::alloc::counting_active()) {
    EXPECT_LT(util::alloc::thread_counts().bytes - before, 4 * payload.size());
  }
}

}  // namespace
}  // namespace emts::stats
