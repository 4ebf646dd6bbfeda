#include "core/euclidean.hpp"

#include <algorithm>
#include <sstream>

#include "linalg/matrix.hpp"
#include "util/assert.hpp"
#include "util/binio.hpp"

namespace emts::core {

EuclideanDetector::EuclideanDetector(Preprocessor preprocessor, stats::PcaModel pca,
                                     bool include_residual)
    : preprocessor_{std::move(preprocessor)},
      pca_{std::move(pca)},
      include_residual_{include_residual} {}

std::vector<double> EuclideanDetector::embed(const std::vector<double>& features) const {
  std::vector<double> embedding = pca_.project(features);
  if (include_residual_) {
    // Q-statistic coordinate: how much of the trace lies outside the golden
    // variation subspace.
    const auto back = pca_.reconstruct(embedding);
    embedding.push_back(linalg::euclidean_distance(features, back));
  }
  return embedding;
}

EuclideanDetector EuclideanDetector::calibrate(const TraceSet& golden) {
  return calibrate(golden, Options{});
}

EuclideanDetector EuclideanDetector::calibrate(const TraceSet& golden, const Options& options) {
  EMTS_REQUIRE(golden.size() >= 3, "calibration needs at least 3 golden traces");
  golden.validate();

  Preprocessor preprocessor{options.preprocess};
  const linalg::Matrix features = preprocessor.feature_matrix(golden);
  stats::PcaModel pca = stats::PcaModel::fit(features, options.pca_components);

  EuclideanDetector detector{std::move(preprocessor), std::move(pca),
                             options.include_residual};

  // Embed the calibration set and derive the Eq. 1 threshold.
  detector.golden_projections_.reserve(golden.size());
  std::vector<double> sample(features.cols());
  for (std::size_t r = 0; r < features.rows(); ++r) {
    const double* row = features.row_data(r);
    sample.assign(row, row + features.cols());
    detector.golden_projections_.push_back(detector.embed(sample));
  }

  detector.golden_centroid_.assign(detector.golden_projections_.front().size(), 0.0);
  for (const auto& p : detector.golden_projections_) {
    for (std::size_t c = 0; c < p.size(); ++c) detector.golden_centroid_[c] += p[c];
  }
  for (double& v : detector.golden_centroid_) {
    v /= static_cast<double>(detector.golden_projections_.size());
  }

  double max_pairwise = 0.0;
  for (std::size_t i = 0; i < detector.golden_projections_.size(); ++i) {
    for (std::size_t j = i + 1; j < detector.golden_projections_.size(); ++j) {
      max_pairwise = std::max(max_pairwise,
                              linalg::euclidean_distance(detector.golden_projections_[i],
                                                         detector.golden_projections_[j]));
    }
  }
  detector.threshold_ = max_pairwise;
  return detector;
}

double EuclideanDetector::score(const Trace& trace) const {
  return linalg::euclidean_distance(embed(preprocessor_.features(trace)), golden_centroid_);
}

double EuclideanDetector::score_buffered(const Trace& trace, double mean,
                                         ScoreScratch& scratch) const {
  preprocessor_.features_into(trace, mean, scratch.work, scratch.aux, scratch.aux2,
                              scratch.features);
  pca_.project_into(scratch.features, scratch.embedding);
  if (include_residual_) {
    pca_.reconstruct_into(scratch.embedding, scratch.recon);
    scratch.embedding.push_back(linalg::euclidean_distance(scratch.features, scratch.recon));
  }
  return linalg::euclidean_distance(scratch.embedding, golden_centroid_);
}

std::string EuclideanDetector::describe() const {
  std::ostringstream out;
  out << "euclidean: PCA " << pca_.components() << " components"
      << (include_residual_ ? " + residual" : "") << ", "
      << golden_projections_.size() << " golden traces, EDth " << threshold_;
  return out.str();
}

void EuclideanDetector::save(util::ByteWriter& out) const {
  save_preprocessor_options(out, preprocessor_.options());
  out.u8(include_residual_ ? 1 : 0);
  pca_.save(out);
  const std::size_t dim = golden_projections_.empty() ? 0 : golden_projections_.front().size();
  out.u64(golden_projections_.size());
  out.u64(dim);
  for (const auto& projection : golden_projections_) {
    EMTS_ASSERT(projection.size() == dim);
    out.bytes(std::as_bytes(std::span{projection}));
  }
  out.f64_vec(golden_centroid_);
  out.f64(threshold_);
}

EuclideanDetector EuclideanDetector::load(util::ByteReader& in) {
  const Preprocessor::Options preprocess = load_preprocessor_options(in);
  const bool include_residual = in.u8() != 0;
  stats::PcaModel pca = stats::PcaModel::load(in);

  EuclideanDetector detector{Preprocessor{preprocess}, std::move(pca), include_residual};
  const std::uint64_t count = in.u64();
  const std::uint64_t dim = in.u64();
  EMTS_REQUIRE(count >= 3, "euclidean load: needs >= 3 golden projections");
  EMTS_REQUIRE(count < (1ull << 32) && dim >= 1 && dim < (1ull << 24),
               "euclidean load: implausible projection shape");
  const std::size_t expected_dim =
      detector.pca_.components() + (include_residual ? 1u : 0u);
  EMTS_REQUIRE(dim == expected_dim, "euclidean load: projection dim disagrees with PCA model");
  // count * dim < 2^56 by the caps above, so the byte count cannot wrap.
  EMTS_REQUIRE(count * dim * sizeof(double) <= in.remaining(),
               "euclidean load: projections exceed remaining bytes");

  detector.golden_projections_.reserve(count);
  for (std::uint64_t p = 0; p < count; ++p) {
    std::vector<double> projection(dim);
    for (double& v : projection) v = in.f64();
    detector.golden_projections_.push_back(std::move(projection));
  }
  detector.golden_centroid_ = in.f64_vec();
  EMTS_REQUIRE(detector.golden_centroid_.size() == dim,
               "euclidean load: centroid dim mismatch");
  detector.threshold_ = in.f64();
  EMTS_REQUIRE(detector.threshold_ >= 0.0, "euclidean load: negative threshold");
  return detector;
}

double EuclideanDetector::population_distance(const TraceSet& suspect) const {
  EMTS_REQUIRE(!suspect.empty(), "population_distance needs traces");
  std::vector<double> centroid(golden_centroid_.size(), 0.0);
  for (const Trace& t : suspect.traces) {
    const auto p = embed(preprocessor_.features(t));
    for (std::size_t c = 0; c < p.size(); ++c) centroid[c] += p[c];
  }
  for (double& v : centroid) v /= static_cast<double>(suspect.size());
  return linalg::euclidean_distance(centroid, golden_centroid_);
}

}  // namespace emts::core
