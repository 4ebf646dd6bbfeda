// Euclidean-distance Trojan detector (paper Sec. III-D):
//
//   "Euclidean distance is an effective similarity metric ... The hardware
//    Trojan can be identified when the differences exceed the threshold
//    value. The threshold value is defined to be the maximum Euclidean
//    distance (EDth) among the data of Trojan-free design"   (Eq. 1).
//
// Calibration fits the preprocessing + PCA model on golden (Trojan-free)
// traces, stores their projections, and sets EDth by Eq. 1. Scoring projects
// a suspect trace and measures its distance to the golden centroid; the
// Eq. 1 threshold then separates "within golden spread" from "anomalous".
// The "euclidean" stage; the fitted model
// (preprocessor params + PCA + golden projections + EDth) serializes into
// the EMCA calibration artifact and reloads bit-identically.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "core/detector.hpp"
#include "core/preprocess.hpp"
#include "core/trace.hpp"
#include "stats/pca.hpp"

namespace emts::core {

class EuclideanDetector : public Detector {
 public:
  struct Options {
    Preprocessor::Options preprocess{};
    std::size_t pca_components = 8;
    // Include the PCA residual (Q-statistic) in the distance. The golden
    // traces only span benign variation; a Trojan's signature is typically
    // *orthogonal* to that subspace, so pure projection would discard it.
    // With the residual term the score equals the full feature-space
    // distance, decomposed into in-model and out-of-model energy.
    bool include_residual = true;
  };

  /// Fits on golden traces. Requires >= 3 traces.
  static EuclideanDetector calibrate(const TraceSet& golden, const Options& options);
  static EuclideanDetector calibrate(const TraceSet& golden);  // default options

  std::string name() const override { return "euclidean"; }
  std::string describe() const override;

  /// Eq. 1 threshold: max pairwise distance among golden projections.
  double threshold() const override { return threshold_; }

  /// Distance of a suspect trace to the golden centroid in PCA space.
  double score(const Trace& trace) const override;

  /// score() through caller-owned buffers: bit-identical values, zero heap
  /// allocations once the scratch is warm for the stream's trace length.
  using Detector::score_buffered;
  double score_buffered(const Trace& trace, double mean, ScoreScratch& scratch) const override;

  /// Serializes the full fitted model; load() restores a detector whose
  /// score()/threshold() are bit-identical to this one.
  void save(util::ByteWriter& out) const override;
  static EuclideanDetector load(util::ByteReader& in);

  /// Distance between the golden centroid and the centroid of `suspect`
  /// traces — the per-Trojan "Euclidean distance" numbers the paper reports
  /// in Sec. IV-C (0.27 / 0.25 / 0.05 / 0.28).
  double population_distance(const TraceSet& suspect) const;

  const stats::PcaModel& pca() const { return pca_; }
  const Preprocessor& preprocessor() const { return preprocessor_; }

 private:
  EuclideanDetector(Preprocessor preprocessor, stats::PcaModel pca, bool include_residual);

  /// Projection + (optional) residual magnitude of one feature vector.
  std::vector<double> embed(const std::vector<double>& features) const;

  Preprocessor preprocessor_;
  stats::PcaModel pca_;
  bool include_residual_ = true;
  // Embeddings: PCA projection, plus one extra coordinate holding the
  // out-of-model residual norm when include_residual is on.
  std::vector<std::vector<double>> golden_projections_;
  std::vector<double> golden_centroid_;
  double threshold_ = 0.0;
};

}  // namespace emts::core
