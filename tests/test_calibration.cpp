// EMCA calibration artifact tests: the contract is bit-identical round-trip
// (a loaded evaluator scores every trace exactly as the one that was saved)
// plus hard rejection of corrupt or incompatible artifacts. The seeded
// mutation runs cover EMCA and the EMAA array artifact that embeds it.
#include "io/calibration.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "array/artifact.hpp"
#include "core/monitor.hpp"
#include "util/alloc_counter.hpp"
#include "util/assert.hpp"
#include "util/binio.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"
#include "mutation.hpp"
#include "temp_path.hpp"

namespace emts::io {
namespace {

constexpr double kFs = 384e6;
constexpr std::size_t kLen = 2048;

core::Trace golden_trace(emts::Rng& rng) {
  core::Trace t(kLen);
  for (std::size_t i = 0; i < kLen; ++i) {
    t[i] = std::sin(2.0 * units::pi * 48e6 * static_cast<double>(i) / kFs) +
           rng.gaussian(0.0, 0.08);
  }
  return t;
}

core::Trace infected_trace(emts::Rng& rng) {
  core::Trace t = golden_trace(rng);
  for (std::size_t i = 0; i < kLen; ++i) {
    t[i] += 0.6 * std::sin(2.0 * units::pi * 72e6 * static_cast<double>(i) / kFs) +
            0.3 * std::sin(2.0 * units::pi * 3e6 * static_cast<double>(i) / kFs);
  }
  return t;
}

core::TraceSet make_set(std::size_t n, bool infected, std::uint64_t seed) {
  emts::Rng rng{seed};
  core::TraceSet set;
  set.sample_rate = kFs;
  for (std::size_t i = 0; i < n; ++i) {
    set.add(infected ? infected_trace(rng) : golden_trace(rng));
  }
  return set;
}

class CalibrationArtifactTest : public ::testing::Test {
 protected:
  void TearDown() override { std::filesystem::remove(path_); }

  std::string path_ = temp_path("emts_calibration_test", ".emca");
};

TEST_F(CalibrationArtifactTest, RoundTripScoresAreBitIdentical) {
  const auto original = core::TrustEvaluator::calibrate(make_set(30, false, 1));
  save_calibration(path_, original);
  const auto loaded = load_calibration(path_);

  EXPECT_EQ(loaded.sample_rate(), original.sample_rate());
  ASSERT_EQ(loaded.detectors().size(), original.detectors().size());
  for (std::size_t d = 0; d < original.detectors().size(); ++d) {
    EXPECT_EQ(loaded.detectors()[d]->name(), original.detectors()[d]->name());
    // Exact comparison on purpose: the artifact stores every fitted double
    // raw, so the threshold must round-trip to the bit.
    EXPECT_EQ(loaded.detectors()[d]->threshold(), original.detectors()[d]->threshold());
  }

  emts::Rng rng{2};
  for (int i = 0; i < 10; ++i) {
    const core::Trace clean = golden_trace(rng);
    const core::Trace bad = infected_trace(rng);
    for (std::size_t d = 0; d < original.detectors().size(); ++d) {
      if (original.detectors()[d]->windowed()) continue;
      EXPECT_EQ(loaded.detectors()[d]->score(clean), original.detectors()[d]->score(clean));
      EXPECT_EQ(loaded.detectors()[d]->score(bad), original.detectors()[d]->score(bad));
    }
  }
}

TEST_F(CalibrationArtifactTest, RoundTripEvaluationIsIdentical) {
  const auto original = core::TrustEvaluator::calibrate(make_set(30, false, 3));
  save_calibration(path_, original);
  const auto loaded = load_calibration(path_);

  const auto suspect = make_set(16, true, 4);
  const auto before = original.evaluate(suspect);
  const auto after = loaded.evaluate(suspect);

  EXPECT_EQ(after.verdict, before.verdict);
  ASSERT_EQ(after.stages.size(), before.stages.size());
  for (std::size_t s = 0; s < before.stages.size(); ++s) {
    EXPECT_EQ(after.stages[s].mean_score, before.stages[s].mean_score);
    EXPECT_EQ(after.stages[s].max_score, before.stages[s].max_score);
    EXPECT_EQ(after.stages[s].threshold, before.stages[s].threshold);
    EXPECT_EQ(after.stages[s].anomalous_fraction, before.stages[s].anomalous_fraction);
    EXPECT_EQ(after.stages[s].alarm, before.stages[s].alarm);
  }
  ASSERT_EQ(after.spectral.anomalies.size(), before.spectral.anomalies.size());
  for (std::size_t a = 0; a < before.spectral.anomalies.size(); ++a) {
    EXPECT_EQ(after.spectral.anomalies[a].frequency_hz, before.spectral.anomalies[a].frequency_hz);
    EXPECT_EQ(after.spectral.anomalies[a].ratio, before.spectral.anomalies[a].ratio);
    EXPECT_EQ(after.spectral.anomalies[a].kind, before.spectral.anomalies[a].kind);
  }
}

TEST_F(CalibrationArtifactTest, RonStackRoundTrips) {
  core::TrustEvaluator::Options options;
  options.detectors = {"euclidean", "spectral", "ron"};
  const auto original = core::TrustEvaluator::calibrate(make_set(30, false, 5), options);
  save_calibration(path_, original);
  const auto loaded = load_calibration(path_);

  ASSERT_EQ(loaded.detectors().size(), 3u);
  const auto* ron = loaded.find("ron");
  ASSERT_NE(ron, nullptr);
  emts::Rng rng{6};
  const core::Trace probe = golden_trace(rng);
  EXPECT_EQ(ron->score(probe), original.find("ron")->score(probe));
  EXPECT_EQ(ron->threshold(), original.find("ron")->threshold());
}

TEST_F(CalibrationArtifactTest, ColdStartMonitorSkipsCalibration) {
  save_calibration(path_, core::TrustEvaluator::calibrate(make_set(30, false, 7)));
  auto evaluator = load_calibration(path_);

  core::RuntimeMonitor::Options options;
  options.alarm_debounce = 3;
  options.spectral_window = 8;
  core::RuntimeMonitor monitor{evaluator.sample_rate(), std::move(evaluator), options};
  EXPECT_EQ(monitor.state(), core::MonitorState::kMonitoring);
  EXPECT_EQ(monitor.traces_seen(), 0u);

  emts::Rng rng{8};
  for (int i = 0; i < 8 && monitor.state() != core::MonitorState::kAlarm; ++i) {
    monitor.push(infected_trace(rng));
  }
  EXPECT_EQ(monitor.state(), core::MonitorState::kAlarm);
}

TEST_F(CalibrationArtifactTest, RejectsMissingFile) {
  EXPECT_THROW(load_calibration("/nonexistent/model.emca"), emts::precondition_error);
}

TEST_F(CalibrationArtifactTest, RejectsBadMagic) {
  save_calibration(path_, core::TrustEvaluator::calibrate(make_set(20, false, 9)));
  std::fstream file{path_, std::ios::binary | std::ios::in | std::ios::out};
  file.write("NOPE", 4);
  file.close();
  EXPECT_THROW(load_calibration(path_), emts::precondition_error);
}

TEST_F(CalibrationArtifactTest, RejectsWrongVersion) {
  save_calibration(path_, core::TrustEvaluator::calibrate(make_set(20, false, 10)));
  std::fstream file{path_, std::ios::binary | std::ios::in | std::ios::out};
  file.seekp(4);
  const std::uint32_t bogus = 42;
  file.write(reinterpret_cast<const char*>(&bogus), sizeof bogus);
  file.close();
  EXPECT_THROW(load_calibration(path_), emts::precondition_error);
}

TEST_F(CalibrationArtifactTest, RejectsTruncatedArtifact) {
  save_calibration(path_, core::TrustEvaluator::calibrate(make_set(20, false, 11)));
  const auto full_size = std::filesystem::file_size(path_);
  std::filesystem::resize_file(path_, full_size - 32);
  EXPECT_THROW(load_calibration(path_), emts::precondition_error);
}

TEST_F(CalibrationArtifactTest, RejectsTrailingGarbage) {
  save_calibration(path_, core::TrustEvaluator::calibrate(make_set(20, false, 12)));
  std::ofstream out{path_, std::ios::binary | std::ios::app};
  out << "garbage past the last detector payload";
  out.close();
  EXPECT_THROW(load_calibration(path_), emts::precondition_error);
}

TEST_F(CalibrationArtifactTest, RejectsAbsurdDetectorNameLength) {
  // EMCA header is 28 bytes (magic, version, two f64s, detector count); the
  // first detector's name-length u32 sits right after it. Declaring a name
  // the stream cannot hold must fail before any allocation.
  save_calibration(path_, core::TrustEvaluator::calibrate(make_set(20, false, 14)));
  std::fstream file{path_, std::ios::binary | std::ios::in | std::ios::out};
  file.seekp(28);
  const std::uint32_t huge = 0x7fffffffu;
  file.write(reinterpret_cast<const char*>(&huge), sizeof huge);
  file.close();
  EXPECT_THROW(load_calibration(path_), emts::precondition_error);
}

TEST_F(CalibrationArtifactTest, RejectsAbsurdDetectorPayloadSize) {
  // The length-framed detector payload (u64 after the 9-byte "euclidean"
  // name) is checked against the stream's remaining bytes before use.
  save_calibration(path_, core::TrustEvaluator::calibrate(make_set(20, false, 15)));
  std::fstream file{path_, std::ios::binary | std::ios::in | std::ios::out};
  file.seekp(28 + 4 + 9);
  const std::uint64_t huge = 1ull << 40;
  file.write(reinterpret_cast<const char*>(&huge), sizeof huge);
  file.close();
  EXPECT_THROW(load_calibration(path_), emts::precondition_error);
}

TEST_F(CalibrationArtifactTest, RejectsUnknownDetectorName) {
  save_calibration(path_, core::TrustEvaluator::calibrate(make_set(20, false, 13)));
  // The first detector name ("euclidean", u32 length 9 at byte 24) is
  // overwritten in place with an unregistered one of the same length.
  std::fstream file{path_, std::ios::binary | std::ios::in | std::ios::out};
  file.seekp(4 + 4 + 8 + 8 + 4 + 4);
  file.write("euclidoon", 9);
  file.close();
  EXPECT_THROW(load_calibration(path_), emts::precondition_error);
}

// ---------- seeded mutants of EMCA and EMAA ----------

using mutation::Field;
using mutation::read_le;

/// Records the u64 vector length at `at`; returns the offset past the vector.
std::size_t vector_field(const std::string& bytes, std::size_t at, std::vector<Field>& fields) {
  fields.push_back({at, 8});
  return at + 8 + 8 * read_le(bytes, at, 8);
}

/// Records the counts a detector payload at `at` is sized from.
void payload_fields(const std::string& bytes, const std::string& name, std::size_t at,
                    std::vector<Field>& fields) {
  if (name == "euclidean") {
    const std::size_t pca = at + 19;  // preprocessor options, residual flag
    const std::uint64_t d = read_le(bytes, pca, 8);
    const std::uint64_t k = read_le(bytes, pca + 8, 8);
    fields.push_back({pca, 8});
    fields.push_back({pca + 8, 8});
    const std::size_t eigenvalues = vector_field(bytes, pca + 24, fields);  // mean
    const std::size_t projections = vector_field(bytes, eigenvalues, fields) + 8 * d * k;
    const std::uint64_t count = read_le(bytes, projections, 8);
    const std::uint64_t dim = read_le(bytes, projections + 8, 8);
    fields.push_back({projections, 8});
    fields.push_back({projections + 8, 8});
    vector_field(bytes, projections + 16 + 8 * count * dim, fields);  // centroid
  } else if (name == "spectral") {
    const std::size_t amplitude = vector_field(bytes, at + 45, fields);  // frequencies
    fields.push_back({vector_field(bytes, amplitude, fields) + 8, 8});  // spots, past the floor
  } else {
    ASSERT_EQ(name, "ron");
    vector_field(bytes, vector_field(bytes, at + 16, fields), fields);  // mean, stddev
  }
}

/// Records the detector count, each detector's name length and payload size,
/// and each payload's counts of the EMCA artifact at `at`; returns the
/// offset just past it.
std::size_t emca_fields(const std::string& bytes, std::size_t at, std::vector<Field>& fields) {
  std::size_t cursor = at + 24;  // magic, version, sample rate, alarm fraction
  fields.push_back({cursor, 4});
  const std::uint64_t detectors = read_le(bytes, cursor, 4);
  cursor += 4;
  for (std::uint64_t d = 0; d < detectors; ++d) {
    fields.push_back({cursor, 4});
    const std::string name = bytes.substr(cursor + 4, read_le(bytes, cursor, 4));
    cursor += 4 + name.size();
    fields.push_back({cursor, 8});
    payload_fields(bytes, name, cursor + 8, fields);
    cursor += 8 + read_le(bytes, cursor, 8);
  }
  return cursor;
}

core::TrustEvaluator three_stage_stack() {
  core::TrustEvaluator::Options options;
  options.detectors = {"euclidean", "spectral", "ron"};
  return core::TrustEvaluator::calibrate(make_set(20, false, 30), options);
}

/// Loads `mutants` seeded mutants of `clean`: each must load or throw
/// precondition_error within the shared heap bound.
template <class Load>
void expect_mutants_load_or_refuse(const std::string& clean, const std::vector<Field>& fields,
                                   std::uint64_t seed, int mutants, Load load) {
  emts::Rng rng{seed};
  int refused = 0;
  for (int m = 0; m < mutants; ++m) {
    std::string mutant = clean;
    mutation::mutate(mutant, fields, rng);
    util::ByteReader in{mutant};
    if (mutation::decode_or_refuse(m, mutant.size(), [&] { load(in); })) ++refused;
  }
  // Aimed splices must mostly reach, and trip, the length checks.
  EXPECT_GT(refused, mutants / 2);
}

TEST_F(CalibrationArtifactTest, SeededMutantsLoadOrThrowPreconditionError) {
  std::string clean;
  util::ByteWriter out{clean};
  save_calibration(out, three_stage_stack());
  std::vector<Field> fields;
  ASSERT_EQ(emca_fields(clean, 0, fields), clean.size());
  expect_mutants_load_or_refuse(clean, fields, 0x454d4341 /* 'EMCA' */, 2000,
                                [](util::ByteReader& in) { load_calibration(in); });
}

TEST(ArrayArtifact, SeededMutantsLoadOrThrowPreconditionError) {
  array::ArrayCalibration calibration;
  calibration.grid.nx = 2;
  calibration.grid.ny = 2;
  calibration.sample_rate = kFs;
  const core::TrustEvaluator evaluator = three_stage_stack();
  for (std::size_t s = 0; s < 4; ++s) {
    calibration.sensors.push_back(
        array::SensorCalibration{evaluator, make_set(1, false, 40 + s).traces[0], 0.5});
  }
  std::string clean;
  util::ByteWriter out{clean};
  array::save_array_calibration(out, calibration);
  std::vector<Field> fields{{8, 4}, {12, 4}, {44, 4}};  // nx, ny, sensor count
  std::size_t cursor = 48;
  for (std::size_t s = 0; s < 4; ++s) {
    cursor = vector_field(clean, cursor, fields) + 8;  // golden mean, baseline residual
    cursor = emca_fields(clean, cursor, fields);
  }
  ASSERT_EQ(cursor, clean.size());
  expect_mutants_load_or_refuse(clean, fields, 0x454d4141 /* 'EMAA' */, 1000,
                                [](util::ByteReader& in) { array::load_array_calibration(in); });
}

// ---------- a valid load requests about its own size ----------

// Detector payloads are parsed in place, from memory or from the mapped
// file. Copying each payload into a std::string and again into a
// std::istringstream, a 166 KB artifact requested 3.1x (path) and 4.1x
// (memory, through a std::istringstream) its size.
TEST_F(CalibrationArtifactTest, ValidLoadRequestsLessThanTwiceItsSize) {
  if (!util::alloc::counting_active()) {
    GTEST_SKIP() << "allocation hooks disabled in this build (sanitizer)";
  }
  // Undecimated features give a 2048 x 8 PCA basis, so the artifact (about
  // 180 KB) outweighs the bound's 64 KiB slack.
  core::TrustEvaluator::Options options;
  options.detectors = {"euclidean", "spectral", "ron"};
  options.euclidean.preprocess.decimation = 1;
  save_calibration(path_, core::TrustEvaluator::calibrate(make_set(20, false, 30), options));
  std::ifstream file{path_, std::ios::binary};
  const std::string bytes{std::istreambuf_iterator<char>{file}, {}};
  const std::uint64_t bound = 2 * bytes.size() + 65536;

  std::uint64_t before = util::alloc::thread_counts().bytes;
  util::ByteReader in{bytes};
  load_calibration(in);
  EXPECT_LT(util::alloc::thread_counts().bytes - before, bound) << "from memory";

  before = util::alloc::thread_counts().bytes;
  load_calibration(path_);
  EXPECT_LT(util::alloc::thread_counts().bytes - before, bound) << "from its path";
}

// ---------- a save requests about its own size ----------

// The path form counts the artifact, reserves exactly that, encodes into it
// and writes it once. Staging each detector payload through a
// std::ostringstream and the file through a std::ofstream, this 166 KB
// artifact's save requested 4.6x its size.
TEST_F(CalibrationArtifactTest, SaveRequestsLessThanTwiceItsSize) {
  if (!util::alloc::counting_active()) {
    GTEST_SKIP() << "allocation hooks disabled in this build (sanitizer)";
  }
  core::TrustEvaluator::Options options;
  options.detectors = {"euclidean", "spectral", "ron"};
  options.euclidean.preprocess.decimation = 1;
  const core::TrustEvaluator evaluator =
      core::TrustEvaluator::calibrate(make_set(20, false, 30), options);

  const std::uint64_t before = util::alloc::thread_counts().bytes;
  save_calibration(path_, evaluator);
  const std::uint64_t requested = util::alloc::thread_counts().bytes - before;
  const std::uint64_t size = std::filesystem::file_size(path_);
  EXPECT_LT(requested, 2 * size + 65536) << size << " bytes";
}

}  // namespace
}  // namespace emts::io
