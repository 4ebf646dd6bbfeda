#include "io/calibration.hpp"

#include <cmath>
#include <cstdint>
#include <vector>

#include "core/detector.hpp"
#include "io/file_writer.hpp"
#include "io/mapped_file.hpp"
#include "util/assert.hpp"

namespace emts::io {

namespace {

constexpr char kMagic[4] = {'E', 'M', 'C', 'A'};
constexpr std::uint32_t kVersion = 1;
constexpr std::uint32_t kMaxDetectors = 64;

}  // namespace

void save_calibration(util::ByteWriter& out, const core::TrustEvaluator& evaluator) {
  out.magic(kMagic);
  out.u32(kVersion);
  out.f64(evaluator.sample_rate());
  out.f64(evaluator.options().anomalous_fraction_alarm);
  out.u32(static_cast<std::uint32_t>(evaluator.detectors().size()));
  for (const auto& detector : evaluator.detectors()) {
    // Length-framed so the loader can verify exact consumption per detector.
    out.string(detector->name());
    const util::ByteWriter::Frame payload = out.begin_frame();
    detector->save(out);
    out.end_frame(payload);
  }
}

void save_calibration(const std::string& path, const core::TrustEvaluator& evaluator) {
  std::string bytes;
  util::encode_exact(bytes, [&](util::ByteWriter& out) { save_calibration(out, evaluator); });
  FileWriter file{path, "save_calibration"};
  file.write(bytes);
  file.close();
}

core::TrustEvaluator load_calibration(util::ByteReader& in) {
  in.expect_magic(kMagic, "load_calibration");
  const std::uint32_t version = in.u32();
  EMTS_REQUIRE(version == kVersion, "load_calibration: unsupported version");

  const double sample_rate = in.f64();
  EMTS_REQUIRE(std::isfinite(sample_rate) && sample_rate > 0.0,
               "load_calibration: bad sample rate");
  const double alarm_fraction = in.f64();
  EMTS_REQUIRE(std::isfinite(alarm_fraction) && alarm_fraction > 0.0 && alarm_fraction <= 1.0,
               "load_calibration: bad alarm fraction");
  // Each detector carries at least its name length and payload size.
  const std::size_t count = in.count_u32(kMaxDetectors, 4 + 8, "load_calibration: detector count");
  EMTS_REQUIRE(count >= 1, "load_calibration: bad detector count");

  std::vector<std::shared_ptr<const core::Detector>> detectors;
  detectors.reserve(count);
  for (std::size_t d = 0; d < count; ++d) {
    const std::string name = in.string();
    // The payload is parsed in place through a reader that ends with it, so
    // a detector loader can neither copy it nor read into the next frame.
    util::ByteReader payload = in.take(in.u64());
    detectors.push_back(core::load_detector(name, payload));
    payload.expect_end("load_calibration: payload for '" + name + "'");
  }
  return core::TrustEvaluator::assemble(std::move(detectors), alarm_fraction, sample_rate);
}

core::TrustEvaluator load_calibration(const std::string& path) {
  const MappedFile file{path, "load_calibration"};
  util::ByteReader in{file.bytes()};
  core::TrustEvaluator evaluator = load_calibration(in);
  in.expect_end("load_calibration: " + path);
  return evaluator;
}

}  // namespace emts::io
