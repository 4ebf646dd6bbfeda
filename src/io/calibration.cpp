#include "io/calibration.hpp"

#include <cmath>
#include <cstdint>
#include <fstream>
#include <sstream>
#include <vector>

#include "core/detector.hpp"
#include "io/mapped_file.hpp"
#include "util/assert.hpp"

namespace emts::io {

namespace {

constexpr char kMagic[4] = {'E', 'M', 'C', 'A'};
constexpr std::uint32_t kVersion = 1;
constexpr std::uint32_t kMaxDetectors = 64;

}  // namespace

void save_calibration(std::ostream& out, const core::TrustEvaluator& evaluator) {
  out.write(kMagic, sizeof kMagic);
  util::write_u32(out, kVersion);
  util::write_f64(out, evaluator.sample_rate());
  util::write_f64(out, evaluator.options().anomalous_fraction_alarm);
  util::write_u32(out, static_cast<std::uint32_t>(evaluator.detectors().size()));

  for (const auto& detector : evaluator.detectors()) {
    // Serialize to a scratch buffer first: the payload is length-framed so
    // the loader can verify exact consumption per detector.
    std::ostringstream payload{std::ios::binary};
    detector->save(payload);
    const std::string bytes = payload.str();
    util::write_string(out, detector->name());
    util::write_u64(out, bytes.size());
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  EMTS_REQUIRE(out.good(), "save_calibration: write failed");
}

void save_calibration(const std::string& path, const core::TrustEvaluator& evaluator) {
  std::ofstream out{path, std::ios::binary};
  EMTS_REQUIRE(out.good(), "save_calibration: cannot open " + path);
  save_calibration(out, evaluator);
  EMTS_REQUIRE(out.good(), "save_calibration: write failed for " + path);
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
