#include "io/calibration.hpp"

#include <cmath>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <sstream>
#include <vector>

#include "core/detector.hpp"
#include "util/assert.hpp"
#include "util/binio.hpp"

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

core::TrustEvaluator load_calibration(std::istream& in) {
  char magic[4] = {};
  in.read(magic, sizeof magic);
  EMTS_REQUIRE(in.gcount() == sizeof magic, "load_calibration: truncated header");
  EMTS_REQUIRE(std::memcmp(magic, kMagic, sizeof magic) == 0,
               "load_calibration: bad magic");
  const std::uint32_t version = util::read_u32(in);
  EMTS_REQUIRE(version == kVersion, "load_calibration: unsupported version");

  const double sample_rate = util::read_f64(in);
  EMTS_REQUIRE(std::isfinite(sample_rate) && sample_rate > 0.0,
               "load_calibration: bad sample rate");
  const double alarm_fraction = util::read_f64(in);
  EMTS_REQUIRE(std::isfinite(alarm_fraction) && alarm_fraction > 0.0 && alarm_fraction <= 1.0,
               "load_calibration: bad alarm fraction");
  const std::uint32_t count = util::read_u32(in);
  EMTS_REQUIRE(count >= 1 && count <= kMaxDetectors, "load_calibration: bad detector count");

  std::vector<std::shared_ptr<const core::Detector>> detectors;
  detectors.reserve(count);
  for (std::uint32_t d = 0; d < count; ++d) {
    const std::string name = util::read_string(in);
    const std::uint64_t payload_size = util::read_u64(in);
    // A declared payload the stream cannot possibly hold is a corrupt
    // header; refuse it before the allocation it would otherwise trigger.
    EMTS_REQUIRE(payload_size <= util::stream_remaining(in),
                 "load_calibration: payload size for '" + name +
                     "' exceeds remaining bytes");

    std::string bytes(static_cast<std::size_t>(payload_size), '\0');
    in.read(bytes.data(), static_cast<std::streamsize>(payload_size));
    EMTS_REQUIRE(in.gcount() == static_cast<std::streamsize>(payload_size),
                 "load_calibration: truncated payload for '" + name + "'");

    std::istringstream payload{bytes, std::ios::binary};
    auto detector = core::load_detector(name, payload);
    EMTS_REQUIRE(payload.peek() == std::istringstream::traits_type::eof(),
                 "load_calibration: unconsumed payload bytes for '" + name + "'");
    detectors.push_back(std::move(detector));
  }
  return core::TrustEvaluator::assemble(std::move(detectors), alarm_fraction, sample_rate);
}

core::TrustEvaluator load_calibration(const std::string& path) {
  std::ifstream in{path, std::ios::binary};
  EMTS_REQUIRE(in.good(), "load_calibration: cannot open " + path);
  core::TrustEvaluator evaluator = load_calibration(in);
  EMTS_REQUIRE(in.peek() == std::ifstream::traits_type::eof(),
               "load_calibration: trailing bytes in " + path);
  return evaluator;
}

}  // namespace emts::io
