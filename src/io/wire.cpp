#include "io/wire.hpp"

#include <cmath>
#include <cstring>
#include <string>

#include "util/assert.hpp"
#include "util/binio.hpp"
#include "util/xxh64.hpp"

namespace emts::io::wire {

namespace {

// Device ids ride in a u32-prefixed string; anything beyond this is a
// corrupt frame, not a plausible fleet identifier.
constexpr std::uint32_t kMaxDeviceIdBytes = 4096;

void append_raw(std::string& out, const void* data, std::size_t size) {
  out.append(static_cast<const char*>(data), size);
}

template <typename T>
void append_scalar(std::string& out, T value) {
  append_raw(out, &value, sizeof value);
}

}  // namespace

void encode_trace_frame(const TraceFrame& frame, std::string& out) {
  encode_trace_frame(frame.device_id, frame.sample_rate, frame.trace.data(),
                     frame.trace.size(), out);
}

void encode_trace_frame(const std::string& device_id, double sample_rate,
                        const double* samples, std::size_t count, std::string& out) {
  EMTS_REQUIRE(!device_id.empty() && device_id.size() <= kMaxDeviceIdBytes,
               "wire: device id must be 1..4096 bytes");
  EMTS_REQUIRE(count > 0, "wire: cannot frame an empty trace");
  EMTS_REQUIRE(std::isfinite(sample_rate) && sample_rate > 0.0,
               "wire: frame needs a positive, finite sample rate");
  const std::size_t payload_size =
      sizeof(std::uint32_t) + device_id.size() + sizeof(double) + sizeof(std::uint32_t) +
      count * sizeof(double);
  EMTS_REQUIRE(payload_size <= kMaxFramePayload, "wire: trace too large for one frame");

  append_scalar(out, kMagic);
  append_scalar(out, kVersion);
  append_scalar(out, kFrameTrace);
  append_scalar(out, std::uint16_t{0});
  append_scalar(out, static_cast<std::uint32_t>(payload_size));

  const std::size_t payload_start = out.size();
  append_scalar(out, static_cast<std::uint32_t>(device_id.size()));
  append_raw(out, device_id.data(), device_id.size());
  append_scalar(out, sample_rate);
  append_scalar(out, static_cast<std::uint32_t>(count));
  append_raw(out, samples, count * sizeof(double));

  append_scalar(out, util::xxh64(out.data() + payload_start, payload_size));
}

void encode_hello_frame(const std::string& auth_token, std::string& out) {
  EMTS_REQUIRE(!auth_token.empty() && auth_token.size() <= kMaxAuthTokenBytes,
               "wire: auth token must be 1..4096 bytes");
  const std::size_t payload_size = sizeof(std::uint32_t) + auth_token.size();

  append_scalar(out, kMagic);
  append_scalar(out, kVersion);
  append_scalar(out, kFrameHello);
  append_scalar(out, std::uint16_t{0});
  append_scalar(out, static_cast<std::uint32_t>(payload_size));

  const std::size_t payload_start = out.size();
  append_scalar(out, static_cast<std::uint32_t>(auth_token.size()));
  append_raw(out, auth_token.data(), auth_token.size());

  append_scalar(out, util::xxh64(out.data() + payload_start, payload_size));
}

void FrameDecoder::feed(const char* data, std::size_t size) {
  // Compact once the consumed prefix dominates, so a long-lived connection
  // never grows the buffer beyond a few frames.
  if (consumed_ > 0 && consumed_ >= buffer_.size() / 2) {
    buffer_.erase(buffer_.begin(),
                  buffer_.begin() + static_cast<std::ptrdiff_t>(consumed_));
    consumed_ = 0;
  }
  buffer_.insert(buffer_.end(), data, data + size);
}

namespace {

// Every sub-length must land exactly on the payload's end, or the frame
// lies about its own shape.
void parse_trace_payload(util::ByteReader& in, TraceFrame& out) {
  const std::size_t id_bytes = in.count_u32(kMaxDeviceIdBytes, 1, "wire: device id size");
  EMTS_REQUIRE(id_bytes >= 1, "wire: empty device id");
  const std::span<const std::byte> id = in.bytes(id_bytes);
  out.device_id.assign(reinterpret_cast<const char*>(id.data()), id_bytes);
  out.sample_rate = in.f64();
  EMTS_REQUIRE(std::isfinite(out.sample_rate) && out.sample_rate > 0.0,
               "wire: frame has a non-positive sample rate");
  const std::uint32_t sample_count = in.u32();
  EMTS_REQUIRE(sample_count > 0, "wire: frame holds an empty trace");
  EMTS_REQUIRE(sample_count * sizeof(double) == in.remaining(),
               "wire: frame sample count disagrees with payload size");
  out.trace.resize(sample_count);
  const std::span<const std::byte> samples = in.bytes(sample_count * sizeof(double));
  std::memcpy(out.trace.data(), samples.data(), samples.size());
}

void parse_hello_payload(util::ByteReader& in, std::string& out) {
  out = in.string();
  EMTS_REQUIRE(!out.empty() && out.size() <= kMaxAuthTokenBytes,
               "wire: implausible auth token size");
  in.expect_end("wire: hello payload");
}

}  // namespace

bool FrameDecoder::next(Frame& out) {
  util::ByteReader in{std::string_view{buffer_.data() + consumed_, buffered()}};
  if (in.remaining() < 12) return false;  // header not yet complete
  EMTS_REQUIRE(in.u32() == kMagic, "wire: bad frame magic");
  const std::uint8_t version = in.u8();
  EMTS_REQUIRE(version == kVersion,
               "wire: unsupported frame version " + std::to_string(version) +
                   " (expected 2; v1 frames carry the FNV-1a checksum)");
  const std::uint8_t frame_type = in.u8();
  EMTS_REQUIRE(frame_type == kFrameTrace || frame_type == kFrameHello,
               "wire: unknown frame type");
  in.bytes(2);  // reserved
  const std::uint32_t payload_size = in.u32();
  EMTS_REQUIRE(payload_size <= kMaxFramePayload, "wire: implausible frame payload size");

  if (in.remaining() < static_cast<std::size_t>(payload_size) + 8) return false;
  const std::span<const std::byte> payload_bytes = in.bytes(payload_size);
  const std::uint64_t declared_sum = in.u64();
  EMTS_REQUIRE(util::xxh64(payload_bytes.data(), payload_size) == declared_sum,
               "wire: frame checksum mismatch");

  util::ByteReader payload{payload_bytes};
  if (frame_type == kFrameTrace) {
    out.kind = FrameKind::kTrace;
    parse_trace_payload(payload, out.trace);
  } else {
    out.kind = FrameKind::kHello;
    parse_hello_payload(payload, out.auth_token);
  }

  consumed_ += 12 + payload_size + 8;
  ++frames_decoded_;
  return true;
}

bool FrameDecoder::next(TraceFrame& out) {
  Frame frame;
  if (!next(frame)) return false;
  // Trace-only callers have no auth state to update; a HELLO here means the
  // peer is speaking the authenticated dialect at an endpoint that does not.
  EMTS_REQUIRE(frame.kind == FrameKind::kTrace,
               "wire: unexpected HELLO frame on a trace-only stream");
  out = std::move(frame.trace);
  return true;
}

}  // namespace emts::io::wire
