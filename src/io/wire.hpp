// Wire protocol for the fleet ingest daemon: a versioned, length-prefixed,
// checksummed binary frame carrying one (device_id, trace) capture. This is
// the trace-archive sample format (little-endian float64) re-hosted behind a
// framing header so captures can stream over a byte pipe (unix/TCP socket)
// instead of arriving as a whole file. Format "EMWF" v2 (docs/FORMATS.md):
//
//   u32   magic 'E''M''W''F' (little-endian 0x46574d45)
//   u8    version (2)
//   u8    frame type (1 = trace, 2 = hello)
//   u16   reserved (0)
//   u32   payload byte count
//   bytes payload
//   u64   XXH64 (seed 0) checksum of the payload bytes
//
// Trace payload (type 1):
//   string device_id (u32 byte count + bytes)
//   f64    sample rate, Hz
//   u32    sample count
//   f64    samples
//
// Hello payload (type 2 — connection auth for the TCP transport):
//   string auth token (u32 byte count + bytes, 1..4096)
//
// A HELLO carries the client's shared-secret token and, when the daemon is
// configured with one, must be the first frame on a TCP connection; trace
// frames before a successful HELLO close the connection without ingesting.
//
// Every declared length is hard-capped and cross-checked (the payload length
// must agree exactly with the sample count), so a corrupt or adversarial
// stream is rejected with a clear error instead of triggering a pathological
// allocation. The checksum catches torn writes: a daemon restarting mid-frame
// must never score half a capture. v1 frames, whose checksum was the
// byte-serial FNV-1a, are refused with their version named.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/trace.hpp"

namespace emts::io::wire {

inline constexpr std::uint32_t kMagic = 0x46574d45u;  // 'EMWF' little-endian
inline constexpr std::uint8_t kVersion = 2;
inline constexpr std::uint8_t kFrameTrace = 1;
inline constexpr std::uint8_t kFrameHello = 2;

/// Auth tokens ride in a u32-prefixed string like device ids, same cap.
inline constexpr std::uint32_t kMaxAuthTokenBytes = 4096;

/// Hard cap on a frame's declared payload (16 MiB ~ 2M samples): the decoder
/// refuses anything larger before buffering or allocating.
inline constexpr std::uint32_t kMaxFramePayload = 1u << 24;

/// Bytes of framing around a payload (header + trailing checksum).
inline constexpr std::size_t kFrameOverhead = 12 + 8;

/// One decoded trace frame.
struct TraceFrame {
  std::string device_id;
  double sample_rate = 0.0;
  core::Trace trace;
};

/// Kind tag for the generic decode path (values match the wire frame type).
enum class FrameKind : std::uint8_t {
  kTrace = kFrameTrace,
  kHello = kFrameHello,
};

/// One decoded frame of any kind; exactly the member named by `kind` is
/// meaningful.
struct Frame {
  FrameKind kind = FrameKind::kTrace;
  TraceFrame trace;        // kind == kTrace
  std::string auth_token;  // kind == kHello
};

/// Appends one encoded trace frame to `out` (reuse the buffer across calls
/// to amortize its allocation). The span form frames samples straight out of
/// a mapped archive without an intermediate Trace copy.
void encode_trace_frame(const TraceFrame& frame, std::string& out);
void encode_trace_frame(const std::string& device_id, double sample_rate,
                        const double* samples, std::size_t count, std::string& out);

/// Appends one encoded HELLO auth frame (token 1..4096 bytes) to `out`.
void encode_hello_frame(const std::string& auth_token, std::string& out);

/// Incremental frame parser for a socket byte stream. feed() appends raw
/// bytes; next() pops complete frames in arrival order. The decoder owns a
/// compacting buffer, so partial frames straddling read() boundaries are
/// handled transparently.
class FrameDecoder {
 public:
  /// Bytes are copied into the internal buffer.
  void feed(const char* data, std::size_t size);

  /// Extracts the next complete frame of any kind into `out`. Returns false
  /// when the buffered bytes do not yet hold a full frame (feed more).
  /// Throws precondition_error on a malformed stream — bad magic,
  /// unsupported version or frame type, absurd or inconsistent declared
  /// lengths, or a checksum mismatch — after which the connection must be
  /// dropped (the stream has no recoverable framing).
  bool next(Frame& out);

  /// Trace-only convenience for callers that do not speak auth (benches,
  /// replay paths): like next(Frame&), but a HELLO frame in the stream is a
  /// precondition_error.
  bool next(TraceFrame& out);

  /// Bytes buffered but not yet consumed by next().
  std::size_t buffered() const { return buffer_.size() - consumed_; }

  /// Complete frames handed out over this decoder's lifetime.
  std::uint64_t frames_decoded() const { return frames_decoded_; }

 private:
  std::vector<char> buffer_;
  std::size_t consumed_ = 0;  // prefix of buffer_ already handed out
  std::uint64_t frames_decoded_ = 0;
};

}  // namespace emts::io::wire
