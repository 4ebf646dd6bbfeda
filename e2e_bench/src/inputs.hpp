// What the workloads share: simulated chip captures (generated before any
// clock starts), pre-encoded EMWF frames, the generator's socket client and
// closed-loop verdict wait, the daemon's server thread, and the traced
// stand-ins for its read path and for a session's push.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "core/evaluator.hpp"
#include "core/monitor.hpp"
#include "core/trace.hpp"
#include "fleet/fleet.hpp"
#include "fleet/server.hpp"
#include "sim/chip.hpp"

namespace e2e {

/// Threads of the capture engine that generates inputs (fixed, never taken
/// from the host).
inline constexpr std::size_t kGeneratorThreads = 2;

/// Captures of one simulated chip: a golden calibration campaign, a golden
/// runtime pool and a T2-armed runtime pool. Window indices derive from the
/// seed, so every seed draws fresh noise realizations of the same device.
struct ChipPools {
  double sample_rate = 0.0;
  emts::core::TraceSet campaign;  // golden calibration captures
  emts::core::TraceSet golden;    // golden runtime captures
  emts::core::TraceSet armed;     // T2-armed runtime captures
};
ChipPools make_chip_pools(std::uint64_t seed, std::size_t campaign, std::size_t golden,
                          std::size_t armed);

/// One EMWF trace frame, encoded.
std::string encode_frame(const std::string& device_id, double sample_rate,
                         const emts::core::Trace& trace);

/// Fixed device ids "<prefix>-NN".
std::vector<std::string> device_ids(const std::string& prefix, std::size_t count);

/// Blocking client connection to the daemon's unix socket (or one end of a
/// socketpair, adopted).
class SocketClient {
 public:
  explicit SocketClient(const std::string& path);
  explicit SocketClient(int connected_fd) : fd_{connected_fd} {}
  ~SocketClient();
  SocketClient(const SocketClient&) = delete;
  SocketClient& operator=(const SocketClient&) = delete;

  /// One write() per call in the common case; loops only on short writes.
  void write_all(const std::string& bytes);
  void close();

 private:
  int fd_ = -1;
};

/// Closed-loop verdict wait: sleeps until the round is expected to be done,
/// then polls FleetMonitor::stats() with sleeps in between (never spins — a
/// spinning poller steals a core from the shard workers and takes their
/// exec mutexes back to back). The schedule adapts to the recent round
/// latency so each round costs two or three polls.
class VerdictWaiter {
 public:
  explicit VerdictWaiter(const emts::fleet::FleetMonitor& fleet) : fleet_{fleet} {}

  /// Blocks until traces_processed >= target; returns the time (now_ns) the
  /// completing poll returned. Throws if `timeout_ns` passes first.
  std::uint64_t wait(std::uint64_t target, std::uint64_t round_start_ns,
                     std::uint64_t timeout_ns = 20'000'000'000ull);

  std::uint64_t polls() const { return polls_; }

 private:
  const emts::fleet::FleetMonitor& fleet_;
  double expected_ns_ = 0.0;  // smoothed recent round latency
  std::uint64_t polls_ = 0;
};

/// Process CPU time of every thread but the calling one, in seconds: called
/// from the generator thread, the daemon's CPU (server loop and shard
/// workers), which is what an operator pays per stream.
double daemon_cpu_s();

/// Summed counters of a standalone replay's monitors.
struct ReplayCounts {
  std::uint64_t spectral_passes = 0;
  std::uint64_t alarms_latched = 0;
  std::uint64_t per_trace_anomalies = 0;
};

/// Replays device streams (streams[d][i], interleaved i-major the way the
/// generator sends them), each through its own pre-fitted RuntimeMonitor,
/// with sibling calls into the steps a push runs. Records wall and CPU
/// spans "core.push", "core.preprocess" (Preprocessor::features_into),
/// "core.euclidean" (EuclideanDetector::score_buffered),
/// "dsp.stream_transform" (SpectrumAnalyzer::stream_transform) and, at each
/// spectral-window boundary, "core.stream_finish".
ReplayCounts replay_streams(const emts::core::TrustEvaluator& evaluator, double sample_rate,
                            const emts::core::RuntimeMonitor::Options& options,
                            const std::vector<std::vector<const emts::core::Trace*>>& streams,
                            SpanRecorder& spans);

/// Sleeps in 1 ms steps until traces_processed >= target (the end of a
/// saturating phase); returns the time of the completing poll.
std::uint64_t wait_processed(const emts::fleet::FleetMonitor& fleet, std::uint64_t target);

/// Fleet counters at one instant; deltas of two samples describe a phase.
struct FleetSample {
  std::vector<std::uint64_t> processed;  // per shard
  std::vector<std::uint64_t> blocked;    // per shard
  std::size_t queue_high_water = 0;      // max over shards (lifetime)
  std::uint64_t push_ns = 0;             // summed session push wall time
  std::uint64_t pushes = 0;

  static FleetSample take(const emts::fleet::FleetMonitor& fleet);
};

/// The traced stand-in for IngestServer's read path: the benchmark's own
/// thread reads the socket in 64 KiB chunks like the daemon does, feeds
/// io::wire::FrameDecoder, drains next() and hands each chunk's frames to
/// FleetMonitor::submit_frames, with a span around each of those calls.
/// Runs until the peer closes its end.
class TracedIngestLoop {
 public:
  TracedIngestLoop(emts::fleet::FleetMonitor& fleet, int fd);
  ~TracedIngestLoop();
  TracedIngestLoop(const TracedIngestLoop&) = delete;
  TracedIngestLoop& operator=(const TracedIngestLoop&) = delete;

  /// Waits for the peer's EOF; rethrows anything the loop threw.
  void join();

  const SpanRecorder& spans() const { return spans_; }
  std::uint64_t frames() const { return frames_; }
  std::uint64_t bytes() const { return bytes_; }
  std::uint64_t rejected() const { return rejected_; }
  /// The loop thread's CPU time (valid after join()).
  std::uint64_t cpu_ns() const { return cpu_ns_; }

 private:
  void run();

  emts::fleet::FleetMonitor& fleet_;
  int fd_;
  SpanRecorder spans_;
  std::uint64_t frames_ = 0;
  std::uint64_t bytes_ = 0;
  std::uint64_t rejected_ = 0;
  std::uint64_t cpu_ns_ = 0;
  std::exception_ptr error_;
  std::thread thread_;
};

/// Runs IngestServer::run on its own thread; stop() requests the clean
/// shutdown (drain, flush, final snapshot and stats), joins, and rethrows
/// anything the server loop threw.
class ServerThread {
 public:
  explicit ServerThread(emts::fleet::IngestServer& server);
  ~ServerThread();
  ServerThread(const ServerThread&) = delete;
  ServerThread& operator=(const ServerThread&) = delete;

  void stop();

 private:
  std::atomic<bool> stop_{false};
  std::atomic<bool> snapshot_request_{false};
  std::exception_ptr error_;
  std::thread thread_;
};

}  // namespace e2e
