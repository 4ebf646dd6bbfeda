#include "inputs.hpp"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <stdexcept>

#include "common.hpp"
#include "core/ring.hpp"
#include "io/wire.hpp"
#include "sim/engine.hpp"

namespace e2e {

using namespace emts;

ChipPools make_chip_pools(std::uint64_t seed, std::size_t campaign, std::size_t golden,
                          std::size_t armed) {
  sim::EngineOptions engine_options;
  engine_options.threads = kGeneratorThreads;
  const sim::CaptureEngine engine{engine_options};
  // 40-bit window bases: disjoint per pool, fresh per seed.
  const auto base = [seed](std::uint64_t label) { return derive(seed, label) >> 24; };

  ChipPools pools;
  const sim::Chip chip{sim::make_default_config()};
  pools.campaign = engine.capture_batch(chip, sim::Pickup::kOnChipSensor, campaign, base(1));
  pools.golden = engine.capture_batch(chip, sim::Pickup::kOnChipSensor, golden, base(2));
  sim::Chip infected{sim::make_default_config()};
  infected.arm(trojan::TrojanKind::kT2Leakage);
  pools.armed = engine.capture_batch(infected, sim::Pickup::kOnChipSensor, armed, base(3));
  pools.sample_rate = chip.sample_rate();
  return pools;
}

std::string encode_frame(const std::string& device_id, double sample_rate,
                         const core::Trace& trace) {
  std::string bytes;
  io::wire::encode_trace_frame(device_id, sample_rate, trace.data(), trace.size(), bytes);
  return bytes;
}

std::vector<std::string> device_ids(const std::string& prefix, std::size_t count) {
  std::vector<std::string> ids;
  for (std::size_t i = 0; i < count; ++i) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%s-%02zu", prefix.c_str(), i);
    ids.emplace_back(buf);
  }
  return ids;
}

SocketClient::SocketClient(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof addr.sun_path) throw std::runtime_error("socket path too long");
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd_ < 0) throw std::runtime_error("socket() failed");
  if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
    const std::string why = std::strerror(errno);
    ::close(fd_);
    fd_ = -1;
    throw std::runtime_error("connect(" + path + ") failed: " + why);
  }
}

SocketClient::~SocketClient() { close(); }

void SocketClient::write_all(const std::string& bytes) {
  const char* data = bytes.data();
  std::size_t left = bytes.size();
  while (left > 0) {
    const ssize_t n = ::write(fd_, data, left);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error(std::string("client write failed: ") + std::strerror(errno));
    }
    data += n;
    left -= static_cast<std::size_t>(n);
  }
}

void SocketClient::close() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
}

std::uint64_t VerdictWaiter::wait(std::uint64_t target, std::uint64_t round_start_ns,
                                  std::uint64_t timeout_ns) {
  // First poll a little before the expected completion, then poll at a
  // twentieth of the expected latency (50 us .. 2 ms).
  const double expected = expected_ns_ > 0.0 ? expected_ns_ : 1e6;
  const auto step = static_cast<std::uint64_t>(std::clamp(expected / 20.0, 50e3, 2e6));
  std::uint64_t next = round_start_ns + static_cast<std::uint64_t>(0.85 * expected);
  for (;;) {
    sleep_until_ns(next);
    ++polls_;
    const std::uint64_t processed = fleet_.stats().traces_processed;
    const std::uint64_t t = now_ns();
    if (processed >= target) {
      const double latency = static_cast<double>(t - round_start_ns);
      expected_ns_ = expected_ns_ > 0.0 ? 0.9 * expected_ns_ + 0.1 * latency : latency;
      return t;
    }
    if (t - round_start_ns > timeout_ns) {
      throw std::runtime_error("verdicts never arrived (processed " + std::to_string(processed) +
                               " of " + std::to_string(target) + ")");
    }
    next = t + step;
  }
}

ReplayCounts replay_streams(const core::TrustEvaluator& evaluator, double sample_rate,
                            const core::RuntimeMonitor::Options& options,
                            const std::vector<std::vector<const core::Trace*>>& streams,
                            SpanRecorder& spans) {
  const core::EuclideanDetector& euclidean = evaluator.euclidean();
  const core::SpectralDetector& spectral = evaluator.spectral();
  std::vector<core::RuntimeMonitor> monitors;
  for (std::size_t d = 0; d < streams.size(); ++d) {
    monitors.emplace_back(sample_rate, core::TrustEvaluator{evaluator}, options);
  }
  core::ScoreScratch score_scratch;
  std::vector<double> work, aux, aux2, features, amplitudes;
  dsp::SpectrumAnalyzer analyzer{spectral.options().spectrum};
  analyzer.ensure_stream(streams.front().front()->size(), sample_rate);
  core::TraceRing ring{options.spectral_window};
  core::SpectralDetector::SpectralScratch spectral_scratch = spectral.make_scratch();
  std::uint64_t id = 0;
  for (std::size_t i = 0; i < streams.front().size(); ++i) {
    for (std::size_t d = 0; d < streams.size(); ++d, ++id) {
      const core::Trace& trace = *streams[d][i];
      std::int32_t span = spans.begin("core.push", id);
      monitors[d].push(trace);
      spans.end(span);
      span = spans.begin("core.preprocess", id);
      euclidean.preprocessor().features_into(trace, work, aux, aux2, features);
      spans.end(span);
      span = spans.begin("core.euclidean", id);
      euclidean.score_buffered(trace, score_scratch);
      spans.end(span);
      span = spans.begin("dsp.stream_transform", id);
      analyzer.stream_transform(trace, amplitudes);
      spans.end(span);
      ring.push(trace);
      spectral.stream_observe(ring, sample_rate, spectral_scratch);
      if (ring.size() == options.spectral_window) {
        bool rebuilt = false;
        span = spans.begin("core.stream_finish", id);
        spectral.stream_finish(ring, sample_rate, spectral_scratch,
                               options.spectral_rebuild_every, rebuilt);
        spans.end(span);
        ring.clear();
        spectral_scratch.analyzer.stream_reset();
      }
    }
  }
  ReplayCounts counts;
  for (const core::RuntimeMonitor& monitor : monitors) {
    counts.spectral_passes += monitor.stats().spectral_passes;
    counts.alarms_latched += monitor.stats().alarms_latched;
    counts.per_trace_anomalies += monitor.stats().per_trace_anomalies;
  }
  return counts;
}

double daemon_cpu_s() {
  return process_cpu_s() - static_cast<double>(thread_cpu_ns()) * 1e-9;
}

std::uint64_t wait_processed(const fleet::FleetMonitor& fleet, std::uint64_t target) {
  const std::uint64_t start = now_ns();
  for (;;) {
    const std::uint64_t processed = fleet.stats().traces_processed;
    const std::uint64_t t = now_ns();
    if (processed >= target) return t;
    if (t - start > 60'000'000'000ull) {
      throw std::runtime_error("fleet never drained (processed " + std::to_string(processed) +
                               " of " + std::to_string(target) + ")");
    }
    sleep_until_ns(t + 1'000'000);
  }
}

FleetSample FleetSample::take(const fleet::FleetMonitor& fleet) {
  const fleet::FleetStats stats = fleet.stats();
  FleetSample sample;
  for (const fleet::ShardStats& shard : stats.shards) {
    sample.processed.push_back(shard.processed);
    sample.blocked.push_back(shard.blocked);
    sample.queue_high_water = std::max(sample.queue_high_water, shard.queue_high_water);
  }
  for (const fleet::SessionStats& session : stats.sessions) {
    sample.push_ns += session.monitor.push_latency.total_ns();
    sample.pushes += session.monitor.push_latency.count();
  }
  return sample;
}

TracedIngestLoop::TracedIngestLoop(fleet::FleetMonitor& fleet, int fd)
    : fleet_{fleet}, fd_{fd}, spans_{1 << 18}, thread_{[this] {
        try {
          run();
        } catch (...) {
          error_ = std::current_exception();
        }
      }} {}

TracedIngestLoop::~TracedIngestLoop() {
  if (thread_.joinable()) thread_.join();
  if (fd_ >= 0) ::close(fd_);
}

void TracedIngestLoop::join() {
  if (thread_.joinable()) thread_.join();
  if (error_) std::rethrow_exception(error_);
}

void TracedIngestLoop::run() {
  std::vector<char> buffer(64 * 1024);
  io::wire::FrameDecoder decoder;
  std::vector<io::wire::TraceFrame> batch;
  const std::uint64_t cpu0 = thread_cpu_ns();
  for (std::uint64_t chunk = 0;; ++chunk) {
    const std::int32_t recv_span = spans_.begin("io.recv", chunk);
    const ssize_t got = ::recv(fd_, buffer.data(), buffer.size(), 0);
    spans_.end(recv_span);
    if (got < 0 && errno == EINTR) continue;
    if (got < 0) throw std::runtime_error("traced loop: recv failed");
    if (got == 0) break;
    bytes_ += static_cast<std::uint64_t>(got);

    const std::int32_t feed_span = spans_.begin("io.feed", chunk);
    decoder.feed(buffer.data(), static_cast<std::size_t>(got));
    spans_.end(feed_span);
    batch.clear();
    for (;;) {
      io::wire::TraceFrame frame;
      const std::int32_t next_span =
          spans_.begin("io.next", frames_ + batch.size());
      const bool complete = decoder.next(frame);
      spans_.end(next_span);
      if (!complete) break;
      batch.push_back(std::move(frame));
    }
    if (!batch.empty()) {
      const std::size_t n = batch.size();
      const std::int32_t submit_span =
          spans_.begin("fleet.submit_frames", chunk);
      const fleet::FrameBatchOutcome outcome = fleet_.submit_frames(std::move(batch));
      spans_.end(submit_span);
      frames_ += n;
      rejected_ += outcome.rejected_backpressure + outcome.rejected_invalid;
      batch = {};
    }
  }
  cpu_ns_ = thread_cpu_ns() - cpu0;
}

ServerThread::ServerThread(fleet::IngestServer& server)
    : thread_{[this, &server] {
        try {
          server.run(stop_, snapshot_request_);
        } catch (...) {
          error_ = std::current_exception();
        }
      }} {}

ServerThread::~ServerThread() {
  if (thread_.joinable()) {
    stop_.store(true);
    thread_.join();
  }
}

void ServerThread::stop() {
  stop_.store(true);
  if (thread_.joinable()) thread_.join();
  if (error_) std::rethrow_exception(error_);
}

}  // namespace e2e
