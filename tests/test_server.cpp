// IngestServer over a real unix-domain socket: a client thread streams EMWF
// frames exactly the way `emsentry_cli replay-client` does, and the tests
// assert the daemon's counters, the fleet's per-device state, and the
// shutdown snapshot / stats artifacts.
#include "fleet/server.hpp"

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/evaluator.hpp"
#include "io/snapshot.hpp"
#include "io/wire.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

#if defined(__has_feature)
#define EMTS_HAS_TSAN_FEATURE __has_feature(thread_sanitizer)
#else
#define EMTS_HAS_TSAN_FEATURE 0
#endif

namespace emts::fleet {
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

core::TraceSet make_set(std::size_t n, std::uint64_t seed) {
  emts::Rng rng{seed};
  core::TraceSet set;
  set.sample_rate = kFs;
  for (std::size_t i = 0; i < n; ++i) set.add(golden_trace(rng));
  return set;
}

const core::TrustEvaluator& fitted() {
  static const core::TrustEvaluator evaluator =
      core::TrustEvaluator::calibrate(make_set(30, 1));
  return evaluator;
}

core::RuntimeMonitor::Options small_options() {
  core::RuntimeMonitor::Options opt;
  opt.alarm_debounce = 3;
  opt.spectral_window = 8;
  return opt;
}

FleetOptions fleet_options() {
  FleetOptions options;
  options.shards = 2;
  options.monitor = small_options();
  return options;
}

/// Connects to the server's unix socket, retrying while the accept loop
/// starts up. Returns the connected fd.
int connect_to(const std::string& socket_path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  EMTS_REQUIRE(fd >= 0, "test socket() failed");
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  EMTS_REQUIRE(socket_path.size() < sizeof addr.sun_path, "socket path too long");
  std::memcpy(addr.sun_path, socket_path.c_str(), socket_path.size() + 1);
  for (int attempt = 0; attempt < 100; ++attempt) {
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) == 0) {
      return fd;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ::close(fd);
  EMTS_REQUIRE(false, "could not connect to " + socket_path);
  return -1;
}

void send_all(int fd, const char* data, std::size_t size) {
  std::size_t sent = 0;
  while (sent < size) {
    const ssize_t n = ::write(fd, data + sent, size - sent);
    EMTS_REQUIRE(n > 0, "test write() failed");
    sent += static_cast<std::size_t>(n);
  }
}

std::string encode_frames(const std::string& device_id, const core::TraceSet& batch) {
  std::string bytes;
  for (const core::Trace& trace : batch.traces) {
    io::wire::encode_trace_frame(device_id, batch.sample_rate, trace.data(), trace.size(),
                                 bytes);
  }
  return bytes;
}

class ServerTest : public ::testing::Test {
 protected:
  void TearDown() override {
    std::filesystem::remove(socket_path_);
    std::filesystem::remove(snapshot_path_);
    std::filesystem::remove(stats_path_);
  }

  /// Short socket paths: sun_path caps at ~107 bytes and temp dirs can be
  /// deep, so anchor them with the pid under /tmp directly.
  std::string suffix_ = std::to_string(::getpid());
  std::string socket_path_ = "/tmp/emts_test_" + suffix_ + ".sock";
  std::string snapshot_path_ =
      (std::filesystem::temp_directory_path() / ("emts_server_test_" + suffix_ + ".emfs"))
          .string();
  std::string stats_path_ =
      (std::filesystem::temp_directory_path() / ("emts_server_test_" + suffix_ + ".json"))
          .string();
};

TEST_F(ServerTest, StreamsFramesIntoTheFleet) {
  FleetMonitor fleet{fleet_options()};
  fleet.add_device("chip-00", fitted());
  fleet.add_device("chip-01", fitted());

  ServerOptions options;
  options.socket_path = socket_path_;
  IngestServer server{fleet, options};

  std::atomic<bool> stop{false};
  std::atomic<bool> snapshot_request{false};
  std::thread serve{[&] { server.run(stop, snapshot_request); }};

  const core::TraceSet batch_a = make_set(6, 2);
  const core::TraceSet batch_b = make_set(4, 3);
  const int fd = connect_to(socket_path_);
  const std::string bytes =
      encode_frames("chip-00", batch_a) + encode_frames("chip-01", batch_b);
  send_all(fd, bytes.data(), bytes.size());
  ::close(fd);

  // The server ingests asynchronously; wait for all 10 frames to be scored.
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (fleet.stats().traces_processed < 10) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline) << "ingest timed out";
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  stop = true;
  serve.join();

  const ServerCounters& counters = server.counters();
  EXPECT_EQ(counters.connections_accepted, 1u);
  EXPECT_EQ(counters.frames_accepted, 10u);
  EXPECT_EQ(counters.frames_rejected, 0u);
  EXPECT_EQ(counters.bytes_received, bytes.size());

  const FleetStats stats = fleet.stats();
  EXPECT_EQ(stats.traces_processed, 10u);
  ASSERT_EQ(stats.sessions.size(), 2u);
  EXPECT_EQ(stats.sessions[0].monitor.scored_captures, 6u);
  EXPECT_EQ(stats.sessions[1].monitor.scored_captures, 4u);
}

TEST_F(ServerTest, ScoresMatchDirectSubmission) {
  // The socket hop must not perturb anything: a device streamed through the
  // daemon scores bit-identically to one fed through submit directly.
  const core::TraceSet batch = make_set(9, 4);

  FleetMonitor direct{fleet_options()};
  direct.add_device("chip-00", fitted());
  for (const core::Trace& trace : batch.traces) direct.submit("chip-00", trace);
  direct.flush();

  FleetMonitor fleet{fleet_options()};
  fleet.add_device("chip-00", fitted());
  ServerOptions options;
  options.socket_path = socket_path_;
  IngestServer server{fleet, options};
  std::atomic<bool> stop{false};
  std::atomic<bool> snapshot_request{false};
  std::thread serve{[&] { server.run(stop, snapshot_request); }};

  const int fd = connect_to(socket_path_);
  const std::string bytes = encode_frames("chip-00", batch);
  send_all(fd, bytes.data(), bytes.size());
  ::close(fd);
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (fleet.stats().traces_processed < batch.size()) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline) << "ingest timed out";
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  stop = true;
  serve.join();

  const FleetStats expect = direct.stats();
  const FleetStats got = fleet.stats();
  ASSERT_EQ(got.sessions.size(), 1u);
  EXPECT_EQ(got.sessions[0].state, expect.sessions[0].state);
  EXPECT_EQ(got.sessions[0].last_score, expect.sessions[0].last_score);
  EXPECT_EQ(got.sessions[0].monitor.scored_captures, expect.sessions[0].monitor.scored_captures);
}

TEST_F(ServerTest, UnknownDeviceFramesAreRejectedNotFatal) {
  FleetMonitor fleet{fleet_options()};
  fleet.add_device("chip-00", fitted());
  ServerOptions options;
  options.socket_path = socket_path_;
  IngestServer server{fleet, options};
  std::atomic<bool> stop{false};
  std::atomic<bool> snapshot_request{false};
  std::thread serve{[&] { server.run(stop, snapshot_request); }};

  const core::TraceSet known = make_set(3, 5);
  const core::TraceSet unknown = make_set(2, 6);
  const int fd = connect_to(socket_path_);
  // Interleave: rejected frames must not derail the frames around them.
  const std::string bytes = encode_frames("chip-00", known) +
                            encode_frames("ghost", unknown) +
                            encode_frames("chip-00", known);
  send_all(fd, bytes.data(), bytes.size());
  ::close(fd);
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (fleet.stats().traces_processed < 6) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline) << "ingest timed out";
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  stop = true;
  serve.join();

  EXPECT_EQ(server.counters().frames_accepted, 6u);
  EXPECT_EQ(server.counters().frames_rejected, 2u);
  EXPECT_EQ(fleet.stats().traces_processed, 6u);
}

TEST_F(ServerTest, GarbageBytesDropTheConnectionOnly) {
  FleetMonitor fleet{fleet_options()};
  fleet.add_device("chip-00", fitted());
  ServerOptions options;
  options.socket_path = socket_path_;
  IngestServer server{fleet, options};
  std::atomic<bool> stop{false};
  std::atomic<bool> snapshot_request{false};
  std::thread serve{[&] { server.run(stop, snapshot_request); }};

  // First client: garbage. The server must drop it and keep serving.
  {
    const int fd = connect_to(socket_path_);
    const std::string garbage(64, 'Z');
    send_all(fd, garbage.data(), garbage.size());
    ::close(fd);
  }

  // Second client: valid traffic still flows.
  const core::TraceSet batch = make_set(3, 7);
  const int fd = connect_to(socket_path_);
  const std::string bytes = encode_frames("chip-00", batch);
  send_all(fd, bytes.data(), bytes.size());
  ::close(fd);
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (fleet.stats().traces_processed < 3) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline) << "ingest timed out";
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  stop = true;
  serve.join();

  EXPECT_EQ(server.counters().connections_dropped, 1u);
  EXPECT_EQ(server.counters().frames_accepted, 3u);
}

TEST_F(ServerTest, ShutdownWritesSnapshotAndStats) {
  FleetMonitor fleet{fleet_options()};
  fleet.add_device("chip-00", fitted());
  fleet.add_device("chip-01", fitted());

  ServerOptions options;
  options.socket_path = socket_path_;
  options.snapshot_path = snapshot_path_;
  options.stats_path = stats_path_;
  IngestServer server{fleet, options};
  std::atomic<bool> stop{false};
  std::atomic<bool> snapshot_request{false};
  std::thread serve{[&] { server.run(stop, snapshot_request); }};

  const core::TraceSet batch = make_set(5, 8);
  const int fd = connect_to(socket_path_);
  const std::string bytes = encode_frames("chip-00", batch);
  send_all(fd, bytes.data(), bytes.size());
  ::close(fd);
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (fleet.stats().traces_processed < 5) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline) << "ingest timed out";
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  stop = true;
  serve.join();

  EXPECT_EQ(server.counters().snapshots_written, 1u);
  EXPECT_EQ(server.counters().stats_exports, 1u);

  // The shutdown snapshot is a loadable EMFS image of the served fleet.
  const io::FleetSnapshot snapshot = io::load_fleet_snapshot(snapshot_path_);
  ASSERT_EQ(snapshot.devices.size(), 2u);
  EXPECT_EQ(snapshot.devices[0].device_id, "chip-00");
  EXPECT_EQ(snapshot.devices[0].monitor.stats.scored_captures, 5u);
  EXPECT_EQ(snapshot.devices[1].monitor.stats.scored_captures, 0u);

  // The socket path is unlinked on shutdown; the stats export is JSON with
  // the versioned schema marker.
  EXPECT_FALSE(std::filesystem::exists(socket_path_));
  std::ifstream stats_file{stats_path_};
  std::stringstream stats;
  stats << stats_file.rdbuf();
  EXPECT_NE(stats.str().find("\"schema_version\":4"), std::string::npos);
  EXPECT_NE(stats.str().find("\"chip-01\""), std::string::npos);
}

// The stats export writes through the one checked file writer, so an
// export that cannot open its file fails the run naming the file and the
// OS error.
TEST_F(ServerTest, StatsExportIntoAMissingDirectoryNamesThePath) {
  FleetMonitor fleet{fleet_options()};
  fleet.add_device("chip-00", fitted());
  ServerOptions options;
  options.socket_path = socket_path_;
  options.stats_path = stats_path_ + ".missing/stats.json";
  IngestServer server{fleet, options};

  const std::atomic<bool> stop{true};
  std::atomic<bool> snapshot_request{false};
  try {
    server.run(stop, snapshot_request);
    FAIL() << "an export into a missing directory succeeded";
  } catch (const emts::precondition_error& error) {
    const std::string message = error.what();
    EXPECT_NE(message.find(options.stats_path), std::string::npos) << message;
    EXPECT_NE(message.find(std::strerror(ENOENT)), std::string::npos) << message;
  }
}

TEST_F(ServerTest, StopAcceptsAndDrainsBackloggedConnections) {
  // A client that connected and wrote before the stop, but was never
  // accepted, still sits in the listen backlog: shutdown must accept it and
  // ingest its frames before closing the listener.
  FleetMonitor fleet{fleet_options()};
  fleet.add_device("chip-00", fitted());
  ServerOptions options;
  options.socket_path = socket_path_;
  IngestServer server{fleet, options};

  const core::TraceSet batch = make_set(5, 15);
  const int fd = connect_to(socket_path_);
  const std::string bytes = encode_frames("chip-00", batch);
  send_all(fd, bytes.data(), bytes.size());
  ::close(fd);

  const std::atomic<bool> stop{true};
  std::atomic<bool> snapshot_request{false};
  server.run(stop, snapshot_request);

  EXPECT_EQ(server.counters().connections_accepted, 1u);
  EXPECT_EQ(server.counters().frames_accepted, 5u);
  EXPECT_EQ(fleet.stats().traces_processed, 5u);
}

TEST_F(ServerTest, SnapshotRequestHonoredOnIdleRound) {
  FleetMonitor fleet{fleet_options()};
  fleet.add_device("chip-00", fitted());

  ServerOptions options;
  options.socket_path = socket_path_;
  options.snapshot_path = snapshot_path_;
  IngestServer server{fleet, options};
  std::atomic<bool> stop{false};
  std::atomic<bool> snapshot_request{false};
  std::thread serve{[&] { server.run(stop, snapshot_request); }};

  const core::TraceSet batch = make_set(4, 9);
  const int fd = connect_to(socket_path_);
  const std::string bytes = encode_frames("chip-00", batch);
  send_all(fd, bytes.data(), bytes.size());
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (fleet.stats().traces_processed < 4) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline) << "ingest timed out";
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }

  // Client is quiet; the request lands on an idle round after everything
  // already sent has been ingested.
  snapshot_request = true;
  while (!std::filesystem::exists(snapshot_path_)) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline) << "snapshot timed out";
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  const io::FleetSnapshot mid = io::load_fleet_snapshot(snapshot_path_);
  ASSERT_EQ(mid.devices.size(), 1u);
  EXPECT_EQ(mid.devices[0].monitor.stats.scored_captures, 4u);

  ::close(fd);
  stop = true;
  serve.join();
  // Shutdown wrote a second (overwriting) snapshot.
  EXPECT_EQ(server.counters().snapshots_written, 2u);
}

TEST_F(ServerTest, WallClockCadenceWritesSnapshotsWhileIdle) {
  FleetMonitor fleet{fleet_options()};
  fleet.add_device("chip-00", fitted());

  ServerOptions options;
  options.socket_path = socket_path_;
  options.snapshot_path = snapshot_path_;
  options.snapshot_every_ms = 20;
  options.poll_timeout_ms = 5;
  IngestServer server{fleet, options};
  std::atomic<bool> stop{false};
  std::atomic<bool> snapshot_request{false};
  std::thread serve{[&] { server.run(stop, snapshot_request); }};

  const core::TraceSet batch = make_set(3, 10);
  const int fd = connect_to(socket_path_);
  const std::string bytes = encode_frames("chip-00", batch);
  send_all(fd, bytes.data(), bytes.size());
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (fleet.stats().traces_processed < 3) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline) << "ingest timed out";
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }

  // Client goes quiet: the wall-clock cadence alone must keep producing
  // snapshots on idle rounds, no SIGUSR1 and no frame threshold involved.
  // The live counter belongs to the server thread, so observe the artifact
  // instead: every snapshot is a tmp+rename, which lands on a fresh inode.
  struct stat first {};
  while (::stat(snapshot_path_.c_str(), &first) != 0) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline) << "cadence snapshot timed out";
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  struct stat second {};
  while (::stat(snapshot_path_.c_str(), &second) != 0 || second.st_ino == first.st_ino) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline) << "second cadence snapshot timed out";
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  const io::FleetSnapshot mid = io::load_fleet_snapshot(snapshot_path_);
  ASSERT_EQ(mid.devices.size(), 1u);
  EXPECT_EQ(mid.devices[0].monitor.stats.scored_captures, 3u);

  ::close(fd);
  stop = true;
  serve.join();
  EXPECT_GE(server.counters().snapshots_written, 2u);
}

TEST_F(ServerTest, CadenceHonoredUnderGapFreeStreaming) {
  // Regression: snapshots used to wait for an idle poll round, so a client
  // that never pauses starved the daemon of snapshots forever. A due cut
  // overshooting its deadline by a poll interval must now be forced onto a
  // busy round.
#if defined(__SANITIZE_THREAD__) || EMTS_HAS_TSAN_FEATURE
  // Under TSan a single busy poll round can outlast the whole cadence budget
  // (thousands of buffered frames × instrumented spectral pushes under BLOCK),
  // so the wall-clock deadlines below measure the sanitizer, not the daemon.
  GTEST_SKIP() << "wall-clock cadence assertions are meaningless under TSan";
#endif
  FleetMonitor fleet{fleet_options()};
  fleet.add_device("chip-00", fitted());

  ServerOptions options;
  options.socket_path = socket_path_;
  options.snapshot_path = snapshot_path_;
  options.snapshot_every_ms = 20;
  options.poll_timeout_ms = 5;
  IngestServer server{fleet, options};
  std::atomic<bool> stop{false};
  std::atomic<bool> snapshot_request{false};
  std::thread serve{[&] { server.run(stop, snapshot_request); }};

  const int fd = connect_to(socket_path_);
  const std::string one = encode_frames("chip-00", make_set(1, 11));
  std::atomic<bool> stream_stop{false};
  std::thread streamer{[&] {
    // Frames every ~0.5 ms against a 5 ms poll: virtually every round has
    // bytes pending, so an idle-only daemon would never cut.
    while (!stream_stop) {
      send_all(fd, one.data(), one.size());
      std::this_thread::sleep_for(std::chrono::microseconds(500));
    }
  }};

  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  struct stat first {};
  while (::stat(snapshot_path_.c_str(), &first) != 0) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline) << "first cut starved";
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  struct stat second {};
  while (::stat(snapshot_path_.c_str(), &second) != 0 || second.st_ino == first.st_ino) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline) << "second cut starved";
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }

  stream_stop = true;
  streamer.join();
  ::close(fd);
  stop = true;
  serve.join();

  EXPECT_GE(server.counters().snapshots_written, 3u);  // >= 2 cadence cuts + shutdown
  EXPECT_GE(server.counters().snapshots_forced, 1u);
  EXPECT_GT(server.counters().frames_accepted, 0u);
  // Whatever instant the forced cut landed on, the artifact is complete.
  const io::FleetSnapshot snap = io::load_fleet_snapshot(snapshot_path_);
  ASSERT_EQ(snap.devices.size(), 1u);
}

TEST_F(ServerTest, RefusesToStealALiveSocket) {
  FleetMonitor fleet{fleet_options()};
  fleet.add_device("chip-00", fitted());
  ServerOptions options;
  options.socket_path = socket_path_;
  IngestServer incumbent{fleet, options};
  std::atomic<bool> stop{false};
  std::atomic<bool> snapshot_request{false};
  std::thread serve{[&] { incumbent.run(stop, snapshot_request); }};
  const int probe = connect_to(socket_path_);  // incumbent is demonstrably live
  ::close(probe);

  // A second daemon must refuse to unlink a socket something answers on.
  FleetMonitor other_fleet{fleet_options()};
  EXPECT_THROW((IngestServer{other_fleet, options}), emts::precondition_error);

  // And the incumbent is unharmed: traffic still flows through it.
  const core::TraceSet batch = make_set(3, 12);
  const int fd = connect_to(socket_path_);
  const std::string bytes = encode_frames("chip-00", batch);
  send_all(fd, bytes.data(), bytes.size());
  ::close(fd);
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (fleet.stats().traces_processed < 3) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline) << "ingest timed out";
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  stop = true;
  serve.join();
  EXPECT_EQ(fleet.stats().traces_processed, 3u);
}

TEST_F(ServerTest, ReclaimsAStaleSocketFile) {
  // A crashed daemon leaves its socket file behind with nothing listening;
  // connect() refuses, so a new daemon may reclaim the path.
  const int old_fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(old_fd, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, socket_path_.c_str(), socket_path_.size() + 1);
  ASSERT_EQ(::bind(old_fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr), 0);
  ::close(old_fd);  // bound but never listened: every connect() is refused
  ASSERT_TRUE(std::filesystem::exists(socket_path_));

  FleetMonitor fleet{fleet_options()};
  fleet.add_device("chip-00", fitted());
  ServerOptions options;
  options.socket_path = socket_path_;
  IngestServer server{fleet, options};
  std::atomic<bool> stop{false};
  std::atomic<bool> snapshot_request{false};
  std::thread serve{[&] { server.run(stop, snapshot_request); }};

  const core::TraceSet batch = make_set(2, 13);
  const int fd = connect_to(socket_path_);
  const std::string bytes = encode_frames("chip-00", batch);
  send_all(fd, bytes.data(), bytes.size());
  ::close(fd);
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (fleet.stats().traces_processed < 2) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline) << "ingest timed out";
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  stop = true;
  serve.join();
  EXPECT_EQ(fleet.stats().traces_processed, 2u);
}

TEST(ServerOptionsTest, RefusesUnusableSocketPath) {
  FleetMonitor fleet{fleet_options()};
  ServerOptions options;
  options.socket_path = "/nonexistent-dir/emts.sock";
  EXPECT_THROW((IngestServer{fleet, options}), emts::precondition_error);
}

// ---------- --snapshot-every cadence parsing ----------

TEST(SnapshotCadence, BareCountMeansFrames) {
  const SnapshotCadence cadence = parse_snapshot_cadence("250");
  EXPECT_EQ(cadence.every_frames, 250u);
  EXPECT_EQ(cadence.every_ms, 0u);
}

TEST(SnapshotCadence, SecondsSuffixMeansWallClockMillis) {
  const SnapshotCadence cadence = parse_snapshot_cadence("5s");
  EXPECT_EQ(cadence.every_frames, 0u);
  EXPECT_EQ(cadence.every_ms, 5000u);
}

TEST(SnapshotCadence, MillisecondsSuffixPassesThrough) {
  const SnapshotCadence cadence = parse_snapshot_cadence("750ms");
  EXPECT_EQ(cadence.every_frames, 0u);
  EXPECT_EQ(cadence.every_ms, 750u);
}

TEST(SnapshotCadence, RejectsGarbage) {
  EXPECT_THROW(parse_snapshot_cadence(""), emts::precondition_error);
  EXPECT_THROW(parse_snapshot_cadence("abc"), emts::precondition_error);
  EXPECT_THROW(parse_snapshot_cadence("10x"), emts::precondition_error);
  EXPECT_THROW(parse_snapshot_cadence("10 s"), emts::precondition_error);
  EXPECT_THROW(parse_snapshot_cadence("ms"), emts::precondition_error);
  EXPECT_THROW(parse_snapshot_cadence("5sms"), emts::precondition_error);
  // Overflow in the digits or in the seconds-to-millis conversion.
  EXPECT_THROW(parse_snapshot_cadence("99999999999999999999"), emts::precondition_error);
  EXPECT_THROW(parse_snapshot_cadence("18446744073709551615s"), emts::precondition_error);
}

TEST(SnapshotCadence, RejectsZeroInEveryUnit) {
  // "0" parses as a number but silently disables the cadence the user just
  // asked for — a usage error, in every spelling.
  EXPECT_THROW(parse_snapshot_cadence("0"), emts::precondition_error);
  EXPECT_THROW(parse_snapshot_cadence("0s"), emts::precondition_error);
  EXPECT_THROW(parse_snapshot_cadence("0ms"), emts::precondition_error);
  EXPECT_THROW(parse_snapshot_cadence("000"), emts::precondition_error);
}

// ---------- TCP endpoint / allowlist parsing ----------

TEST(TcpEndpointParse, ParsesHostAndPort) {
  const TcpEndpoint endpoint = parse_tcp_endpoint("127.0.0.1:7600");
  EXPECT_EQ(endpoint.addr, 0x7f000001u);
  EXPECT_EQ(endpoint.port, 7600u);
}

TEST(TcpEndpointParse, RejectsMalformedEndpoints) {
  EXPECT_THROW(parse_tcp_endpoint(""), emts::precondition_error);
  EXPECT_THROW(parse_tcp_endpoint("127.0.0.1"), emts::precondition_error);       // no port
  EXPECT_THROW(parse_tcp_endpoint(":7600"), emts::precondition_error);           // no host
  EXPECT_THROW(parse_tcp_endpoint("localhost:7600"), emts::precondition_error);  // not numeric
  EXPECT_THROW(parse_tcp_endpoint("127.0.0.1:0"), emts::precondition_error);
  EXPECT_THROW(parse_tcp_endpoint("127.0.0.1:65536"), emts::precondition_error);
  EXPECT_THROW(parse_tcp_endpoint("127.0.0.1:x"), emts::precondition_error);
  EXPECT_THROW(parse_tcp_endpoint("299.0.0.1:7600"), emts::precondition_error);
}

TEST(CidrParse, HostAndBlockRulesMatchAsExpected) {
  const CidrRule host = parse_cidr("10.1.2.3");
  EXPECT_TRUE(cidr_match(host, 0x0a010203u));
  EXPECT_FALSE(cidr_match(host, 0x0a010204u));

  const CidrRule block = parse_cidr("10.1.0.0/16");
  EXPECT_TRUE(cidr_match(block, 0x0a010203u));
  EXPECT_TRUE(cidr_match(block, 0x0a01ffffu));
  EXPECT_FALSE(cidr_match(block, 0x0a020000u));

  const CidrRule all = parse_cidr("0.0.0.0/0");
  EXPECT_TRUE(cidr_match(all, 0xffffffffu));
  EXPECT_TRUE(cidr_match(all, 0u));
}

TEST(CidrParse, RejectsMalformedRules) {
  EXPECT_THROW(parse_cidr(""), emts::precondition_error);
  EXPECT_THROW(parse_cidr("10.1.2"), emts::precondition_error);
  EXPECT_THROW(parse_cidr("10.1.2.3/33"), emts::precondition_error);
  EXPECT_THROW(parse_cidr("10.1.2.3/"), emts::precondition_error);
  EXPECT_THROW(parse_cidr("10.1.2.3/x"), emts::precondition_error);
  EXPECT_THROW(parse_cidr("banana/8"), emts::precondition_error);
}

}  // namespace
}  // namespace emts::fleet
