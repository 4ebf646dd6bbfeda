// IngestServer over loopback TCP: the same EMWF framing as the unix
// transport, plus the two TCP-only gates — the accept-time CIDR allowlist
// and the shared-secret HELLO handshake. Clients here behave exactly like
// `emsentry_cli replay-client --connect`.
#include "fleet/server.hpp"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "core/evaluator.hpp"
#include "io/wire.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

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

FleetOptions fleet_options() {
  FleetOptions options;
  options.shards = 2;
  core::RuntimeMonitor::Options monitor;
  monitor.alarm_debounce = 3;
  monitor.spectral_window = 8;
  options.monitor = monitor;
  return options;
}

/// Asks the kernel for a free loopback port, then releases it for the server
/// to bind (SO_REUSEADDR on the listener tolerates the handover).
std::uint16_t pick_port() {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EMTS_REQUIRE(fd >= 0, "test socket() failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  EMTS_REQUIRE(::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) == 0,
               "test bind() failed");
  socklen_t len = sizeof addr;
  EMTS_REQUIRE(::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) == 0,
               "test getsockname() failed");
  const std::uint16_t port = ntohs(addr.sin_port);
  ::close(fd);
  return port;
}

int connect_tcp(std::uint16_t port) {
  for (int attempt = 0; attempt < 100; ++attempt) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    EMTS_REQUIRE(fd >= 0, "test socket() failed");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) == 0) {
      return fd;
    }
    ::close(fd);
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EMTS_REQUIRE(false, "could not connect to loopback port " + std::to_string(port));
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

/// Like send_all, but tolerates the peer dropping the connection mid-write —
/// the *expected* outcome on rejection paths — and suppresses SIGPIPE via
/// MSG_NOSIGNAL. Returns the errno that stopped it, or 0 when all was sent.
int send_until_closed(int fd, const char* data, std::size_t size) {
  std::size_t sent = 0;
  while (sent < size) {
    const ssize_t n = ::send(fd, data + sent, size - sent, MSG_NOSIGNAL);
    if (n <= 0) return n < 0 ? errno : EIO;
    sent += static_cast<std::size_t>(n);
  }
  return 0;
}

std::string encode_frames(const std::string& device_id, const core::TraceSet& batch) {
  std::string bytes;
  for (const core::Trace& trace : batch.traces) {
    io::wire::encode_trace_frame(device_id, batch.sample_rate, trace.data(), trace.size(),
                                 bytes);
  }
  return bytes;
}

/// Blocks (bounded) until the server resets the connection: every rejection
/// path drops the client with a reset, so a client that has already written
/// or half-closed its whole stream cannot mistake the drop for a clean end
/// of stream. The reset is reported once, so when `send_error` shows that a
/// send already received it, there is nothing left to read.
void expect_server_resets(int fd, int send_error = 0) {
  if (send_error == ECONNRESET) return;
  timeval timeout{};
  timeout.tv_sec = 30;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof timeout);
  char byte = 0;
  const ssize_t got = ::recv(fd, &byte, 1, 0);
  const int error = errno;
  EXPECT_EQ(got, -1) << "server ended the stream instead of resetting it";
  if (got < 0) {
    EXPECT_EQ(error, ECONNRESET) << std::strerror(error);
  }
}

class TcpServerTest : public ::testing::Test {
 protected:
  std::uint16_t port_ = pick_port();
  std::string listen_ = "127.0.0.1:" + std::to_string(port_);
};

TEST_F(TcpServerTest, FragmentedFramesAcrossSegmentsIngest) {
  FleetMonitor fleet{fleet_options()};
  fleet.add_device("chip-00", fitted());
  ServerOptions options;
  options.listen_address = listen_;
  IngestServer server{fleet, options};
  std::atomic<bool> stop{false};
  std::atomic<bool> snapshot_request{false};
  std::thread serve{[&] { server.run(stop, snapshot_request); }};

  const core::TraceSet batch = make_set(4, 2);
  const std::string bytes = encode_frames("chip-00", batch);
  const int fd = connect_tcp(port_);
  // Deliberately awful segmentation: 7-byte writes, so every frame arrives
  // split across many TCP segments and the decoder must reassemble.
  for (std::size_t off = 0; off < bytes.size(); off += 7) {
    const std::size_t chunk = std::min<std::size_t>(7, bytes.size() - off);
    send_all(fd, bytes.data() + off, chunk);
  }
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (fleet.stats().traces_processed < 4) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline) << "ingest timed out";
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ::close(fd);
  stop = true;
  serve.join();

  EXPECT_EQ(server.counters().connections_accepted, 1u);
  EXPECT_EQ(server.counters().frames_accepted, 4u);
  EXPECT_EQ(server.counters().bytes_received, bytes.size());
  EXPECT_EQ(fleet.stats().traces_processed, 4u);
}

TEST_F(TcpServerTest, BothTransportsServeSideBySide) {
  FleetMonitor fleet{fleet_options()};
  fleet.add_device("chip-00", fitted());
  ServerOptions options;
  options.listen_address = listen_;
  options.socket_path = "/tmp/emts_tcp_test_" + std::to_string(::getpid()) + ".sock";
  IngestServer server{fleet, options};
  std::atomic<bool> stop{false};
  std::atomic<bool> snapshot_request{false};
  std::thread serve{[&] { server.run(stop, snapshot_request); }};

  const std::string tcp_bytes = encode_frames("chip-00", make_set(3, 3));
  const int fd = connect_tcp(port_);
  send_all(fd, tcp_bytes.data(), tcp_bytes.size());
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (fleet.stats().traces_processed < 3) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline) << "ingest timed out";
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ::close(fd);
  stop = true;
  serve.join();
  std::filesystem::remove(options.socket_path);

  // The unix listener coexisted the whole time (bound in the constructor);
  // the TCP leg carried the traffic.
  EXPECT_EQ(server.counters().frames_accepted, 3u);
}

TEST_F(TcpServerTest, AllowlistRejectionIsCountedAndClosesImmediately) {
  FleetMonitor fleet{fleet_options()};
  fleet.add_device("chip-00", fitted());
  ServerOptions options;
  options.listen_address = listen_;
  options.allow = {"10.0.0.0/8", "192.168.7.44"};  // loopback not included
  IngestServer server{fleet, options};
  std::atomic<bool> stop{false};
  std::atomic<bool> snapshot_request{false};
  std::thread serve{[&] { server.run(stop, snapshot_request); }};

  const int fd = connect_tcp(port_);  // SYN handshake succeeds...
  expect_server_resets(fd);           // ...then the ACL resets it unread.
  ::close(fd);
  stop = true;
  serve.join();

  EXPECT_EQ(server.counters().connections_rejected_acl, 1u);
  EXPECT_EQ(server.counters().connections_accepted, 0u);
  EXPECT_EQ(server.counters().frames_accepted, 0u);
  EXPECT_EQ(fleet.stats().traces_processed, 0u);
}

TEST_F(TcpServerTest, AllowlistAdmitsMatchingPeer) {
  FleetMonitor fleet{fleet_options()};
  fleet.add_device("chip-00", fitted());
  ServerOptions options;
  options.listen_address = listen_;
  options.allow = {"127.0.0.0/8"};
  IngestServer server{fleet, options};
  std::atomic<bool> stop{false};
  std::atomic<bool> snapshot_request{false};
  std::thread serve{[&] { server.run(stop, snapshot_request); }};

  const std::string bytes = encode_frames("chip-00", make_set(2, 4));
  const int fd = connect_tcp(port_);
  send_all(fd, bytes.data(), bytes.size());
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (fleet.stats().traces_processed < 2) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline) << "ingest timed out";
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ::close(fd);
  stop = true;
  serve.join();

  EXPECT_EQ(server.counters().connections_rejected_acl, 0u);
  EXPECT_EQ(server.counters().frames_accepted, 2u);
}

TEST_F(TcpServerTest, WrongHelloTokenClosesWithoutIngesting) {
  FleetMonitor fleet{fleet_options()};
  fleet.add_device("chip-00", fitted());
  ServerOptions options;
  options.listen_address = listen_;
  options.auth_secret = "sesame";
  IngestServer server{fleet, options};
  std::atomic<bool> stop{false};
  std::atomic<bool> snapshot_request{false};
  std::thread serve{[&] { server.run(stop, snapshot_request); }};

  std::string bytes;
  io::wire::encode_hello_frame("open-says-who", bytes);
  bytes += encode_frames("chip-00", make_set(2, 5));
  const int fd = connect_tcp(port_);
  expect_server_resets(fd, send_until_closed(fd, bytes.data(), bytes.size()));
  ::close(fd);
  stop = true;
  serve.join();

  EXPECT_EQ(server.counters().auth_failures, 1u);
  EXPECT_EQ(server.counters().connections_dropped, 1u);
  // Nothing behind the failed handshake reached the fleet.
  EXPECT_EQ(server.counters().frames_accepted, 0u);
  EXPECT_EQ(fleet.stats().traces_processed, 0u);
}

TEST_F(TcpServerTest, TraceBeforeHelloClosesWithoutIngesting) {
  FleetMonitor fleet{fleet_options()};
  fleet.add_device("chip-00", fitted());
  ServerOptions options;
  options.listen_address = listen_;
  options.auth_secret = "sesame";
  IngestServer server{fleet, options};
  std::atomic<bool> stop{false};
  std::atomic<bool> snapshot_request{false};
  std::thread serve{[&] { server.run(stop, snapshot_request); }};

  // Valid framing, valid device — but no HELLO first.
  const std::string bytes = encode_frames("chip-00", make_set(1, 6));
  const int fd = connect_tcp(port_);
  expect_server_resets(fd, send_until_closed(fd, bytes.data(), bytes.size()));
  ::close(fd);
  stop = true;
  serve.join();

  EXPECT_EQ(server.counters().auth_failures, 1u);
  EXPECT_EQ(server.counters().frames_accepted, 0u);
  EXPECT_EQ(fleet.stats().traces_processed, 0u);
}

// A refused client whose whole stream fits in the socket buffers sees no
// failed write. It half-closes and reads instead, and the daemon's reset
// must tell it apart from a daemon that read its stream to the end.
TEST_F(TcpServerTest, WrongHelloIsResetAfterTheClientHalfCloses) {
  FleetMonitor fleet{fleet_options()};
  fleet.add_device("chip-00", fitted());
  ServerOptions options;
  options.listen_address = listen_;
  options.auth_secret = "sesame";
  IngestServer server{fleet, options};
  std::atomic<bool> stop{false};
  std::atomic<bool> snapshot_request{false};
  std::thread serve{[&] { server.run(stop, snapshot_request); }};

  // A short trace keeps the HELLO and the frame in one segment, so the
  // server has read everything by the time it refuses the HELLO.
  std::string bytes;
  io::wire::encode_hello_frame("open-says-who", bytes);
  const core::Trace trace(16, 0.5);
  io::wire::encode_trace_frame("chip-00", kFs, trace.data(), trace.size(), bytes);
  const int fd = connect_tcp(port_);
  const int send_error = send_until_closed(fd, bytes.data(), bytes.size());
  ::shutdown(fd, SHUT_WR);
  expect_server_resets(fd, send_error);
  ::close(fd);
  stop = true;
  serve.join();

  EXPECT_EQ(server.counters().auth_failures, 1u);
  EXPECT_EQ(server.counters().connections_dropped, 1u);
  EXPECT_EQ(server.counters().frames_accepted, 0u);
}

TEST_F(TcpServerTest, CorrectHelloAuthenticatesAndIngests) {
  FleetMonitor fleet{fleet_options()};
  fleet.add_device("chip-00", fitted());
  ServerOptions options;
  options.listen_address = listen_;
  options.auth_secret = "sesame";
  IngestServer server{fleet, options};
  std::atomic<bool> stop{false};
  std::atomic<bool> snapshot_request{false};
  std::thread serve{[&] { server.run(stop, snapshot_request); }};

  std::string bytes;
  io::wire::encode_hello_frame("sesame", bytes);
  bytes += encode_frames("chip-00", make_set(3, 7));
  const int fd = connect_tcp(port_);
  send_all(fd, bytes.data(), bytes.size());
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (fleet.stats().traces_processed < 3) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline) << "ingest timed out";
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ::close(fd);
  stop = true;
  serve.join();

  EXPECT_EQ(server.counters().auth_failures, 0u);
  EXPECT_EQ(server.counters().frames_accepted, 3u);
  EXPECT_EQ(fleet.stats().traces_processed, 3u);
}

TEST(TcpServerOptions, RefusesUnusableListenEndpoint) {
  FleetMonitor fleet{fleet_options()};
  ServerOptions options;
  options.listen_address = "not-an-endpoint";
  EXPECT_THROW((IngestServer{fleet, options}), emts::precondition_error);
  // Port 1 on a non-root test runner: bind() itself must fail loudly.
  options.listen_address = "127.0.0.1:1";
  if (::geteuid() != 0) {
    EXPECT_THROW((IngestServer{fleet, options}), emts::precondition_error);
  }
}

}  // namespace
}  // namespace emts::fleet
