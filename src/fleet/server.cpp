#include "fleet/server.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>

#include "fleet/stats_json.hpp"
#include "io/durable_file.hpp"
#include "io/file_writer.hpp"
#include "io/snapshot.hpp"
#include "io/wire.hpp"
#include "util/assert.hpp"
#include "util/latency.hpp"

namespace emts::fleet {

struct IngestServer::Client {
  int fd = -1;
  bool tcp = false;
  /// TCP + configured secret: no trace frame is ingested until a HELLO with
  /// the right token arrives. Unix and secret-less connections start
  /// authenticated.
  bool authenticated = true;
  std::string peer = "unix";
  std::uint64_t bytes_received = 0;
  std::uint64_t frames_decoded = 0;
  io::wire::FrameDecoder decoder;

  explicit Client(int fd_in) : fd{fd_in} {}
  ~Client() {
    if (fd >= 0) ::close(fd);
  }
};

namespace {

void set_nonblocking(int fd) {
  ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL, 0) | O_NONBLOCK);
}

/// Makes the close of `fd` send a TCP reset instead of a FIN (SO_LINGER on,
/// timeout 0). A refused client that already wrote, or half-closed, its
/// whole stream then reads ECONNRESET instead of a clean end of stream.
/// Unix sockets ignore it.
void arm_reset(int fd) {
  const linger reset{1, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_LINGER, &reset, sizeof reset);
}

std::uint32_t parse_ipv4(const std::string& text, const char* what) {
  in_addr parsed{};
  EMTS_REQUIRE(::inet_pton(AF_INET, text.c_str(), &parsed) == 1,
               std::string{what} + " needs a numeric IPv4 address: '" + text + "'");
  return ntohl(parsed.s_addr);
}

}  // namespace

TcpEndpoint parse_tcp_endpoint(const std::string& text) {
  const std::size_t colon = text.rfind(':');
  EMTS_REQUIRE(colon != std::string::npos && colon > 0 && colon + 1 < text.size(),
               "listen endpoint must be host:port: '" + text + "'");
  TcpEndpoint endpoint;
  endpoint.addr = parse_ipv4(text.substr(0, colon), "listen endpoint");
  const std::string port_text = text.substr(colon + 1);
  std::uint32_t port = 0;
  for (const char c : port_text) {
    EMTS_REQUIRE(c >= '0' && c <= '9', "listen port needs digits: '" + text + "'");
    port = port * 10 + static_cast<std::uint32_t>(c - '0');
    EMTS_REQUIRE(port <= 65535, "listen port out of range: '" + text + "'");
  }
  EMTS_REQUIRE(port >= 1, "listen port out of range: '" + text + "'");
  endpoint.port = static_cast<std::uint16_t>(port);
  return endpoint;
}

CidrRule parse_cidr(const std::string& text) {
  const std::size_t slash = text.find('/');
  CidrRule rule;
  if (slash == std::string::npos) {
    rule.network = parse_ipv4(text, "allow rule");
    rule.mask = 0xffffffffu;
    return rule;
  }
  EMTS_REQUIRE(slash > 0 && slash + 1 < text.size(),
               "allow rule must be a.b.c.d or a.b.c.d/n: '" + text + "'");
  const std::uint32_t addr = parse_ipv4(text.substr(0, slash), "allow rule");
  const std::string prefix_text = text.substr(slash + 1);
  EMTS_REQUIRE(prefix_text.size() <= 2, "allow prefix out of range: '" + text + "'");
  std::uint32_t prefix = 0;
  for (const char c : prefix_text) {
    EMTS_REQUIRE(c >= '0' && c <= '9', "allow prefix needs digits: '" + text + "'");
    prefix = prefix * 10 + static_cast<std::uint32_t>(c - '0');
  }
  EMTS_REQUIRE(prefix <= 32, "allow prefix out of range: '" + text + "'");
  rule.mask = prefix == 0 ? 0u : ~0u << (32 - prefix);
  rule.network = addr & rule.mask;
  return rule;
}

bool cidr_match(const CidrRule& rule, std::uint32_t addr_host_order) {
  return (addr_host_order & rule.mask) == rule.network;
}

IngestServer::IngestServer(FleetMonitor& fleet, ServerOptions options)
    : fleet_{fleet}, options_{std::move(options)} {
  EMTS_REQUIRE(!options_.socket_path.empty() || !options_.listen_address.empty(),
               "ingest server needs a socket path or a TCP listen endpoint");
  EMTS_REQUIRE(options_.max_clients >= 1, "ingest server needs max_clients >= 1");
  EMTS_REQUIRE(options_.poll_timeout_ms > 0, "ingest server poll timeout must be > 0");
  EMTS_REQUIRE(options_.full_snapshot_every >= 1,
               "ingest server full-snapshot cadence must be >= 1");
  allow_rules_.reserve(options_.allow.size());
  for (const std::string& rule : options_.allow) allow_rules_.push_back(parse_cidr(rule));

  try {
    if (!options_.socket_path.empty()) setup_unix_listener();
    if (!options_.listen_address.empty()) setup_tcp_listener();
  } catch (...) {
    if (listen_fd_ >= 0) {
      ::close(listen_fd_);
      ::unlink(options_.socket_path.c_str());
      listen_fd_ = -1;
    }
    if (tcp_listen_fd_ >= 0) {
      ::close(tcp_listen_fd_);
      tcp_listen_fd_ = -1;
    }
    throw;
  }
}

void IngestServer::setup_unix_listener() {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  EMTS_REQUIRE(options_.socket_path.size() < sizeof addr.sun_path,
               "socket path too long: " + options_.socket_path);
  std::strncpy(addr.sun_path, options_.socket_path.c_str(), sizeof addr.sun_path - 1);

  // A socket file at the path may belong to a *live* daemon — probe with
  // connect() before unlinking, so starting a second daemon by mistake
  // cannot silently steal the first one's socket. Only a refused connection
  // (nothing listening behind the inode) marks the file stale.
  if (::access(options_.socket_path.c_str(), F_OK) == 0) {
    const int probe = ::socket(AF_UNIX, SOCK_STREAM, 0);
    EMTS_REQUIRE(probe >= 0, "ingest server: socket() failed");
    const int rc = ::connect(probe, reinterpret_cast<const sockaddr*>(&addr), sizeof addr);
    const int saved_errno = errno;
    ::close(probe);
    EMTS_REQUIRE(rc != 0, "ingest server: a daemon is already serving " +
                              options_.socket_path);
    EMTS_REQUIRE(saved_errno == ECONNREFUSED || saved_errno == ENOENT,
                 "ingest server: cannot probe " + options_.socket_path + ": " +
                     std::strerror(saved_errno));
    ::unlink(options_.socket_path.c_str());  // stale socket from a dead daemon
  }

  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  EMTS_REQUIRE(listen_fd_ >= 0, "ingest server: socket() failed");
  // Non-blocking accepts: the accept loops drain the whole backlog per poll
  // round and must get EAGAIN, not block, when it is empty.
  set_nonblocking(listen_fd_);
  EMTS_REQUIRE(::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
                      sizeof addr) == 0,
               "ingest server: cannot bind " + options_.socket_path);
  EMTS_REQUIRE(::listen(listen_fd_, 16) == 0,
               "ingest server: listen failed on " + options_.socket_path);
}

void IngestServer::setup_tcp_listener() {
  const TcpEndpoint endpoint = parse_tcp_endpoint(options_.listen_address);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(endpoint.addr);
  addr.sin_port = htons(endpoint.port);

  tcp_listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  EMTS_REQUIRE(tcp_listen_fd_ >= 0, "ingest server: socket() failed");
  const int one = 1;
  ::setsockopt(tcp_listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  set_nonblocking(tcp_listen_fd_);
  EMTS_REQUIRE(::bind(tcp_listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
                      sizeof addr) == 0,
               "ingest server: cannot bind " + options_.listen_address);
  EMTS_REQUIRE(::listen(tcp_listen_fd_, 16) == 0,
               "ingest server: listen failed on " + options_.listen_address);
}

IngestServer::~IngestServer() {
  clients_.clear();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    ::unlink(options_.socket_path.c_str());
  }
  if (tcp_listen_fd_ >= 0) ::close(tcp_listen_fd_);
}

bool IngestServer::admit_client(int fd) {
  if (clients_.size() >= options_.max_clients) {
    arm_reset(fd);
    ::close(fd);
    ++counters_.connections_dropped;
    return false;
  }
  return true;
}

void IngestServer::accept_unix_clients() {
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) return;  // EAGAIN/EWOULDBLOCK via non-blocking accept round
    if (!admit_client(fd)) continue;
    clients_.push_back(std::make_unique<Client>(fd));
    ++counters_.connections_accepted;
  }
}

void IngestServer::accept_tcp_clients() {
  for (;;) {
    sockaddr_in peer{};
    socklen_t peer_len = sizeof peer;
    const int fd =
        ::accept(tcp_listen_fd_, reinterpret_cast<sockaddr*>(&peer), &peer_len);
    if (fd < 0) return;
    const std::uint32_t peer_addr = ntohl(peer.sin_addr.s_addr);
    if (!allow_rules_.empty()) {
      bool allowed = false;
      for (const CidrRule& rule : allow_rules_) {
        if (cidr_match(rule, peer_addr)) {
          allowed = true;
          break;
        }
      }
      if (!allowed) {
        arm_reset(fd);
        ::close(fd);
        ++counters_.connections_rejected_acl;
        continue;
      }
    }
    if (!admit_client(fd)) continue;

    // Frames are small relative to socket buffers; coalescing them behind
    // Nagle just adds round-trip latency to every capture.
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    set_nonblocking(fd);

    auto client = std::make_unique<Client>(fd);
    client->tcp = true;
    client->authenticated = options_.auth_secret.empty();
    char label[INET_ADDRSTRLEN] = {};
    ::inet_ntop(AF_INET, &peer.sin_addr, label, sizeof label);
    client->peer = std::string{label} + ":" + std::to_string(ntohs(peer.sin_port));
    clients_.push_back(std::move(client));
    ++counters_.connections_accepted;
  }
}

bool IngestServer::service_client(Client& client) {
  // A dropped connection is reset when the client is erased and closed.
  const auto drop = [&] {
    arm_reset(client.fd);
    ++counters_.connections_dropped;
    return false;
  };
  // Drain what the kernel already has; poll() told us at least one read will
  // not block, and MSG_DONTWAIT keeps the follow-ups from blocking either.
  char buffer[64 * 1024];
  for (;;) {
    const ssize_t got = ::recv(client.fd, buffer, sizeof buffer, MSG_DONTWAIT);
    if (got == 0) {
      ++counters_.connections_closed;
      return false;  // clean EOF
    }
    if (got < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) return true;
      return drop();
    }
    counters_.bytes_received += static_cast<std::uint64_t>(got);
    client.bytes_received += static_cast<std::uint64_t>(got);
    try {
      client.decoder.feed(buffer, static_cast<std::size_t>(got));
      // Drain every frame this chunk completed, then hand the whole batch to
      // the fleet in one call — one queue critical section per shard
      // instead of one synchronization round per frame. Frames with
      // unacceptable content (unknown device, sample-rate mismatch) are
      // counted by the fleet instead of thrown — framing is intact, so the
      // connection survives.
      frame_batch_.clear();
      io::wire::Frame frame;
      while (client.decoder.next(frame)) {
        if (frame.kind == io::wire::FrameKind::kHello) {
          // Auth applies to TCP connections with a configured secret; a
          // HELLO anywhere else is valid framing and simply ignored.
          if (client.tcp && !options_.auth_secret.empty() && !client.authenticated) {
            if (frame.auth_token == options_.auth_secret) {
              client.authenticated = true;
            } else {
              ++counters_.auth_failures;
              return drop();
            }
          }
          continue;
        }
        if (!client.authenticated) {
          // Trace before a successful HELLO: drop without ingesting — this
          // frame, the batch it rode in with, everything.
          ++counters_.auth_failures;
          return drop();
        }
        ++client.frames_decoded;
        frame_batch_.push_back(std::move(frame.trace));
      }
      if (!frame_batch_.empty()) {
        const FrameBatchOutcome outcome = fleet_.submit_frames(std::move(frame_batch_));
        counters_.frames_accepted += outcome.accepted;
        counters_.frames_rejected +=
            outcome.rejected_backpressure + outcome.rejected_invalid;
      }
    } catch (const precondition_error&) {
      // Malformed stream: the framing is unrecoverable, drop the connection.
      return drop();
    }
  }
}

std::vector<ServerConnectionStats> IngestServer::connection_stats() const {
  std::vector<ServerConnectionStats> out;
  out.reserve(clients_.size());
  for (const auto& client : clients_) {
    ServerConnectionStats stats;
    stats.peer = client->peer;
    stats.tcp = client->tcp;
    stats.authenticated = client->authenticated;
    stats.bytes_received = client->bytes_received;
    stats.frames_decoded = client->frames_decoded;
    out.push_back(std::move(stats));
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const ServerConnectionStats& a, const ServerConnectionStats& b) {
                     return a.peer < b.peer;
                   });
  return out;
}

void IngestServer::drain_all_clients() {
  // Shutdown barrier: keep polling with a zero timeout until no connection
  // has bytes pending, so every frame a client managed to send before the
  // stop signal is ingested and counted on this side of the final flush.
  for (;;) {
    if (clients_.empty()) return;
    std::vector<pollfd> fds;
    fds.reserve(clients_.size());
    for (const auto& client : clients_) {
      fds.push_back(pollfd{client->fd, POLLIN, 0});
    }
    const int ready = ::poll(fds.data(), fds.size(), 0);
    if (ready <= 0) return;
    for (std::size_t c = fds.size(); c-- > 0;) {
      if ((fds[c].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      if (!service_client(*clients_[c])) {
        clients_.erase(clients_.begin() + static_cast<std::ptrdiff_t>(c));
      }
    }
  }
}

void IngestServer::write_snapshot(bool forced) {
  if (options_.snapshot_path.empty()) return;
  const std::string tmp = options_.snapshot_path + ".tmp";
  if (options_.incremental_snapshots) {
    // The first cut must be full (nothing cached yet); afterwards every Nth
    // is a full rewrite so a corrupted cache entry cannot outlive one cycle.
    const bool full = !snapshot_cache_primed_ ||
                      snapshots_since_full_ + 1 >= options_.full_snapshot_every;
    const io::FleetSnapshot snapshot =
        fleet_.snapshot(full ? SnapshotMode::kFull : SnapshotMode::kIncremental);
    io::SnapshotSaveStats save_stats;
    io::save_fleet_snapshot(tmp, snapshot, snapshot_cache_, &save_stats);
    snapshot_cache_primed_ = true;
    snapshots_since_full_ = full ? 0 : snapshots_since_full_ + 1;
    counters_.snapshot_records_reused += save_stats.records_reused;
    counters_.snapshot_records_rewritten += save_stats.records_rewritten;
  } else {
    const io::FleetSnapshot snapshot = fleet_.snapshot();
    io::save_fleet_snapshot(tmp, snapshot);
  }
  io::durable_replace(tmp, options_.snapshot_path);
  ++counters_.snapshots_written;
  if (forced) ++counters_.snapshots_forced;
}

void IngestServer::export_stats(bool final_export) {
  if (options_.stats_path.empty()) return;
  // Periodic exports must not drain the event logs — draining would change
  // what a later snapshot carries. Only the final export consumes them.
  std::vector<FleetEvent> events;
  if (final_export) fleet_.drain_events(events);
  std::string json =
      fleet_stats_json(fleet_.stats(), fleet_.options().backpressure,
                       fleet_.options().queue_capacity, events,
                       server_stats_json(counters_, connection_stats()));
  json += '\n';
  const std::string tmp = options_.stats_path + ".tmp";
  io::FileWriter file{tmp, "ingest server stats export"};
  file.write(json);
  file.close();
  io::durable_replace(tmp, options_.stats_path);
  ++counters_.stats_exports;
}

SnapshotCadence parse_snapshot_cadence(const std::string& text) {
  SnapshotCadence cadence;
  std::size_t digits = 0;
  while (digits < text.size() && text[digits] >= '0' && text[digits] <= '9') ++digits;
  EMTS_REQUIRE(digits > 0, "snapshot cadence needs digits: '" + text + "'");
  const std::string suffix = text.substr(digits);
  std::uint64_t value = 0;
  for (std::size_t i = 0; i < digits; ++i) {
    const std::uint64_t digit = static_cast<std::uint64_t>(text[i] - '0');
    EMTS_REQUIRE(value <= (UINT64_MAX - digit) / 10,
                 "snapshot cadence overflows: '" + text + "'");
    value = value * 10 + digit;
  }
  // Zero would silently disable the cadence the caller just asked for;
  // disabling is spelled by omitting the flag, so 0/0s/0ms are usage errors.
  EMTS_REQUIRE(value > 0, "snapshot cadence must be positive: '" + text + "'");
  if (suffix.empty()) {
    cadence.every_frames = value;
  } else if (suffix == "s") {
    EMTS_REQUIRE(value <= UINT64_MAX / 1000, "snapshot cadence overflows: '" + text + "'");
    cadence.every_ms = value * 1000;
  } else if (suffix == "ms") {
    cadence.every_ms = value;
  } else {
    throw precondition_error("snapshot cadence suffix must be 's' or 'ms': '" + text + "'");
  }
  return cadence;
}

void IngestServer::run(const std::atomic<bool>& stop, std::atomic<bool>& snapshot_request) {
  std::uint64_t frames_at_snapshot = 0;
  std::uint64_t frames_at_stats = 0;
  std::uint64_t last_snapshot_ns = util::monotonic_ns();
  // Starvation guard: a due snapshot/stats export *prefers* an idle round
  // (deterministic cut for quiescent clients), but a loaded daemon may never
  // be idle — so once a deadline has been due longer than one poll interval,
  // it is forced onto a busy round anyway. The cut is still consistent
  // (FleetMonitor::snapshot flushes + pauses); only the idle-determinism
  // nicety is given up, and `snapshots_forced` records that it happened.
  const std::uint64_t grace_ns =
      static_cast<std::uint64_t>(options_.poll_timeout_ms) * 1000000ull;
  std::uint64_t snapshot_due_since_ns = 0;
  std::uint64_t stats_due_since_ns = 0;
  bool snapshot_requested = false;

  while (!stop.load(std::memory_order_relaxed)) {
    std::vector<pollfd> fds;
    fds.reserve(clients_.size() + 2);
    std::size_t listeners = 0;
    if (listen_fd_ >= 0) {
      fds.push_back(pollfd{listen_fd_, POLLIN, 0});
      ++listeners;
    }
    if (tcp_listen_fd_ >= 0) {
      fds.push_back(pollfd{tcp_listen_fd_, POLLIN, 0});
      ++listeners;
    }
    for (const auto& client : clients_) {
      fds.push_back(pollfd{client->fd, POLLIN, 0});
    }

    const int ready = ::poll(fds.data(), fds.size(), options_.poll_timeout_ms);
    if (ready < 0) {
      if (errno == EINTR) continue;  // a signal (stop/snapshot) interrupted us
      throw precondition_error(std::string{"ingest server: poll failed: "} +
                               std::strerror(errno));
    }

    if (ready > 0) {
      // Clients first (reverse order keeps erase indices stable), accepts
      // last: bytes already sent always land before a new connection's.
      for (std::size_t c = clients_.size(); c-- > 0;) {
        if ((fds[listeners + c].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
        if (!service_client(*clients_[c])) {
          clients_.erase(clients_.begin() + static_cast<std::ptrdiff_t>(c));
        }
      }
      std::size_t listener = 0;
      if (listen_fd_ >= 0 && (fds[listener++].revents & POLLIN) != 0) {
        accept_unix_clients();
      }
      if (tcp_listen_fd_ >= 0 && (fds[listener].revents & POLLIN) != 0) {
        accept_tcp_clients();
      }
    }

    if (snapshot_request.exchange(false)) snapshot_requested = true;
    const std::uint64_t now_ns = util::monotonic_ns();
    const bool frame_due =
        options_.snapshot_every_frames > 0 &&
        counters_.frames_accepted - frames_at_snapshot >= options_.snapshot_every_frames;
    const bool clock_due =
        options_.snapshot_every_ms > 0 &&
        now_ns - last_snapshot_ns >= options_.snapshot_every_ms * 1000000ull;
    const bool snapshot_due = snapshot_requested || frame_due || clock_due;
    if (!snapshot_due) {
      snapshot_due_since_ns = 0;
    } else if (snapshot_due_since_ns == 0) {
      snapshot_due_since_ns = now_ns;
    }
    const bool snapshot_overshot =
        snapshot_due && now_ns - snapshot_due_since_ns >= grace_ns;
    if (snapshot_due && (ready == 0 || snapshot_overshot)) {
      write_snapshot(/*forced=*/ready != 0);
      snapshot_requested = false;
      snapshot_due_since_ns = 0;
      frames_at_snapshot = counters_.frames_accepted;
      last_snapshot_ns = util::monotonic_ns();
    }

    const bool stats_due =
        options_.stats_every_frames > 0 &&
        counters_.frames_accepted - frames_at_stats >= options_.stats_every_frames;
    if (!stats_due) {
      stats_due_since_ns = 0;
    } else if (stats_due_since_ns == 0) {
      stats_due_since_ns = now_ns;
    }
    if (stats_due && (ready == 0 || now_ns - stats_due_since_ns >= grace_ns)) {
      export_stats(/*final_export=*/false);
      stats_due_since_ns = 0;
      frames_at_stats = counters_.frames_accepted;
    }
  }

  // Clean shutdown: accept the connections still in the listen backlog (a
  // client may have connected and written before the stop), then no more
  // accepts; ingest what's already in flight, score it all, then persist the
  // terminal state.
  if (listen_fd_ >= 0) accept_unix_clients();
  if (tcp_listen_fd_ >= 0) accept_tcp_clients();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    ::unlink(options_.socket_path.c_str());
    listen_fd_ = -1;
  }
  if (tcp_listen_fd_ >= 0) {
    ::close(tcp_listen_fd_);
    tcp_listen_fd_ = -1;
  }
  drain_all_clients();
  clients_.clear();
  fleet_.flush();
  write_snapshot(/*forced=*/false);
  export_stats(/*final_export=*/true);
}

}  // namespace emts::fleet
