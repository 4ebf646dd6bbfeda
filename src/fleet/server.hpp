// Ingest daemon around a FleetMonitor: an accept loop over a unix-domain
// socket and/or a TCP listener that decodes EMWF trace frames from any
// number of client connections and routes them into the fleet's shard
// queues (one submit_frames batch per client read). This is the service
// surface of the paper's deployment story — sensors stream captures to a
// long-running trust evaluator instead of batch replays — grown on top of
// the existing
// bounded-ingest machinery: the shard queues, backpressure policies and
// per-device ordering all apply unchanged to socket traffic.
//
// Transports. Unix-socket clients are trusted by filesystem permissions.
// TCP clients (same EMWF framing, TCP_NODELAY) pass two gates: an IPv4
// CIDR/host allowlist checked at accept time, and — when the daemon is
// configured with a shared secret — a HELLO auth frame that must be the
// first frame on the connection; trace frames before a successful HELLO
// drop the connection without ingesting anything. Every connection the
// daemon drops (over the client limit, outside the allowlist, refused auth,
// undecodable bytes) is reset rather than closed, so a client that has
// already sent its whole stream can still tell the drop from a clean end.
//
// The loop is cooperative and signal-driven. `stop` (set by SIGINT/SIGTERM
// in the CLI) triggers a clean shutdown: drain every connection's kernel
// buffer, flush the fleet, write a final snapshot and stats export, then
// return. `snapshot_request` (SIGUSR1) asks for a mid-flight snapshot.
// Snapshots and stats prefer an idle poll round (every byte the clients
// already sent is ingested, so the cut is deterministic for a quiescent
// client) — but a daemon under sustained load may never see an idle round,
// so a due snapshot/stats export overshooting its deadline by more than one
// poll interval is forced anyway (counted in `snapshots_forced`; the cut is
// still consistent, FleetMonitor::snapshot flushes and pauses). Artifacts
// land via write-to-temp, fsync, rename, fsync-directory
// (io::durable_replace), so a file that exists is complete *and* survives a
// power cut.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "fleet/fleet.hpp"
#include "io/snapshot.hpp"

namespace emts::fleet {

struct ServerOptions {
  /// Path of the unix-domain listening socket. Empty disables the unix
  /// transport (then listen_address must be set). The constructor probes an
  /// existing socket file with connect() first: a live daemon behind it is a
  /// hard error, only a stale (connection-refused) file is unlinked.
  std::string socket_path;

  /// TCP listen endpoint as "host:port" (numeric IPv4, e.g.
  /// "127.0.0.1:7600"). Empty disables the TCP transport.
  std::string listen_address;

  /// IPv4 allowlist for TCP peers: "a.b.c.d" single hosts or "a.b.c.d/n"
  /// CIDR blocks. Empty allows any peer. Rejected accepts are closed
  /// immediately and counted (connections_rejected_acl). Unix-socket
  /// clients are never filtered.
  std::vector<std::string> allow;

  /// Shared secret for TCP connections. Non-empty requires every TCP client
  /// to authenticate with a HELLO frame carrying exactly this token before
  /// its first trace frame. Unix-socket clients never need auth.
  std::string auth_secret;

  /// Snapshot (EMFS) destination. Empty disables snapshots entirely —
  /// including the shutdown snapshot and SIGUSR1 requests.
  std::string snapshot_path;
  /// Also snapshot automatically every N accepted frames (0 = only on
  /// request and shutdown).
  std::uint64_t snapshot_every_frames = 0;
  /// Also snapshot automatically every N wall-clock milliseconds (0 = no
  /// wall-clock cadence). Combinable with the frame cadence (either being
  /// due triggers a snapshot).
  std::uint64_t snapshot_every_ms = 0;

  /// Incremental snapshot cuts: copy and re-encode only devices whose state
  /// moved since the last cut, stream the rest from the in-memory record
  /// cache (io::FleetSnapshotRecordCache). Every written file is still a
  /// complete EMFS container, byte-identical to a full rewrite.
  bool incremental_snapshots = false;
  /// In incremental mode, force a full rewrite every Nth snapshot (>= 1) as
  /// a periodic safety net; the first cut is always full (cold cache).
  std::uint64_t full_snapshot_every = 16;

  /// Periodic fleet stats JSON destination (fleet_stats_json schema). Empty
  /// disables the export. The final export at shutdown drains and includes
  /// buffered events; periodic exports do not drain them (observability must
  /// not perturb the stream).
  std::string stats_path;
  /// Export stats every N accepted frames (0 = only the final export).
  std::uint64_t stats_every_frames = 0;

  /// poll() granularity; bounds signal-to-reaction latency, and doubles as
  /// the grace window before a due snapshot/stats export is forced onto a
  /// busy loop.
  int poll_timeout_ms = 50;
  /// Concurrent client connections; further accepts are reset immediately.
  std::size_t max_clients = 64;
};

/// Lifetime accounting of one serve run.
struct ServerCounters {
  std::uint64_t connections_accepted = 0;
  std::uint64_t connections_closed = 0;    // clean EOFs
  std::uint64_t connections_dropped = 0;   // protocol violations, over-limit
  std::uint64_t connections_rejected_acl = 0;  // TCP accepts outside the allowlist
  std::uint64_t auth_failures = 0;         // bad HELLO token / trace before auth
  std::uint64_t bytes_received = 0;
  std::uint64_t frames_accepted = 0;       // decoded and routed into the fleet
  std::uint64_t frames_rejected = 0;       // unknown device, rate mismatch, or
                                           // kReject backpressure refusals
  std::uint64_t snapshots_written = 0;
  std::uint64_t snapshots_forced = 0;      // cut on a busy round after overshoot
  std::uint64_t snapshot_records_reused = 0;     // incremental-mode cache hits
  std::uint64_t snapshot_records_rewritten = 0;  // re-encoded device records
  std::uint64_t stats_exports = 0;
};

/// Per-connection transport accounting, surfaced in the stats export.
struct ServerConnectionStats {
  std::string peer;  // "unix" or "a.b.c.d:port"
  bool tcp = false;
  bool authenticated = false;  // always true for unix / no-secret connections
  std::uint64_t bytes_received = 0;
  std::uint64_t frames_decoded = 0;
};

/// Parsed "host:port" TCP endpoint (numeric IPv4 only). Throws
/// precondition_error on a malformed host, missing colon, or a port outside
/// 1..65535 — the CLI maps that to a usage error.
struct TcpEndpoint {
  std::uint32_t addr = 0;  // host byte order
  std::uint16_t port = 0;
};
TcpEndpoint parse_tcp_endpoint(const std::string& text);

/// Parsed IPv4 allowlist rule: "a.b.c.d" (an exact host, /32) or
/// "a.b.c.d/n". Throws precondition_error on malformed input.
struct CidrRule {
  std::uint32_t network = 0;  // host byte order, already masked
  std::uint32_t mask = 0;     // host byte order
};
CidrRule parse_cidr(const std::string& text);
bool cidr_match(const CidrRule& rule, std::uint32_t addr_host_order);

class IngestServer {
 public:
  /// Binds and listens immediately on every configured transport (throws
  /// precondition_error on failure); traffic flows once run() is entered.
  /// The fleet must outlive the server.
  IngestServer(FleetMonitor& fleet, ServerOptions options);
  ~IngestServer();

  IngestServer(const IngestServer&) = delete;
  IngestServer& operator=(const IngestServer&) = delete;

  /// Serves until `stop` becomes true, then shuts down cleanly (drain,
  /// flush, final snapshot + stats). `snapshot_request` may be set at any
  /// time (signal-safe); it is consumed on the next poll round — idle if
  /// one comes soon enough, forced onto a busy round otherwise.
  void run(const std::atomic<bool>& stop, std::atomic<bool>& snapshot_request);

  const ServerCounters& counters() const { return counters_; }
  const ServerOptions& options() const { return options_; }

  /// Point-in-time copy of every live connection's accounting (sorted by
  /// peer label, ties broken by age).
  std::vector<ServerConnectionStats> connection_stats() const;

 private:
  struct Client;

  void setup_unix_listener();
  void setup_tcp_listener();
  void accept_unix_clients();
  void accept_tcp_clients();
  bool admit_client(int fd);
  /// Reads every byte currently available on one client; returns false when
  /// the connection is finished (EOF or protocol error) and must be closed.
  bool service_client(Client& client);
  void drain_all_clients();
  void write_snapshot(bool forced);
  void export_stats(bool final_export);

  FleetMonitor& fleet_;
  ServerOptions options_;
  ServerCounters counters_{};
  int listen_fd_ = -1;      // unix transport (-1 when disabled)
  int tcp_listen_fd_ = -1;  // TCP transport (-1 when disabled)
  std::vector<CidrRule> allow_rules_;
  std::vector<std::unique_ptr<Client>> clients_;
  /// Scratch for batch frame draining: filled per recv() chunk, handed to
  /// FleetMonitor::submit_frames in one call, capacity reused across chunks.
  std::vector<io::wire::TraceFrame> frame_batch_;
  /// Incremental-snapshot record cache + full-rewrite cadence state.
  io::FleetSnapshotRecordCache snapshot_cache_;
  bool snapshot_cache_primed_ = false;
  std::uint64_t snapshots_since_full_ = 0;
};

/// Parses a `--snapshot-every` cadence argument: a bare count means frames,
/// an `s` or `ms` suffix means wall-clock time (returned in the second
/// member, in milliseconds; the first member is 0 then, and vice versa).
/// Throws precondition_error on empty input, garbage digits, an unknown
/// suffix, or a zero value (`0`, `0s`, `0ms` would silently disable the
/// cadence — disabling is spelled by omitting the flag) — the CLI maps that
/// to a usage error (exit 2).
struct SnapshotCadence {
  std::uint64_t every_frames = 0;
  std::uint64_t every_ms = 0;
};
SnapshotCadence parse_snapshot_cadence(const std::string& text);

}  // namespace emts::fleet
