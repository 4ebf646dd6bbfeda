// `durable`: the durability side of the socket path. Sixty-four devices
// with skewed keys — every closed-loop round carries the eight hot devices
// plus one cold device in rotation — stream through the same daemon, which
// cuts an incremental EMFS snapshot and exports stats every fixed number of
// frames. Set-up is crash recovery: load the snapshot an untimed priming
// phase wrote, restore the fleet, bind. Snapshots and stats read session
// state while pushes write it, and the skew is what the record cache feeds
// on; the ingest workload exercises none of this.
//
// Cuts and stats exports land in the run directory inside the checkout, so
// each one pays io::durable_replace's fsyncs on whatever filesystem holds
// it; the traced run reports that share as io.fsync_ms.
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/vfs.h>

#include <filesystem>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/evaluator.hpp"
#include "fleet/fleet.hpp"
#include "fleet/server.hpp"
#include "fleet/stats_json.hpp"
#include "inputs.hpp"
#include "io/durable_file.hpp"
#include "io/snapshot.hpp"
#include "workloads.hpp"

namespace e2e {

using namespace emts;

namespace {

constexpr std::size_t kDevices = 64;
constexpr std::size_t kHot = 8;
constexpr std::size_t kCold = kDevices - kHot;
constexpr std::size_t kPerRound = kHot + 1;
constexpr std::size_t kShards = 2;
constexpr std::size_t kQueue = 64;
constexpr std::size_t kCampaign = 64;
constexpr std::size_t kGoldenPool = 96;
constexpr std::size_t kArmedPool = 32;
constexpr std::size_t kHotSlots = 64;   // pre-encoded frames per hot device
constexpr std::size_t kColdSlots = 4;   // pre-encoded frames per cold device
constexpr std::size_t kPrimeHot = 20;   // frames per hot device before the snapshot
constexpr std::size_t kPrimeCold = 6;   // frames per cold device before the snapshot
// Rounds between cuts. A cut then finds the 8 hot devices and 32 cold ones
// dirty and streams the other 24 records from the cache.
constexpr std::size_t kRoundsPerCut = 32;
constexpr std::size_t kSetupRepeats = 5;
constexpr std::size_t kSpectralWindowsReplayed = 2;  // per hot device, traced run only
constexpr std::size_t kThreads = 2 + kShards;

bool armed(std::size_t device) { return device == 2 || device == 5; }

struct Inputs {
  ChipPools pools;
  std::vector<std::string> ids;
  std::vector<std::vector<std::string>> frames;  // [device][slot]
  std::size_t cold_offset = 0;                   // rotation start
};

const core::Trace& pool_trace(const Inputs& in, std::size_t device, std::size_t slot) {
  if (armed(device)) return in.pools.armed.traces[(slot + 5 * device) % kArmedPool];
  return in.pools.golden.traces[(slot + 7 * device) % kGoldenPool];
}

Inputs make_inputs(std::uint64_t seed) {
  Inputs in;
  in.pools = make_chip_pools(seed, kCampaign, kGoldenPool, kArmedPool);
  in.ids = device_ids("dev", kDevices);
  in.cold_offset = static_cast<std::size_t>(derive(seed, 7) % kCold);
  in.frames.resize(kDevices);
  for (std::size_t d = 0; d < kDevices; ++d) {
    const std::size_t slots = d < kHot ? kHotSlots : kColdSlots;
    for (std::size_t s = 0; s < slots; ++s) {
      in.frames[d].push_back(encode_frame(in.ids[d], in.pools.sample_rate, pool_trace(in, d, s)));
    }
  }
  return in;
}

fleet::FleetOptions fleet_options() {
  fleet::FleetOptions options;
  options.shards = kShards;
  options.queue_capacity = kQueue;
  options.backpressure = fleet::BackpressurePolicy::kBlock;
  return options;
}

struct Paths {
  std::string socket, primed, cut, stats;
  explicit Paths(const RunConfig& config)
      : socket{config.dir + "/durable.sock"},
        primed{config.dir + "/primed.emfs"},
        cut{config.dir + "/cut.emfs"},
        stats{config.dir + "/stats.json"} {}
};

/// Untimed priming: a fleet that has already seen traffic on every device
/// writes the snapshot the measured restart recovers from. Returns the
/// traces each device had ingested at the cut.
std::vector<std::uint64_t> prime(const Inputs& in, const Paths& paths) {
  const core::TrustEvaluator evaluator = core::TrustEvaluator::calibrate(in.pools.campaign);
  fleet::FleetMonitor fleet{fleet_options()};
  for (const std::string& id : in.ids) fleet.add_device(id, core::TrustEvaluator{evaluator});
  std::vector<std::uint64_t> ingested(kDevices, 0);
  for (std::size_t round = 0; round < kPrimeHot; ++round) {
    for (std::size_t d = 0; d < kDevices; ++d) {
      if (round >= (d < kHot ? kPrimeHot : kPrimeCold)) continue;
      fleet.submit(in.ids[d], core::Trace{pool_trace(in, d, kHotSlots + round)});
      ++ingested[d];
    }
  }
  fleet.flush();
  io::save_fleet_snapshot(paths.primed, fleet.snapshot());
  return ingested;
}

struct Daemon {
  std::unique_ptr<fleet::FleetMonitor> fleet;
  std::unique_ptr<fleet::IngestServer> server;
};

void shut_down(Daemon& daemon) {
  daemon.server.reset();
  daemon.fleet.reset();
}

struct RestartTimes {
  double load_s = 0.0;
  double restore_s = 0.0;
  double total_s = 0.0;
};

/// Crash recovery: load the EMFS snapshot, restore the fleet, bind.
Daemon restart(const Paths& paths, RestartTimes& times) {
  const std::uint64_t t0 = now_ns();
  const io::FleetSnapshot snapshot = io::load_fleet_snapshot(paths.primed);
  const std::uint64_t t1 = now_ns();
  Daemon daemon;
  daemon.fleet = std::make_unique<fleet::FleetMonitor>(fleet_options());
  daemon.fleet->restore(snapshot);
  const std::uint64_t t2 = now_ns();
  fleet::ServerOptions options;
  options.socket_path = paths.socket;
  options.snapshot_path = paths.cut;
  options.incremental_snapshots = true;
  options.snapshot_every_frames = kRoundsPerCut * kPerRound;
  options.stats_path = paths.stats;
  options.stats_every_frames = kRoundsPerCut * kPerRound;
  // A due cut waits for an idle poll round; the client pauses after every
  // block until the cut lands, so a short poll keeps that pause short.
  options.poll_timeout_ms = 1;
  daemon.server = std::make_unique<fleet::IngestServer>(*daemon.fleet, options);
  const std::uint64_t t3 = now_ns();
  times.load_s = static_cast<double>(t1 - t0) * 1e-9;
  times.restore_s = static_cast<double>(t2 - t1) * 1e-9;
  times.total_s = static_cast<double>(t3 - t0) * 1e-9;
  return daemon;
}

Daemon repeated_restart(const Paths& paths, std::vector<RestartTimes>& reps) {
  Daemon daemon;
  for (std::size_t r = 0; r < kSetupRepeats; ++r) {
    shut_down(daemon);
    RestartTimes times;
    daemon = restart(paths, times);
    reps.push_back(times);
  }
  return daemon;
}

/// The skewed generator: round r carries every hot device and cold device
/// (offset + r) mod kCold.
struct Stream {
  const Inputs& in;
  std::uint64_t round_index = 0;
  std::uint64_t sent = 0;
  std::vector<std::uint64_t> sent_to = std::vector<std::uint64_t>(kDevices, 0);

  void round(SocketClient& client) {
    for (std::size_t h = 0; h <= kHot; ++h) {
      const std::size_t d = h < kHot ? h : kHot + (in.cold_offset + round_index) % kCold;
      const std::vector<std::string>& frames = in.frames[d];
      client.write_all(frames[sent_to[d] % frames.size()]);
      ++sent_to[d];
      ++sent;
    }
    ++round_index;
  }
};

/// Identity of a file's current version (durable_replace renames a new
/// inode into place on every write).
std::uint64_t inode_of(const std::string& path) {
  struct stat st{};
  return ::stat(path.c_str(), &st) == 0 ? static_cast<std::uint64_t>(st.st_ino) : 0;
}

/// Whether `path` lives on a RAM-backed filesystem (tmpfs), where fsync
/// costs nothing.
bool on_tmpfs(const std::string& path) {
  constexpr long kTmpfsMagic = 0x01021994;
  struct statfs fs{};
  return ::statfs(path.c_str(), &fs) == 0 && static_cast<long>(fs.f_type) == kTmpfsMagic;
}

void wait_replaced(const std::string& path, std::uint64_t previous) {
  const std::uint64_t start = now_ns();
  while (inode_of(path) == previous) {
    if (now_ns() - start > 30'000'000'000ull) {
      throw std::runtime_error("durable: " + path + " was never rewritten");
    }
    sleep_until_ns(now_ns() + 200'000);
  }
}

struct Measured {
  std::vector<double> round_us;      // every closed-loop round, in order
  std::vector<double> block_per_s;   // verdicts/s of each pipelined block, cut included
  std::vector<double> block_cpu_us;  // daemon CPU per verdict of each pipelined block
  std::uint64_t frames = 0;
  double seconds = 0.0;
};

/// Blocks of kRoundsPerCut rounds against the real daemon, alternating two
/// kinds. A pipelined block writes its rounds back to back (the shard
/// workers never idle, so a halted vCPU's wake-up never lands on the
/// measurement) and gives throughput and CPU per verdict; a closed-loop
/// block waits for each round's verdicts before the next round and gives
/// latency. After every block the client waits until the server's cut and
/// stats export have landed — the cut is due on the block's last frame and
/// taken on the idle poll that follows — so every run writes the same cuts.
void run_blocks(Stream& stream, SocketClient& client, VerdictWaiter& waiter, const Paths& paths,
                std::size_t pairs, Measured* measured) {
  const std::uint64_t t0 = now_ns();
  const std::uint64_t sent0 = stream.sent;
  for (std::size_t b = 0; b < 2 * pairs; ++b) {
    const bool pipelined = b % 2 == 0;
    const std::uint64_t cut_inode = inode_of(paths.cut);
    const std::uint64_t stats_inode = inode_of(paths.stats);
    const double b_cpu = daemon_cpu_s();
    const std::uint64_t b0 = now_ns();
    const std::uint64_t b_sent = stream.sent;
    for (std::size_t r = 0; r < kRoundsPerCut; ++r) {
      const std::uint64_t r0 = now_ns();
      stream.round(client);
      if (pipelined) continue;
      const std::uint64_t r1 = waiter.wait(stream.sent, r0);
      if (measured) measured->round_us.push_back(static_cast<double>(r1 - r0) * 1e-3);
    }
    wait_replaced(paths.cut, cut_inode);
    wait_replaced(paths.stats, stats_inode);
    if (measured && pipelined) {
      const double frames = static_cast<double>(stream.sent - b_sent);
      measured->block_per_s.push_back(frames * 1e9 / static_cast<double>(now_ns() - b0));
      measured->block_cpu_us.push_back((daemon_cpu_s() - b_cpu) * 1e6 / frames);
    }
  }
  if (measured) {
    measured->frames = stream.sent - sent0;
    measured->seconds = static_cast<double>(now_ns() - t0) * 1e-9;
  }
}

// Latency quantiles come from the quietest 16-round windows (half a
// closed-loop block, about 30 ms each), pooled to at least 100 rounds: 10
// beyond p90.
constexpr std::size_t kWindowRounds = kRoundsPerCut / 2;
constexpr std::size_t kPooledRounds = 100;

/// Block pairs per run: fixed by --seconds alone, never by how fast the
/// host is, so the cut count is the same in every run. A pair takes about a
/// quarter of a second on a quiet 4-vCPU host, so the blocks fill roughly
/// --seconds there.
std::size_t measured_pairs(double seconds) {
  return std::max<std::size_t>(4, static_cast<std::size_t>(seconds * 4.0));
}

/// Output checks: every frame scored, verdicts right, and the last cut
/// loads back with every device and its exact traces_ingested.
void check_outputs(const Inputs& in, const fleet::FleetMonitor& fleet, const Stream& stream,
                   const std::vector<std::uint64_t>& primed, const std::string& cut_path,
                   Result& result) {
  const fleet::FleetStats stats = fleet.stats();
  result.attempt(stream.sent);
  result.check(stats.traces_processed == stream.sent,
               "durable: " + std::to_string(stats.traces_processed) + " frames scored of " +
                   std::to_string(stream.sent) + " sent",
               stream.sent > stats.traces_processed ? stream.sent - stats.traces_processed : 0);
  for (const fleet::SessionStats& session : stats.sessions) {
    std::size_t device = kDevices;
    for (std::size_t d = 0; d < kDevices; ++d) {
      if (in.ids[d] == session.device_id) device = d;
    }
    const bool ok = device < kDevices &&
                    (armed(device) ? session.state == core::MonitorState::kAlarm &&
                                         session.monitor.alarms_latched == 1
                                   : session.state == core::MonitorState::kMonitoring &&
                                         session.monitor.alarms_latched == 0);
    result.check(ok, "durable: wrong verdict for " + session.device_id,
                 device < kDevices ? stream.sent_to[device] : 1);
  }

  const io::FleetSnapshot cut = io::load_fleet_snapshot(cut_path);
  result.check(cut.devices.size() == kDevices,
               "durable: last cut holds " + std::to_string(cut.devices.size()) + " devices");
  for (const io::FleetSnapshot::Device& device : cut.devices) {
    std::size_t d = kDevices;
    for (std::size_t i = 0; i < kDevices; ++i) {
      if (in.ids[i] == device.device_id) d = i;
    }
    const bool ok = d < kDevices &&
                    device.monitor.stats.traces_ingested == primed[d] + stream.sent_to[d];
    result.check(ok, "durable: cut has wrong traces_ingested for " + device.device_id,
                 d < kDevices ? stream.sent_to[d] : 1);
  }
}

}  // namespace

void run_durable(const RunConfig& config, Result& result) {
  const Inputs in = make_inputs(config.seed);
  const Paths paths{config};
  const std::vector<std::uint64_t> primed = prime(in, paths);
  std::vector<RestartTimes> reps;
  Daemon daemon = repeated_restart(paths, reps);
  std::vector<double> setup;
  for (const RestartTimes& t : reps) setup.push_back(t.total_s);

  Stream stream{in};
  Measured measured;
  const std::size_t pairs = measured_pairs(config.seconds);
  {
    ServerThread server_thread{*daemon.server};
    SocketClient client{paths.socket};
    VerdictWaiter waiter{*daemon.fleet};
    run_blocks(stream, client, waiter, paths, 1, nullptr);  // warm-up, incl. the full first cut
    run_blocks(stream, client, waiter, paths, pairs, &measured);
    client.close();
    server_thread.stop();
  }
  const fleet::ServerCounters& counters = daemon.server->counters();
  // One cut and one stats export per block, plus the shutdown ones.
  const std::uint64_t expected_cuts = 2 * (pairs + 1) + 1;
  result.check(counters.snapshots_written == expected_cuts && counters.stats_exports == expected_cuts,
               "durable: " + std::to_string(counters.snapshots_written) + " cuts and " +
                   std::to_string(counters.stats_exports) + " stats exports, expected " +
                   std::to_string(expected_cuts));
  result.check(counters.frames_accepted == stream.sent && counters.frames_rejected == 0,
               "durable: server accepted " + std::to_string(counters.frames_accepted) + " of " +
                   std::to_string(stream.sent) + " frames",
               counters.frames_rejected);
  check_outputs(in, *daemon.fleet, stream, primed, paths.cut, result);

  std::vector<std::vector<double>> windows;
  cut_windows(measured.round_us, kWindowRounds, windows);
  const std::vector<double> quiet = quietest_rounds(windows, kPooledRounds);
  result.metric("throughput_per_s", best_rate(measured.block_per_s), "1/s");
  result.metric("verdict_p50_us", quantile(quiet, 0.50), "us");
  result.metric("verdict_p90_us", quantile(quiet, 0.90), "us");
  result.metric("cpu_us_per_verdict", median(measured.block_cpu_us), "us");
  result.metric("setup_s", median(setup), "s");
  result.metric("rss_mb", peak_rss_mb(), "MB");
  result.metric("success_frac", result.success_frac(), "frac");
  result.diagnostic("threads", static_cast<double>(kThreads));
  result.diagnostic("generator_threads", static_cast<double>(kGeneratorThreads));
  result.diagnostic("cuts", static_cast<double>(counters.snapshots_written));
  result.diagnostic("cuts_forced", static_cast<double>(counters.snapshots_forced));
  result.diagnostic("records_reused", static_cast<double>(counters.snapshot_records_reused));
  result.diagnostic("records_rewritten", static_cast<double>(counters.snapshot_records_rewritten));
  result.diagnostic("cuts_on_tmpfs", on_tmpfs(config.dir) ? 1.0 : 0.0);
  result.diagnostic("rounds", static_cast<double>(measured.round_us.size()));
  result.diagnostic("pooled_throughput_per_s",
                    static_cast<double>(measured.frames) / measured.seconds);
  result.diagnostic("pooled_verdict_p50_us", quantile(measured.round_us, 0.50));
  result.diagnostic("pooled_verdict_p90_us", quantile(measured.round_us, 0.90));
  result.diagnostic("pooled_verdict_p99_us", quantile(measured.round_us, 0.99));
  shut_down(daemon);
}

void trace_durable(const RunConfig& config, Result& result) {
  const Inputs in = make_inputs(config.seed);
  const Paths paths{config};
  const std::vector<std::uint64_t> primed = prime(in, paths);
  std::vector<RestartTimes> reps;
  Daemon daemon = repeated_restart(paths, reps);
  std::vector<double> load_ms, restore_ms;
  for (const RestartTimes& t : reps) {
    load_ms.push_back(t.load_s * 1e3);
    restore_ms.push_back(t.restore_s * 1e3);
  }
  result.metric("io.snapshot_load_ms", median(load_ms), "ms");
  result.metric("fleet.restore_ms", median(restore_ms), "ms");

  // Untraced reference on the real daemon. Cut sizes cycle (see below) over
  // spectral_window x kCold rounds, so the untraced and the traced phase
  // each span one whole cycle and their block rates compare like for like.
  const std::size_t cycle_blocks =
      fleet_options().monitor.spectral_window * kCold / kRoundsPerCut;
  const std::size_t pairs = cycle_blocks / 2;
  Stream stream{in};
  Measured untraced;
  {
    ServerThread server_thread{*daemon.server};
    SocketClient client{paths.socket};
    VerdictWaiter waiter{*daemon.fleet};
    run_blocks(stream, client, waiter, paths, 1, nullptr);
    run_blocks(stream, client, waiter, paths, pairs, &untraced);
    client.close();
    server_thread.stop();
  }

  // Traced: the benchmark's own read path, and the client cuts and exports
  // itself after every block through the same calls the server makes.
  int fds[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, fds) != 0) {
    throw std::runtime_error("socketpair failed");
  }
  SpanRecorder client_spans;
  const FleetSample before = FleetSample::take(*daemon.fleet);
  auto loop = std::make_unique<TracedIngestLoop>(*daemon.fleet, fds[1]);
  io::FleetSnapshotRecordCache cache;
  std::uint64_t reused = 0, rewritten = 0;
  // Cut sizes cycle over a run: each cold device's spectral-window ring
  // fills one capture per 56 rounds, and the ring is part of its record.
  std::vector<double> snapshot_mb;
  std::vector<double> traced_block_per_s;
  std::uint64_t traced_frames = 0;
  {
    SocketClient writer{fds[0]};
    const std::uint64_t processed0 = daemon.fleet->stats().traces_processed;
    const std::uint64_t sent0 = stream.sent;
    for (std::size_t b = 0; b < cycle_blocks + 1; ++b) {
      const std::uint64_t b0 = now_ns();
      const std::uint64_t b_sent = stream.sent;
      for (std::size_t r = 0; r < kRoundsPerCut; ++r) stream.round(writer);
      wait_processed(*daemon.fleet, processed0 + stream.sent - sent0);
      const bool full = b == 0;  // a fresh cache starts cold
      std::int32_t span = client_spans.begin("fleet.snapshot", b);
      const io::FleetSnapshot snapshot = daemon.fleet->snapshot(
          full ? fleet::SnapshotMode::kFull : fleet::SnapshotMode::kIncremental);
      client_spans.end(span);
      io::SnapshotSaveStats save_stats;
      span = client_spans.begin("io.save_fleet_snapshot", b);
      io::save_fleet_snapshot(paths.cut + ".tmp", snapshot, cache, &save_stats);
      client_spans.end(span);
      span = client_spans.begin("io.durable_replace.cut", b);
      io::durable_replace(paths.cut + ".tmp", paths.cut);
      client_spans.end(span);
      if (!full) {
        reused += save_stats.records_reused;
        rewritten += save_stats.records_rewritten;
        snapshot_mb.push_back(static_cast<double>(std::filesystem::file_size(paths.cut)) /
                              (1024.0 * 1024.0));
      }
      span = client_spans.begin("fleet.stats_export", b);
      {
        const std::string json = fleet::fleet_stats_json(
            daemon.fleet->stats(), fleet_options().backpressure, kQueue, {});
        std::ofstream out{paths.stats + ".tmp", std::ios::binary};
        out << json << '\n';
      }
      client_spans.end(span);
      span = client_spans.begin("io.durable_replace.stats", b);
      io::durable_replace(paths.stats + ".tmp", paths.stats);
      client_spans.end(span);
      if (!full) {
        traced_block_per_s.push_back(static_cast<double>(stream.sent - b_sent) * 1e9 /
                                     static_cast<double>(now_ns() - b0));
      }
    }
    writer.close();
    loop->join();
    traced_frames = stream.sent - sent0;
  }
  const FleetSample after = FleetSample::take(*daemon.fleet);
  const SpanRecorder& loop_spans = loop->spans();
  result.check(loop->rejected() == 0, "durable: the traced path had frames refused");
  const double frames = static_cast<double>(traced_frames);

  // Skip the first (full, cold-cache) cut in the per-cut figures.
  const auto tail = [](std::vector<double> v) {
    if (!v.empty()) v.erase(v.begin());
    return v;
  };
  const double pause_ms = median(tail(client_spans.durations_us("fleet.snapshot"))) * 1e-3;
  const double save_ms = median(tail(client_spans.durations_us("io.save_fleet_snapshot"))) * 1e-3;
  const double stats_ms = median(tail(client_spans.durations_us("fleet.stats_export"))) * 1e-3;
  // Both renames of a cut with their file and directory fsyncs, per cut.
  std::vector<double> fsync_us = tail(client_spans.durations_us("io.durable_replace.cut"));
  const std::vector<double> stats_fsync_us =
      tail(client_spans.durations_us("io.durable_replace.stats"));
  for (std::size_t i = 0; i < fsync_us.size(); ++i) fsync_us[i] += stats_fsync_us[i];
  result.metric("fleet.snapshot_pause_ms", pause_ms, "ms");
  result.metric("io.snapshot_save_ms", save_ms, "ms");
  result.metric("io.fsync_ms", median(fsync_us) * 1e-3, "ms");
  result.metric("io.snapshot_mb", median(snapshot_mb), "MB");
  result.metric("io.snapshot_reuse_frac",
                static_cast<double>(reused) / static_cast<double>(reused + rewritten), "frac");
  result.metric("fleet.stats_ms", stats_ms, "ms");

  // Ledger, in thread CPU time: the push cost comes from a standalone replay
  // of the hot devices' streams.
  std::vector<std::vector<const core::Trace*>> streams(kHot);
  for (std::size_t d = 0; d < kHot; ++d) {
    for (std::size_t s = 0; s < kSpectralWindowsReplayed * fleet_options().monitor.spectral_window;
         ++s) {
      streams[d].push_back(&pool_trace(in, d, s));
    }
  }
  SpanRecorder replay_spans;
  replay_streams(core::TrustEvaluator::calibrate(in.pools.campaign), in.pools.sample_rate,
                 fleet_options().monitor, streams, replay_spans);
  const double push_cpu_us = replay_spans.mean_cpu_us("core.push");
  const double cut_cpu_us = client_spans.total_cpu_us("fleet.snapshot") +
                            client_spans.total_cpu_us("io.save_fleet_snapshot") +
                            client_spans.total_cpu_us("io.durable_replace.cut") +
                            client_spans.total_cpu_us("fleet.stats_export") +
                            client_spans.total_cpu_us("io.durable_replace.stats");
  // The generator's writes and verdict waits are not the daemon's; the cut
  // calls are (the server makes them in the untraced run).
  const double explained =
      (loop_spans.total_cpu_us("io.recv") + loop_spans.total_cpu_us("io.feed") +
       loop_spans.total_cpu_us("io.next") + loop_spans.total_cpu_us("fleet.submit_frames") +
       cut_cpu_us) /
          frames +
      push_cpu_us;
  const double untraced_cpu_us = median(untraced.block_cpu_us);
  const double untraced_per_s = best_rate(untraced.block_per_s);
  result.metric("ledger.durable.cpu_us_per_verdict", untraced_cpu_us, "us");
  result.metric("ledger.durable.explained_us", explained, "us");
  result.metric("ledger.durable.unexplained_us", untraced_cpu_us - explained, "us");
  result.metric("ledger.durable.throughput_per_s", untraced_per_s, "1/s");
  // Like throughput_per_s, the prediction is for the best block: its frames
  // through the busier shard, then the cheapest cut, export and fsync seen.
  std::uint64_t shard_max = 0, shard_sum = 0;
  for (std::size_t i = 0; i < after.processed.size(); ++i) {
    const std::uint64_t done = after.processed[i] - before.processed[i];
    shard_max = std::max(shard_max, done);
    shard_sum += done;
  }
  const double block_frames = static_cast<double>(kRoundsPerCut * kPerRound);
  const double busiest_share = static_cast<double>(shard_max) / static_cast<double>(shard_sum);
  const double cut_us = best_time(tail(client_spans.durations_us("fleet.snapshot"))) +
                        best_time(tail(client_spans.durations_us("io.save_fleet_snapshot"))) +
                        best_time(tail(client_spans.durations_us("fleet.stats_export"))) +
                        best_time(fsync_us);
  result.metric("ledger.durable.predicted_per_s",
                block_frames * 1e6 / (block_frames * busiest_share * push_cpu_us + cut_us),
                "1/s");
  // Over a whole cycle each, the median block compares like for like; the
  // best blocks of the two phases need not sit at the same cut size.
  result.metric("trace.durable.overhead_frac",
                1.0 - median(traced_block_per_s) / median(untraced.block_per_s), "frac");

  check_outputs(in, *daemon.fleet, stream, primed, paths.cut, result);
  if (!config.spans_path.empty()) {
    write_spans(config.spans_path, {{"durable.client", &client_spans},
                                    {"durable.server", &loop_spans},
                                    {"durable.replay", &replay_spans}});
  }
  loop.reset();
  shut_down(daemon);
}

}  // namespace e2e
