// `ingest`: the north-star path. Sixteen devices (two armed with T2) stream
// pre-encoded EMWF frames over one unix-socket connection into
// fleet::IngestServer, which decodes them and hands them to a two-shard
// FleetMonitor whose workers score them through RuntimeMonitor. A
// saturating phase measures throughput and CPU per verdict; a closed-loop
// rounds phase (one capture per device, one round in flight) measures
// verdict latency.
#include <sys/socket.h>

#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/evaluator.hpp"
#include "core/monitor.hpp"
#include "fleet/fleet.hpp"
#include "fleet/server.hpp"
#include "inputs.hpp"
#include "io/calibration.hpp"
#include "workloads.hpp"

namespace e2e {

using namespace emts;

namespace {

constexpr std::size_t kDevices = 16;
constexpr std::size_t kShards = 2;
constexpr std::size_t kQueue = 64;
constexpr std::size_t kCampaign = 64;     // golden calibration captures
constexpr std::size_t kGoldenPool = 96;   // distinct golden runtime captures
constexpr std::size_t kArmedPool = 32;    // distinct T2 runtime captures
constexpr std::size_t kSlots = 64;        // pre-encoded frames per device, cycled
constexpr std::size_t kSetupRepeats = 11;
constexpr std::size_t kWarmupRounds = 32;
// Measured time alternates a short saturating phase with a block of
// closed-loop rounds, which spreads host interference over both kinds of
// metric. Latency quantiles come from the quietest windows of one spectral
// window each (16 rounds, about 45 ms), pooled to at least 100 rounds: 10
// beyond p90. Every device runs its spectral pass in the same round, once
// per spectral window; phases end on a window boundary, so each latency
// window holds exactly one such round and the pool's mix of the two kinds
// of round is the same in every run.
constexpr double kSaturateSeconds = 0.3;
constexpr std::size_t kWindowRounds = 16;  // RuntimeMonitor::Options::spectral_window
constexpr std::size_t kSegmentRounds = 8 * kWindowRounds;
constexpr std::size_t kPooledRounds = 100;
// Threads while measuring: the client, the server loop, two shard workers.
constexpr std::size_t kThreads = 2 + kShards;

bool armed(std::size_t device) { return device == 3 || device == 11; }

struct Inputs {
  ChipPools pools;
  std::vector<std::string> ids;
  std::vector<std::vector<std::string>> frames;  // [device][slot]
};

Inputs make_inputs(std::uint64_t seed) {
  Inputs in;
  in.pools = make_chip_pools(seed, kCampaign, kGoldenPool, kArmedPool);
  in.ids = device_ids("chip", kDevices);
  in.frames.resize(kDevices);
  for (std::size_t d = 0; d < kDevices; ++d) {
    for (std::size_t s = 0; s < kSlots; ++s) {
      const core::Trace& trace = armed(d) ? in.pools.armed.traces[(s + 5 * d) % kArmedPool]
                                          : in.pools.golden.traces[(s + 7 * d) % kGoldenPool];
      in.frames[d].push_back(encode_frame(in.ids[d], in.pools.sample_rate, trace));
    }
  }
  return in;
}

fleet::FleetOptions fleet_options() {
  fleet::FleetOptions options;
  options.shards = kShards;
  options.queue_capacity = kQueue;
  options.backpressure = fleet::BackpressurePolicy::kBlock;
  if (options.monitor.spectral_window != kWindowRounds) {
    throw std::logic_error("ingest: latency windows must match the spectral window");
  }
  return options;
}

/// A cold-started daemon; the server is declared last so it is destroyed
/// before the fleet it references.
struct Daemon {
  std::unique_ptr<fleet::FleetMonitor> fleet;
  std::unique_ptr<fleet::IngestServer> server;
};

struct ColdStartTimes {
  double calibrate_s = 0.0;
  double load_s = 0.0;  // all devices
  double total_s = 0.0;
};

std::string socket_path(const RunConfig& config) { return config.dir + "/ingest.sock"; }
std::string emca_path(const RunConfig& config) { return config.dir + "/ingest.emca"; }

/// The user's set-up: fit the stack on the golden campaign, write the EMCA
/// artifact, then cold-start the daemon (load it per device, build the
/// fleet, bind the socket).
Daemon cold_start(const Inputs& in, const RunConfig& config, ColdStartTimes& times) {
  const std::uint64_t t0 = now_ns();
  const core::TrustEvaluator evaluator = core::TrustEvaluator::calibrate(in.pools.campaign);
  const std::uint64_t t1 = now_ns();
  io::save_calibration(emca_path(config), evaluator);
  Daemon daemon;
  daemon.fleet = std::make_unique<fleet::FleetMonitor>(fleet_options());
  std::uint64_t load_ns = 0;
  for (const std::string& id : in.ids) {
    const std::uint64_t l0 = now_ns();
    core::TrustEvaluator loaded = io::load_calibration(emca_path(config));
    load_ns += now_ns() - l0;
    daemon.fleet->add_device(id, std::move(loaded));
  }
  fleet::ServerOptions options;
  options.socket_path = socket_path(config);
  daemon.server = std::make_unique<fleet::IngestServer>(*daemon.fleet, options);
  const std::uint64_t t2 = now_ns();
  times.calibrate_s = static_cast<double>(t1 - t0) * 1e-9;
  times.load_s = static_cast<double>(load_ns) * 1e-9;
  times.total_s = static_cast<double>(t2 - t0) * 1e-9;
  return daemon;
}

void shut_down(Daemon& daemon) {
  daemon.server.reset();
  daemon.fleet.reset();
}

/// Cold start repeated kSetupRepeats times (set-up steps this short are
/// noisy one by one); keeps the last daemon.
Daemon repeated_cold_start(const Inputs& in, const RunConfig& config,
                           std::vector<ColdStartTimes>& reps) {
  Daemon daemon;
  for (std::size_t r = 0; r < kSetupRepeats; ++r) {
    shut_down(daemon);
    ColdStartTimes times;
    daemon = cold_start(in, config, times);
    reps.push_back(times);
  }
  return daemon;
}

/// The generator: writes one frame per device per round, one write() each,
/// cycling through the pre-encoded slots.
struct Stream {
  const Inputs& in;
  std::size_t slot = 0;
  std::uint64_t sent = 0;

  void round(SocketClient& client) {
    for (std::size_t d = 0; d < kDevices; ++d) client.write_all(in.frames[d][slot % kSlots]);
    ++slot;
    sent += kDevices;
  }
};

void warm_up(Stream& stream, SocketClient& client, VerdictWaiter& waiter) {
  for (std::size_t r = 0; r < kWarmupRounds; ++r) {
    const std::uint64_t t0 = now_ns();
    stream.round(client);
    waiter.wait(stream.sent, t0);
  }
}

struct Saturation {
  double seconds = 0.0;           // first write to last verdict
  double steady_per_s = 0.0;      // verdicts/s once the pipeline is full
  double steady_cpu_us = 0.0;     // daemon CPU per verdict, same interval
};

/// Writes rounds back to back for `budget_s`, and on to the next spectral
/// window boundary, then waits until every frame is scored. Besides the whole phase (first write to last verdict), the
/// generator samples the fleet's scored count once the pipeline has filled
/// (after a tenth of the phase) and again after its last write: the steady
/// rate between the two is free of the fill and drain ramps.
Saturation saturate(Stream& stream, SocketClient& client, const fleet::FleetMonitor& fleet,
                    double budget_s) {
  Saturation out;
  const std::uint64_t t0 = now_ns();
  const std::uint64_t filled = t0 + static_cast<std::uint64_t>(0.1 * budget_s * 1e9);
  const std::uint64_t deadline = t0 + static_cast<std::uint64_t>(budget_s * 1e9);
  // Sample order keeps a preemption of the generator from flattering the
  // segment: the window opens no later and closes no earlier than the two
  // scored counts, and its CPU covers at least the same span.
  while (now_ns() < filled) stream.round(client);
  const double cpu_a = daemon_cpu_s();
  const std::uint64_t t_a = now_ns();
  const std::uint64_t done_a = fleet.stats().traces_processed;
  while (now_ns() < deadline || stream.slot % kWindowRounds != 0) stream.round(client);
  const std::uint64_t done_b = fleet.stats().traces_processed;
  const std::uint64_t t_b = now_ns();
  const double cpu_b = daemon_cpu_s();
  const std::uint64_t t1 = wait_processed(fleet, stream.sent);
  out.seconds = static_cast<double>(t1 - t0) * 1e-9;
  out.steady_per_s = static_cast<double>(done_b - done_a) * 1e9 / static_cast<double>(t_b - t_a);
  out.steady_cpu_us = (cpu_b - cpu_a) * 1e6 / static_cast<double>(done_b - done_a);
  return out;
}

/// `count` closed-loop rounds: round latency from its first write to its
/// last verdict, in microseconds.
std::vector<double> closed_rounds(Stream& stream, SocketClient& client, VerdictWaiter& waiter,
                                  std::size_t count) {
  std::vector<double> latencies;
  for (std::size_t r = 0; r < count; ++r) {
    const std::uint64_t t0 = now_ns();
    stream.round(client);
    const std::uint64_t t1 = waiter.wait(stream.sent, t0);
    latencies.push_back(static_cast<double>(t1 - t0) * 1e-3);
  }
  return latencies;
}

/// Output checks: every frame sent was accepted and scored, armed devices
/// latched, golden devices never did. A device with a wrong verdict fails
/// every frame it sent.
void check_outputs(const Inputs& in, const fleet::FleetMonitor& fleet,
                   const fleet::ServerCounters* counters, std::uint64_t sent, Result& result) {
  const fleet::FleetStats stats = fleet.stats();
  result.attempt(sent);
  const std::uint64_t unscored = sent > stats.traces_processed ? sent - stats.traces_processed : 0;
  result.check(stats.traces_processed == sent,
               "ingest: " + std::to_string(stats.traces_processed) + " frames scored of " +
                   std::to_string(sent) + " sent",
               unscored);
  result.check(stats.traces_rejected_invalid == 0, "ingest: session input gate rejected frames",
               stats.traces_rejected_invalid);
  if (counters != nullptr) {
    result.check(counters->frames_accepted == sent && counters->frames_rejected == 0 &&
                     counters->connections_dropped == 0,
                 "ingest: server accepted " + std::to_string(counters->frames_accepted) +
                     " frames, rejected " + std::to_string(counters->frames_rejected),
                 counters->frames_rejected);
  }
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
    result.check(ok, "ingest: wrong verdict for " + session.device_id + " (" +
                         core::monitor_state_label(session.state) + ")",
                 session.monitor.scored_captures);
  }
}

}  // namespace

void run_ingest(const RunConfig& config, Result& result) {
  const Inputs in = make_inputs(config.seed);
  std::vector<ColdStartTimes> reps;
  Daemon daemon = repeated_cold_start(in, config, reps);
  std::vector<double> setup;
  for (const ColdStartTimes& t : reps) setup.push_back(t.total_s);

  Stream stream{in};
  std::vector<double> rate, cpu, all_rounds;
  std::vector<std::vector<double>> windows;
  std::uint64_t polls = 0;
  {
    ServerThread server_thread{*daemon.server};
    SocketClient client{socket_path(config)};
    VerdictWaiter waiter{*daemon.fleet};
    warm_up(stream, client, waiter);
    const std::uint64_t polls0 = waiter.polls();
    const std::uint64_t deadline = now_ns() + static_cast<std::uint64_t>(config.seconds * 1e9);
    while (rate.empty() || now_ns() < deadline) {
      const Saturation sat = saturate(stream, client, *daemon.fleet, kSaturateSeconds);
      rate.push_back(sat.steady_per_s);
      cpu.push_back(sat.steady_cpu_us);
      const std::vector<double> rounds = closed_rounds(stream, client, waiter, kSegmentRounds);
      cut_windows(rounds, kWindowRounds, windows);
      all_rounds.insert(all_rounds.end(), rounds.begin(), rounds.end());
    }
    polls = waiter.polls() - polls0;
    client.close();
    server_thread.stop();
  }
  check_outputs(in, *daemon.fleet, &daemon.server->counters(), stream.sent, result);

  const std::vector<double> quiet = quietest_rounds(windows, kPooledRounds);
  result.metric("throughput_per_s", best_rate(rate), "1/s");
  result.metric("verdict_p50_us", quantile(quiet, 0.50), "us");
  result.metric("verdict_p90_us", quantile(quiet, 0.90), "us");
  result.metric("cpu_us_per_verdict", median(cpu), "us");
  result.metric("setup_s", median(setup), "s");
  result.metric("rss_mb", peak_rss_mb(), "MB");
  result.metric("success_frac", result.success_frac(), "frac");
  result.diagnostic("threads", static_cast<double>(kThreads));
  result.diagnostic("generator_threads", static_cast<double>(kGeneratorThreads));
  result.diagnostic("segments", static_cast<double>(rate.size()));
  result.diagnostic("rounds", static_cast<double>(all_rounds.size()));
  result.diagnostic("polls_per_round",
                    static_cast<double>(polls) / static_cast<double>(all_rounds.size()));
  result.diagnostic("pooled_verdict_p50_us", quantile(all_rounds, 0.50));
  result.diagnostic("pooled_verdict_p90_us", quantile(all_rounds, 0.90));
  result.diagnostic("pooled_verdict_p99_us", quantile(all_rounds, 0.99));
  shut_down(daemon);
}

void trace_ingest(const RunConfig& config, Result& result) {
  const Inputs in = make_inputs(config.seed);
  std::vector<ColdStartTimes> reps;
  Daemon daemon = repeated_cold_start(in, config, reps);
  std::vector<double> calibrate_ms;
  std::vector<double> load_ms;
  for (const ColdStartTimes& t : reps) {
    calibrate_ms.push_back(t.calibrate_s * 1e3);
    load_ms.push_back(t.load_s * 1e3 / static_cast<double>(kDevices));
  }
  result.metric("core.calibrate_ms", median(calibrate_ms), "ms");
  result.metric("io.calibration_load_ms", median(load_ms), "ms");

  // Untraced and traced saturating segments alternate, so both see the same
  // host. The real daemon listens on its socket and the traced read path on
  // a socketpair, both in front of the same fleet; the generator writes to
  // one of them at a time.
  int fds[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, fds) != 0) {
    throw std::runtime_error("socketpair failed");
  }
  auto loop = std::make_unique<TracedIngestLoop>(*daemon.fleet, fds[1]);
  Stream stream{in};
  std::vector<double> untraced_rate, untraced_cpu, traced_rate;
  FleetSample traced_delta;  // counters summed over the traced segments only
  traced_delta.processed.assign(kShards, 0);
  traced_delta.blocked.assign(kShards, 0);
  double traced_seconds = 0.0;
  {
    ServerThread server_thread{*daemon.server};
    SocketClient client{socket_path(config)};
    SocketClient traced_client{fds[0]};
    VerdictWaiter waiter{*daemon.fleet};
    warm_up(stream, client, waiter);
    const std::uint64_t deadline = now_ns() + static_cast<std::uint64_t>(0.8 * config.seconds * 1e9);
    while (traced_rate.empty() || now_ns() < deadline) {
      const Saturation plain = saturate(stream, client, *daemon.fleet, kSaturateSeconds);
      untraced_rate.push_back(plain.steady_per_s);
      untraced_cpu.push_back(plain.steady_cpu_us);
      const FleetSample s0 = FleetSample::take(*daemon.fleet);
      const Saturation traced = saturate(stream, traced_client, *daemon.fleet, kSaturateSeconds);
      const FleetSample s1 = FleetSample::take(*daemon.fleet);
      traced_rate.push_back(traced.steady_per_s);
      traced_seconds += traced.seconds;
      for (std::size_t i = 0; i < kShards; ++i) {
        traced_delta.processed[i] += s1.processed[i] - s0.processed[i];
        traced_delta.blocked[i] += s1.blocked[i] - s0.blocked[i];
      }
      traced_delta.push_ns += s1.push_ns - s0.push_ns;
      traced_delta.pushes += s1.pushes - s0.pushes;
      traced_delta.queue_high_water = s1.queue_high_water;
    }
    traced_client.close();
    loop->join();
    client.close();
    server_thread.stop();
  }
  result.check(loop->rejected() == 0, "ingest: the traced path had frames refused");
  const double untraced_per_s = best_rate(untraced_rate);
  const double untraced_cpu_us = median(untraced_cpu);
  const double traced_per_s = best_rate(traced_rate);
  const SpanRecorder& loop_spans = loop->spans();
  const double frames = static_cast<double>(loop->frames());

  const double decode_us = (loop_spans.total_us("io.feed") + loop_spans.total_us("io.next")) / frames;
  const double submit_us = loop_spans.total_cpu_us("fleet.submit_frames") / frames;
  std::uint64_t shard_max = 0;
  std::uint64_t shard_sum = 0;
  std::uint64_t blocked = 0;
  for (std::size_t i = 0; i < kShards; ++i) {
    shard_max = std::max(shard_max, traced_delta.processed[i]);
    shard_sum += traced_delta.processed[i];
    blocked += traced_delta.blocked[i];
  }
  const double imbalance = static_cast<double>(shard_max) * static_cast<double>(kShards) /
                           static_cast<double>(shard_sum);
  result.metric("io.decode_us", decode_us, "us");
  result.metric("io.decode_bytes", static_cast<double>(loop->bytes()) / frames, "bytes");
  result.metric("fleet.submit_us", submit_us, "us");
  // The traced loop sleeps in recv() through the untraced segments, so its
  // CPU is all spent in the traced ones.
  result.metric("fleet.server_busy_frac",
                static_cast<double>(loop->cpu_ns()) * 1e-9 / traced_seconds, "frac");
  result.metric("fleet.worker_busy_frac",
                static_cast<double>(traced_delta.push_ns) * 1e-9 /
                    (static_cast<double>(kShards) * traced_seconds),
                "frac");
  result.metric("fleet.blocked_per_kframe", static_cast<double>(blocked) * 1e3 / frames, "count");
  result.metric("fleet.queue_high_water", static_cast<double>(traced_delta.queue_high_water),
                "count");
  result.metric("fleet.shard_imbalance", imbalance, "ratio");

  // Standalone replay of every device's stream through its own
  // RuntimeMonitor, with sibling calls into the steps a push runs.
  std::vector<std::vector<const core::Trace*>> streams(kDevices);
  for (std::size_t d = 0; d < kDevices; ++d) {
    for (std::size_t s = 0; s < kSlots; ++s) {
      streams[d].push_back(armed(d) ? &in.pools.armed.traces[(s + 5 * d) % kArmedPool]
                                    : &in.pools.golden.traces[(s + 7 * d) % kGoldenPool]);
    }
  }
  const core::RuntimeMonitor::Options monitor_options = fleet_options().monitor;
  SpanRecorder replay_spans;
  const ReplayCounts counts =
      replay_streams(io::load_calibration(emca_path(config)), in.pools.sample_rate,
                     monitor_options, streams, replay_spans);
  const std::vector<double> push = replay_spans.durations_us("core.push");
  const double push_p50 = quantile(push, 0.50);
  const double euclidean_p50 = median(replay_spans.durations_us("core.euclidean"));
  const double spectrum_p50 = median(replay_spans.durations_us("dsp.stream_transform"));
  const double boundary_p50 = median(replay_spans.durations_us("core.stream_finish"));
  result.metric("dsp.spectrum_us", spectrum_p50, "us");
  result.metric("core.push_p50_us", push_p50, "us");
  result.metric("core.push_p99_us", quantile(push, 0.99), "us");
  result.metric("core.preprocess_us", median(replay_spans.durations_us("core.preprocess")), "us");
  result.metric("core.euclidean_us", euclidean_p50, "us");
  result.metric("core.boundary_us", boundary_p50, "us");
  result.metric("core.push_other_us",
                push_p50 - euclidean_p50 - spectrum_p50 -
                    boundary_p50 / static_cast<double>(monitor_options.spectral_window),
                "us");
  const std::uint64_t passes = counts.spectral_passes;
  const std::uint64_t latched = counts.alarms_latched;
  const std::uint64_t anomalies = counts.per_trace_anomalies;
  result.metric("core.spectral_passes", static_cast<double>(passes), "count");
  result.metric("core.alarms_latched", static_cast<double>(latched), "count");
  result.metric("core.per_trace_anomalies", static_cast<double>(anomalies), "count");

  // Ledger: where a verdict's CPU goes, and what bounds throughput. Every
  // term is thread CPU time; wall time would count steal.
  const double push_cpu_us = replay_spans.mean_cpu_us("core.push");
  const double explained = (loop_spans.total_cpu_us("io.recv") + loop_spans.total_cpu_us("io.feed") +
                            loop_spans.total_cpu_us("io.next") +
                            loop_spans.total_cpu_us("fleet.submit_frames")) /
                               frames +
                           push_cpu_us;
  result.metric("ledger.ingest.cpu_us_per_verdict", untraced_cpu_us, "us");
  result.metric("ledger.ingest.explained_us", explained, "us");
  result.metric("ledger.ingest.unexplained_us", untraced_cpu_us - explained, "us");
  result.metric("ledger.ingest.throughput_per_s", untraced_per_s, "1/s");
  result.metric("ledger.ingest.predicted_per_s",
                static_cast<double>(kShards) * 1e6 / (push_cpu_us * imbalance), "1/s");
  result.metric("trace.ingest.overhead_frac", 1.0 - traced_per_s / untraced_per_s, "frac");

  check_outputs(in, *daemon.fleet, nullptr, stream.sent, result);
  if (!config.spans_path.empty()) {
    write_spans(config.spans_path,
                {{"ingest.server", &loop_spans}, {"ingest.replay", &replay_spans}});
  }
  loop.reset();
  shut_down(daemon);
}

}  // namespace e2e
