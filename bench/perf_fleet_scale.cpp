// Multicore fleet-scaling rig: a load generator that drives FleetMonitor
// from one producer on the calling thread and sweeps shards x devices x
// backpressure policy, measuring sustained scored-traces/sec per
// configuration. One producer is the served traffic's shape: the daemon's
// one server thread feeds every shard. This is the harness behind the
// "near-linear traces/sec up to shards ~= cores under BLOCK" target: run it
// on real multicore hardware and read the speedup key. Every row records
// whether the run was oversubscribed (producer + shard workers > hardware
// threads); there the numbers are contention measurements, not capacities,
// and the JSON says so (hardware_threads is the first key for exactly that
// reason).
//
// The rig also re-proves the fleet's core guarantee: a bit-identity pass
// compares per-device results (last score, counters, state) against
// standalone RuntimeMonitors and the process exits non-zero on any
// mismatch, so a recorded BENCH_fleet_scale.json implies the exact-EQ
// guarantee held on that machine.
//
// Usage: perf_fleet_scale [out.json] [--smoke]
//   --smoke: one small configuration, the CI mode.
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "core/evaluator.hpp"
#include "core/monitor.hpp"
#include "fleet/fleet.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

using namespace emts;

namespace {

constexpr double kFs = 384e6;
constexpr std::size_t kLen = 2048;
constexpr std::size_t kQueueCapacity = 64;
constexpr std::size_t kProducers = 1;

core::Trace golden_trace(Rng& rng) {
  core::Trace t(kLen);
  for (std::size_t i = 0; i < kLen; ++i) {
    t[i] = std::sin(2.0 * units::pi * 48e6 * static_cast<double>(i) / kFs) +
           rng.gaussian(0.0, 0.08);
  }
  return t;
}

core::TraceSet make_set(std::size_t n, std::uint64_t seed) {
  Rng rng{seed};
  core::TraceSet set;
  set.sample_rate = kFs;
  for (std::size_t i = 0; i < n; ++i) set.add(golden_trace(rng));
  return set;
}

std::string device_id(std::size_t d) { return "chip-" + std::to_string(d); }

struct Config {
  std::size_t shards = 0;
  std::size_t devices = 0;
  fleet::BackpressurePolicy policy = fleet::BackpressurePolicy::kBlock;

  bool pinned() const {
    const unsigned hardware_threads = std::thread::hardware_concurrency();
    return hardware_threads > 1 && shards <= hardware_threads;
  }
};

/// One timed run of a configuration: the calling thread pushes every trace
/// of `stream` to every device, trace-major and device-minor (interleaved
/// arrival, the shape a shared capture front-end produces), then flushes.
bench::TimedRun run_once(const core::TrustEvaluator& evaluator, const Config& config,
                         const core::TraceSet& stream) {
  fleet::FleetOptions options;
  options.shards = config.shards;
  options.queue_capacity = kQueueCapacity;
  options.backpressure = config.policy;
  options.pin_workers = config.pinned();
  fleet::FleetMonitor fleet{options};
  for (std::size_t d = 0; d < config.devices; ++d) fleet.add_device(device_id(d), evaluator);

  const auto t0 = std::chrono::steady_clock::now();
  for (const core::Trace& trace : stream.traces) {
    for (std::size_t d = 0; d < config.devices; ++d) (void)fleet.submit(device_id(d), trace);
  }
  fleet.flush();
  const double seconds = bench::seconds_since(t0);
  // Scored traces per second: under REJECT and DROP_OLDEST the queue sheds
  // load, so the processed count (not the offered count) is the honest
  // numerator.
  return bench::TimedRun{static_cast<double>(fleet.stats().traces_processed), seconds};
}

/// Bit-identity pass: every device's stream through submit() must leave the
/// exact per-device results a standalone RuntimeMonitor produces. Returns
/// false (and prints the offender) on any mismatch.
bool verify_bit_identity(const core::TrustEvaluator& evaluator) {
  constexpr std::size_t kDevices = 4;
  constexpr std::size_t kPerDevice = 24;

  fleet::FleetOptions options;
  options.shards = 2;
  options.queue_capacity = kQueueCapacity;
  fleet::FleetMonitor fleet{options};

  std::vector<core::RuntimeMonitor> standalone;
  std::vector<core::TraceSet> streams;
  for (std::size_t d = 0; d < kDevices; ++d) {
    fleet.add_device(device_id(d), evaluator);
    standalone.emplace_back(kFs, core::TrustEvaluator{evaluator},
                            core::RuntimeMonitor::Options{});
    streams.push_back(make_set(kPerDevice, 500 + d));
  }

  for (std::size_t t = 0; t < kPerDevice; ++t) {
    for (std::size_t d = 0; d < kDevices; ++d) {
      fleet.submit(device_id(d), streams[d].traces[t]);
      standalone[d].push(streams[d].traces[t]);
    }
  }
  fleet.flush();

  const fleet::FleetStats stats = fleet.stats();
  for (std::size_t d = 0; d < kDevices; ++d) {
    const fleet::SessionStats& session = stats.sessions[d];
    const core::MonitorStats& expect = standalone[d].stats();
    if (session.last_score != standalone[d].last_score() ||  // exact EQ
        session.state != standalone[d].state() ||
        session.monitor.scored_captures != expect.scored_captures ||
        session.monitor.per_trace_anomalies != expect.per_trace_anomalies ||
        session.monitor.alarms_latched != expect.alarms_latched) {
      std::fprintf(stderr, "BIT-IDENTITY MISMATCH on %s\n", session.device_id.c_str());
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_fleet_scale.json";
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else {
      out_path = argv[i];
    }
  }

  bench::warm_up();
  const core::TrustEvaluator evaluator = core::TrustEvaluator::calibrate(make_set(30, 1));

  const bool bit_identical = verify_bit_identity(evaluator);

  std::vector<Config> configs;
  if (smoke) {
    configs.push_back({2, 8, fleet::BackpressurePolicy::kBlock});
  } else {
    // The scaling story: shards sweep under BLOCK, then policy behavior at
    // the largest configuration.
    for (const std::size_t shards : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
      for (const std::size_t devices : {std::size_t{4}, std::size_t{16}}) {
        configs.push_back({shards, devices, fleet::BackpressurePolicy::kBlock});
      }
    }
    configs.push_back({4, 16, fleet::BackpressurePolicy::kDropOldest});
    configs.push_back({4, 16, fleet::BackpressurePolicy::kReject});
  }
  // 256 traces per device keep each 16-device run at 0.15-0.6 s.
  const core::TraceSet stream = make_set(smoke ? 48 : 256, 42);
  const std::vector<bench::TimedRun> best = bench::best_of_3(
      configs.size(), [&](std::size_t row) { return run_once(evaluator, configs[row], stream); });

  std::vector<bench::JsonObject> rows;
  double one_shard = 0.0;
  double speedup = 0.0;  // stays 0 in smoke mode, which has one row
  for (std::size_t row = 0; row < configs.size(); ++row) {
    const Config& config = configs[row];
    const double rate = best[row].per_second();
    rows.push_back(bench::JsonObject{}
                       .add("shards", config.shards)
                       .add("devices", config.devices)
                       .add("policy", fleet::backpressure_label(config.policy))
                       .add("producers", kProducers)
                       .add("traces_per_sec", rate)
                       .add("processed", static_cast<std::uint64_t>(best[row].work))
                       .add("oversubscribed", bench::oversubscribed(kProducers + config.shards))
                       .add("pinned", config.pinned()));
    if (config.policy == fleet::BackpressurePolicy::kBlock && config.devices == 16) {
      if (config.shards == 1) one_shard = rate;
      if (config.shards == 4) speedup = rate / one_shard;
    }
  }

  bench::JsonObject{}
      .add("smoke", smoke)
      .add("trace_samples", kLen)
      .add("queue_capacity", kQueueCapacity)
      .add("bit_identical_to_standalone", bit_identical)
      .add("rows", rows)
      .add("speedup_1_to_4_shards_at_16_devices_block", speedup)
      .write_bench(out_path);
  return bit_identical ? 0 : 1;
}
