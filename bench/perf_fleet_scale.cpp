// Multicore fleet-scaling rig: a load generator that drives FleetMonitor
// from N producer threads and sweeps shards x devices x backpressure policy
// x batch size, measuring sustained scored-traces/sec per configuration.
// This is the harness behind the "near-linear traces/sec up to shards ~=
// cores under BLOCK" target: run it on real multicore hardware and read the
// speedup keys. Every row records whether the run was oversubscribed
// (producers + shard workers > hardware threads) — on a one-core host the
// numbers are contention measurements, not capacities, and the JSON says so
// (hardware_threads is the first key for exactly that reason).
//
// The rig also re-proves the fleet's core guarantee on the batched path: a
// bit-identity pass compares per-device results (last score, counters,
// state) against standalone RuntimeMonitors and the process exits non-zero
// on any mismatch, so a recorded BENCH_fleet_scale.json implies the exact-EQ
// guarantee held on that machine.
//
// Usage: perf_fleet_scale [out.json] [--smoke]
//   --smoke: one small configuration, 3 repeats per row (best-of, stable on
//   noisy single-core CI). The CI step reads the emitted JSON and asserts
//   the batched row's rate >= the per-trace row's.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

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

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

std::string device_id(std::size_t d) { return "chip-" + std::to_string(d); }

struct Row {
  std::size_t shards = 0;
  std::size_t devices = 0;
  const char* policy = "BLOCK";
  std::size_t batch_size = 1;
  std::size_t producers = 0;
  double traces_per_sec = 0.0;
  std::uint64_t processed = 0;
  bool oversubscribed = false;
  bool pinned = false;
};

/// One measured configuration: `producers` threads partition the devices and
/// push `traces_per_device` each, as per-trace submits (batch_size 1) or
/// submit_batch chunks. The per-device chunk TraceSets are pre-built outside
/// the timed region so both paths pay identical trace-copy cost inside it.
Row run_row(const core::TrustEvaluator& evaluator, std::size_t shards,
            std::size_t devices, fleet::BackpressurePolicy policy,
            std::size_t batch_size, std::size_t traces_per_device,
            unsigned hardware_threads, std::size_t repeats) {
  Row row;
  row.shards = shards;
  row.devices = devices;
  row.policy = fleet::backpressure_label(policy);
  row.batch_size = batch_size;
  row.producers = std::min<std::size_t>(devices, 4);
  row.pinned = hardware_threads > 1 && shards <= hardware_threads;
  row.oversubscribed =
      hardware_threads > 0 && row.producers + shards > hardware_threads;

  // Pre-build every producer's submission plan: per device, a list of
  // batch_size-trace chunks (the same synthetic stream for every device).
  const core::TraceSet stream = make_set(traces_per_device, 42);
  std::vector<core::TraceSet> chunks;
  for (std::size_t start = 0; start < traces_per_device; start += batch_size) {
    core::TraceSet chunk;
    chunk.sample_rate = kFs;
    const std::size_t end = std::min(traces_per_device, start + batch_size);
    for (std::size_t t = start; t < end; ++t) chunk.add(core::Trace{stream.traces[t]});
    chunks.push_back(std::move(chunk));
  }

  for (std::size_t rep = 0; rep < repeats; ++rep) {
    fleet::FleetOptions options;
    options.shards = shards;
    options.queue_capacity = kQueueCapacity;
    options.backpressure = policy;
    options.pin_workers = row.pinned;
    fleet::FleetMonitor fleet{options};
    for (std::size_t d = 0; d < devices; ++d) fleet.add_device(device_id(d), evaluator);

    const auto t0 = std::chrono::steady_clock::now();
    std::vector<std::thread> producers;
    for (std::size_t p = 0; p < row.producers; ++p) {
      producers.emplace_back([&, p] {
        // Chunk-major, device-minor: interleaved arrival across this
        // producer's devices, the shape a shared capture front-end produces.
        for (const core::TraceSet& chunk : chunks) {
          for (std::size_t d = p; d < devices; d += row.producers) {
            if (batch_size == 1) {
              (void)fleet.submit(device_id(d), core::Trace{chunk.traces[0]});
            } else {
              (void)fleet.submit_batch(device_id(d), chunk);
            }
          }
        }
      });
    }
    for (std::thread& t : producers) t.join();
    fleet.flush();
    const double elapsed = seconds_since(t0);

    // Scored traces per second: under REJECT the queue sheds load, so the
    // processed count (not the offered count) is the honest numerator.
    const fleet::FleetStats stats = fleet.stats();
    const double rate = static_cast<double>(stats.traces_processed) / elapsed;
    if (rate > row.traces_per_sec) {
      row.traces_per_sec = rate;
      row.processed = stats.traces_processed;
    }
  }
  return row;
}

/// Bit-identity pass on the batched path: every device's stream through
/// submit_batch must leave the exact per-device results a standalone
/// RuntimeMonitor produces. Returns false (and prints the offender) on any
/// mismatch.
bool verify_bit_identity(const core::TrustEvaluator& evaluator) {
  constexpr std::size_t kDevices = 4;
  constexpr std::size_t kPerDevice = 24;
  constexpr std::size_t kBatch = 8;

  fleet::FleetOptions options;
  options.shards = 2;
  options.queue_capacity = kQueueCapacity;
  options.backpressure = fleet::BackpressurePolicy::kBlock;
  fleet::FleetMonitor fleet{options};

  std::vector<core::RuntimeMonitor> standalone;
  std::vector<core::TraceSet> streams;
  for (std::size_t d = 0; d < kDevices; ++d) {
    fleet.add_device(device_id(d), evaluator);
    standalone.emplace_back(kFs, core::TrustEvaluator{evaluator},
                            core::RuntimeMonitor::Options{});
    streams.push_back(make_set(kPerDevice, 500 + d));
  }

  for (std::size_t start = 0; start < kPerDevice; start += kBatch) {
    for (std::size_t d = 0; d < kDevices; ++d) {
      core::TraceSet chunk;
      chunk.sample_rate = kFs;
      for (std::size_t t = start; t < std::min(kPerDevice, start + kBatch); ++t) {
        chunk.add(core::Trace{streams[d].traces[t]});
      }
      fleet.submit_batch(device_id(d), chunk);
    }
  }
  fleet.flush();
  for (std::size_t d = 0; d < kDevices; ++d) {
    for (const core::Trace& trace : streams[d].traces) standalone[d].push(trace);
  }

  const fleet::FleetStats stats = fleet.stats();
  for (std::size_t d = 0; d < kDevices; ++d) {
    const fleet::SessionStats& session = stats.sessions[d];
    const core::MonitorStats& expect = standalone[d].stats();
    const bool score_ok =
        session.last_score.has_value() == standalone[d].last_score().has_value() &&
        (!session.last_score.has_value() ||
         *session.last_score == *standalone[d].last_score());  // exact EQ
    if (!score_ok || session.state != standalone[d].state() ||
        session.monitor.scored_captures != expect.scored_captures ||
        session.monitor.per_trace_anomalies != expect.per_trace_anomalies ||
        session.monitor.alarms_latched != expect.alarms_latched) {
      std::fprintf(stderr, "BIT-IDENTITY MISMATCH on %s\n", session.device_id.c_str());
      return false;
    }
  }
  return true;
}

double find_rate(const std::vector<Row>& rows, std::size_t shards, std::size_t devices,
                 const char* policy, std::size_t batch_size) {
  for (const Row& row : rows) {
    if (row.shards == shards && row.devices == devices && row.batch_size == batch_size &&
        std::strcmp(row.policy, policy) == 0) {
      return row.traces_per_sec;
    }
  }
  return 0.0;
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

  const unsigned hardware_threads = std::thread::hardware_concurrency();
  std::printf("perf_fleet_scale: %u hardware threads%s\n", hardware_threads,
              smoke ? " (smoke)" : "");
  const core::TrustEvaluator evaluator = core::TrustEvaluator::calibrate(make_set(30, 1));

  const bool bit_identical = verify_bit_identity(evaluator);
  std::printf("  bit-identity vs standalone monitors: %s\n",
              bit_identical ? "PASS" : "FAIL");

  std::vector<Row> rows;
  const auto sweep = [&](std::size_t shards, std::size_t devices,
                         fleet::BackpressurePolicy policy, std::size_t batch_size,
                         std::size_t traces_per_device, std::size_t repeats) {
    Row row = run_row(evaluator, shards, devices, policy, batch_size, traces_per_device,
                      hardware_threads, repeats);
    std::printf("  shards %zu devices %2zu %-11s batch %2zu: %7.0f traces/s%s\n",
                row.shards, row.devices, row.policy, row.batch_size, row.traces_per_sec,
                row.oversubscribed ? " (oversubscribed)" : "");
    if (row.oversubscribed) {
      std::fprintf(stderr,
                   "warning: %zu producers + %zu shards exceed %u hardware threads —"
                   " this row measures contention, not capacity\n",
                   row.producers, row.shards, hardware_threads);
    }
    rows.push_back(row);
  };

  if (smoke) {
    // CI configuration: one shard count, per-trace vs batched, best-of-3.
    for (const std::size_t batch : {std::size_t{1}, std::size_t{16}}) {
      sweep(2, 8, fleet::BackpressurePolicy::kBlock, batch, 48, 3);
    }
  } else {
    // The scaling story: shards sweep under BLOCK, per-trace vs batched.
    for (const std::size_t shards : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
      for (const std::size_t devices : {std::size_t{4}, std::size_t{16}}) {
        for (const std::size_t batch : {std::size_t{1}, std::size_t{16}}) {
          sweep(shards, devices, fleet::BackpressurePolicy::kBlock, batch, 64, 1);
        }
      }
    }
    // Policy behavior at the largest configuration.
    for (const fleet::BackpressurePolicy policy :
         {fleet::BackpressurePolicy::kDropOldest, fleet::BackpressurePolicy::kReject}) {
      for (const std::size_t batch : {std::size_t{1}, std::size_t{16}}) {
        sweep(4, 16, policy, batch, 64, 1);
      }
    }
  }

  // Summary ratios (0 when the sweep didn't include the rows — smoke mode).
  const std::size_t top_shards = smoke ? 2 : 4;
  const std::size_t top_devices = smoke ? 8 : 16;
  const double batched = find_rate(rows, top_shards, top_devices, "BLOCK", 16);
  const double per_trace = find_rate(rows, top_shards, top_devices, "BLOCK", 1);
  const double batched_over_per_trace = per_trace > 0.0 ? batched / per_trace : 0.0;
  const double scale_batched = find_rate(rows, 1, 16, "BLOCK", 16) > 0.0
                                   ? find_rate(rows, 4, 16, "BLOCK", 16) /
                                         find_rate(rows, 1, 16, "BLOCK", 16)
                                   : 0.0;
  const double scale_per_trace = find_rate(rows, 1, 16, "BLOCK", 1) > 0.0
                                     ? find_rate(rows, 4, 16, "BLOCK", 1) /
                                           find_rate(rows, 1, 16, "BLOCK", 1)
                                     : 0.0;
  if (!smoke) {
    std::printf("  1->4 shard speedup at 16 devices (BLOCK): batched %.2fx, per-trace %.2fx\n",
                scale_batched, scale_per_trace);
  }
  std::printf("  batched over per-trace at %zu shards / %zu devices: %.2fx\n", top_shards,
              top_devices, batched_over_per_trace);

  std::ofstream out{out_path};
  out << "{\n";
  out << "  \"hardware_threads\": " << hardware_threads << ",\n";
  out << "  \"smoke\": " << (smoke ? "true" : "false") << ",\n";
  out << "  \"trace_samples\": " << kLen << ",\n";
  out << "  \"queue_capacity\": " << kQueueCapacity << ",\n";
  out << "  \"bit_identical_to_standalone\": " << (bit_identical ? "true" : "false")
      << ",\n";
  out << "  \"rows\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& row = rows[i];
    out << "    {\"shards\": " << row.shards << ", \"devices\": " << row.devices
        << ", \"policy\": \"" << row.policy << "\", \"batch_size\": " << row.batch_size
        << ", \"producers\": " << row.producers
        << ", \"traces_per_sec\": " << row.traces_per_sec
        << ", \"processed\": " << row.processed
        << ", \"oversubscribed\": " << (row.oversubscribed ? "true" : "false")
        << ", \"pinned\": " << (row.pinned ? "true" : "false") << "}"
        << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  out << "  ],\n";
  out << "  \"speedup_1_to_4_shards_at_16_devices_block_batched\": " << scale_batched
      << ",\n";
  out << "  \"speedup_1_to_4_shards_at_16_devices_block_per_trace\": " << scale_per_trace
      << ",\n";
  out << "  \"batched_over_per_trace\": " << batched_over_per_trace << "\n";
  out << "}\n";
  std::printf("wrote %s\n", out_path.c_str());
  return bit_identical ? 0 : 1;
}
