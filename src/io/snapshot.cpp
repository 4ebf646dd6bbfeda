#include "io/snapshot.hpp"

#include <cmath>
#include <span>
#include <string>

#include "io/calibration.hpp"
#include "io/file_writer.hpp"
#include "io/mapped_file.hpp"
#include "util/assert.hpp"
#include "util/binio.hpp"
#include "util/xxh64.hpp"

namespace emts::io {

namespace {

constexpr char kMagic[4] = {'E', 'M', 'F', 'S'};
// v2 added the spectral accumulator (sum + count + drift counter), the
// rebuild-cadence mirror and two MonitorStats counters to monitor states; v3
// drops v2's incremental-spectral flag byte, because the incremental path is
// the only one left; v4 replaces the byte-serial FNV-1a record checksum with
// XXH64; v5 drops the self-calibration fields (the calibration-count mirror,
// the pending calibration traces and their counter) and renumbers the state
// and event-kind bytes without them. Older containers are refused rather
// than guessed at.
constexpr std::uint32_t kVersion = 5;
// A fleet snapshot is an operational artifact, not a data lake: caps sized
// generously above any believable deployment, tight enough that a corrupt
// count is refused before it turns into an allocation.
constexpr std::uint32_t kMaxDevices = 1u << 16;
constexpr std::uint32_t kMaxBufferedTraces = 1u << 20;
constexpr std::uint32_t kMaxAnomalies = 1u << 20;
constexpr std::uint64_t kMaxDeviceBytes = 1ull << 32;

void write_histogram(util::ByteWriter& out, const util::LatencyHistogram& h) {
  for (const std::uint64_t b : h.buckets()) out.u64(b);
  out.u64(h.count());
  out.u64(h.total_ns());
  out.u64(h.raw_min_ns());
  out.u64(h.max_ns());
}

void read_histogram(util::ByteReader& in, util::LatencyHistogram& h) {
  std::array<std::uint64_t, util::LatencyHistogram::kBuckets> buckets{};
  for (std::uint64_t& b : buckets) b = in.u64();
  const std::uint64_t count = in.u64();
  const std::uint64_t total = in.u64();
  const std::uint64_t raw_min = in.u64();
  const std::uint64_t max = in.u64();
  h.restore(buckets, count, total, raw_min, max);  // validates consistency
}

void write_traces(util::ByteWriter& out, const std::vector<core::Trace>& traces) {
  out.u32(static_cast<std::uint32_t>(traces.size()));
  for (const core::Trace& trace : traces) out.f64_vec(trace);
}

std::vector<core::Trace> read_traces(util::ByteReader& in) {
  // Each trace carries at least its u64 length.
  const std::size_t count = in.count_u32(kMaxBufferedTraces, 8, "monitor state: trace count");
  std::vector<core::Trace> traces;
  traces.reserve(count);
  for (std::size_t t = 0; t < count; ++t) traces.push_back(in.f64_vec());
  return traces;
}

}  // namespace

void write_monitor_state(util::ByteWriter& out, const core::MonitorStateImage& image) {
  out.f64(image.sample_rate);
  out.u64(image.alarm_debounce);
  out.u64(image.spectral_window);
  out.u64(image.event_log_capacity);
  out.u64(image.spectral_rebuild_every);

  out.u8(static_cast<std::uint8_t>(image.state));
  out.u64(image.traces_seen);
  out.u64(image.expected_length);
  out.u64(image.consecutive_anomalies);
  out.u64(image.alarm_latched_at);

  out.u8(image.last_score.has_value() ? 1 : 0);
  out.f64(image.last_score.value_or(0.0));

  out.u8(image.last_spectral.has_value() ? 1 : 0);
  const std::size_t anomaly_count =
      image.last_spectral.has_value() ? image.last_spectral->anomalies.size() : 0;
  out.u32(static_cast<std::uint32_t>(anomaly_count));
  if (image.last_spectral.has_value()) {
    for (const core::SpectralAnomaly& a : image.last_spectral->anomalies) {
      out.u8(static_cast<std::uint8_t>(a.kind));
      out.f64(a.frequency_hz);
      out.f64(a.golden_amplitude);
      out.f64(a.suspect_amplitude);
      out.f64(a.ratio);
    }
  }

  write_traces(out, image.window);
  out.u64(image.window_total_pushed);
  out.u64(image.spectral_count);
  out.u64(image.spectral_updates_since_rebuild);
  out.f64_vec(image.spectral_sum);

  const core::MonitorStats& s = image.stats;
  out.u64(s.traces_ingested);
  out.u64(s.traces_rejected);
  out.u64(s.scored_captures);
  out.u64(s.per_trace_anomalies);
  out.u64(s.spectral_passes);
  out.u64(s.windowed_anomalies);
  out.u64(s.spectral_recomputes);
  out.u64(s.spectral_incremental_updates);
  out.u64(s.alarms_latched);
  out.u64(s.alarms_acknowledged);
  out.u64(s.events_dropped);
  write_histogram(out, s.push_latency);
  write_histogram(out, s.spectral_latency);

  out.u32(static_cast<std::uint32_t>(image.events.size()));
  for (const core::MonitorEvent& e : image.events) {
    out.u8(static_cast<std::uint8_t>(e.kind));
    out.u64(e.trace_index);
    out.f64(e.value);
  }
}

core::MonitorStateImage read_monitor_state(util::ByteReader& in) {
  core::MonitorStateImage image;
  image.sample_rate = in.f64();
  EMTS_REQUIRE(std::isfinite(image.sample_rate) && image.sample_rate > 0.0,
               "monitor state: bad sample rate");
  image.alarm_debounce = in.u64();
  image.spectral_window = in.u64();
  image.event_log_capacity = in.u64();
  image.spectral_rebuild_every = in.u64();
  EMTS_REQUIRE(image.spectral_rebuild_every >= 1,
               "monitor state: bad spectral rebuild cadence");

  const std::uint8_t state = in.u8();
  EMTS_REQUIRE(state <= static_cast<std::uint8_t>(core::MonitorState::kAlarm),
               "monitor state: bad state tag");
  image.state = static_cast<core::MonitorState>(state);
  image.traces_seen = in.u64();
  image.expected_length = in.u64();
  image.consecutive_anomalies = in.u64();
  image.alarm_latched_at = in.u64();

  const std::uint8_t has_score = in.u8();
  EMTS_REQUIRE(has_score <= 1, "monitor state: bad last-score flag");
  const double last_score = in.f64();
  if (has_score == 1) image.last_score = last_score;

  const std::uint8_t has_spectral = in.u8();
  EMTS_REQUIRE(has_spectral <= 1, "monitor state: bad spectral flag");
  // Each anomaly is 33 serialized bytes.
  const std::size_t anomaly_count =
      in.count_u32(kMaxAnomalies, 33, "monitor state: anomaly count");
  EMTS_REQUIRE(has_spectral == 1 || anomaly_count == 0,
               "monitor state: anomalies without a spectral report");
  if (has_spectral == 1) {
    core::SpectralReport report;
    report.anomalies.reserve(anomaly_count);
    for (std::size_t a = 0; a < anomaly_count; ++a) {
      core::SpectralAnomaly anomaly;
      const std::uint8_t kind = in.u8();
      EMTS_REQUIRE(kind <= static_cast<std::uint8_t>(core::SpectralAnomalyKind::kAmplifiedSpot),
                   "monitor state: bad anomaly kind");
      anomaly.kind = static_cast<core::SpectralAnomalyKind>(kind);
      anomaly.frequency_hz = in.f64();
      anomaly.golden_amplitude = in.f64();
      anomaly.suspect_amplitude = in.f64();
      anomaly.ratio = in.f64();
      report.anomalies.push_back(anomaly);
    }
    image.last_spectral = std::move(report);
  }

  image.window = read_traces(in);
  image.window_total_pushed = in.u64();
  image.spectral_count = in.u64();
  image.spectral_updates_since_rebuild = in.u64();
  image.spectral_sum = in.f64_vec();
  EMTS_REQUIRE(image.spectral_count == 0 || image.spectral_count == image.window.size(),
               "monitor state: spectral accumulator count disagrees with the window");
  EMTS_REQUIRE(image.spectral_count == 0 || !image.spectral_sum.empty(),
               "monitor state: non-empty spectral accumulator with no bins");

  core::MonitorStats& s = image.stats;
  s.traces_ingested = in.u64();
  s.traces_rejected = in.u64();
  s.scored_captures = in.u64();
  s.per_trace_anomalies = in.u64();
  s.spectral_passes = in.u64();
  s.windowed_anomalies = in.u64();
  s.spectral_recomputes = in.u64();
  s.spectral_incremental_updates = in.u64();
  s.alarms_latched = in.u64();
  s.alarms_acknowledged = in.u64();
  s.events_dropped = in.u64();
  read_histogram(in, s.push_latency);
  read_histogram(in, s.spectral_latency);

  // No more events than the log holds, 17 serialized bytes each.
  const std::size_t event_count =
      in.count_u32(image.event_log_capacity, 17, "monitor state: event count");
  image.events.reserve(event_count);
  for (std::size_t e = 0; e < event_count; ++e) {
    core::MonitorEvent event;
    const std::uint8_t kind = in.u8();
    EMTS_REQUIRE(
        kind <= static_cast<std::uint8_t>(core::MonitorEventKind::kTraceRejectedNonFinite),
        "monitor state: bad event kind");
    event.kind = static_cast<core::MonitorEventKind>(kind);
    event.trace_index = in.u64();
    event.value = in.f64();
    image.events.push_back(event);
  }
  return image;
}

namespace {

// Appends one device's whole on-disk record in place: the id, the payload
// size and the EMCA frame size (both patched once their bytes are written),
// the EMCA, the monitor state, then XXH64 over the payload. Deterministic for
// a given device state, which is what makes the incremental record cache
// sound and keeps incremental and full containers of identical fleets
// byte-identical.
void encode_device_record(util::ByteWriter& out, const FleetSnapshot::Device& device) {
  EMTS_REQUIRE(device.evaluator.has_value(),
               "save_fleet_snapshot: record for '" + device.device_id +
                   "' has no evaluator");
  out.string(device.device_id);
  const util::ByteWriter::Frame payload = out.begin_frame();
  const util::ByteWriter::Frame emca = out.begin_frame();
  save_calibration(out, *device.evaluator);
  out.end_frame(emca);
  write_monitor_state(out, device.monitor);
  const std::span<const std::byte> payload_bytes = out.end_frame(payload);
  out.u64(util::xxh64(payload_bytes.data(), payload_bytes.size()));
}

void check_snapshot_shape(const FleetSnapshot& snapshot) {
  EMTS_REQUIRE(snapshot.devices.size() <= kMaxDevices,
               "save_fleet_snapshot: too many devices");
  for (std::size_t d = 1; d < snapshot.devices.size(); ++d) {
    EMTS_REQUIRE(snapshot.devices[d - 1].device_id < snapshot.devices[d].device_id,
                 "save_fleet_snapshot: devices must be sorted by id, without duplicates");
  }
}

std::string encode_snapshot_header(const FleetSnapshot& snapshot) {
  std::string header;
  util::ByteWriter out{header};
  out.magic(kMagic);
  out.u32(kVersion);
  out.u32(snapshot.shards);
  out.u32(snapshot.queue_capacity);
  out.u8(snapshot.backpressure);
  out.u32(static_cast<std::uint32_t>(snapshot.devices.size()));
  return header;
}

}  // namespace

void save_fleet_snapshot(const std::string& path, const FleetSnapshot& snapshot) {
  check_snapshot_shape(snapshot);
  FileWriter file{path, "save_fleet_snapshot"};
  file.write(encode_snapshot_header(snapshot));
  // One scratch buffer serves every record: it grows to the largest once.
  std::string scratch;
  for (const FleetSnapshot::Device& device : snapshot.devices) {
    EMTS_REQUIRE(device.dirty,
                 "save_fleet_snapshot: clean (placeholder) record for '" +
                     device.device_id + "' needs the cache-aware overload");
    scratch.clear();
    util::ByteWriter out{scratch};
    encode_device_record(out, device);
    file.write(scratch);
  }
  file.close();
}

void save_fleet_snapshot(const std::string& path, const FleetSnapshot& snapshot,
                         FleetSnapshotRecordCache& cache, SnapshotSaveStats* stats) {
  check_snapshot_shape(snapshot);
  SnapshotSaveStats local{};
  try {
    // Each dirty device is encoded into its own cache entry, which keeps its
    // capacity, so a cut whose records did not grow allocates no record. A
    // new entry is counted first and allocated once at its exact size, so a
    // cold cut does not grow every record by doubling.
    for (const FleetSnapshot::Device& device : snapshot.devices) {
      if (device.dirty) {
        const auto [entry, created] = cache.records.try_emplace(device.device_id);
        std::string& record = entry->second;
        const auto encode = [&](util::ByteWriter& out) { encode_device_record(out, device); };
        if (created) {
          util::encode_exact(record, encode);
        } else {
          record.clear();
          util::ByteWriter out{record};
          encode(out);
        }
        ++local.records_rewritten;
        continue;
      }
      EMTS_REQUIRE(cache.records.contains(device.device_id),
                   "save_fleet_snapshot: clean record for '" + device.device_id +
                       "' missing from the cache (cold cache needs a full cut)");
      ++local.records_reused;
    }
    // Departed devices fall out: both sides are sorted by id, so one merge
    // walk leaves the cache holding exactly the snapshot's ids.
    auto entry = cache.records.begin();
    for (const FleetSnapshot::Device& device : snapshot.devices) {
      while (entry->first != device.device_id) entry = cache.records.erase(entry);
      ++entry;
    }
    cache.records.erase(entry, cache.records.end());

    FileWriter file{path, "save_fleet_snapshot"};
    file.write(encode_snapshot_header(snapshot));
    for (const auto& [device_id, record] : cache.records) file.write(record);
    file.close();
  } catch (...) {
    // FleetMonitor::snapshot has already advanced the dirty devices' marks,
    // so their previous records are stale and a half-encoded one is garbage:
    // drop both, and the next incremental cut refuses them as missing.
    for (const FleetSnapshot::Device& device : snapshot.devices) {
      if (device.dirty) cache.records.erase(device.device_id);
    }
    throw;
  }
  if (stats != nullptr) *stats = local;
}

FleetSnapshot load_fleet_snapshot(const std::string& path) {
  const MappedFile file{path, "load_fleet_snapshot"};
  util::ByteReader in{file.bytes()};
  in.expect_magic(kMagic, "load_fleet_snapshot: " + path);
  const std::uint32_t version = in.u32();
  EMTS_REQUIRE(version == kVersion,
               "load_fleet_snapshot: unsupported version " + std::to_string(version) +
                   " (expected 5; v1-v3 snapshots carry the FNV-1a record checksum, v4"
                   " the self-calibration fields)");

  FleetSnapshot snapshot;
  snapshot.shards = in.u32();
  snapshot.queue_capacity = in.u32();
  snapshot.backpressure = in.u8();
  // Each record carries at least its id length, payload size and checksum.
  // No reserve: a Device is ~1.6 KB in memory but its record can be a few
  // dozen bytes on disk, so the vector grows with the records that decode.
  const std::size_t device_count =
      in.count_u32(kMaxDevices, 4 + 8 + 8, "load_fleet_snapshot: device count");
  for (std::size_t d = 0; d < device_count; ++d) {
    std::string device_id = in.string();
    EMTS_REQUIRE(!device_id.empty(), "load_fleet_snapshot: empty device id");
    EMTS_REQUIRE(snapshot.devices.empty() || snapshot.devices.back().device_id < device_id,
                 "load_fleet_snapshot: device records out of order or duplicated");
    const std::string record_what = "load_fleet_snapshot: record '" + device_id + "'";

    const std::uint64_t payload_size = in.u64();
    EMTS_REQUIRE(payload_size <= kMaxDeviceBytes,
                 "load_fleet_snapshot: implausible record size for '" + device_id + "'");
    const std::span<const std::byte> payload = in.bytes(payload_size);
    const std::uint64_t declared_sum = in.u64();
    EMTS_REQUIRE(declared_sum == util::xxh64(payload.data(), payload.size()),
                 "load_fleet_snapshot: checksum mismatch for '" + device_id + "'");

    util::ByteReader record{payload};
    // Parse the EMCA artifact from its exact sub-range so an artifact that
    // reads short or long of its declared frame is caught here, not blamed on
    // the monitor-state bytes that follow.
    util::ByteReader emca = record.take(record.u64());
    core::TrustEvaluator evaluator = load_calibration(emca);
    emca.expect_end(record_what + " calibration frame");
    core::MonitorStateImage monitor = read_monitor_state(record);
    record.expect_end(record_what);

    snapshot.devices.push_back(
        FleetSnapshot::Device{std::move(device_id), std::move(evaluator), std::move(monitor)});
  }
  in.expect_end("load_fleet_snapshot: " + path);
  return snapshot;
}

}  // namespace emts::io
