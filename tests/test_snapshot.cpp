// Snapshot/restore correctness: the whole point of MonitorStateImage and the
// EMFS container is that a restored monitor (or fleet) is indistinguishable
// from one that never stopped — so every comparison here is exact EQ on
// doubles, never NEAR.
#include "io/snapshot.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "core/evaluator.hpp"
#include "core/monitor.hpp"
#include "fleet/fleet.hpp"
#include "util/alloc_counter.hpp"
#include "util/assert.hpp"
#include "util/binio.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"
#include "util/xxh64.hpp"
#include "mutation.hpp"
#include "temp_path.hpp"

namespace emts::io {
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

core::Trace infected_trace(emts::Rng& rng) {
  core::Trace t = golden_trace(rng);
  for (std::size_t i = 0; i < kLen; ++i) {
    t[i] += 0.6 * std::sin(2.0 * units::pi * 72e6 * static_cast<double>(i) / kFs) +
            0.3 * std::sin(2.0 * units::pi * 3e6 * static_cast<double>(i) / kFs);
  }
  return t;
}

core::TraceSet make_set(std::size_t n, bool infected, std::uint64_t seed) {
  emts::Rng rng{seed};
  core::TraceSet set;
  set.sample_rate = kFs;
  for (std::size_t i = 0; i < n; ++i) {
    set.add(infected ? infected_trace(rng) : golden_trace(rng));
  }
  return set;
}

// Feeds `set` to one device trace by trace.
void submit_all(fleet::FleetMonitor& fleet, const std::string& device_id,
                const core::TraceSet& set) {
  for (const core::Trace& trace : set.traces) fleet.submit(device_id, trace);
}

const core::TrustEvaluator& fitted() {
  static const core::TrustEvaluator evaluator =
      core::TrustEvaluator::calibrate(make_set(30, false, 1));
  return evaluator;
}

core::RuntimeMonitor::Options small_options() {
  core::RuntimeMonitor::Options opt;
  opt.alarm_debounce = 3;
  opt.spectral_window = 8;
  return opt;
}

void expect_histogram_eq(const util::LatencyHistogram& a, const util::LatencyHistogram& b) {
  EXPECT_EQ(a.buckets(), b.buckets());
  EXPECT_EQ(a.count(), b.count());
  EXPECT_EQ(a.total_ns(), b.total_ns());
  EXPECT_EQ(a.raw_min_ns(), b.raw_min_ns());
  EXPECT_EQ(a.max_ns(), b.max_ns());
}

void expect_stats_eq(const core::MonitorStats& a, const core::MonitorStats& b,
                     bool compare_latency) {
  EXPECT_EQ(a.traces_ingested, b.traces_ingested);
  EXPECT_EQ(a.traces_rejected, b.traces_rejected);
  EXPECT_EQ(a.scored_captures, b.scored_captures);
  EXPECT_EQ(a.per_trace_anomalies, b.per_trace_anomalies);
  EXPECT_EQ(a.spectral_passes, b.spectral_passes);
  EXPECT_EQ(a.windowed_anomalies, b.windowed_anomalies);
  EXPECT_EQ(a.spectral_recomputes, b.spectral_recomputes);
  EXPECT_EQ(a.spectral_incremental_updates, b.spectral_incremental_updates);
  EXPECT_EQ(a.alarms_latched, b.alarms_latched);
  EXPECT_EQ(a.alarms_acknowledged, b.alarms_acknowledged);
  EXPECT_EQ(a.events_dropped, b.events_dropped);
  if (compare_latency) {
    expect_histogram_eq(a.push_latency, b.push_latency);
    expect_histogram_eq(a.spectral_latency, b.spectral_latency);
  } else {
    // Continued streams re-time each push, but the *number* of recordings is
    // part of the deterministic contract.
    EXPECT_EQ(a.push_latency.count(), b.push_latency.count());
    EXPECT_EQ(a.spectral_latency.count(), b.spectral_latency.count());
  }
}

void expect_events_eq(const std::vector<core::MonitorEvent>& a,
                      const std::vector<core::MonitorEvent>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].kind, b[i].kind);
    EXPECT_EQ(a[i].trace_index, b[i].trace_index);
    EXPECT_EQ(a[i].value, b[i].value);
  }
}

void expect_image_eq(const core::MonitorStateImage& a, const core::MonitorStateImage& b,
                     bool compare_latency = true) {
  EXPECT_EQ(a.sample_rate, b.sample_rate);
  EXPECT_EQ(a.alarm_debounce, b.alarm_debounce);
  EXPECT_EQ(a.spectral_window, b.spectral_window);
  EXPECT_EQ(a.event_log_capacity, b.event_log_capacity);
  EXPECT_EQ(a.spectral_rebuild_every, b.spectral_rebuild_every);
  EXPECT_EQ(a.state, b.state);
  EXPECT_EQ(a.traces_seen, b.traces_seen);
  EXPECT_EQ(a.expected_length, b.expected_length);
  EXPECT_EQ(a.consecutive_anomalies, b.consecutive_anomalies);
  EXPECT_EQ(a.alarm_latched_at, b.alarm_latched_at);
  EXPECT_EQ(a.last_score, b.last_score);
  ASSERT_EQ(a.last_spectral.has_value(), b.last_spectral.has_value());
  if (a.last_spectral.has_value()) {
    ASSERT_EQ(a.last_spectral->anomalies.size(), b.last_spectral->anomalies.size());
    for (std::size_t i = 0; i < a.last_spectral->anomalies.size(); ++i) {
      const core::SpectralAnomaly& x = a.last_spectral->anomalies[i];
      const core::SpectralAnomaly& y = b.last_spectral->anomalies[i];
      EXPECT_EQ(x.kind, y.kind);
      EXPECT_EQ(x.frequency_hz, y.frequency_hz);
      EXPECT_EQ(x.golden_amplitude, y.golden_amplitude);
      EXPECT_EQ(x.suspect_amplitude, y.suspect_amplitude);
      EXPECT_EQ(x.ratio, y.ratio);
    }
  }
  EXPECT_EQ(a.window, b.window);
  EXPECT_EQ(a.window_total_pushed, b.window_total_pushed);
  EXPECT_EQ(a.spectral_count, b.spectral_count);
  EXPECT_EQ(a.spectral_updates_since_rebuild, b.spectral_updates_since_rebuild);
  EXPECT_EQ(a.spectral_sum, b.spectral_sum);  // bitwise accumulator identity
  expect_stats_eq(a.stats, b.stats, compare_latency);
  expect_events_eq(a.events, b.events);
}

std::string read_bytes(const std::string& path) {
  std::ifstream in{path, std::ios::binary};
  return {std::istreambuf_iterator<char>{in}, std::istreambuf_iterator<char>{}};
}

void write_bytes(const std::string& path, const std::string& bytes) {
  std::ofstream out{path, std::ios::binary | std::ios::trunc};
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

using mutation::read_le;

std::string state_bytes(const core::MonitorStateImage& image) {
  std::string bytes;
  util::ByteWriter out{bytes};
  write_monitor_state(out, image);
  return bytes;
}

class SnapshotFile : public ::testing::Test {
 protected:
  void TearDown() override { std::filesystem::remove(path_); }

  std::string path_ = temp_path("emts_snapshot_test", ".emfs");
};

// ---------- monitor state image serialization ----------

TEST(MonitorStateSerialization, RoundTripsBitIdentically) {
  core::RuntimeMonitor monitor{kFs, fitted(), small_options()};
  const core::TraceSet golden = make_set(12, false, 2);
  const core::TraceSet infected = make_set(4, true, 3);
  monitor.push_batch(golden);
  monitor.push_batch(infected);  // latches the alarm (debounce 3)
  ASSERT_EQ(monitor.state(), core::MonitorState::kAlarm);

  const core::MonitorStateImage image = monitor.export_state();
  const std::string bytes = state_bytes(image);
  util::ByteReader in{bytes};
  const core::MonitorStateImage loaded = read_monitor_state(in);
  EXPECT_EQ(in.remaining(), 0u);
  expect_image_eq(image, loaded);
}

TEST(MonitorStateSerialization, CorruptStateTagThrows) {
  core::RuntimeMonitor monitor{kFs, fitted(), small_options()};
  monitor.push_batch(make_set(3, false, 5));
  std::string bytes = state_bytes(monitor.export_state());
  // The state tag sits after the f64 rate, three u64 mirrors and the rebuild
  // cadence (u64).
  bytes[8 + 3 * 8 + 8] = 7;
  util::ByteReader corrupt{bytes};
  EXPECT_THROW(read_monitor_state(corrupt), emts::precondition_error);
}

TEST(MonitorStateSerialization, TruncatedStreamThrows) {
  core::RuntimeMonitor monitor{kFs, fitted(), small_options()};
  monitor.push_batch(make_set(10, false, 6));
  const std::string bytes = state_bytes(monitor.export_state());
  util::ByteReader truncated{std::string_view{bytes}.substr(0, bytes.size() / 2)};
  EXPECT_THROW(read_monitor_state(truncated), emts::precondition_error);
}

// Each buffered trace needs at least its u64 length, so a trace count is
// checked against the bytes left before the list is reserved; reserving
// first, a count of 2^20 requests 25 MB from a 5-KB image.
TEST(MonitorStateSerialization, TraceCountTheBytesCannotBackIsRefusedBeforeAllocating) {
  core::RuntimeMonitor monitor{kFs, fitted(), small_options()};
  std::string bytes = state_bytes(monitor.export_state());
  // With no spectral report, the window trace count follows the 87 bytes of
  // option mirrors, loop state, last score and anomaly count.
  ASSERT_EQ(read_le(bytes, 87, 4), 0u);
  const std::uint32_t count = 1u << 20;
  std::memcpy(bytes.data() + 87, &count, sizeof count);
  util::ByteReader corrupt{bytes};
  const std::uint64_t before = util::alloc::thread_counts().bytes;
  EXPECT_THROW(read_monitor_state(corrupt), emts::precondition_error);
  if (util::alloc::counting_active()) {
    EXPECT_LT(util::alloc::thread_counts().bytes - before, 4 * bytes.size());
  }
}

// ---------- restored monitor = uninterrupted monitor ----------

TEST(MonitorRestore, ContinuationIsBitIdentical) {
  // Reference: one monitor runs the whole stream. Candidate: a second
  // monitor runs the first half, exports, restores into a third, which runs
  // the second half. Everything observable must match exactly.
  const core::TraceSet first_half = make_set(13, false, 7);
  core::TraceSet second_half = make_set(5, false, 8);
  for (core::Trace& t : make_set(6, true, 9).traces) second_half.add(std::move(t));

  core::RuntimeMonitor reference{kFs, fitted(), small_options()};
  reference.push_batch(first_half);
  reference.push_batch(second_half);

  core::RuntimeMonitor exporter{kFs, fitted(), small_options()};
  exporter.push_batch(first_half);
  const core::MonitorStateImage cut = exporter.export_state();

  core::RuntimeMonitor restored{kFs, fitted(), small_options()};
  restored.restore_state(cut);
  restored.push_batch(second_half);

  EXPECT_EQ(restored.state(), reference.state());
  EXPECT_EQ(restored.last_score(), reference.last_score());
  expect_image_eq(restored.export_state(), reference.export_state(),
                  /*compare_latency=*/false);

  // The alarm latched on the infected tail in both worlds.
  EXPECT_EQ(reference.state(), core::MonitorState::kAlarm);
}

TEST(MonitorRestore, LatchedAlarmSurvivesRestore) {
  core::RuntimeMonitor monitor{kFs, fitted(), small_options()};
  monitor.push_batch(make_set(4, false, 10));
  monitor.push_batch(make_set(4, true, 11));
  ASSERT_EQ(monitor.state(), core::MonitorState::kAlarm);
  const core::MonitorStateImage image = monitor.export_state();

  core::RuntimeMonitor restored{kFs, fitted(), small_options()};
  restored.restore_state(image);
  EXPECT_EQ(restored.state(), core::MonitorState::kAlarm);

  // Acknowledge works on the restored monitor exactly as on the original.
  restored.acknowledge_alarm();
  monitor.acknowledge_alarm();
  EXPECT_EQ(restored.state(), monitor.state());
  expect_image_eq(restored.export_state(), monitor.export_state(),
                  /*compare_latency=*/false);
}

TEST(MonitorRestore, RefusesTouchedMonitor) {
  core::RuntimeMonitor monitor{kFs, fitted(), small_options()};
  monitor.push_batch(make_set(3, false, 12));
  const core::MonitorStateImage image = monitor.export_state();

  core::RuntimeMonitor touched{kFs, fitted(), small_options()};
  touched.push_batch(make_set(1, false, 13));
  EXPECT_THROW(touched.restore_state(image), emts::precondition_error);
}

TEST(MonitorRestore, RefusesOptionAndRateMismatch) {
  core::RuntimeMonitor monitor{kFs, fitted(), small_options()};
  monitor.push_batch(make_set(3, false, 14));
  const core::MonitorStateImage image = monitor.export_state();

  core::RuntimeMonitor::Options other = small_options();
  other.alarm_debounce = 5;
  core::RuntimeMonitor wrong_options{kFs, fitted(), other};
  EXPECT_THROW(wrong_options.restore_state(image), emts::precondition_error);

  core::MonitorStateImage wrong_rate = image;
  wrong_rate.sample_rate = kFs * 2;
  core::RuntimeMonitor fresh{kFs, fitted(), small_options()};
  EXPECT_THROW(fresh.restore_state(wrong_rate), emts::precondition_error);
}

// ---------- EMFS container ----------

FleetSnapshot sample_snapshot() {
  FleetSnapshot snapshot;
  snapshot.shards = 2;
  snapshot.queue_capacity = 64;
  snapshot.backpressure = 0;
  for (const char* id : {"chip-00", "chip-01", "chip-02"}) {
    core::RuntimeMonitor monitor{kFs, fitted(), small_options()};
    monitor.push_batch(make_set(9, false, 16));
    snapshot.devices.push_back(FleetSnapshot::Device{id, fitted(), monitor.export_state()});
  }
  return snapshot;
}

TEST_F(SnapshotFile, FleetContainerRoundTrips) {
  const FleetSnapshot snapshot = sample_snapshot();
  save_fleet_snapshot(path_, snapshot);
  const FleetSnapshot loaded = load_fleet_snapshot(path_);

  EXPECT_EQ(loaded.shards, snapshot.shards);
  EXPECT_EQ(loaded.queue_capacity, snapshot.queue_capacity);
  EXPECT_EQ(loaded.backpressure, snapshot.backpressure);
  ASSERT_EQ(loaded.devices.size(), snapshot.devices.size());
  for (std::size_t d = 0; d < loaded.devices.size(); ++d) {
    EXPECT_EQ(loaded.devices[d].device_id, snapshot.devices[d].device_id);
    expect_image_eq(loaded.devices[d].monitor, snapshot.devices[d].monitor);
    // Evaluator round-trips through its EMCA embedding bit-identically:
    // loaded and original score the same trace to the same double.
    emts::Rng rng{17};
    const core::Trace probe = golden_trace(rng);
    EXPECT_EQ(loaded.devices[d].evaluator->detectors()[0]->score(probe),
              snapshot.devices[d].evaluator->detectors()[0]->score(probe));
  }
}

TEST_F(SnapshotFile, SaveRefusesUnsortedDevices) {
  FleetSnapshot snapshot = sample_snapshot();
  std::swap(snapshot.devices[0], snapshot.devices[2]);
  EXPECT_THROW(save_fleet_snapshot(path_, snapshot), emts::precondition_error);
}

TEST_F(SnapshotFile, TruncatedContainerThrows) {
  save_fleet_snapshot(path_, sample_snapshot());
  const auto full = std::filesystem::file_size(path_);
  std::filesystem::resize_file(path_, full - 9);  // clip into the last checksum
  EXPECT_THROW(load_fleet_snapshot(path_), emts::precondition_error);
  std::filesystem::resize_file(path_, full / 3);  // clip mid-record
  EXPECT_THROW(load_fleet_snapshot(path_), emts::precondition_error);
}

TEST_F(SnapshotFile, CorruptPayloadFailsItsChecksum) {
  save_fleet_snapshot(path_, sample_snapshot());
  std::fstream file{path_, std::ios::binary | std::ios::in | std::ios::out};
  file.seekp(120);
  char byte = 0;
  file.seekg(120);
  file.read(&byte, 1);
  byte = static_cast<char>(byte ^ 0x40);
  file.seekp(120);
  file.write(&byte, 1);
  file.close();
  EXPECT_THROW(load_fleet_snapshot(path_), emts::precondition_error);

  // Two adjacent, distinct 8-byte words swapped mid-payload: they sit in
  // different checksum lanes, and the checksum, verified before any payload
  // field is parsed, must refuse the record.
  save_fleet_snapshot(path_, sample_snapshot());
  std::string bytes = read_bytes(path_);
  const std::size_t payload = 21 + 4 + 7 + 8;  // header, "chip-00", payload size
  const std::size_t word = payload + (read_le(bytes, payload - 8, 8) / 2 & ~std::size_t{7});
  ASSERT_NE(bytes.compare(word, 8, bytes, word + 8, 8), 0);
  std::swap_ranges(bytes.begin() + static_cast<std::ptrdiff_t>(word),
                   bytes.begin() + static_cast<std::ptrdiff_t>(word + 8),
                   bytes.begin() + static_cast<std::ptrdiff_t>(word + 8));
  write_bytes(path_, bytes);
  try {
    load_fleet_snapshot(path_);
    FAIL() << "swapped words were accepted";
  } catch (const emts::precondition_error& error) {
    EXPECT_NE(std::string{error.what()}.find("checksum mismatch"), std::string::npos)
        << error.what();
  }
}

TEST_F(SnapshotFile, AbsurdDeclaredRecordSizeRejectedBeforeAllocating) {
  save_fleet_snapshot(path_, sample_snapshot());
  // First record's payload-size u64 sits right after the container header
  // (21 bytes) and the first device id string (4 + 7 bytes).
  const std::streamoff size_offset = 21 + 4 + 7;
  std::fstream file{path_, std::ios::binary | std::ios::in | std::ios::out};
  const std::uint64_t absurd = 1ull << 60;
  file.seekp(size_offset);
  file.write(reinterpret_cast<const char*>(&absurd), sizeof absurd);
  file.close();
  EXPECT_THROW(load_fleet_snapshot(path_), emts::precondition_error);
}

// A device count sizes nothing: reserving 2^16 Device slots (1.6 KB each in
// memory) from one 4-byte field requests 107 MB, so the loader grows its
// list with the records that actually decode.
TEST_F(SnapshotFile, DeviceCountTheBytesCannotBackIsRefusedBeforeAllocating) {
  save_fleet_snapshot(path_, sample_snapshot());
  std::string bytes = read_bytes(path_);
  ASSERT_EQ(read_le(bytes, 17, 4), 3u);
  const std::uint32_t count = 1u << 16;
  std::memcpy(bytes.data() + 17, &count, sizeof count);
  write_bytes(path_, bytes);
  const std::uint64_t before = util::alloc::thread_counts().bytes;
  EXPECT_THROW(load_fleet_snapshot(path_), emts::precondition_error);
  if (util::alloc::counting_active()) {
    EXPECT_LT(util::alloc::thread_counts().bytes - before, 16 * bytes.size());
  }
}

TEST_F(SnapshotFile, RefusesV1Container) {
  // v1 predates the spectral accumulator, v2 still carries the removed
  // incremental-spectral flag byte, v1-v3 checksum records with FNV-1a, and
  // v4 carries the removed self-calibration fields; the loader must name the
  // version instead of misparsing the record bytes.
  for (const std::uint32_t old_version : {1u, 2u, 3u, 4u}) {
    save_fleet_snapshot(path_, sample_snapshot());
    std::fstream file{path_, std::ios::binary | std::ios::in | std::ios::out};
    file.seekp(4);  // version u32 right after the 4-byte magic
    file.write(reinterpret_cast<const char*>(&old_version), sizeof old_version);
    file.close();
    try {
      load_fleet_snapshot(path_);
      FAIL() << "v" << old_version << " container was accepted";
    } catch (const emts::precondition_error& error) {
      EXPECT_NE(std::string{error.what()}.find("unsupported version " +
                                               std::to_string(old_version)),
                std::string::npos)
          << error.what();
    }
  }
}

TEST_F(SnapshotFile, TrailingBytesThrow) {
  save_fleet_snapshot(path_, sample_snapshot());
  std::ofstream file{path_, std::ios::binary | std::ios::app};
  file << "junk";
  file.close();
  EXPECT_THROW(load_fleet_snapshot(path_), emts::precondition_error);
}

// ---------- fleet snapshot / restore ----------

TEST_F(SnapshotFile, FleetRoundTripContinuesBitIdentically) {
  fleet::FleetOptions options;
  options.shards = 2;
  options.monitor = small_options();
  const std::vector<std::string> ids{"chip-00", "chip-01", "chip-02"};

  const core::TraceSet clean_a = make_set(11, false, 20);
  const core::TraceSet clean_b = make_set(9, false, 21);
  const core::TraceSet dirty = make_set(5, true, 22);

  // Reference fleet: both halves, no interruption.
  fleet::FleetMonitor reference{options};
  for (const std::string& id : ids) reference.add_device(id, fitted());
  for (const std::string& id : ids) submit_all(reference, id, clean_a);
  submit_all(reference, ids[0], clean_b);
  submit_all(reference, ids[1], dirty);  // one device alarms
  reference.flush();

  // Interrupted fleet: first half, snapshot to disk, restore onto a fleet
  // with a *different* shard layout, then the second half.
  io::FleetSnapshot cut;
  {
    fleet::FleetMonitor first{options};
    for (const std::string& id : ids) first.add_device(id, fitted());
    for (const std::string& id : ids) submit_all(first, id, clean_a);
    first.flush();
    cut = first.snapshot();
    save_fleet_snapshot(path_, cut);
  }

  fleet::FleetOptions reshaped = options;
  reshaped.shards = 3;
  fleet::FleetMonitor restored{reshaped};
  restored.restore(load_fleet_snapshot(path_));
  EXPECT_EQ(restored.device_count(), ids.size());
  submit_all(restored, ids[0], clean_b);
  submit_all(restored, ids[1], dirty);
  restored.flush();

  // Per-device monitor state must match the uninterrupted world exactly.
  const fleet::FleetStats expect = reference.stats();
  const fleet::FleetStats got = restored.stats();
  ASSERT_EQ(got.sessions.size(), expect.sessions.size());
  for (std::size_t s = 0; s < got.sessions.size(); ++s) {
    EXPECT_EQ(got.sessions[s].device_id, expect.sessions[s].device_id);
    EXPECT_EQ(got.sessions[s].state, expect.sessions[s].state);
    EXPECT_EQ(got.sessions[s].last_score, expect.sessions[s].last_score);
    expect_stats_eq(got.sessions[s].monitor, expect.sessions[s].monitor,
                    /*compare_latency=*/false);
  }
  EXPECT_EQ(got.devices_alarm, expect.devices_alarm);
  EXPECT_EQ(got.alarms_latched, expect.alarms_latched);

  // Event sequences survive the round trip too: same devices, same kinds,
  // same trace indices, same values.
  std::vector<fleet::FleetEvent> expect_events = reference.drain_events();
  std::vector<fleet::FleetEvent> got_events = restored.drain_events();
  ASSERT_EQ(got_events.size(), expect_events.size());
  for (std::size_t e = 0; e < got_events.size(); ++e) {
    EXPECT_EQ(got_events[e].device_id, expect_events[e].device_id);
    EXPECT_EQ(got_events[e].event.kind, expect_events[e].event.kind);
    EXPECT_EQ(got_events[e].event.trace_index, expect_events[e].event.trace_index);
    EXPECT_EQ(got_events[e].event.value, expect_events[e].event.value);
  }
}

TEST(FleetRestore, RefusesNonEmptyFleet) {
  fleet::FleetOptions options;
  options.monitor = small_options();
  fleet::FleetMonitor source{options};
  source.add_device("chip-00", fitted());
  const io::FleetSnapshot snapshot = source.snapshot();

  fleet::FleetMonitor occupied{options};
  occupied.add_device("chip-01", fitted());
  EXPECT_THROW(occupied.restore(snapshot), emts::precondition_error);
}

TEST(FleetRestore, TakesEveryOptionFromTheImage) {
  // A non-default rebuild cadence must travel with the image, like the
  // debounce and window do, into a fleet built with default options.
  fleet::FleetOptions options;
  options.monitor = small_options();
  options.monitor.spectral_rebuild_every = 7;
  fleet::FleetMonitor source{options};
  source.add_device("chip-00", fitted());
  submit_all(source, "chip-00", make_set(11, false, 30));
  const io::FleetSnapshot cut = source.snapshot();

  fleet::FleetMonitor restored;
  restored.restore(cut);
  const io::FleetSnapshot again = restored.snapshot();
  ASSERT_EQ(again.devices.size(), 1u);
  EXPECT_EQ(again.devices[0].monitor.spectral_rebuild_every, 7u);
  expect_image_eq(again.devices[0].monitor, cut.devices[0].monitor);
}

TEST(FleetRestore, RefusedImageRegistersNothing) {
  fleet::FleetOptions options;
  options.monitor = small_options();
  fleet::FleetMonitor source{options};
  source.add_device("chip-00", fitted());
  source.add_device("chip-01", fitted());
  submit_all(source, "chip-00", make_set(3, false, 31));
  submit_all(source, "chip-01", make_set(3, false, 32));
  const io::FleetSnapshot cut = source.snapshot();

  io::FleetSnapshot bad = cut;
  bad.devices[1].monitor.window_total_pushed = 0;  // fewer than its window holds
  fleet::FleetMonitor target{options};
  EXPECT_THROW(target.restore(bad), emts::precondition_error);
  EXPECT_EQ(target.device_count(), 0u);

  // Nothing half-registered: the same fleet still takes a good image.
  target.restore(cut);
  EXPECT_EQ(target.device_ids(), (std::vector<std::string>{"chip-00", "chip-01"}));
}

TEST(FleetSnapshot, CapturesLayoutAndSortsDevices) {
  fleet::FleetOptions options;
  options.shards = 3;
  options.queue_capacity = 17;
  options.backpressure = fleet::BackpressurePolicy::kDropOldest;
  options.monitor = small_options();
  fleet::FleetMonitor fleet{options};
  fleet.add_device("zeta", fitted());
  fleet.add_device("alpha", fitted());

  const io::FleetSnapshot snapshot = fleet.snapshot();
  EXPECT_EQ(snapshot.shards, 3u);
  EXPECT_EQ(snapshot.queue_capacity, 17u);
  EXPECT_EQ(snapshot.backpressure,
            static_cast<std::uint8_t>(fleet::BackpressurePolicy::kDropOldest));
  ASSERT_EQ(snapshot.devices.size(), 2u);
  EXPECT_EQ(snapshot.devices[0].device_id, "alpha");
  EXPECT_EQ(snapshot.devices[1].device_id, "zeta");
}

// ---------- incremental snapshots = full snapshots, cheaper ----------

std::string slurp(const std::string& path) {
  std::ifstream in{path, std::ios::binary};
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

TEST_F(SnapshotFile, IncrementalRewritesOnlyTheDirtyRecordAndMatchesFullBytes) {
  fleet::FleetOptions options;
  options.shards = 2;
  options.monitor = small_options();
  fleet::FleetMonitor fleet{options};
  std::vector<std::string> ids;
  for (int d = 0; d < 64; ++d) {
    char id[16];
    std::snprintf(id, sizeof id, "dev-%02d", d);
    ids.emplace_back(id);
    fleet.add_device(ids.back(), fitted());
  }
  const core::TraceSet warmup = make_set(3, false, 30);
  for (const std::string& id : ids) submit_all(fleet, id, warmup);
  fleet.flush();

  FleetSnapshotRecordCache cache;
  SnapshotSaveStats stats;
  // Cold cache: the priming cut encodes everything.
  save_fleet_snapshot(path_, fleet.snapshot(fleet::SnapshotMode::kFull), cache, &stats);
  EXPECT_EQ(stats.records_rewritten, 64u);
  EXPECT_EQ(stats.records_reused, 0u);

  // Move exactly one device; the next incremental cut re-encodes only it.
  submit_all(fleet, ids[17], make_set(2, false, 31));
  fleet.flush();
  save_fleet_snapshot(path_, fleet.snapshot(fleet::SnapshotMode::kIncremental), cache,
                      &stats);
  EXPECT_EQ(stats.records_rewritten, 1u);
  EXPECT_EQ(stats.records_reused, 63u);

  // The incremental container is byte-identical to a full rewrite of the
  // same fleet state — no delta format, no drift.
  const std::string full_path = path_ + ".full";
  save_fleet_snapshot(full_path, fleet.snapshot(fleet::SnapshotMode::kFull));
  EXPECT_EQ(slurp(path_), slurp(full_path));
  std::filesystem::remove(full_path);

  // And it restores exactly like any other EMFS container.
  fleet::FleetMonitor restored{options};
  restored.restore(load_fleet_snapshot(path_));
  ASSERT_EQ(restored.device_count(), ids.size());
  const fleet::FleetStats expect = fleet.stats();
  const fleet::FleetStats got = restored.stats();
  ASSERT_EQ(got.sessions.size(), expect.sessions.size());
  for (std::size_t s = 0; s < got.sessions.size(); ++s) {
    EXPECT_EQ(got.sessions[s].device_id, expect.sessions[s].device_id);
    EXPECT_EQ(got.sessions[s].state, expect.sessions[s].state);
    EXPECT_EQ(got.sessions[s].last_score, expect.sessions[s].last_score);
    expect_stats_eq(got.sessions[s].monitor, expect.sessions[s].monitor,
                    /*compare_latency=*/false);
  }
}

TEST_F(SnapshotFile, DrainAndAcknowledgeDirtyTheDeviceWithoutNewTraces) {
  fleet::FleetOptions options;
  options.monitor = small_options();
  fleet::FleetMonitor fleet{options};
  fleet.add_device("solo", fitted());
  submit_all(fleet, "solo", make_set(4, false, 32));
  submit_all(fleet, "solo", make_set(4, true, 33));  // anomalies + latched alarm
  fleet.flush();

  FleetSnapshotRecordCache cache;
  SnapshotSaveStats stats;
  save_fleet_snapshot(path_, fleet.snapshot(fleet::SnapshotMode::kFull), cache, &stats);

  // Quiescent fleet: an incremental cut reuses the record wholesale.
  save_fleet_snapshot(path_, fleet.snapshot(fleet::SnapshotMode::kIncremental), cache,
                      &stats);
  EXPECT_EQ(stats.records_reused, 1u);
  EXPECT_EQ(stats.records_rewritten, 0u);

  // Draining events mutates the session without moving traces_ingested; the
  // dirty tracking must notice or a restore would replay drained events.
  ASSERT_FALSE(fleet.drain_events().empty());
  save_fleet_snapshot(path_, fleet.snapshot(fleet::SnapshotMode::kIncremental), cache,
                      &stats);
  EXPECT_EQ(stats.records_rewritten, 1u);

  // Acknowledging a latched alarm likewise.
  fleet.acknowledge_alarm("solo");
  save_fleet_snapshot(path_, fleet.snapshot(fleet::SnapshotMode::kIncremental), cache,
                      &stats);
  EXPECT_EQ(stats.records_rewritten, 1u);

  const std::string full_path = path_ + ".full";
  save_fleet_snapshot(full_path, fleet.snapshot(fleet::SnapshotMode::kFull));
  EXPECT_EQ(slurp(path_), slurp(full_path));
  std::filesystem::remove(full_path);
}

TEST_F(SnapshotFile, PlaceholderRecordsDemandTheCachePath) {
  fleet::FleetOptions options;
  options.monitor = small_options();
  fleet::FleetMonitor fleet{options};
  fleet.add_device("solo", fitted());
  submit_all(fleet, "solo", make_set(5, false, 34));
  fleet.flush();

  FleetSnapshotRecordCache cache;
  save_fleet_snapshot(path_, fleet.snapshot(fleet::SnapshotMode::kFull), cache);

  const io::FleetSnapshot placeholders = fleet.snapshot(fleet::SnapshotMode::kIncremental);
  ASSERT_EQ(placeholders.devices.size(), 1u);
  ASSERT_FALSE(placeholders.devices[0].dirty);
  EXPECT_FALSE(placeholders.devices[0].evaluator.has_value());

  // The plain save has no cache to materialize a clean record from.
  const std::string other = path_ + ".other";
  EXPECT_THROW(save_fleet_snapshot(other, placeholders), emts::precondition_error);
  // Neither does a cache that never saw the device.
  FleetSnapshotRecordCache cold;
  EXPECT_THROW(save_fleet_snapshot(other, placeholders, cold), emts::precondition_error);
  std::filesystem::remove(other);
  // And a restore cannot conjure monitor state out of a placeholder.
  fleet::FleetMonitor fresh{options};
  EXPECT_THROW(fresh.restore(placeholders), emts::precondition_error);

  // The warm cache, though, still writes a complete loadable container.
  SnapshotSaveStats stats;
  save_fleet_snapshot(path_, placeholders, cache, &stats);
  EXPECT_EQ(stats.records_reused, 1u);
  EXPECT_EQ(stats.records_rewritten, 0u);
  fleet::FleetMonitor restored{options};
  restored.restore(load_fleet_snapshot(path_));
  EXPECT_EQ(restored.device_count(), 1u);
}

TEST_F(SnapshotFile, CacheAwareSavePrunesDepartedDevices) {
  const FleetSnapshot three = sample_snapshot();
  FleetSnapshotRecordCache cache;
  save_fleet_snapshot(path_, three, cache);
  EXPECT_EQ(cache.records.size(), 3u);

  FleetSnapshot two = three;
  two.devices.erase(two.devices.begin() + 1);  // chip-01 departs
  save_fleet_snapshot(path_, two, cache);
  EXPECT_EQ(cache.records.size(), 2u);
  EXPECT_EQ(cache.records.count("chip-01"), 0u);
  EXPECT_EQ(load_fleet_snapshot(path_).devices.size(), 2u);
}

// ---------- seeded structural mutation ----------

using mutation::Field;

/// Locates the fields a corrupt container is most likely to lie in: the
/// device count and, per record, the id length, payload size, EMCA size,
/// detector count, each detector's name length and payload size, and the
/// monitor state's event count.
std::vector<Field> length_fields(const std::string& bytes, const FleetSnapshot& snapshot) {
  std::vector<Field> fields{{17, 4}};  // after magic, version, shards, queue, policy
  std::size_t at = 21;
  for (const FleetSnapshot::Device& device : snapshot.devices) {
    fields.push_back({at, 4});
    at += 4 + read_le(bytes, at, 4);
    fields.push_back({at, 8});
    const std::size_t payload = at + 8;
    const std::size_t payload_end = payload + read_le(bytes, at, 8);
    fields.push_back({payload, 8});
    const std::size_t emca_end = payload + 8 + read_le(bytes, payload, 8);
    std::size_t cursor = payload + 8 + 4 + 4 + 8 + 8;  // magic, version, rate, alarm fraction
    fields.push_back({cursor, 4});
    const std::uint64_t detectors = read_le(bytes, cursor, 4);
    cursor += 4;
    for (std::uint64_t d = 0; d < detectors; ++d) {
      fields.push_back({cursor, 4});
      cursor += 4 + read_le(bytes, cursor, 4);
      fields.push_back({cursor, 8});
      cursor += 8 + read_le(bytes, cursor, 8);
    }
    EXPECT_EQ(cursor, emca_end);
    fields.push_back({payload_end - 4 - 17 * device.monitor.events.size(), 4});
    at = payload_end + 8;  // past the checksum
  }
  EXPECT_EQ(at, bytes.size());
  return fields;
}

/// Recomputes the checksum of every record whose framing still fits the
/// file, so a mutant reaches the structural checks behind the checksum.
void reseal_records(std::string& bytes) {
  if (bytes.size() < 21) return;
  const std::uint64_t devices = read_le(bytes, 17, 4);
  std::size_t at = 21;
  for (std::uint64_t d = 0; d < devices; ++d) {
    if (bytes.size() - at < 4 || bytes.size() - at - 4 < read_le(bytes, at, 4) + 8) return;
    at += 4 + read_le(bytes, at, 4);
    const std::uint64_t payload_size = read_le(bytes, at, 8);
    at += 8;
    if (bytes.size() - at < 8 || bytes.size() - at - 8 < payload_size) return;
    const std::uint64_t sum = util::xxh64(bytes.data() + at, payload_size);
    std::memcpy(bytes.data() + at + payload_size, &sum, sizeof sum);
    at += payload_size + 8;
  }
}

// ---------- a valid load requests about its own size ----------

// Records are parsed in place from the mapped file. Copying each record into
// a std::string and a std::istringstream, and its EMCA frame into two more,
// this 1.2 MB container requested 3.8x its size.
TEST_F(SnapshotFile, ValidLoadRequestsLessThanTwiceItsSize) {
  if (!util::alloc::counting_active()) {
    GTEST_SKIP() << "allocation hooks disabled in this build (sanitizer)";
  }
  FleetSnapshot snapshot;
  for (int d = 0; d < 8; ++d) {
    core::RuntimeMonitor monitor{kFs, fitted(), small_options()};
    monitor.push_batch(make_set(7, false, 50 + static_cast<std::uint64_t>(d)));
    snapshot.devices.push_back(
        FleetSnapshot::Device{"chip-0" + std::to_string(d), fitted(), monitor.export_state()});
  }
  save_fleet_snapshot(path_, snapshot);
  const std::uint64_t size = std::filesystem::file_size(path_);

  const std::uint64_t before = util::alloc::thread_counts().bytes;
  const FleetSnapshot loaded = load_fleet_snapshot(path_);
  EXPECT_LT(util::alloc::thread_counts().bytes - before, 2 * size + 65536) << size << " bytes";
  EXPECT_EQ(loaded.devices.size(), snapshot.devices.size());
}

// ---------- a save requests about its own size ----------

// Sixteen devices whose records each carry a full spectral window.
FleetSnapshot sixteen_devices() {
  FleetSnapshot snapshot;
  for (int d = 0; d < 16; ++d) {
    core::RuntimeMonitor monitor{kFs, fitted(), small_options()};
    monitor.push_batch(make_set(8, false, 60 + static_cast<std::uint64_t>(d)));
    char id[32];
    std::snprintf(id, sizeof id, "chip-%02d", d);
    snapshot.devices.push_back(FleetSnapshot::Device{id, fitted(), monitor.export_state()});
  }
  return snapshot;
}

// Every record is encoded in place into one scratch buffer the save reuses.
// Staging each record through three std::ostringstreams and copying each
// out, this save of a 604 KB container requested 14.7x its size.
TEST_F(SnapshotFile, PlainSaveRequestsLessThanTwiceItsSize) {
  if (!util::alloc::counting_active()) {
    GTEST_SKIP() << "allocation hooks disabled in this build (sanitizer)";
  }
  const FleetSnapshot snapshot = sixteen_devices();
  const std::uint64_t before = util::alloc::thread_counts().bytes;
  save_fleet_snapshot(path_, snapshot);
  const std::uint64_t requested = util::alloc::thread_counts().bytes - before;
  const std::uint64_t size = std::filesystem::file_size(path_);
  EXPECT_LT(requested, 2 * size + 65536) << size << " bytes";
}

// A warm cut re-encodes each dirty record into its cache entry's own buffer,
// which keeps its capacity, so records that did not grow size nothing. The
// save that rebuilt the cache from fresh copies requested 14.7x the
// container.
TEST_F(SnapshotFile, WarmCacheAwareSaveOfRecordsThatDidNotGrowRequestsUnder64KiB) {
  if (!util::alloc::counting_active()) {
    GTEST_SKIP() << "allocation hooks disabled in this build (sanitizer)";
  }
  const FleetSnapshot snapshot = sixteen_devices();  // every device dirty
  FleetSnapshotRecordCache cache;
  save_fleet_snapshot(path_, snapshot, cache);
  const std::string cold = read_bytes(path_);

  SnapshotSaveStats stats;
  const std::uint64_t before = util::alloc::thread_counts().bytes;
  save_fleet_snapshot(path_, snapshot, cache, &stats);
  const std::uint64_t requested = util::alloc::thread_counts().bytes - before;
  EXPECT_LT(requested, 65536u) << cold.size() << "-byte container";
  EXPECT_EQ(stats.records_rewritten, 16u);
  EXPECT_EQ(read_bytes(path_), cold);
}

// A cold cut counts each new cache entry first and allocates it once at its
// exact size. Growing every new entry by doubling, the first cut of this
// 604 KB container requested 3.9x its size.
TEST_F(SnapshotFile, ColdCacheAwareSaveRequestsLessThanTwiceItsSize) {
  if (!util::alloc::counting_active()) {
    GTEST_SKIP() << "allocation hooks disabled in this build (sanitizer)";
  }
  const FleetSnapshot snapshot = sixteen_devices();
  FleetSnapshotRecordCache cache;
  const std::uint64_t before = util::alloc::thread_counts().bytes;
  save_fleet_snapshot(path_, snapshot, cache);
  const std::uint64_t requested = util::alloc::thread_counts().bytes - before;
  const std::uint64_t size = std::filesystem::file_size(path_);
  EXPECT_LT(requested, 2 * size + 65536) << size << " bytes";
  EXPECT_EQ(cache.records.size(), 16u);
}

// ---------- a failed save leaves no stale record behind ----------

// FleetMonitor::snapshot advances each dirty device's mark before the save
// runs, so after a save that throws, a dirty device's previous record is
// stale and its half-encoded one is garbage. The cache keeps neither, and
// the next incremental cut refuses the device instead of writing either.
TEST_F(SnapshotFile, SaveThatThrowsMidCutDropsItsDirtyDevicesFromTheCache) {
  fleet::FleetOptions options;
  options.monitor = small_options();
  fleet::FleetMonitor fleet{options};
  for (const char* id : {"chip-a", "chip-b", "chip-c"}) {
    fleet.add_device(id, fitted());
    submit_all(fleet, id, make_set(3, false, 70));
  }
  fleet.flush();
  FleetSnapshotRecordCache cache;
  save_fleet_snapshot(path_, fleet.snapshot(fleet::SnapshotMode::kFull), cache);

  // chip-a and chip-b move; chip-a encodes, then chip-b throws.
  submit_all(fleet, "chip-a", make_set(2, false, 71));
  submit_all(fleet, "chip-b", make_set(2, false, 72));
  fleet.flush();
  io::FleetSnapshot cut = fleet.snapshot(fleet::SnapshotMode::kIncremental);
  ASSERT_TRUE(cut.devices[0].dirty && cut.devices[1].dirty && !cut.devices[2].dirty);
  cut.devices[1].evaluator.reset();
  EXPECT_THROW(save_fleet_snapshot(path_, cut, cache), emts::precondition_error);
  EXPECT_EQ(cache.records.count("chip-a"), 0u);
  EXPECT_EQ(cache.records.count("chip-b"), 0u);
  EXPECT_EQ(cache.records.count("chip-c"), 1u);

  // Their marks moved, so the next cut calls them clean; it must refuse.
  const io::FleetSnapshot next = fleet.snapshot(fleet::SnapshotMode::kIncremental);
  ASSERT_FALSE(next.devices[0].dirty);
  try {
    save_fleet_snapshot(path_, next, cache);
    ADD_FAILURE() << "a stale record was written";
  } catch (const emts::precondition_error& error) {
    EXPECT_NE(std::string{error.what()}.find("'chip-a' missing from the cache"),
              std::string::npos)
        << error.what();
  }

  // A save that encodes every record and then cannot open its file drops
  // them too.
  FleetSnapshotRecordCache warm;
  save_fleet_snapshot(path_, fleet.snapshot(fleet::SnapshotMode::kFull), warm);
  EXPECT_THROW(save_fleet_snapshot(path_ + ".missing/cut.emfs",
                                   fleet.snapshot(fleet::SnapshotMode::kFull), warm),
               emts::precondition_error);
  EXPECT_TRUE(warm.records.empty());
}

TEST_F(SnapshotFile, SeededMutantsLoadOrThrowPreconditionError) {
  // Two devices, one of them alarmed, so the event log is not empty.
  FleetSnapshot snapshot;
  snapshot.shards = 2;
  snapshot.queue_capacity = 16;
  snapshot.backpressure = 1;
  for (const bool infected : {false, true}) {
    core::RuntimeMonitor monitor{kFs, fitted(), small_options()};
    monitor.push_batch(make_set(4, infected, 40));
    snapshot.devices.push_back(FleetSnapshot::Device{infected ? "chip-b" : "chip-a", fitted(),
                                                     monitor.export_state()});
  }
  ASSERT_FALSE(snapshot.devices[1].monitor.events.empty());
  save_fleet_snapshot(path_, snapshot);
  const std::string clean = read_bytes(path_);
  const std::vector<Field> fields = length_fields(clean, snapshot);

  constexpr int kMutants = 1000;
  emts::Rng rng{0x454d4653};  // 'EMFS'
  int loaded = 0;
  int refused_by_structure = 0;
  for (int m = 0; m < kMutants; ++m) {
    std::string mutant = clean;
    mutation::mutate(mutant, fields, rng);
    if (rng.uniform_below(8) != 0) reseal_records(mutant);
    write_bytes(path_, mutant);
    const auto refusal = mutation::decode_or_refuse(m, mutant.size(), [&] {
      EXPECT_LE(load_fleet_snapshot(path_).devices.size(), snapshot.devices.size());
    });
    if (!refusal) {
      ++loaded;
    } else if (refusal->find("checksum") == std::string::npos) {
      ++refused_by_structure;
    }
  }
  // Aimed splices must mostly reach, and trip, the length checks.
  EXPECT_GT(refused_by_structure, kMutants / 2);
  EXPECT_LT(loaded, kMutants / 4);
}

}  // namespace
}  // namespace emts::io
