// EMFS fleet-snapshot container: the durable form of a running fleet. One
// snapshot bundles, per device, the fitted detector stack (an embedded EMCA
// calibration artifact) and the monitor's complete mutable state (a
// core::MonitorStateImage), so a restarted daemon resumes monitoring every
// device — window contents, debounce runs, latched alarms, lifetime stats —
// without recalibration, and continues each stream bit-identically to a
// process that never died. Format "EMFS" v4 (docs/FORMATS.md):
//
//   magic   'E' 'M' 'F' 'S'
//   u32     version (4)
//   u32     shard count        (the fleet's layout at snapshot time —
//   u32     queue capacity      restart defaults; a restored fleet may
//   u8      backpressure policy re-shard freely, device_hash is stable)
//   u32     device count
//   then per device, sorted by device id:
//     string  device id (u32 byte count + bytes)
//     u64     payload size in bytes
//     bytes   payload:
//               u64   EMCA byte count, then the EMCA artifact
//               bytes monitor state image (read_monitor_state's format)
//     u64     XXH64 (seed 0) checksum of the payload bytes
//
// Every record is length-framed and checksummed: the loader verifies the
// checksum, bounds every declared length against the bytes actually
// remaining (a corrupt header is rejected before it can allocate), and
// requires the file to end exactly after the last record. v1-v3 containers,
// whose records carry the byte-serial FNV-1a checksum, are refused with
// their version named.
//
// Incremental saves: because serialization is deterministic (devices sorted,
// no timestamps), a device whose state has not moved since the last snapshot
// re-serializes to byte-identical record bytes. The cache-aware
// save_fleet_snapshot overload exploits this — records for clean devices
// (Device::dirty == false) are streamed verbatim from a
// FleetSnapshotRecordCache instead of being re-copied and re-encoded, so the
// cost of a snapshot cut scales with the number of *moved* devices, not the
// fleet size. The output is always a complete, self-contained EMFS v4
// container, byte-identical to a full rewrite of the same state; there is no
// delta file format and load_fleet_snapshot needs no changes.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/evaluator.hpp"
#include "core/monitor.hpp"
#include "util/binio.hpp"

namespace emts::io {

/// Serializes one monitor state image (every field, both latency
/// histograms, the buffered event log) such that read_monitor_state returns
/// a bit-identical image. The reader stops just past the image.
void write_monitor_state(std::ostream& out, const core::MonitorStateImage& image);
core::MonitorStateImage read_monitor_state(util::ByteReader& in);

/// In-memory form of one EMFS container.
struct FleetSnapshot {
  /// Fleet layout at snapshot time; restart defaults, not requirements.
  std::uint32_t shards = 0;
  std::uint32_t queue_capacity = 0;
  std::uint8_t backpressure = 0;  // numeric fleet::BackpressurePolicy

  struct Device {
    std::string device_id;
    /// EMCA round-trip: bit-identical scores. Engaged whenever dirty is true
    /// (always, for loaded snapshots); nullopt only in clean placeholders.
    std::optional<core::TrustEvaluator> evaluator;
    core::MonitorStateImage monitor;
    /// When false the evaluator/monitor members are unpopulated placeholders
    /// and the device's on-disk record must come from the save-time cache
    /// (incremental snapshot mode). Defaults true so every existing producer
    /// keeps the full-copy semantics.
    bool dirty = true;
  };
  std::vector<Device> devices;  // sorted by device id
};

/// Raw on-disk record bytes (id framing + length + payload + checksum) per
/// device, keyed by device id, from the last cache-aware save. Owned by the
/// snapshot producer (the daemon); save_fleet_snapshot keeps it in sync —
/// dirty devices refresh their entry, departed devices are pruned.
struct FleetSnapshotRecordCache {
  std::map<std::string, std::string> records;
};

/// How much of a cache-aware save was reuse vs fresh encoding.
struct SnapshotSaveStats {
  std::uint64_t records_reused = 0;
  std::uint64_t records_rewritten = 0;
};

/// Writes/reads a whole container. Throws precondition_error on I/O
/// failure, bad magic or version, absurd or inconsistent lengths, checksum
/// mismatches, unsorted or duplicate device records, or trailing bytes.
///
/// The plain save requires every device record to be populated
/// (Device::dirty == true — it has no cache to fall back on). The
/// cache-aware overload streams clean devices' records from `cache`
/// verbatim, refreshes the cache from dirty devices, prunes departed ids,
/// and reports the reuse split via `stats` when non-null. A clean device
/// with no cache entry is a precondition_error: the producer must mark
/// everything dirty on its first (cold-cache) cut.
void save_fleet_snapshot(const std::string& path, const FleetSnapshot& snapshot);
void save_fleet_snapshot(const std::string& path, const FleetSnapshot& snapshot,
                         FleetSnapshotRecordCache& cache,
                         SnapshotSaveStats* stats = nullptr);
FleetSnapshot load_fleet_snapshot(const std::string& path);

}  // namespace emts::io
