// The one JSON rendering of monitor and fleet observability state. Three
// surfaces emit it — `emsentry_cli monitor --json`, `emsentry_cli fleet
// --json`, and the ingest daemon's periodic stats export — and they must
// stay parseable by one downstream schema, so the rendering lives here and
// nowhere else (DESIGN.md documents the schema next to §4g).
//
// Dependency-free by construction: hand-rolled escaping and %.17g number
// formatting (doubles round-trip exactly), no JSON library.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/monitor.hpp"
#include "fleet/fleet.hpp"
#include "fleet/server.hpp"
#include "util/latency.hpp"

namespace emts::fleet {

/// Version of the JSON schema below; emitted as "schema_version" in both the
/// monitor object and the fleet document. Bump when a key changes meaning or
/// disappears — additions alone do not require a bump, but got one here
/// (v1 -> v2) because the field itself is new, and again (v2 -> v3) when the
/// incremental spectral pipeline added the spectral_recomputes /
/// spectral_incremental_updates counters to every monitor object. v4 drops
/// the self-calibration keys (the monitor's calibration count, the fleet's
/// calibrating-device count and the calibrating state label), because every
/// monitor starts from a fitted detector stack.
inline constexpr std::uint32_t kStatsSchemaVersion = 4;

/// JSON string escaping (control characters to \uXXXX).
std::string json_escape(const std::string& s);

/// Shortest round-trip rendering of one double ("%.17g").
std::string json_number(double value);

/// {"count":...,"p50_us":...,"p99_us":...,"max_us":...}
std::string latency_json(const util::LatencyHistogram& h);

/// One monitor session as a JSON object: state, last_score, the twelve
/// MonitorStats counters, both latency histograms, buffered events, and
/// schema_version. `monitor --json` prints exactly this object; the fleet
/// document and the daemon's stats export embed the identical object per
/// device.
std::string monitor_stats_json(core::MonitorState state,
                               const std::optional<double>& last_score,
                               const core::MonitorStats& stats,
                               const std::vector<core::MonitorEvent>& events);

/// The daemon's "server" object: the run's lifetime counters plus a
/// "connections" array of per-connection transport accounting
/// ({peer, transport, authenticated, bytes_received, frames_decoded}).
std::string server_stats_json(const ServerCounters& counters,
                              const std::vector<ServerConnectionStats>& connections);

/// The fleet document: schema_version, fleet aggregates, per-shard queue
/// accounting, and a "sessions" object keyed by device id (sorted — the
/// FleetStats contract), each value embedding monitor_stats_json. `events`
/// are drained fleet events, distributed to their sessions. A non-empty
/// `server_json` (server_stats_json output — only the ingest daemon has
/// one) is embedded as a "server" key; an addition, so the schema version
/// stays put.
std::string fleet_stats_json(const FleetStats& stats, BackpressurePolicy policy,
                             std::size_t queue_capacity,
                             const std::vector<FleetEvent>& events,
                             const std::string& server_json = {});

}  // namespace emts::fleet
