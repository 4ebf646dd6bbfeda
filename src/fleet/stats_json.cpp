#include "fleet/stats_json.hpp"

#include <cstdio>

namespace emts::fleet {

namespace {

void append_u64(std::string& out, const char* key, std::uint64_t value) {
  out += '"';
  out += key;
  out += "\":";
  out += std::to_string(value);
}

}  // namespace

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", static_cast<unsigned>(c) & 0xff);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string json_number(double value) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

std::string latency_json(const util::LatencyHistogram& h) {
  std::string out = "{";
  append_u64(out, "count", h.count());
  out += ",\"p50_us\":" + json_number(h.p50_ns() / 1e3);
  out += ",\"p99_us\":" + json_number(h.p99_ns() / 1e3);
  out += ",\"max_us\":" + json_number(static_cast<double>(h.max_ns()) / 1e3);
  out += "}";
  return out;
}

std::string monitor_stats_json(core::MonitorState state,
                               const std::optional<double>& last_score,
                               const core::MonitorStats& stats,
                               const std::vector<core::MonitorEvent>& events) {
  std::string out = "{";
  append_u64(out, "schema_version", kStatsSchemaVersion);
  out += ",\"state\":\"";
  out += core::monitor_state_label(state);
  out += "\",\"last_score\":";
  out += last_score.has_value() ? json_number(*last_score) : "null";
  out += ',';
  append_u64(out, "traces_ingested", stats.traces_ingested);
  out += ',';
  append_u64(out, "traces_rejected", stats.traces_rejected);
  out += ',';
  append_u64(out, "scored_captures", stats.scored_captures);
  out += ',';
  append_u64(out, "per_trace_anomalies", stats.per_trace_anomalies);
  out += ',';
  append_u64(out, "spectral_passes", stats.spectral_passes);
  out += ',';
  append_u64(out, "windowed_anomalies", stats.windowed_anomalies);
  out += ',';
  append_u64(out, "spectral_recomputes", stats.spectral_recomputes);
  out += ',';
  append_u64(out, "spectral_incremental_updates", stats.spectral_incremental_updates);
  out += ',';
  append_u64(out, "alarms_latched", stats.alarms_latched);
  out += ',';
  append_u64(out, "alarms_acknowledged", stats.alarms_acknowledged);
  out += ',';
  append_u64(out, "events_dropped", stats.events_dropped);
  out += ",\"push_latency\":" + latency_json(stats.push_latency);
  out += ",\"spectral_latency\":" + latency_json(stats.spectral_latency);
  out += ",\"events\":[";
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (i != 0) out += ',';
    out += "{";
    append_u64(out, "trace_index", events[i].trace_index);
    out += ",\"kind\":\"";
    out += core::monitor_event_label(events[i].kind);
    out += "\",\"value\":" + json_number(events[i].value) + "}";
  }
  out += "]}";
  return out;
}

std::string server_stats_json(const ServerCounters& counters,
                              const std::vector<ServerConnectionStats>& connections) {
  std::string out = "{";
  append_u64(out, "connections_accepted", counters.connections_accepted);
  out += ',';
  append_u64(out, "connections_closed", counters.connections_closed);
  out += ',';
  append_u64(out, "connections_dropped", counters.connections_dropped);
  out += ',';
  append_u64(out, "connections_rejected_acl", counters.connections_rejected_acl);
  out += ',';
  append_u64(out, "auth_failures", counters.auth_failures);
  out += ',';
  append_u64(out, "bytes_received", counters.bytes_received);
  out += ',';
  append_u64(out, "frames_accepted", counters.frames_accepted);
  out += ',';
  append_u64(out, "frames_rejected", counters.frames_rejected);
  out += ',';
  append_u64(out, "snapshots_written", counters.snapshots_written);
  out += ',';
  append_u64(out, "snapshots_forced", counters.snapshots_forced);
  out += ',';
  append_u64(out, "snapshot_records_reused", counters.snapshot_records_reused);
  out += ',';
  append_u64(out, "snapshot_records_rewritten", counters.snapshot_records_rewritten);
  out += ',';
  append_u64(out, "stats_exports", counters.stats_exports);
  out += ",\"connections\":[";
  for (std::size_t c = 0; c < connections.size(); ++c) {
    const ServerConnectionStats& conn = connections[c];
    if (c != 0) out += ',';
    out += "{\"peer\":\"" + json_escape(conn.peer) + "\",\"transport\":\"";
    out += conn.tcp ? "tcp" : "unix";
    out += "\",\"authenticated\":";
    out += conn.authenticated ? "true" : "false";
    out += ',';
    append_u64(out, "bytes_received", conn.bytes_received);
    out += ',';
    append_u64(out, "frames_decoded", conn.frames_decoded);
    out += "}";
  }
  out += "]}";
  return out;
}

std::string fleet_stats_json(const FleetStats& stats, BackpressurePolicy policy,
                             std::size_t queue_capacity,
                             const std::vector<FleetEvent>& events,
                             const std::string& server_json) {
  std::string out = "{";
  append_u64(out, "schema_version", kStatsSchemaVersion);
  out += ',';
  append_u64(out, "devices", stats.devices);
  out += ",\"shards\":" + std::to_string(stats.shards.size());
  out += ",\"policy\":\"";
  out += backpressure_label(policy);
  out += "\",";
  append_u64(out, "queue_capacity", queue_capacity);
  out += ',';
  append_u64(out, "traces_submitted", stats.traces_submitted);
  out += ',';
  append_u64(out, "traces_processed", stats.traces_processed);
  out += ',';
  append_u64(out, "backpressure_dropped", stats.backpressure_dropped);
  out += ',';
  append_u64(out, "backpressure_rejected", stats.backpressure_rejected);
  out += ',';
  append_u64(out, "traces_rejected_invalid", stats.traces_rejected_invalid);
  out += ',';
  append_u64(out, "devices_monitoring", stats.devices_monitoring);
  out += ',';
  append_u64(out, "devices_alarm", stats.devices_alarm);
  out += ',';
  append_u64(out, "alarms_latched", stats.alarms_latched);
  out += ",\"shard_queues\":[";
  for (std::size_t s = 0; s < stats.shards.size(); ++s) {
    const ShardStats& shard = stats.shards[s];
    if (s != 0) out += ',';
    out += "{";
    append_u64(out, "submitted", shard.submitted);
    out += ',';
    append_u64(out, "processed", shard.processed);
    out += ',';
    append_u64(out, "dropped_oldest", shard.dropped_oldest);
    out += ',';
    append_u64(out, "rejected_full", shard.rejected_full);
    out += ',';
    append_u64(out, "blocked", shard.blocked);
    out += ',';
    append_u64(out, "queue_high_water", shard.queue_high_water);
    out += "}";
  }
  out += "],\"sessions\":{";
  for (std::size_t d = 0; d < stats.sessions.size(); ++d) {
    const SessionStats& session = stats.sessions[d];
    std::vector<core::MonitorEvent> session_events;
    for (const FleetEvent& event : events) {
      if (event.device_id == session.device_id) session_events.push_back(event.event);
    }
    if (d != 0) out += ',';
    out += "\"" + json_escape(session.device_id) + "\":{\"shard\":" +
           std::to_string(session.shard) + ",\"monitor\":" +
           monitor_stats_json(session.state, session.last_score, session.monitor,
                              session_events) +
           "}";
  }
  out += "}";
  if (!server_json.empty()) out += ",\"server\":" + server_json;
  out += "}";
  return out;
}

}  // namespace emts::fleet
