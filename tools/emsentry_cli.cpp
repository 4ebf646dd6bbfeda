// emsentry_cli — campaign driver for the trust-evaluation workflow.
//
// On real silicon the capture step is an oscilloscope; here it is the chip
// simulator. Everything downstream (archives, calibration artifacts,
// evaluation, monitoring) is exactly what a deployment would run:
//
//   emsentry_cli capture golden.emta --windows 64
//   emsentry_cli capture suspect.emta --windows 16 --trojan T2 --first 5000
//   emsentry_cli evaluate golden.emta suspect.emta
//   emsentry_cli calibrate golden.emta model.emca
//   emsentry_cli monitor --model model.emca --windows 40 --trojan T2
//   emsentry_cli fleet fleet.manifest --model model.emca --shards 4
//   emsentry_cli snr signal.emta noise.emta
//   emsentry_cli info golden.emta
//
// Exit codes: 0 success / trusted, 1 verdict not trusted or alarm raised,
// 2 malformed arguments (usage on stderr), 3 runtime error.
#include <algorithm>
#include <atomic>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <time.h>
#include <unistd.h>

#include "array/artifact.hpp"
#include "array/calibration.hpp"
#include "array/capture.hpp"
#include "array/grid.hpp"
#include "array/localizer.hpp"
#include "array/monitor.hpp"
#include "core/evaluator.hpp"
#include "core/monitor.hpp"
#include "fleet/fleet.hpp"
#include "fleet/manifest.hpp"
#include "fleet/server.hpp"
#include "fleet/stats_json.hpp"
#include "io/calibration.hpp"
#include "io/mmap_archive.hpp"
#include "io/snapshot.hpp"
#include "io/trace_archive.hpp"
#include "io/wire.hpp"
#include "sim/chip.hpp"
#include "sim/engine.hpp"
#include "sim/silicon.hpp"
#include "stats/snr.hpp"
#include "util/assert.hpp"
#include "util/latency.hpp"

#ifndef EMSENTRY_VERSION
#define EMSENTRY_VERSION "unknown"
#endif

using namespace emts;

namespace {

void print_usage(std::FILE* stream) {
  std::fprintf(stream,
               "usage:\n"
               "  emsentry_cli capture <out.emta> [--windows N] [--trojan T1|T2|T3|T4|A2]\n"
               "                [--pickup sensor|probe] [--silicon] [--idle] [--first N]\n"
               "                [--threads N]\n"
               "  emsentry_cli evaluate <golden.emta> <suspect.emta>\n"
               "  emsentry_cli calibrate <golden.emta> <out.emca> [--detectors a,b,...]\n"
               "  emsentry_cli monitor --model <model.emca> [--windows N]\n"
               "                [--trojan T1|T2|T3|T4|A2] [--silicon] [--stats] [--json]\n"
               "  emsentry_cli fleet <fleet.manifest> [--model <model.emca>] [--shards N]\n"
               "                [--queue N] [--policy block|drop-oldest|reject] [--pin]\n"
               "                [--stats] [--json]\n"
               "  emsentry_cli serve <fleet.manifest> [--socket <path>]\n"
               "                [--listen <host:port>] [--allow <cidr>]...\n"
               "                [--auth-secret <token>] [--model <model.emca>]\n"
               "                [--shards N] [--queue N] [--policy block|drop-oldest|reject]\n"
               "                [--pin] [--restore <snap.emfs>] [--snapshot-path <snap.emfs>]\n"
               "                [--snapshot-every N[s|ms]] [--incremental-snapshots]\n"
               "                [--full-snapshot-every N] [--stats-path <stats.json>]\n"
               "                [--stats-every N]\n"
               "  emsentry_cli replay-client <archive.emta> --socket <path> --device <id>\n"
               "                [--connect <host:port>] [--auth-secret <token>]\n"
               "                [--rate TRACES_PER_SEC] [--first N] [--count N]\n"
               "  emsentry_cli array calibrate <out.emaa> [--grid NxM] [--turns N]\n"
               "                [--windows N] [--first N] [--threads N]\n"
               "  emsentry_cli array monitor --model <model.emaa> [--windows N]\n"
               "                [--first N] [--trojan T1|T2|T3|T4|A2] [--json]\n"
               "  emsentry_cli array localize --model <model.emaa> [--windows N]\n"
               "                [--first N] [--trojan T1|T2|T3|T4|A2] [--json]\n"
               "  emsentry_cli snr <signal.emta> <noise.emta>\n"
               "  emsentry_cli info <archive.emta>\n"
               "  emsentry_cli help | --help | -h\n"
               "  emsentry_cli --version\n"
               "\n"
               "detectors: euclidean, spectral, ron (default: euclidean,spectral)\n"
               "\n"
               "fleet manifest: one device per line, `<device_id> <archive.emta>\n"
               "[<model.emca>]`; the per-device model overrides --model. Blank lines\n"
               "and #-comments are skipped. `serve` reads the same manifest but only\n"
               "registers devices (id + model); the archive column is what a\n"
               "`replay-client` streams at the daemon.\n"
               "\n"
               "serve runs until SIGINT/SIGTERM (clean shutdown: drain, flush, final\n"
               "snapshot + stats) and needs --socket, --listen, or both. SIGUSR1\n"
               "writes a snapshot. --snapshot-every takes a frame count (bare N) or\n"
               "wall-clock cadence (Ns / Nms, zero is a usage error), honored on idle\n"
               "ingest rounds or forced after one poll interval of overshoot.\n"
               "--listen accepts EMWF over TCP (TCP_NODELAY). Both --listen and\n"
               "--allow take numeric IPv4 only — no hostnames (no DNS lookups) and\n"
               "no IPv6. --allow (repeatable) restricts TCP peers to dotted-quad\n"
               "hosts/CIDR blocks, --auth-secret makes\n"
               "every TCP client lead with a matching HELLO frame (replay-client\n"
               "--connect/--auth-secret speaks both). --incremental-snapshots rewrites\n"
               "only devices whose state moved since the last cut (full rewrite every\n"
               "--full-snapshot-every cuts, default 16).\n"
               "--restore starts from an EMFS snapshot instead of the manifest models;\n"
               "shard/queue/policy default to the snapshot's layout unless overridden.\n"
               "--pin pins each shard worker to a core (Linux, best-effort; only\n"
               "useful while shards <= hardware cores).\n"
               "\n"
               "--json emits stats schema_version 3 — field-by-field reference in\n"
               "docs/STATS_SCHEMA.md; binary container layouts in docs/FORMATS.md.\n"
               "\n"
               "array drives the on-die N x M sensor grid: `calibrate` fits one\n"
               "detector stack per coil on a golden campaign and writes an EMAA\n"
               "artifact; `monitor` replays suspect windows through every coil;\n"
               "`localize` additionally names the floorplan module whose coupling\n"
               "pattern best matches the per-coil anomaly energy. With --trojan the\n"
               "ground-truth host module is compared and --json reports hit/miss\n"
               "plus the grid-cell distance to it.\n"
               "\n"
               "exit codes:\n"
               "  0  success; verdict trusted / no device alarmed\n"
               "  1  verdict not trusted, or a monitor (any fleet device) alarmed\n"
               "  2  malformed arguments (usage printed on stderr)\n"
               "  3  runtime error (I/O failure, corrupt artifact, ...)\n");
}

int usage_error() {
  print_usage(stderr);
  return 2;
}

// ---------- argument parsing ----------
//
// Every flag value goes through the helpers below, so a missing, malformed
// or out-of-range value is a UsageError naming the flag, which main()
// reports as exit 2.

/// A malformed command line (exit 2, usage on stderr).
struct UsageError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// The value following the flag args[*i]; advances *i past it.
const std::string& flag_value(const std::vector<std::string>& args, std::size_t* i) {
  if (*i + 1 >= args.size()) throw UsageError(args[*i] + " needs a value");
  return args[++*i];
}

/// Unsigned decimal: digits only (no sign, space or suffix), no overflow.
bool parse_decimal(const std::string& text, std::uint64_t* out) {
  const char* end = text.data() + text.size();
  const auto [stop, error] = std::from_chars(text.data(), end, *out);
  return error == std::errc{} && stop == end;
}

/// flag_value() as a parse_decimal() count.
std::uint64_t flag_count(const std::vector<std::string>& args, std::size_t* i) {
  const std::string& flag = args[*i];
  const std::string& text = flag_value(args, i);
  std::uint64_t value = 0;
  if (!parse_decimal(text, &value)) {
    throw UsageError(flag + " takes an integer in [0, " + std::to_string(UINT64_MAX) +
                     "], got '" + text + "'");
  }
  return value;
}

/// Runs a library parser over a flag value (endpoint, CIDR, cadence); its
/// precondition_error is a usage error, not a runtime one.
template <class Parse>
auto usage_checked(Parse&& parse) {
  try {
    return parse();
  } catch (const precondition_error& error) {
    throw UsageError(error.what());
  }
}

trojan::TrojanKind flag_trojan(const std::vector<std::string>& args, std::size_t* i) {
  const std::string& label = flag_value(args, i);
  for (trojan::TrojanKind k : trojan::kAllTrojanKinds) {
    if (label == trojan::kind_label(k)) return k;
  }
  throw UsageError("--trojan takes T1|T2|T3|T4|A2, got '" + label + "'");
}

fleet::BackpressurePolicy flag_policy(const std::vector<std::string>& args, std::size_t* i) {
  const std::string& p = flag_value(args, i);
  if (p == "block") return fleet::BackpressurePolicy::kBlock;
  if (p == "drop-oldest") return fleet::BackpressurePolicy::kDropOldest;
  if (p == "reject") return fleet::BackpressurePolicy::kReject;
  throw UsageError("--policy takes block|drop-oldest|reject, got '" + p + "'");
}

/// --detectors: a comma list of distinct stage names, each one of
/// core::kDetectorNames.
std::vector<std::string> flag_detectors(const std::vector<std::string>& args, std::size_t* i) {
  const std::string& csv = flag_value(args, i);
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= csv.size()) {
    const std::size_t comma = csv.find(',', start);
    const std::size_t end = comma == std::string::npos ? csv.size() : comma;
    if (end > start) out.push_back(csv.substr(start, end - start));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  if (out.empty()) throw UsageError("--detectors needs at least one name");
  for (auto name = out.begin(); name != out.end(); ++name) {
    if (std::find(core::kDetectorNames.begin(), core::kDetectorNames.end(), *name) ==
        core::kDetectorNames.end()) {
      throw UsageError("--detectors takes euclidean|spectral|ron, got '" + *name + "'");
    }
    if (std::find(out.begin(), name, *name) != name) {
      throw UsageError("--detectors names '" + *name + "' twice");
    }
  }
  return out;
}

void print_latency_line(const char* label, const util::LatencyHistogram& h) {
  std::printf("  %-9s count %-6llu p50 %8.1f us  p99 %8.1f us  max %8.1f us\n", label,
              static_cast<unsigned long long>(h.count()), h.p50_ns() / 1e3, h.p99_ns() / 1e3,
              static_cast<double>(h.max_ns()) / 1e3);
}

void print_monitor_stats(const core::MonitorStats& stats,
                         const std::vector<core::MonitorEvent>& events) {
  std::printf("  ingested %llu (calibration %llu, scored %llu, rejected %llu)\n",
              static_cast<unsigned long long>(stats.traces_ingested),
              static_cast<unsigned long long>(stats.calibration_captures),
              static_cast<unsigned long long>(stats.scored_captures),
              static_cast<unsigned long long>(stats.traces_rejected));
  std::printf("  anomalies: per-trace %llu, windowed %llu (of %llu spectral passes)\n",
              static_cast<unsigned long long>(stats.per_trace_anomalies),
              static_cast<unsigned long long>(stats.windowed_anomalies),
              static_cast<unsigned long long>(stats.spectral_passes));
  std::printf("  spectral path: %llu incremental updates, %llu recomputes\n",
              static_cast<unsigned long long>(stats.spectral_incremental_updates),
              static_cast<unsigned long long>(stats.spectral_recomputes));
  std::printf("  alarms: latched %llu, acknowledged %llu\n",
              static_cast<unsigned long long>(stats.alarms_latched),
              static_cast<unsigned long long>(stats.alarms_acknowledged));
  print_latency_line("push", stats.push_latency);
  print_latency_line("spectral", stats.spectral_latency);

  std::printf("  events (%zu buffered, %llu dropped):\n", events.size(),
              static_cast<unsigned long long>(stats.events_dropped));
  for (const auto& event : events) {
    std::printf("    #%-6llu %-18s %.6g\n",
                static_cast<unsigned long long>(event.trace_index),
                core::monitor_event_label(event.kind), event.value);
  }
}

// JSON rendering lives in fleet/stats_json.{hpp,cpp} — one schema, shared by
// `monitor --json`, `fleet --json` and the serve daemon's stats export.

void print_stage_lines(const core::TrustReport& report) {
  for (const auto& stage : report.stages) {
    std::printf("  [%s] %-10s %s\n", stage.alarm ? "!" : " ", stage.name.c_str(),
                stage.detail.c_str());
  }
  for (const auto& anomaly : report.spectral.anomalies) {
    std::printf("        spectral %s at %.3f MHz (x%.1f)\n",
                anomaly.kind == core::SpectralAnomalyKind::kNewSpot ? "new spot" : "amplified",
                anomaly.frequency_hz / 1e6, anomaly.ratio);
  }
}

int cmd_capture(const std::vector<std::string>& args) {
  if (args.empty()) return usage_error();
  const std::string out_path = args[0];

  std::size_t windows = 32;
  std::uint64_t first = 0;
  bool silicon = false;
  bool encrypting = true;
  sim::Pickup pickup = sim::Pickup::kOnChipSensor;
  bool has_trojan = false;
  trojan::TrojanKind kind{};
  sim::EngineOptions engine_options;  // threads = 0: EMTS_THREADS or hardware

  for (std::size_t i = 1; i < args.size(); ++i) {
    const std::string& a = args[i];
    if (a == "--windows") {
      windows = flag_count(args, &i);
    } else if (a == "--threads") {
      engine_options.threads = flag_count(args, &i);
    } else if (a == "--first") {
      first = flag_count(args, &i);
    } else if (a == "--silicon") {
      silicon = true;
    } else if (a == "--idle") {
      encrypting = false;
    } else if (a == "--pickup") {
      const std::string& p = flag_value(args, &i);
      if (p != "sensor" && p != "probe") {
        throw UsageError("--pickup takes sensor|probe, got '" + p + "'");
      }
      pickup = p == "sensor" ? sim::Pickup::kOnChipSensor : sim::Pickup::kExternalProbe;
    } else if (a == "--trojan") {
      kind = flag_trojan(args, &i);
      has_trojan = true;
    } else {
      throw UsageError("unknown option " + a);
    }
  }

  sim::Chip chip{silicon ? sim::make_silicon_config(sim::SiliconOptions{})
                         : sim::make_default_config()};
  if (has_trojan) chip.arm(kind);

  const sim::CaptureEngine engine{engine_options};
  const auto set = engine.capture_batch(chip, pickup, windows, first, encrypting);
  io::save_trace_archive(out_path, set);
  std::printf("captured %zu %s windows (%s, %s%s) -> %s\n", windows,
              encrypting ? "encrypting" : "idle",
              pickup == sim::Pickup::kOnChipSensor ? "on-chip sensor" : "external probe",
              silicon ? "silicon mode" : "simulation mode",
              has_trojan ? (std::string(", trojan ") + trojan::kind_label(kind)).c_str() : "",
              out_path.c_str());
  return 0;
}

int cmd_evaluate(const std::vector<std::string>& args) {
  if (args.size() != 2) return usage_error();
  const auto golden = io::load_trace_archive(args[0]);
  const auto suspect = io::load_trace_archive(args[1]);

  const auto evaluator = core::TrustEvaluator::calibrate(golden);
  const auto report = evaluator.evaluate(suspect);

  std::printf("golden : %zu traces x %zu samples @ %.3f MS/s\n", golden.size(),
              golden.trace_length(), golden.sample_rate / 1e6);
  std::printf("suspect: %zu traces\n\n", suspect.size());
  std::printf("%s\n", report.summary().c_str());
  print_stage_lines(report);
  return report.verdict == core::Verdict::kTrusted ? 0 : 1;
}

int cmd_calibrate(const std::vector<std::string>& args) {
  if (args.size() < 2) return usage_error();
  const std::string golden_path = args[0];
  const std::string model_path = args[1];

  core::TrustEvaluator::Options options;
  for (std::size_t i = 2; i < args.size(); ++i) {
    const std::string& a = args[i];
    if (a == "--detectors") {
      options.detectors = flag_detectors(args, &i);
    } else {
      throw UsageError("unknown option " + a);
    }
  }

  const auto golden = io::load_trace_archive(golden_path);
  const auto evaluator = core::TrustEvaluator::calibrate(golden, options);
  io::save_calibration(model_path, evaluator);

  std::printf("calibrated %zu-stage detector stack on %zu golden traces -> %s\n",
              evaluator.detectors().size(), golden.size(), model_path.c_str());
  for (const auto& detector : evaluator.detectors()) {
    std::printf("  %s\n", detector->describe().c_str());
  }
  return 0;
}

int cmd_monitor(const std::vector<std::string>& args) {
  std::string model_path;
  std::size_t windows = 32;
  bool silicon = false;
  bool show_stats = false;
  bool json = false;
  bool has_trojan = false;
  trojan::TrojanKind kind{};

  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& a = args[i];
    if (a == "--model") {
      model_path = flag_value(args, &i);
    } else if (a == "--windows") {
      windows = flag_count(args, &i);
    } else if (a == "--silicon") {
      silicon = true;
    } else if (a == "--stats") {
      show_stats = true;
    } else if (a == "--json") {
      json = true;  // implies --stats; the object on stdout is the output
      show_stats = true;
    } else if (a == "--trojan") {
      kind = flag_trojan(args, &i);
      has_trojan = true;
    } else {
      throw UsageError("unknown option " + a);
    }
  }
  if (model_path.empty()) {
    throw UsageError("monitor needs --model <model.emca>");
  }

  auto evaluator = io::load_calibration(model_path);
  core::RuntimeMonitor monitor{evaluator.sample_rate(), std::move(evaluator)};
  if (!json) {
    std::printf("cold start from %s: state %s, %zu calibration captures\n", model_path.c_str(),
                core::monitor_state_label(monitor.state()), monitor.traces_seen());
  }

  sim::Chip chip{silicon ? sim::make_silicon_config(sim::SiliconOptions{})
                         : sim::make_default_config()};
  if (has_trojan) chip.arm(kind);

  const auto& engine = sim::CaptureEngine::shared();
  const auto stream = engine.capture_batch(chip, sim::Pickup::kOnChipSensor, windows, 0);
  std::size_t pushed = 0;
  for (const auto& trace : stream.traces) {
    const auto state = monitor.push(trace);
    ++pushed;
    if (state == core::MonitorState::kAlarm) break;
  }

  if (json) {
    // A single JSON object on stdout — the same schema fleet --json embeds
    // per device.
    std::printf("%s\n", fleet::monitor_stats_json(monitor.state(), monitor.last_score(),
                                                  monitor.stats(), monitor.drain_events())
                            .c_str());
    return monitor.state() == core::MonitorState::kAlarm ? 1 : 0;
  }
  std::printf("monitored %zu captures%s: final state %s\n", pushed,
              has_trojan ? (std::string(" (trojan ") + trojan::kind_label(kind) + " armed)").c_str()
                         : "",
              core::monitor_state_label(monitor.state()));
  if (show_stats) {
    std::printf("monitor stats:\n");
    print_monitor_stats(monitor.stats(), monitor.drain_events());
  }
  return monitor.state() == core::MonitorState::kAlarm ? 1 : 0;
}

// ---------- fleet ----------

// A bad manifest (unreadable, malformed line, duplicate device_id) is an
// argument error — exit 2 with the parser's `path:line` message, not the
// generic runtime-error exit.
bool load_manifest(const std::string& path, std::vector<fleet::ManifestEntry>* entries) {
  try {
    *entries = fleet::parse_manifest(path);
    return true;
  } catch (const precondition_error& error) {
    std::fprintf(stderr, "%s\n", error.what());
    return false;
  }
}

int cmd_fleet(const std::vector<std::string>& args) {
  std::string manifest_path;
  std::string model_path;
  fleet::FleetOptions options;
  bool show_stats = false;
  bool json = false;

  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& a = args[i];
    if (a == "--model") {
      model_path = flag_value(args, &i);
    } else if (a == "--shards") {
      options.shards = flag_count(args, &i);
    } else if (a == "--queue") {
      options.queue_capacity = flag_count(args, &i);
    } else if (a == "--policy") {
      options.backpressure = flag_policy(args, &i);
    } else if (a == "--pin") {
      options.pin_workers = true;
    } else if (a == "--stats") {
      show_stats = true;
    } else if (a == "--json") {
      json = true;
      show_stats = true;
    } else if (!a.empty() && a[0] == '-') {
      throw UsageError("unknown option " + a);
    } else if (manifest_path.empty()) {
      manifest_path = a;
    } else {
      throw UsageError("unexpected argument " + a);
    }
  }
  if (manifest_path.empty()) {
    throw UsageError("fleet needs a <fleet.manifest>");
  }

  std::vector<fleet::ManifestEntry> entries;
  if (!load_manifest(manifest_path, &entries)) return 2;
  fleet::FleetMonitor fleet_monitor{options};

  std::vector<core::TraceSet> streams;
  streams.reserve(entries.size());
  std::size_t longest = 0;
  for (const fleet::ManifestEntry& entry : entries) {
    const std::string& model = entry.model_path.empty() ? model_path : entry.model_path;
    EMTS_REQUIRE(!model.empty(),
                 "device " + entry.device_id + " has no model (give one in the manifest"
                 " or via --model)");
    fleet_monitor.add_device(entry.device_id, io::load_calibration(model));
    streams.push_back(io::load_trace_archive(entry.archive_path));
    longest = std::max(longest, streams.back().size());
  }

  // Deterministic replay: round-robin across the manifest order, one capture
  // per device per round — the interleaving a shared capture front-end
  // produces, and the same schedule on every run.
  std::size_t refused = 0;
  for (std::size_t t = 0; t < longest; ++t) {
    for (std::size_t d = 0; d < entries.size(); ++d) {
      if (t >= streams[d].size()) continue;
      if (fleet_monitor.submit(entries[d].device_id, core::Trace{streams[d].traces[t]}) ==
          fleet::SubmitResult::kRejected) {
        ++refused;
      }
    }
  }
  fleet_monitor.flush();

  const fleet::FleetStats stats = fleet_monitor.stats();
  std::vector<fleet::FleetEvent> events = fleet_monitor.drain_events();

  if (json) {
    std::printf("%s\n", fleet::fleet_stats_json(stats, options.backpressure,
                                                options.queue_capacity, events)
                            .c_str());
    return stats.devices_alarm > 0 ? 1 : 0;
  }

  std::printf("fleet: %zu devices over %zu shards (policy %s, queue %zu)\n", stats.devices,
              stats.shards.size(), fleet::backpressure_label(options.backpressure),
              options.queue_capacity);
  std::printf("replayed %llu captures (%llu scored, %llu dropped, %zu refused)\n",
              static_cast<unsigned long long>(stats.traces_submitted),
              static_cast<unsigned long long>(stats.traces_processed),
              static_cast<unsigned long long>(stats.backpressure_dropped), refused);
  for (const fleet::SessionStats& session : stats.sessions) {
    std::printf("  %-16s shard %zu  %-10s scored %-6llu rejected %-4llu alarms %llu\n",
                session.device_id.c_str(), session.shard,
                core::monitor_state_label(session.state),
                static_cast<unsigned long long>(session.monitor.scored_captures),
                static_cast<unsigned long long>(session.monitor.traces_rejected),
                static_cast<unsigned long long>(session.monitor.alarms_latched));
  }
  std::printf("verdict: %zu alarmed, %zu monitoring, %zu calibrating\n", stats.devices_alarm,
              stats.devices_monitoring, stats.devices_calibrating);

  if (show_stats) {
    for (std::size_t s = 0; s < stats.shards.size(); ++s) {
      const fleet::ShardStats& shard = stats.shards[s];
      std::printf("shard %zu: submitted %llu processed %llu dropped %llu rejected %llu"
                  " blocked %llu high-water %zu\n",
                  s, static_cast<unsigned long long>(shard.submitted),
                  static_cast<unsigned long long>(shard.processed),
                  static_cast<unsigned long long>(shard.dropped_oldest),
                  static_cast<unsigned long long>(shard.rejected_full),
                  static_cast<unsigned long long>(shard.blocked), shard.queue_high_water);
    }
    for (const fleet::SessionStats& session : stats.sessions) {
      std::vector<core::MonitorEvent> session_events;
      for (const fleet::FleetEvent& event : events) {
        if (event.device_id == session.device_id) session_events.push_back(event.event);
      }
      std::printf("device %s (shard %zu, %s):\n", session.device_id.c_str(), session.shard,
                  core::monitor_state_label(session.state));
      print_monitor_stats(session.monitor, session_events);
    }
  }
  return stats.devices_alarm > 0 ? 1 : 0;
}

// ---------- serve / replay-client ----------

std::atomic<bool> g_stop{false};
std::atomic<bool> g_snapshot_request{false};

void handle_stop_signal(int) { g_stop.store(true); }
void handle_snapshot_signal(int) { g_snapshot_request.store(true); }

void install_serve_signal_handlers() {
  struct sigaction stop_action {};
  stop_action.sa_handler = handle_stop_signal;
  sigemptyset(&stop_action.sa_mask);
  // No SA_RESTART: the signal must interrupt poll() so the loop reacts now.
  sigaction(SIGINT, &stop_action, nullptr);
  sigaction(SIGTERM, &stop_action, nullptr);

  struct sigaction snapshot_action {};
  snapshot_action.sa_handler = handle_snapshot_signal;
  sigemptyset(&snapshot_action.sa_mask);
  sigaction(SIGUSR1, &snapshot_action, nullptr);
}

int cmd_serve(const std::vector<std::string>& args) {
  std::string manifest_path;
  std::string model_path;
  std::string restore_path;
  fleet::ServerOptions server_options;
  fleet::FleetOptions fleet_options;
  bool shards_given = false;
  bool queue_given = false;
  bool policy_given = false;

  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& a = args[i];
    if (a == "--socket") {
      server_options.socket_path = flag_value(args, &i);
    } else if (a == "--listen") {
      // Malformed endpoints are argument errors, caught here rather than as
      // a runtime throw out of the server constructor.
      server_options.listen_address = flag_value(args, &i);
      usage_checked([&] { return fleet::parse_tcp_endpoint(server_options.listen_address); });
    } else if (a == "--allow") {
      const std::string& rule = flag_value(args, &i);
      usage_checked([&] { return fleet::parse_cidr(rule); });
      server_options.allow.push_back(rule);
    } else if (a == "--auth-secret") {
      server_options.auth_secret = flag_value(args, &i);
    } else if (a == "--incremental-snapshots") {
      server_options.incremental_snapshots = true;
    } else if (a == "--full-snapshot-every") {
      server_options.full_snapshot_every = flag_count(args, &i);
      if (server_options.full_snapshot_every == 0) {
        throw UsageError("--full-snapshot-every must be >= 1");
      }
    } else if (a == "--model") {
      model_path = flag_value(args, &i);
    } else if (a == "--restore") {
      restore_path = flag_value(args, &i);
    } else if (a == "--snapshot-path") {
      server_options.snapshot_path = flag_value(args, &i);
    } else if (a == "--snapshot-every") {
      const std::string& text = flag_value(args, &i);
      const fleet::SnapshotCadence cadence =
          usage_checked([&] { return fleet::parse_snapshot_cadence(text); });
      server_options.snapshot_every_frames = cadence.every_frames;
      server_options.snapshot_every_ms = cadence.every_ms;
    } else if (a == "--stats-path") {
      server_options.stats_path = flag_value(args, &i);
    } else if (a == "--stats-every") {
      server_options.stats_every_frames = flag_count(args, &i);
    } else if (a == "--shards") {
      fleet_options.shards = flag_count(args, &i);
      shards_given = true;
    } else if (a == "--queue") {
      fleet_options.queue_capacity = flag_count(args, &i);
      queue_given = true;
    } else if (a == "--policy") {
      fleet_options.backpressure = flag_policy(args, &i);
      policy_given = true;
    } else if (a == "--pin") {
      fleet_options.pin_workers = true;
    } else if (!a.empty() && a[0] == '-') {
      throw UsageError("unknown option " + a);
    } else if (manifest_path.empty()) {
      manifest_path = a;
    } else {
      throw UsageError("unexpected argument " + a);
    }
  }
  if (server_options.socket_path.empty() && server_options.listen_address.empty()) {
    throw UsageError("serve needs --socket <path>, --listen <host:port>, or both");
  }
  if (manifest_path.empty() && restore_path.empty()) {
    throw UsageError("serve needs a <fleet.manifest> or --restore <snap.emfs>");
  }
  if (!manifest_path.empty() && !restore_path.empty()) {
    throw UsageError("serve takes a manifest or --restore, not both");
  }

  std::optional<io::FleetSnapshot> restored;
  if (!restore_path.empty()) {
    restored = io::load_fleet_snapshot(restore_path);
    // The snapshot's layout is the default; explicit flags win.
    if (!shards_given) fleet_options.shards = restored->shards;
    if (!queue_given) fleet_options.queue_capacity = restored->queue_capacity;
    if (!policy_given) {
      EMTS_REQUIRE(restored->backpressure <=
                       static_cast<std::uint8_t>(fleet::BackpressurePolicy::kReject),
                   "snapshot carries an unknown backpressure policy");
      fleet_options.backpressure =
          static_cast<fleet::BackpressurePolicy>(restored->backpressure);
    }
  }

  fleet::FleetMonitor fleet_monitor{fleet_options};
  if (restored.has_value()) {
    fleet_monitor.restore(*restored);
    std::printf("restored %zu devices from %s\n", restored->devices.size(),
                restore_path.c_str());
  } else {
    std::vector<fleet::ManifestEntry> entries;
    if (!load_manifest(manifest_path, &entries)) return 2;
    for (const fleet::ManifestEntry& entry : entries) {
      const std::string& model = entry.model_path.empty() ? model_path : entry.model_path;
      EMTS_REQUIRE(!model.empty(),
                   "device " + entry.device_id + " has no model (give one in the manifest"
                   " or via --model)");
      fleet_monitor.add_device(entry.device_id, io::load_calibration(model));
    }
  }

  install_serve_signal_handlers();
  fleet::IngestServer server{fleet_monitor, server_options};
  const unsigned hardware_threads = std::thread::hardware_concurrency();
  if (hardware_threads > 0 && fleet_monitor.shard_count() > hardware_threads) {
    std::fprintf(stderr,
                 "warning: %zu shards exceed %u hardware threads — shard workers will"
                 " contend for cores instead of scaling\n",
                 fleet_monitor.shard_count(), hardware_threads);
  }
  std::string endpoints;
  if (!server_options.socket_path.empty()) endpoints = server_options.socket_path;
  if (!server_options.listen_address.empty()) {
    if (!endpoints.empty()) endpoints += " + ";
    endpoints += "tcp:" + server_options.listen_address;
  }
  std::printf("serving %zu devices over %zu shards on %s (policy %s, queue %zu)\n",
              fleet_monitor.device_count(), fleet_monitor.shard_count(),
              endpoints.c_str(),
              fleet::backpressure_label(fleet_options.backpressure),
              fleet_options.queue_capacity);
  std::fflush(stdout);

  server.run(g_stop, g_snapshot_request);

  const fleet::ServerCounters& counters = server.counters();
  const fleet::FleetStats stats = fleet_monitor.stats();
  std::printf("ingested %llu frames (%llu rejected) over %llu connections;"
              " %llu snapshots, %llu stats exports\n",
              static_cast<unsigned long long>(counters.frames_accepted),
              static_cast<unsigned long long>(counters.frames_rejected),
              static_cast<unsigned long long>(counters.connections_accepted),
              static_cast<unsigned long long>(counters.snapshots_written),
              static_cast<unsigned long long>(counters.stats_exports));
  std::printf("verdict: %zu alarmed, %zu monitoring, %zu calibrating\n", stats.devices_alarm,
              stats.devices_monitoring, stats.devices_calibrating);
  return stats.devices_alarm > 0 ? 1 : 0;
}

int cmd_replay_client(const std::vector<std::string>& args) {
  std::string archive_path;
  std::string socket_path;
  std::string connect_address;
  std::string auth_secret;
  std::string device_id;
  double rate = 0.0;  // traces/sec; 0 = as fast as the socket takes them
  std::uint64_t first = 0;
  std::uint64_t count = UINT64_MAX;

  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& a = args[i];
    if (a == "--socket") {
      socket_path = flag_value(args, &i);
    } else if (a == "--connect") {
      connect_address = flag_value(args, &i);
      usage_checked([&] { return fleet::parse_tcp_endpoint(connect_address); });
    } else if (a == "--auth-secret") {
      auth_secret = flag_value(args, &i);
    } else if (a == "--device") {
      device_id = flag_value(args, &i);
    } else if (a == "--rate") {
      const std::string& text = flag_value(args, &i);
      char* end = nullptr;
      rate = std::strtod(text.c_str(), &end);
      if (text.empty() || *end != '\0' || !std::isfinite(rate) || rate < 0.0) {
        throw UsageError("--rate takes a finite number >= 0, got '" + text + "'");
      }
    } else if (a == "--first") {
      first = flag_count(args, &i);
    } else if (a == "--count") {
      count = flag_count(args, &i);
    } else if (!a.empty() && a[0] == '-') {
      throw UsageError("unknown option " + a);
    } else if (archive_path.empty()) {
      archive_path = a;
    } else {
      throw UsageError("unexpected argument " + a);
    }
  }
  if (archive_path.empty() || device_id.empty() ||
      (socket_path.empty() == connect_address.empty())) {
    throw UsageError("replay-client needs <archive.emta>, --device, and exactly one of"
                     " --socket or --connect");
  }

  // The archive stays on disk: frames are encoded straight out of the
  // mapping, so a multi-gigabyte replay costs one trace of heap.
  const io::MappedTraceArchive archive{archive_path};
  EMTS_REQUIRE(first <= archive.size(),
               "--first beyond the archive (" + std::to_string(archive.size()) + " traces)");
  const std::uint64_t available = archive.size() - first;
  const std::uint64_t to_send = count < available ? count : available;

  // A writer must not die by SIGPIPE when the daemon goes away mid-stream;
  // the write error below reports it instead.
  std::signal(SIGPIPE, SIG_IGN);

  const bool tcp = !connect_address.empty();
  const std::string& endpoint_label = tcp ? connect_address : socket_path;
  sockaddr_un unix_addr{};
  sockaddr_in tcp_addr{};
  const sockaddr* addr = nullptr;
  socklen_t addr_len = 0;
  int fd = -1;
  if (tcp) {
    const fleet::TcpEndpoint endpoint = fleet::parse_tcp_endpoint(connect_address);
    tcp_addr.sin_family = AF_INET;
    tcp_addr.sin_addr.s_addr = htonl(endpoint.addr);
    tcp_addr.sin_port = htons(endpoint.port);
    addr = reinterpret_cast<const sockaddr*>(&tcp_addr);
    addr_len = sizeof tcp_addr;
    fd = ::socket(AF_INET, SOCK_STREAM, 0);
    EMTS_REQUIRE(fd >= 0, "replay-client: socket() failed");
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  } else {
    unix_addr.sun_family = AF_UNIX;
    EMTS_REQUIRE(socket_path.size() < sizeof unix_addr.sun_path,
                 "socket path too long: " + socket_path);
    std::strncpy(unix_addr.sun_path, socket_path.c_str(), sizeof unix_addr.sun_path - 1);
    addr = reinterpret_cast<const sockaddr*>(&unix_addr);
    addr_len = sizeof unix_addr;
    fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    EMTS_REQUIRE(fd >= 0, "replay-client: socket() failed");
  }
  // Every failure names the endpoint, the traces sent before it and the OS
  // error. A refused --auth-secret is the usual reason a write fails while
  // the daemon keeps serving, so a client that sent one hears how a TCP
  // daemon treats it.
  std::uint64_t traces_sent = 0;
  const auto fail = [&](const std::string& step, int error, bool auth_hint) {
    ::close(fd);
    std::string message = "replay-client: " + step + " " + endpoint_label +
                          " failed after sending " + std::to_string(traces_sent) + " of " +
                          std::to_string(to_send) + " traces: " + std::strerror(error);
    if (auth_hint) {
      message += " (a TCP daemon drops a client whose --auth-secret it refuses)";
    }
    throw precondition_error(message);
  };
  const auto send_all = [&](const std::string& bytes, const std::string& step) {
    std::size_t off = 0;
    while (off < bytes.size()) {
      const ssize_t put = ::write(fd, bytes.data() + off, bytes.size() - off);
      if (put < 0 && errno == EINTR) continue;
      if (put <= 0) fail(step, put < 0 ? errno : EIO, !auth_secret.empty());
      off += static_cast<std::size_t>(put);
    }
  };

  // Retry the connect briefly: the natural sequencing is `serve &` then
  // replay-client, and the daemon may still be binding.
  int connect_error = 0;
  for (int attempt = 0; attempt < 50; ++attempt) {
    if (::connect(fd, addr, addr_len) == 0) {
      connect_error = 0;
      break;
    }
    connect_error = errno;
    struct timespec backoff {0, 100 * 1000 * 1000};
    ::nanosleep(&backoff, nullptr);
  }
  if (connect_error != 0) fail("connect to", connect_error, false);

  std::string frame;
  if (!auth_secret.empty()) {
    // Authenticate before the first trace: the daemon closes unauthenticated
    // TCP connections at their first trace frame.
    io::wire::encode_hello_frame(auth_secret, frame);
    send_all(frame, "HELLO write to");
  }
  std::uint64_t bytes_sent = 0;
  const std::uint64_t t0 = util::monotonic_ns();
  const double ns_per_trace = rate > 0.0 ? 1e9 / rate : 0.0;
  for (std::uint64_t t = 0; t < to_send; ++t) {
    frame.clear();
    io::wire::encode_trace_frame(device_id, archive.sample_rate(),
                                 archive.trace(static_cast<std::size_t>(first + t)),
                                 archive.trace_length(), frame);
    send_all(frame, "trace write to");
    bytes_sent += frame.size();
    ++traces_sent;

    if (ns_per_trace > 0.0) {
      // Pace against the absolute schedule, not per-frame sleeps, so encode
      // and write time do not drag the achieved rate below the target.
      const std::uint64_t deadline =
          t0 + static_cast<std::uint64_t>(ns_per_trace * static_cast<double>(t + 1));
      const std::uint64_t now = util::monotonic_ns();
      if (now < deadline) {
        const std::uint64_t wait = deadline - now;
        struct timespec pause {static_cast<time_t>(wait / 1000000000ull),
                               static_cast<long>(wait % 1000000000ull)};
        ::nanosleep(&pause, nullptr);
      }
    }
  }
  ::close(fd);

  const double elapsed_s =
      static_cast<double>(util::monotonic_ns() - t0) / 1e9;
  std::printf("streamed %llu traces (%llu bytes) from %s[%llu..%llu) to %s in %.3f s"
              " (%.0f traces/s)\n",
              static_cast<unsigned long long>(to_send),
              static_cast<unsigned long long>(bytes_sent), archive_path.c_str(),
              static_cast<unsigned long long>(first),
              static_cast<unsigned long long>(first + to_send), endpoint_label.c_str(),
              elapsed_s,
              elapsed_s > 0.0 ? static_cast<double>(to_send) / elapsed_s : 0.0);
  return 0;
}

// ---------- array ----------

bool parse_grid_spec(const std::string& text, array::GridSpec* spec) {
  const std::size_t x = text.find('x');
  std::uint64_t nx = 0;
  std::uint64_t ny = 0;
  if (x == std::string::npos || !parse_decimal(text.substr(0, x), &nx) ||
      !parse_decimal(text.substr(x + 1), &ny) || nx < 2 || ny < 2) {
    return false;
  }
  spec->nx = nx;
  spec->ny = ny;
  return true;
}

int cmd_array_calibrate(const std::vector<std::string>& args) {
  if (args.empty()) return usage_error();
  const std::string out_path = args[0];

  array::GridSpec grid_spec;
  array::ArrayCalibrationOptions options;
  sim::EngineOptions engine_options;

  for (std::size_t i = 1; i < args.size(); ++i) {
    const std::string& a = args[i];
    if (a == "--grid") {
      const std::string& g = flag_value(args, &i);
      if (!parse_grid_spec(g, &grid_spec)) {
        throw UsageError("--grid takes NxM with N, M >= 2 (got " + g + ")");
      }
    } else if (a == "--turns") {
      grid_spec.turns = flag_count(args, &i);
    } else if (a == "--windows") {
      options.windows = flag_count(args, &i);
    } else if (a == "--first") {
      options.first_index = flag_count(args, &i);
    } else if (a == "--threads") {
      engine_options.threads = flag_count(args, &i);
    } else {
      throw UsageError("unknown option " + a);
    }
  }

  const sim::Chip chip{sim::make_default_config()};
  const array::SensorGrid grid{chip.floorplan(), grid_spec};
  const array::ArrayCapture capture{grid};
  const sim::CaptureEngine engine{engine_options};
  const array::ArrayCalibration calibration = array::calibrate_array(capture, engine, chip, options);
  array::save_array_calibration(out_path, calibration);

  std::printf("calibrated %zux%zu sensor grid (%zu coils x %zu modules) on %zu golden"
              " windows -> %s\n",
              grid.nx(), grid.ny(), grid.sensor_count(), grid.module_count(), options.windows,
              out_path.c_str());
  return 0;
}

// Shared monitor/localize driver: replay `windows` captures (optionally with
// an armed Trojan) through the artifact's per-coil sessions.
struct ArrayRun {
  array::ArrayCalibration calibration;
  std::optional<trojan::TrojanKind> armed;
  std::size_t windows = 0;
  std::unique_ptr<sim::Chip> chip;
  std::unique_ptr<array::SensorGrid> grid;
  std::unique_ptr<array::ArrayMonitor> monitor;
};

void run_array_monitor(const std::vector<std::string>& args, ArrayRun* run) {
  std::string model_path;
  std::size_t windows = 64;
  // Default replay range sits past the calibration campaign, so a fresh
  // monitor scores out-of-sample windows.
  std::uint64_t first = 4096;
  bool has_trojan = false;
  trojan::TrojanKind kind{};

  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& a = args[i];
    if (a == "--model") {
      model_path = flag_value(args, &i);
    } else if (a == "--windows") {
      windows = flag_count(args, &i);
    } else if (a == "--first") {
      first = flag_count(args, &i);
    } else if (a == "--json") {
      // handled by the caller; accepted here so both subcommands share flags
    } else if (a == "--trojan") {
      kind = flag_trojan(args, &i);
      has_trojan = true;
    } else {
      throw UsageError("unknown option " + a);
    }
  }
  if (model_path.empty()) throw UsageError("array monitor/localize needs --model <model.emaa>");
  if (windows == 0) throw UsageError("--windows must be >= 1");

  run->calibration = array::load_array_calibration(model_path);
  run->windows = windows;
  run->chip = std::make_unique<sim::Chip>(sim::make_default_config());
  EMTS_REQUIRE(run->calibration.sample_rate == run->chip->sample_rate(),
               "artifact sample rate does not match the chip configuration");
  if (has_trojan) {
    run->chip->arm(kind);
    run->armed = kind;
  }
  run->grid =
      std::make_unique<array::SensorGrid>(run->chip->floorplan(), run->calibration.grid);

  const array::ArrayCapture capture{*run->grid};
  const array::BundleSet bundles =
      capture.capture_batch(sim::CaptureEngine::shared(), *run->chip, windows, first);
  run->monitor = std::make_unique<array::ArrayMonitor>(*run->grid, run->calibration);
  run->monitor->push_bundles(bundles);
}

bool array_json_requested(const std::vector<std::string>& args) {
  for (const std::string& a : args) {
    if (a == "--json") return true;
  }
  return false;
}

int cmd_array_monitor(const std::vector<std::string>& args) {
  ArrayRun run;
  run_array_monitor(args, &run);
  const bool json = array_json_requested(args);

  const auto states = run.monitor->states();
  std::size_t session_alarms = 0;
  std::size_t spectral_alarms = 0;
  for (std::size_t s = 0; s < states.size(); ++s) {
    if (states[s] == core::MonitorState::kAlarm) ++session_alarms;
    if (run.monitor->spectral_alarmed(s)) ++spectral_alarms;
  }
  const bool alarm = run.monitor->any_alarm();

  if (json) {
    std::printf("{\"schema\":\"array-monitor/1\",\"grid\":\"%zux%zu\",\"windows\":%zu,"
                "\"alarm\":%s,\"session_alarms\":%zu,\"spectral_alarms\":%zu}\n",
                run.grid->nx(), run.grid->ny(), run.windows, alarm ? "true" : "false",
                session_alarms, spectral_alarms);
    return alarm ? 1 : 0;
  }
  std::printf("array monitor: %zux%zu grid, %zu windows%s\n", run.grid->nx(), run.grid->ny(),
              run.windows,
              run.armed ? (std::string(", trojan ") + trojan::kind_label(*run.armed) +
                           " armed")
                              .c_str()
                        : "");
  std::printf("  coils alarmed: %zu per-trace sessions, %zu spectral latches\n",
              session_alarms, spectral_alarms);
  std::printf("  verdict: %s\n", alarm ? "ALARM" : "trusted");
  return alarm ? 1 : 0;
}

int cmd_array_localize(const std::vector<std::string>& args) {
  ArrayRun run;
  run_array_monitor(args, &run);
  const bool json = array_json_requested(args);

  const bool alarm = run.monitor->any_alarm();
  // Localization is the on-alarm follow-up: a trusted stream names no region
  // (the residual noise floor is not an anomaly pattern worth matching).
  array::LocalizationReport report;
  if (alarm) {
    const array::Localizer localizer{*run.grid};
    report = localizer.localize(run.monitor->anomaly_energy());
  }

  std::string expected;
  bool hit = false;
  std::size_t cells = 0;
  if (run.armed) {
    expected = sim::trojan_host_module(*run.armed);
    if (report.localized) {
      hit = report.module_name == expected;
      cells = array::cell_distance(*run.grid, report.module_name, expected);
    }
  }

  if (json) {
    std::printf("{\"schema\":\"array-localize/1\",\"grid\":\"%zux%zu\",\"windows\":%zu,"
                "\"alarm\":%s,\"localized\":%s",
                run.grid->nx(), run.grid->ny(), run.windows, alarm ? "true" : "false",
                report.localized ? "true" : "false");
    if (report.localized) {
      std::printf(",\"module\":\"%s\",\"score\":%.6f,\"cell\":{\"ix\":%zu,\"iy\":%zu}",
                  report.module_name.c_str(), report.score, report.cell.ix, report.cell.iy);
    }
    if (run.armed) {
      std::printf(",\"expected\":\"%s\"", expected.c_str());
      if (report.localized) {
        std::printf(",\"hit\":%s,\"cell_distance\":%zu", hit ? "true" : "false", cells);
      }
    }
    std::printf("}\n");
    return alarm ? 1 : 0;
  }

  std::printf("array localize: %zux%zu grid, %zu windows%s\n", run.grid->nx(), run.grid->ny(),
              run.windows,
              run.armed ? (std::string(", trojan ") + trojan::kind_label(*run.armed) +
                           " armed")
                              .c_str()
                        : "");
  std::printf("  verdict: %s\n", alarm ? "ALARM" : "trusted");
  if (!alarm) {
    std::printf("  localization: skipped (no alarm to localize)\n");
  } else if (!report.localized) {
    std::printf("  localization: no anomaly energy above the golden baseline\n");
  } else {
    std::printf("  localization: %s (score %.3f) at cell (%zu, %zu)\n",
                report.module_name.c_str(), report.score, report.cell.ix, report.cell.iy);
    if (run.armed) {
      std::printf("  ground truth : %s — %s (%zu cell%s away)\n", expected.c_str(),
                  hit ? "hit" : "miss", cells, cells == 1 ? "" : "s");
    }
  }
  return alarm ? 1 : 0;
}

int cmd_array(const std::vector<std::string>& args) {
  if (args.empty()) return usage_error();
  const std::vector<std::string> rest(args.begin() + 1, args.end());
  if (args[0] == "calibrate") return cmd_array_calibrate(rest);
  if (args[0] == "monitor") return cmd_array_monitor(rest);
  if (args[0] == "localize") return cmd_array_localize(rest);
  throw UsageError("unknown array subcommand " + args[0]);
}

int cmd_snr(const std::vector<std::string>& args) {
  if (args.size() != 2) return usage_error();
  const auto signal = io::load_trace_archive(args[0]);
  const auto noise = io::load_trace_archive(args[1]);
  std::vector<double> s;
  std::vector<double> n;
  for (const auto& t : signal.traces) s.insert(s.end(), t.begin(), t.end());
  for (const auto& t : noise.traces) n.insert(n.end(), t.begin(), t.end());
  std::printf("SNR = %.4f dB\n", stats::snr_db(s, n));
  return 0;
}

int cmd_info(const std::vector<std::string>& args) {
  if (args.size() != 1) return usage_error();
  const auto set = io::load_trace_archive(args[0]);
  std::printf("%s: %zu traces x %zu samples @ %.3f MS/s (%.2f us per trace)\n",
              args[0].c_str(), set.size(), set.trace_length(), set.sample_rate / 1e6,
              1e6 * static_cast<double>(set.trace_length()) / set.sample_rate);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage_error();
  const std::string command = argv[1];
  std::vector<std::string> args;
  for (int i = 2; i < argc; ++i) args.emplace_back(argv[i]);

  if (command == "help" || command == "--help" || command == "-h") {
    print_usage(stdout);
    return 0;
  }
  if (command == "--version" || command == "version") {
    std::printf("emsentry_cli %s\n", EMSENTRY_VERSION);
    return 0;
  }

  try {
    if (command == "capture") return cmd_capture(args);
    if (command == "evaluate") return cmd_evaluate(args);
    if (command == "calibrate") return cmd_calibrate(args);
    if (command == "monitor") return cmd_monitor(args);
    if (command == "array") return cmd_array(args);
    if (command == "fleet") return cmd_fleet(args);
    if (command == "serve") return cmd_serve(args);
    if (command == "replay-client") return cmd_replay_client(args);
    if (command == "snr") return cmd_snr(args);
    if (command == "info") return cmd_info(args);
  } catch (const UsageError& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return usage_error();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 3;
  }
  std::fprintf(stderr, "unknown command %s\n", command.c_str());
  return usage_error();
}
