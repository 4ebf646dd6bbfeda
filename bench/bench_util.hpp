// Shared helpers for the reproduction benches: batch capture and SNR via the
// parallel CaptureEngine, a tiny PASS/FAIL shape-checker so each bench
// verifies its table's qualitative claims programmatically, and for the
// perf_* benches one timing rule, one oversubscription rule and one
// BENCH_*.json writer.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/trace.hpp"
#include "sim/chip.hpp"
#include "sim/engine.hpp"
#include "util/assert.hpp"

namespace emts::bench {

/// Batch capture through the shared worker pool (EMTS_THREADS knob). Output
/// is byte-identical to the serial capture loop for every thread count.
inline core::TraceSet capture_set(const sim::Chip& chip, sim::Pickup pickup, std::size_t count,
                                  std::uint64_t first_index, bool encrypting = true) {
  return sim::CaptureEngine::shared().capture_batch(chip, pickup, count, first_index,
                                                    encrypting);
}

/// Both pickups of the same physical windows in one pass — half the physics
/// work of two capture_set calls for sensor-vs-probe comparisons.
inline sim::PairBatch capture_pair_set(const sim::Chip& chip, std::size_t count,
                                       std::uint64_t first_index, bool encrypting = true) {
  return sim::CaptureEngine::shared().capture_pair_batch(chip, count, first_index, encrypting);
}

/// SNR exactly as the paper measures it (Sec. V-A): signal captured while
/// encrypting, noise captured while the chip idles, RMS ratio in dB.
inline double measured_snr_db(const sim::Chip& chip, sim::Pickup pickup,
                              std::size_t windows = 8, std::uint64_t base = 100) {
  return sim::CaptureEngine::shared().snr_batch(chip, pickup, windows, base);
}

/// Records one shape assertion; prints PASS/FAIL and tracks the exit code.
class ShapeChecks {
 public:
  void expect(bool condition, const std::string& claim) {
    std::printf("  [%s] %s\n", condition ? "PASS" : "FAIL", claim.c_str());
    if (!condition) failed_ = true;
  }

  int exit_code() const { return failed_ ? 1 : 0; }

 private:
  bool failed_ = false;
};

inline double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

/// Keeps every hardware thread busy for 1.5 s; call once before the first
/// timed row. A virtualized host can be slow to hand an idle guest its
/// vCPUs back: on a 4-vCPU VM idle for 6 s, four spinning threads ran at a
/// quarter of their speed for the first 1.1 s (after 3 s idle, at full
/// speed), so whichever row ran first read 2-4x low.
inline void warm_up() {
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> spinners;
  for (unsigned i = 0; i < std::max(1u, std::thread::hardware_concurrency()); ++i) {
    spinners.emplace_back([t0] {
      while (seconds_since(t0) < 1.5) {
      }
    });
  }
  for (std::thread& spinner : spinners) spinner.join();
}

/// One timed run: `work` units (traces, bundles, calls) done in `seconds`.
struct TimedRun {
  double work = 0.0;
  double seconds = 0.0;
  double per_second() const { return work / seconds; }
};

/// The one timing rule behind every perf_* row: each of `rows` rows runs
/// three times and keeps its fastest run. The runs go in passes over all
/// rows, so a row's three runs sit a whole pass apart, and a slow spell of
/// the host (seconds long on a shared VM) shorter than a pass spoils at
/// most one of them. `measure(row)` does any set-up it must not count, then
/// times only the work.
template <typename Measure>
std::vector<TimedRun> best_of_3(std::size_t rows, Measure&& measure) {
  std::vector<TimedRun> best(rows);
  for (int pass = 0; pass < 3; ++pass) {
    for (std::size_t row = 0; row < rows; ++row) {
      const TimedRun run = measure(row);
      if (pass == 0 || run.per_second() > best[row].per_second()) best[row] = run;
    }
  }
  return best;
}

/// The one oversubscription rule: a row that keeps `busy_threads` threads
/// runnable on a host with fewer hardware threads measures contention, not
/// capacity. An unknown hardware thread count (0) flags nothing.
inline bool oversubscribed(std::size_t busy_threads) {
  const unsigned threads = std::thread::hardware_concurrency();
  return threads > 0 && busy_threads > threads;
}

/// A JSON object whose keys keep insertion order: the one writer behind
/// every BENCH_*.json. A nested object renders on one line, so a "rows"
/// array reads one row per line. Strings are written verbatim; bench labels
/// need no escaping.
class JsonObject {
 public:
  JsonObject& add(const std::string& key, bool value) {
    return put(key, value ? "true" : "false");
  }
  JsonObject& add(const std::string& key, const std::string& value) {
    return put(key, '"' + value + '"');
  }
  JsonObject& add(const std::string& key, const char* value) {
    return add(key, std::string{value});
  }
  JsonObject& add(const std::string& key, double value) {
    char text[32];
    std::snprintf(text, sizeof text, "%.6g", value);
    return put(key, text);
  }
  template <typename Int, std::enable_if_t<std::is_integral_v<Int>, int> = 0>
  JsonObject& add(const std::string& key, Int value) {
    return put(key, std::to_string(value));
  }
  JsonObject& add(const std::string& key, const JsonObject& object) {
    return put(key, object.line());
  }
  JsonObject& add(const std::string& key, const std::vector<JsonObject>& rows) {
    std::string text = "[";
    for (std::size_t i = 0; i < rows.size(); ++i) {
      text += (i == 0 ? "\n    " : ",\n    ") + rows[i].line();
    }
    return put(key, text + "\n  ]");
  }

  std::string line() const {
    std::string text = "{";
    for (std::size_t i = 0; i < fields_.size(); ++i) {
      text += (i == 0 ? "\"" : ", \"") + fields_[i].first + "\": " + fields_[i].second;
    }
    return text + "}";
  }

  /// Writes this object to `path` as a BENCH_*.json document, one key per
  /// line, behind a first key "hardware_threads": whether a row's rates are
  /// capacities or contention depends on it, so a reader meets it before
  /// any rate. The document is also the bench's report on stdout. Throws
  /// precondition_error if the file cannot be written.
  void write_bench(const std::string& path) const {
    std::string text = "{\n  \"hardware_threads\": ";
    text += std::to_string(std::thread::hardware_concurrency());
    for (const auto& [key, value] : fields_) text += ",\n  \"" + key + "\": " + value;
    text += "\n}\n";
    std::ofstream out{path};
    out << text;
    EMTS_REQUIRE(out.good(), "cannot write " + path);
    std::printf("%s-> %s\n", text.c_str(), path.c_str());
  }

 private:
  JsonObject& put(const std::string& key, std::string value) {
    fields_.emplace_back(key, std::move(value));
    return *this;
  }

  std::vector<std::pair<std::string, std::string>> fields_;
};

}  // namespace emts::bench
