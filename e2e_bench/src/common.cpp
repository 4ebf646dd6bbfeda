#include "common.hpp"

#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

namespace e2e {

std::uint64_t now_ns() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

std::uint64_t thread_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

std::uint64_t host_steal_ticks() {
  // First line of /proc/stat: "cpu user nice system idle iowait irq softirq steal ..."
  std::ifstream in{"/proc/stat"};
  std::string label;
  std::uint64_t fields[8] = {};
  if (!(in >> label) || label != "cpu") return 0;
  for (std::uint64_t& field : fields) {
    if (!(in >> field)) return 0;
  }
  return fields[7];
}

long clock_ticks_per_s() { return sysconf(_SC_CLK_TCK); }

void sleep_until_ns(std::uint64_t deadline_ns) {
  timespec ts{};
  ts.tv_sec = static_cast<time_t>(deadline_ns / 1000000000ull);
  ts.tv_nsec = static_cast<long>(deadline_ns % 1000000000ull);
  while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) == EINTR) {
  }
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

double median(std::vector<double> values) { return quantile(std::move(values), 0.5); }

double best_time(const std::vector<double>& per_segment) { return quantile(per_segment, 0.0); }

double best_rate(const std::vector<double>& per_segment) { return quantile(per_segment, 1.0); }

std::vector<double> quietest_rounds(std::vector<std::vector<double>> windows,
                                    std::size_t min_rounds) {
  std::vector<std::pair<double, std::size_t>> order;
  for (std::size_t w = 0; w < windows.size(); ++w) order.emplace_back(median(windows[w]), w);
  std::sort(order.begin(), order.end());
  std::vector<double> pool;
  for (const auto& [window_median, w] : order) {
    if (pool.size() >= min_rounds) break;
    pool.insert(pool.end(), windows[w].begin(), windows[w].end());
  }
  return pool;
}

void cut_windows(const std::vector<double>& rounds, std::size_t size,
                 std::vector<std::vector<double>>& windows) {
  for (std::size_t i = 0; i + size <= rounds.size(); i += size) {
    windows.emplace_back(rounds.begin() + static_cast<std::ptrdiff_t>(i),
                         rounds.begin() + static_cast<std::ptrdiff_t>(i + size));
  }
}

std::int32_t SpanRecorder::begin(const char* name, std::uint64_t id) {
  Span span;
  span.name = name;
  span.id = id;
  // The CPU clock is read first at begin and last at end so the wall
  // interval brackets the CPU interval.
  span.cpu_ns = thread_cpu_ns();
  span.start_ns = now_ns();
  spans_.push_back(span);
  return static_cast<std::int32_t>(spans_.size() - 1);
}

void SpanRecorder::end(std::int32_t index) {
  Span& span = spans_[static_cast<std::size_t>(index)];
  span.end_ns = now_ns();
  span.cpu_ns = thread_cpu_ns() - span.cpu_ns;
}

std::vector<double> SpanRecorder::durations_us(const char* name) const {
  std::vector<double> out;
  for (const Span& span : spans_) {
    if (std::strcmp(span.name, name) == 0) {
      out.push_back(static_cast<double>(span.end_ns - span.start_ns) * 1e-3);
    }
  }
  return out;
}

double SpanRecorder::total_us(const char* name) const {
  double total = 0.0;
  for (const double d : durations_us(name)) total += d;
  return total;
}

double SpanRecorder::total_cpu_us(const char* name) const {
  double total = 0.0;
  for (const Span& span : spans_) {
    if (std::strcmp(span.name, name) == 0) total += static_cast<double>(span.cpu_ns) * 1e-3;
  }
  return total;
}

double SpanRecorder::mean_cpu_us(const char* name) const {
  const std::size_t n = durations_us(name).size();
  return n > 0 ? total_cpu_us(name) / static_cast<double>(n) : 0.0;
}

void write_spans(const std::string& path,
                 const std::vector<std::pair<std::string, const SpanRecorder*>>& recorders) {
  std::ofstream out{path, std::ios::app};
  if (!out) {
    std::fprintf(stderr, "e2e_bench: cannot write spans to %s\n", path.c_str());
    return;
  }
  for (const auto& [label, recorder] : recorders) {
    for (const Span& span : recorder->spans()) {
      out << "{\"thread\":\"" << label << "\",\"name\":\"" << span.name << "\",\"id\":" << span.id
          << ",\"start_ns\":" << span.start_ns << ",\"end_ns\":" << span.end_ns
          << ",\"cpu_ns\":" << span.cpu_ns << "}\n";
    }
  }
}

void Result::metric(const std::string& name, double value, const std::string& unit) {
  metrics_.push_back(Entry{name, value, unit});
}

void Result::diagnostic(const std::string& name, double value) {
  diagnostics_.push_back(Entry{name, value, ""});
}

void Result::check(bool ok, const std::string& what, std::uint64_t weight) {
  if (ok) return;
  std::fprintf(stderr, "e2e_bench: CHECK FAILED: %s\n", what.c_str());
  correct_ = false;
  failed_ += weight;
}

double Result::success_frac() const {
  if (attempted_ == 0) return 0.0;
  const std::uint64_t ok = failed_ >= attempted_ ? 0 : attempted_ - failed_;
  return static_cast<double>(ok) / static_cast<double>(attempted_);
}

namespace {

std::string number(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

}  // namespace

void Result::print() const {
  std::ostringstream diag;
  diag << "{\"diagnostics\": {";
  for (std::size_t i = 0; i < diagnostics_.size(); ++i) {
    diag << (i ? ", " : "") << "\"" << diagnostics_[i].name << "\": " << number(diagnostics_[i].value);
  }
  diag << "}}";
  std::printf("%s\n", diag.str().c_str());

  std::ostringstream line;
  line << "{\"correct\": " << (correct_ && failed_ == 0 ? "true" : "false")
       << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_ << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    line << (i ? ", " : "") << "\"" << metrics_[i].name << "\": {\"value\": "
         << number(metrics_[i].value) << ", \"unit\": \"" << metrics_[i].unit << "\"}";
  }
  line << "}}";
  std::printf("%s\n", line.str().c_str());
  std::fflush(stdout);
}

std::uint64_t derive(std::uint64_t seed, std::uint64_t label) {
  // splitmix64 finalizer over the (seed, label) pair.
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ull + label * 0xbf58476d1ce4e5b9ull + 0x94d049bb133111ebull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

}  // namespace e2e
