// Shared plumbing of the socket-to-verdict benchmark: clocks, order
// statistics, process counters (CPU, peak RSS, host steal), in-memory span
// recording for the traced runs, and the one-line JSON result every run
// prints last.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace e2e {

/// Monotonic wall clock, nanoseconds.
std::uint64_t now_ns();
/// CPU time of the calling thread, nanoseconds.
std::uint64_t thread_cpu_ns();
/// Process CPU time (user + sys, every thread), seconds.
double process_cpu_s();
/// Peak resident set size of the process, MiB.
double peak_rss_mb();
/// Host steal time in clock ticks from /proc/stat (0 where unavailable).
std::uint64_t host_steal_ticks();
/// Clock ticks per second of /proc/stat.
long clock_ticks_per_s();

/// Sleeps until `deadline_ns` on the monotonic clock.
void sleep_until_ns(std::uint64_t deadline_ns);

/// Linearly interpolated quantile (q in [0, 1]) of `values` (sorted copy).
double quantile(std::vector<double> values, double q);
double median(std::vector<double> values);

/// Best-segment estimators over per-segment figures. Host interference
/// (steal, late wake-ups of halted vCPUs, a busy SMT sibling) only ever adds
/// time, and on a shared host it comes in bursts that can cover most of a
/// run; the segment it touched least is what a change to the program moves,
/// and it repeats from run to run where a median does not. Every segment is
/// sampled so that a preemption of the sampling thread can only make that
/// segment look worse, never better. best_time is the minimum of a
/// lower-is-better figure, best_rate the maximum of a higher-is-better one.
double best_time(const std::vector<double>& per_segment);
double best_rate(const std::vector<double>& per_segment);

/// The quietest rounds of a run, for its latency quantiles. `windows` holds
/// the run's closed-loop round latencies cut into short windows of
/// consecutive rounds — tens of milliseconds, short enough that some fall
/// between two bursts of host interference even in a bad period, when no
/// longer stretch does. Whole windows are pooled in order of their median
/// until the pool holds at least `min_rounds`; a window's slow rounds stay
/// in, so the pool keeps the program's own tail.
std::vector<double> quietest_rounds(std::vector<std::vector<double>> windows,
                                    std::size_t min_rounds);

/// Cuts `rounds` into consecutive windows of `size` (a short tail is
/// dropped) and appends them to `windows`.
void cut_windows(const std::vector<double>& rounds, std::size_t size,
                 std::vector<std::vector<double>>& windows);

/// One traced call: `name` is the layer call, `id` the frame, chunk, round,
/// cut or bundle it served, and `cpu_ns` the calling thread's CPU time inside
/// the span.
struct Span {
  const char* name = "";
  std::uint64_t id = 0;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint64_t cpu_ns = 0;
};

/// Per-thread span store: preallocated, appended without locks by the one
/// thread that owns it, written out when the benchmark ends.
class SpanRecorder {
 public:
  explicit SpanRecorder(std::size_t reserve = 1 << 16) { spans_.reserve(reserve); }

  std::int32_t begin(const char* name, std::uint64_t id);
  void end(std::int32_t index);

  const std::vector<Span>& spans() const { return spans_; }

  /// Wall durations (us) of every span called `name`.
  std::vector<double> durations_us(const char* name) const;
  /// Summed wall / thread-CPU time (us) of every span called `name`.
  double total_us(const char* name) const;
  double total_cpu_us(const char* name) const;
  /// Mean thread-CPU time (us) of the spans called `name`.
  double mean_cpu_us(const char* name) const;

 private:
  std::vector<Span> spans_;
};

/// Appends every recorder's spans to `path` as JSON lines (one span each,
/// tagged with the recorder's label).
void write_spans(const std::string& path,
                 const std::vector<std::pair<std::string, const SpanRecorder*>>& recorders);

/// What one run prints last: the correctness verdict, operation counts and
/// the metrics, plus diagnostics that explain a run but are never compared.
class Result {
 public:
  void metric(const std::string& name, double value, const std::string& unit);
  void diagnostic(const std::string& name, double value);

  /// Records one output check; a failed check prints its message to stderr,
  /// marks the run incorrect and counts `weight` failed operations.
  void check(bool ok, const std::string& what, std::uint64_t weight = 1);
  void attempt(std::uint64_t operations) { attempted_ += operations; }

  double success_frac() const;

  /// Diagnostics line, then the result line (the last line of stdout).
  void print() const;

 private:
  struct Entry {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  bool correct_ = true;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<Entry> metrics_;
  std::vector<Entry> diagnostics_;
};

/// Run parameters shared by every workload.
struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string dir;         // scratch directory inside the checkout (socket, artifacts)
  std::string spans_path;  // traced runs append their spans here (JSON lines)
};

/// Mixes the run seed with a stream label into an independent 64-bit value.
std::uint64_t derive(std::uint64_t seed, std::uint64_t label);

}  // namespace e2e
