#include "core/trace.hpp"

#include <string>

#include "util/assert.hpp"

namespace emts::core {

double finite_mean(const Trace& trace, std::size_t index) {
  EMTS_REQUIRE(!trace.empty(), "trace " + std::to_string(index) + " is empty");
  double sum = 0.0;
  const std::size_t bad = sum_finite(trace, sum);
  EMTS_REQUIRE(bad == trace.size(), "trace " + std::to_string(index) + " sample " +
                                        std::to_string(bad) + " is not finite (" +
                                        std::to_string(trace[bad]) + ")");
  return sum / static_cast<double>(trace.size());
}

void TraceSet::add(Trace trace) {
  EMTS_REQUIRE(!trace.empty(), "cannot add an empty trace");
  EMTS_REQUIRE(traces.empty() || trace.size() == traces.front().size(),
               "all traces in a set must share one length");
  traces.push_back(std::move(trace));
}

void TraceSet::reserve(std::size_t n) { traces.reserve(traces.size() + n); }

void TraceSet::add_all(std::vector<Trace> batch) {
  if (batch.empty()) return;
  const std::size_t len = traces.empty() ? batch.front().size() : traces.front().size();
  for (const Trace& t : batch) {
    EMTS_REQUIRE(!t.empty(), "cannot add an empty trace");
    EMTS_REQUIRE(t.size() == len, "all traces in a set must share one length");
  }
  reserve(batch.size());
  for (Trace& t : batch) traces.push_back(std::move(t));
}

void TraceSet::validate() const {
  EMTS_REQUIRE(sample_rate > 0.0, "trace set needs a positive sample rate");
  for (const Trace& t : traces) {
    EMTS_REQUIRE(t.size() == traces.front().size(), "ragged trace set");
  }
}

Trace TraceSet::mean_trace() const {
  EMTS_REQUIRE(!traces.empty(), "mean of an empty trace set");
  Trace mean(traces.front().size(), 0.0);
  for (const Trace& t : traces) {
    EMTS_REQUIRE(t.size() == mean.size(), "ragged trace set");
    for (std::size_t i = 0; i < mean.size(); ++i) mean[i] += t[i];
  }
  const double inv = 1.0 / static_cast<double>(traces.size());
  for (double& v : mean) v *= inv;
  return mean;
}

}  // namespace emts::core
