// The three workloads. run_* measure the end-to-end metrics with nothing
// traced; trace_* drive the same inputs through the layers' public calls
// with spans around them and report the per-layer ledger.
#pragma once

#include "common.hpp"

namespace e2e {

void run_ingest(const RunConfig& config, Result& result);
void run_durable(const RunConfig& config, Result& result);
void run_campaign(const RunConfig& config, Result& result);

void trace_ingest(const RunConfig& config, Result& result);
void trace_durable(const RunConfig& config, Result& result);
void trace_campaign(const RunConfig& config, Result& result);

}  // namespace e2e
