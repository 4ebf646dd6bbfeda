// e2e_bench — one run of one workload of the socket-to-verdict benchmark.
//
//   e2e_bench --workload ingest|durable|campaign --seed N --seconds S
//             --trace 0|1 --dir RUN_DIR [--spans SPANS.jsonl]
//
// --trace 0 measures the workload untraced and reports its end-to-end
// metrics. --trace 1 reports the per-layer ledger instead: it runs the
// traced pass of every workload (S/3 seconds each), because the ledger's
// layers span all three — io and fleet live on the socket workloads, sim and
// array on the campaign — and each pass also measures its workload untraced
// for the tracing overhead and the ledger's explanation check.
//
// The last line of stdout is the result object; the line before it holds
// diagnostics (host, threads, steal time) that explain a run but are never
// compared. Exit 0 when a result was printed (its "correct" field carries
// the output checks), 1 when the run failed before producing one, 2 on a
// usage error.
#include <sys/prctl.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>
#include <thread>

#include "common.hpp"
#include "workloads.hpp"

namespace {

int usage(const char* message) {
  std::fprintf(stderr,
               "e2e_bench: %s\nusage: e2e_bench --workload ingest|durable|campaign --seed N "
               "--seconds S --trace 0|1 --dir RUN_DIR [--spans PATH]\n",
               message);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  e2e::RunConfig config;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      config.workload = value;
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      config.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      config.trace = value == "1";
    } else if (flag == "--dir") {
      config.dir = value;
    } else if (flag == "--spans") {
      config.spans_path = value;
    } else {
      return usage(("unknown flag " + flag).c_str());
    }
  }
  if (argc % 2 == 0) return usage("flags take one value each");
  if (config.workload != "ingest" && config.workload != "durable" &&
      config.workload != "campaign") {
    return usage("unknown workload");
  }
  if (config.dir.empty() || !(config.seconds > 0.0)) return usage("--dir and --seconds > 0 needed");

  // Sleeping polls should wake when asked, not up to 50 us later.
  prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  std::filesystem::create_directories(config.dir);

  e2e::Result result;
  const std::uint64_t steal0 = e2e::host_steal_ticks();
  const std::uint64_t t0 = e2e::now_ns();
  try {
    if (!config.trace) {
      if (config.workload == "ingest") e2e::run_ingest(config, result);
      if (config.workload == "durable") e2e::run_durable(config, result);
      if (config.workload == "campaign") e2e::run_campaign(config, result);
    } else {
      e2e::RunConfig pass = config;
      pass.seconds = config.seconds / 3.0;
      e2e::trace_ingest(pass, result);
      e2e::trace_durable(pass, result);
      e2e::trace_campaign(pass, result);
    }
  } catch (const std::exception& error) {
    std::fprintf(stderr, "e2e_bench: %s run failed: %s\n", config.workload.c_str(), error.what());
    return 1;
  }
  const double wall_s = static_cast<double>(e2e::now_ns() - t0) * 1e-9;
  const double steal_s = static_cast<double>(e2e::host_steal_ticks() - steal0) /
                         static_cast<double>(e2e::clock_ticks_per_s());
  const unsigned nproc = std::thread::hardware_concurrency();
  result.diagnostic("nproc", nproc);
  result.diagnostic("wall_s", wall_s);
  result.diagnostic("host_steal_s", steal_s);
  result.diagnostic("host_steal_frac", nproc > 0 ? steal_s / (wall_s * nproc) : 0.0);
  result.print();
  return 0;
}
