#include "sim/engine.hpp"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <exception>

#include "stats/snr.hpp"
#include "util/assert.hpp"

namespace emts::sim {

namespace {

std::size_t hardware_threads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<std::size_t>(hw) : 1;
}

std::size_t resolve_threads(std::size_t requested) {
  if (requested > 0) return requested;
  if (const char* env = std::getenv("EMTS_THREADS")) {
    // Parse defensively: operators export this in deployment scripts, and a
    // typo ("4x", "", "-2", "1e9") must degrade to the hardware default with
    // a diagnostic instead of silently misconfiguring the worker pool.
    char* end = nullptr;
    errno = 0;
    const unsigned long parsed = std::strtoul(env, &end, 10);
    const bool numeric = end != env && *end == '\0' && errno == 0 && env[0] != '-';
    if (numeric && parsed > 0 && parsed <= 1024) {
      return static_cast<std::size_t>(parsed);
    }
    const std::size_t fallback = hardware_threads();
    std::fprintf(stderr,
                 "emsentry: ignoring invalid EMTS_THREADS=\"%s\" "
                 "(expected an integer in [1, 1024]); using %zu hardware threads\n",
                 env, fallback);
    return fallback;
  }
  return hardware_threads();
}

}  // namespace

// Bookkeeping of one parallel_for invocation. Chunks of different batches
// may interleave in the shared queue; each closure holds a shared_ptr to its
// own batch, so completion and error state never cross invocations.
struct CaptureEngine::Batch {
  std::mutex mutex;
  std::condition_variable done;
  std::size_t pending = 0;   // chunks still running or queued
  std::exception_ptr error;  // first failure; later chunks short-circuit
};

CaptureEngine::CaptureEngine(const EngineOptions& options)
    : threads_{resolve_threads(options.threads)},
      chunk_{options.chunk > 0 ? options.chunk : 1} {
  if (threads_ < 2) return;  // serial inline path: no pool, no locks
  workers_.reserve(threads_);
  for (std::size_t i = 0; i < threads_; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

CaptureEngine::~CaptureEngine() {
  {
    std::lock_guard<std::mutex> lock{mutex_};
    stopping_ = true;
  }
  work_ready_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void CaptureEngine::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock{mutex_};
      work_ready_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping, queue drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

void CaptureEngine::parallel_for(std::size_t count,
                                 const std::function<void(std::size_t)>& fn) const {
  if (count == 0) return;
  if (workers_.empty() || count == 1) {
    for (std::size_t i = 0; i < count; ++i) fn(i);
    return;
  }

  auto batch = std::make_shared<Batch>();
  const std::size_t chunks = (count + chunk_ - 1) / chunk_;
  batch->pending = chunks;

  {
    std::lock_guard<std::mutex> lock{mutex_};
    for (std::size_t c = 0; c < chunks; ++c) {
      const std::size_t begin = c * chunk_;
      const std::size_t end = std::min(begin + chunk_, count);
      // fn is captured by reference: parallel_for blocks until every chunk
      // finished, so the reference outlives all queued closures.
      queue_.push_back([batch, begin, end, &fn] {
        bool skip = false;
        {
          std::lock_guard<std::mutex> guard{batch->mutex};
          skip = batch->error != nullptr;
        }
        if (!skip) {
          try {
            for (std::size_t i = begin; i < end; ++i) fn(i);
          } catch (...) {
            std::lock_guard<std::mutex> guard{batch->mutex};
            if (!batch->error) batch->error = std::current_exception();
          }
        }
        std::lock_guard<std::mutex> guard{batch->mutex};
        if (--batch->pending == 0) batch->done.notify_all();
      });
    }
  }
  work_ready_.notify_all();

  std::unique_lock<std::mutex> lock{batch->mutex};
  batch->done.wait(lock, [&batch] { return batch->pending == 0; });
  if (batch->error) std::rethrow_exception(batch->error);
}

core::TraceSet CaptureEngine::capture_batch(const Chip& chip, Pickup pickup, std::size_t count,
                                            std::uint64_t first_index, bool encrypting) const {
  std::vector<core::Trace> slots(count);
  parallel_for(count, [&](std::size_t i) {
    slots[i] = chip.capture(pickup, encrypting, first_index + i);
  });
  core::TraceSet set;
  set.sample_rate = chip.sample_rate();
  set.add_all(std::move(slots));
  return set;
}

PairBatch CaptureEngine::capture_pair_batch(const Chip& chip, std::size_t count,
                                            std::uint64_t first_index, bool encrypting) const {
  std::vector<core::Trace> onchip(count);
  std::vector<core::Trace> external(count);
  parallel_for(count, [&](std::size_t i) {
    Acquisition acq = chip.capture(encrypting, first_index + i);
    onchip[i] = std::move(acq.onchip_v);
    external[i] = std::move(acq.external_v);
  });
  PairBatch pair;
  pair.onchip.sample_rate = chip.sample_rate();
  pair.external.sample_rate = chip.sample_rate();
  pair.onchip.add_all(std::move(onchip));
  pair.external.add_all(std::move(external));
  return pair;
}

double CaptureEngine::snr_batch(const Chip& chip, Pickup pickup, std::size_t windows,
                                std::uint64_t base) const {
  EMTS_REQUIRE(windows > 0, "snr_batch needs at least one window");
  std::vector<core::Trace> sig(windows);
  std::vector<core::Trace> noi(windows);
  // Signal windows at [base, base+windows), idle windows right after — the
  // same indices the serial measured_snr_db helper always used.
  parallel_for(2 * windows, [&](std::size_t i) {
    if (i < windows) {
      sig[i] = chip.capture(pickup, true, base + i);
    } else {
      const std::size_t t = i - windows;
      noi[t] = chip.capture(pickup, false, base + windows + t);
    }
  });
  std::vector<double> signal;
  std::vector<double> noise;
  signal.reserve(windows * chip.samples_per_trace());
  noise.reserve(windows * chip.samples_per_trace());
  for (const auto& s : sig) signal.insert(signal.end(), s.begin(), s.end());
  for (const auto& n : noi) noise.insert(noise.end(), n.begin(), n.end());
  return stats::snr_db(signal, noise);
}

CaptureEngine& CaptureEngine::shared() {
  static CaptureEngine engine;
  return engine;
}

}  // namespace emts::sim
