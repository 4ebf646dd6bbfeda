// CaptureEngine: the batch acquisition layer between the simulated chip and
// every experiment. The paper's setting — runtime trust evaluation over
// thousands of capture windows — and the reproduction's own campaigns
// (Fig. 6 histograms, ROC sweeps, ablations) all reduce to "record N windows
// under one condition"; the engine runs those N windows across a persistent
// worker pool.
//
// Guarantees:
//   * Determinism — Chip::capture() is a pure function of (seed, trace_index,
//     encrypting, armed Trojan), so the engine's output is byte-identical to
//     the serial loop for every thread count. Workers write into
//     slot-indexed buffers; no output reordering is possible.
//   * Exception propagation — the first exception thrown inside a worker is
//     rethrown on the calling thread after the batch drains.
//   * One fixed condition per batch — arm()/disarm_all() mutate the chip and
//     must happen between batches, never during one (the const Chip&
//     signatures enforce this at compile time).
//
// Thread count resolution: explicit EngineOptions::threads, else the
// EMTS_THREADS environment variable, else std::thread::hardware_concurrency.
// One thread means "run inline on the caller" — no pool is spawned and the
// code path is the plain serial loop.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "core/trace.hpp"
#include "sim/chip.hpp"

namespace emts::sim {

struct EngineOptions {
  /// Worker threads. 0 = auto: EMTS_THREADS env var if set, else the
  /// hardware concurrency (at least 1).
  std::size_t threads = 0;
  /// Trace indices dispatched per work item. Small enough to balance load
  /// across workers, large enough to amortize queue traffic.
  std::size_t chunk = 4;
};

/// Both pickups of a batch, recorded simultaneously (each window's physics
/// is computed once and feeds both measurement chains, exactly like the
/// paper's scope sampling probe and sensor in one shot).
struct PairBatch {
  core::TraceSet onchip;
  core::TraceSet external;
};

class CaptureEngine {
 public:
  explicit CaptureEngine(const EngineOptions& options = {});
  ~CaptureEngine();

  CaptureEngine(const CaptureEngine&) = delete;
  CaptureEngine& operator=(const CaptureEngine&) = delete;

  /// Resolved worker count (>= 1); 1 means the serial inline path.
  std::size_t thread_count() const { return threads_; }

  /// Records `count` windows from one pickup, indices
  /// [first_index, first_index + count). Output order matches index order
  /// regardless of scheduling.
  core::TraceSet capture_batch(const Chip& chip, Pickup pickup, std::size_t count,
                               std::uint64_t first_index, bool encrypting = true) const;

  /// Records `count` windows keeping both pickups, for experiments that
  /// compare the on-chip sensor against the external probe on the very same
  /// physical windows (Fig. 6's rows; ROC sensor-vs-probe sweeps).
  PairBatch capture_pair_batch(const Chip& chip, std::size_t count,
                               std::uint64_t first_index, bool encrypting = true) const;

  /// SNR per the paper's recipe (Sec. V-A): `windows` signal captures while
  /// encrypting at [base, base+windows), `windows` idle captures at
  /// [base+windows, base+2*windows), RMS ratio in dB.
  double snr_batch(const Chip& chip, Pickup pickup, std::size_t windows = 8,
                   std::uint64_t base = 100) const;

  /// Runs fn(0..count-1) across the pool in deterministic-slot style: the
  /// callable must write its result into a slot owned by index `i`. Used by
  /// the batch APIs here and by the sensor array's bundle batches
  /// (array::ArrayCapture::capture_batch). Rethrows the first worker
  /// exception.
  void parallel_for(std::size_t count, const std::function<void(std::size_t)>& fn) const;

  /// Process-wide engine shared by benches, examples, and tools; sized from
  /// EMTS_THREADS / hardware concurrency on first use.
  static CaptureEngine& shared();

 private:
  struct Batch;  // one parallel_for invocation's bookkeeping

  void worker_loop();

  std::size_t threads_ = 1;
  std::size_t chunk_ = 4;

  // Work queue: each item is one chunk of some active batch. Mutable so the
  // logically-const batch APIs (they do not change engine configuration) can
  // dispatch work.
  mutable std::mutex mutex_;
  mutable std::condition_variable work_ready_;
  mutable std::deque<std::function<void()>> queue_;
  bool stopping_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace emts::sim
