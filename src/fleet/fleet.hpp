// Fleet monitor: the multi-chip deployment layer above RuntimeMonitor. The
// paper's end state is runtime trust evaluation of deployed silicon, and the
// sensor-array follow-up (Wang et al., arXiv:2401.12193) makes explicit that
// real deployments watch *many* sensors/chips at once. FleetMonitor hosts N
// independent monitoring sessions keyed by a stable device id — each wrapping
// a pre-fitted RuntimeMonitor, typically loaded from one shared EMCA
// calibration artifact ("calibrate once, monitor many", now fleet-wide) —
// and routes incoming (device_id, Trace) captures to them through a fixed
// set of worker shards.
//
// Guarantees:
//   * Per-device ordering — a device maps to one shard (stable FNV-1a hash,
//     device_hash() % shards), each shard runs one worker draining a FIFO
//     queue, so one device's captures are scored in submission order while
//     different devices run concurrently. Bulk wire-frame submission
//     preserves this: a shard's frames are queued in arrival order in one
//     critical section.
//   * Bit-identical scoring — a session's monitor sees exactly the trace
//     sequence submitted for its device, so per-device results (scores,
//     states, stats, events) are bit-identical to running that device
//     through its own standalone RuntimeMonitor — through submit() and
//     submit_frames() alike.
//   * Bounded ingest — every shard queue holds at most queue_capacity
//     traces; the backpressure policy decides what a full queue does to a
//     submitter (block, evict the oldest queued capture, or refuse), with
//     per-shard accounting for every outcome.
//   * Fault isolation — shape-mismatched or non-finite captures are rejected
//     by the session monitor's input gate (a structured MonitorEvent plus a
//     traces_rejected counter), never poisoning the detector stack or the
//     shard worker.
#pragma once

#include <algorithm>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/monitor.hpp"
#include "core/trace.hpp"
#include "io/snapshot.hpp"
#include "io/wire.hpp"

namespace emts::fleet {

/// What a full shard queue does to a submitter.
enum class BackpressurePolicy : std::uint8_t {
  kBlock,       // wait until the worker frees a slot (lossless, applies flow
                // control to the producer)
  kDropOldest,  // evict the oldest queued capture to admit the new one
                // (bounded latency, sacrifices completeness)
  kReject       // refuse the new capture (caller decides; lossless for the
                // queue, lossy for the stream)
};

const char* backpressure_label(BackpressurePolicy policy);

/// Outcome of one submit().
enum class SubmitResult : std::uint8_t {
  kAccepted,        // enqueued (possibly after blocking)
  kReplacedOldest,  // enqueued; the shard's oldest queued capture was evicted
  kRejected         // refused by the kReject policy; the trace was not taken
};

struct FleetOptions {
  /// Worker shards (>= 1). Devices hash onto shards; each shard owns one
  /// worker thread and one bounded queue.
  std::size_t shards = 2;
  /// Per-shard queue capacity (>= 1), in traces.
  std::size_t queue_capacity = 64;
  BackpressurePolicy backpressure = BackpressurePolicy::kBlock;
  /// Pin shard worker i to CPU (i % hardware cores). Linux-only (no-op
  /// elsewhere); pointless when shards exceed cores — see DESIGN.md §4i for
  /// when pinning helps and when it hurts.
  bool pin_workers = false;
  /// Options for every session's RuntimeMonitor.
  core::RuntimeMonitor::Options monitor{};
};

/// One shard's lifetime accounting: a point-in-time copy, taken under the
/// shard mutex, so every field is exact.
struct ShardStats {
  std::uint64_t submitted = 0;       // captures accepted into the queue
  std::uint64_t processed = 0;       // captures drained and scored
  std::uint64_t dropped_oldest = 0;  // kDropOldest evictions
  std::uint64_t rejected_full = 0;   // kReject refusals
  std::uint64_t blocked = 0;         // kBlock submissions that had to wait
  std::uint64_t worker_faults = 0;   // exceptions swallowed by the worker
  std::size_t queue_depth = 0;       // at snapshot time
  std::size_t queue_high_water = 0;  // deepest the queue has ever been
};

/// One session's snapshot inside FleetStats.
struct SessionStats {
  std::string device_id;
  std::size_t shard = 0;
  core::MonitorState state{};
  std::optional<double> last_score{};
  core::MonitorStats monitor;
};

/// Fleet-wide observability snapshot (stats()).
struct FleetStats {
  std::vector<ShardStats> shards;
  std::vector<SessionStats> sessions;  // sorted by device id

  // Aggregates over the shards…
  std::uint64_t traces_submitted = 0;
  std::uint64_t traces_processed = 0;
  std::uint64_t backpressure_dropped = 0;   // kDropOldest evictions
  std::uint64_t backpressure_rejected = 0;  // kReject refusals

  // …and over the sessions (the fleet verdict counts).
  std::size_t devices = 0;
  std::size_t devices_monitoring = 0;
  std::size_t devices_alarm = 0;
  std::uint64_t alarms_latched = 0;
  std::uint64_t traces_rejected_invalid = 0;  // session input-gate rejections
};

/// A session monitor event tagged with its device.
struct FleetEvent {
  std::string device_id;
  core::MonitorEvent event;
};

/// Outcome of one submit_frames() batch.
struct FrameBatchOutcome {
  std::size_t accepted = 0;               // enqueued for scoring
  std::size_t rejected_backpressure = 0;  // kReject refusals (queue full)
  std::size_t rejected_invalid = 0;       // unknown device / rate mismatch /
                                          // empty trace
};

/// Stable 64-bit FNV-1a hash of a device id — the shard router. Stable
/// across platforms and runs (std::hash is not), so a fleet replay assigns
/// the same devices to the same shards everywhere.
std::uint64_t device_hash(const std::string& device_id);

/// How much of the fleet a snapshot() cut copies. kFull copies every
/// session. kIncremental copies only *dirty* sessions — those whose monitor
/// state moved since the previous cut (any push advances traces_ingested;
/// acknowledge_alarm/drain_events mark the session dirty explicitly) — and
/// emits clean sessions as placeholders (Device::dirty == false) for the
/// cache-aware io::save_fleet_snapshot overload to fill from its record
/// cache. Both modes advance the dirty baseline.
enum class SnapshotMode : std::uint8_t { kFull, kIncremental };

class FleetMonitor {
 public:
  explicit FleetMonitor(const FleetOptions& options = {});

  /// Drains every queue, then stops and joins the shard workers.
  ~FleetMonitor();

  FleetMonitor(const FleetMonitor&) = delete;
  FleetMonitor& operator=(const FleetMonitor&) = delete;

  std::size_t shard_count() const { return shards_.size(); }
  const FleetOptions& options() const { return options_; }

  /// Shard a device id routes to: device_hash(id) % shard_count().
  std::size_t shard_of(const std::string& device_id) const;

  /// Registers a monitoring session for `device_id` around a pre-fitted
  /// evaluator (io::load_calibration). The session cold-starts in
  /// kMonitoring. Throws precondition_error on a duplicate id or an empty
  /// id. Safe to call while traffic is flowing for other devices.
  void add_device(const std::string& device_id, core::TrustEvaluator evaluator);
  void add_device(const std::string& device_id, core::TrustEvaluator evaluator,
                  const core::RuntimeMonitor::Options& monitor_options);

  bool has_device(const std::string& device_id) const;
  std::size_t device_count() const;
  std::vector<std::string> device_ids() const;  // sorted

  /// Routes one capture to its device's session. Thread-safe; callers that
  /// need per-device ordering must submit a given device's captures from one
  /// thread (the natural shape: one producer per sensor front-end).
  /// Throws precondition_error for an unknown device or an empty trace;
  /// malformed-but-plausible traces (wrong shape, non-finite samples) are
  /// accepted here and rejected by the session's input gate with a
  /// structured event — see RuntimeMonitor::push.
  SubmitResult submit(const std::string& device_id, core::Trace trace);

  /// The ingest daemon's entry point: a drained io::wire::FrameDecoder
  /// buffer. Frames are vetted, grouped by shard in arrival order, and each
  /// shard group is queued in one critical section. A frame whose
  /// device is unregistered, whose sample rate is not within 1e-6
  /// (relative) of the session's, NaN included, or whose trace is empty is
  /// counted out instead of thrown, without touching any session, so one
  /// bad frame never blocks the rest of a network read. Per-device ordering
  /// holds: one device's frames stay in arrival order within its shard
  /// group.
  FrameBatchOutcome submit_frames(std::vector<io::wire::TraceFrame>&& frames);

  /// Barrier: returns once every capture submitted before the call has been
  /// scored and all workers are idle. Concurrent submitters may of course
  /// re-fill the queues afterwards. Must not be called on a paused fleet
  /// with queued work — a paused worker never drains.
  void flush();

  /// Quiesces the shard workers: any capture in flight finishes, then nothing
  /// further is scored until resume(). Captures keep queueing (and the
  /// backpressure policy keeps applying), which is exactly what a maintenance
  /// window looks like — and what deterministic queue-saturation tests need.
  void pause();
  void resume();

  /// Consistent point-in-time image of the whole fleet: every queued capture
  /// is scored (flush), the workers quiesce (pause), every session's fitted
  /// evaluator and complete monitor state are copied, and the workers resume.
  /// Concurrent submitters land on one side of the cut or the other — never
  /// half-scored. The image round-trips through io::save_fleet_snapshot /
  /// load_fleet_snapshot and restore(), after which every session continues
  /// its stream bit-identically to one that was never interrupted.
  ///
  /// kIncremental copies only sessions dirtied since the previous cut (see
  /// SnapshotMode); the paused window then scales with dirty devices, not
  /// fleet size. Clean placeholder devices must be materialized by the
  /// cache-aware save overload — they cannot be restore()d directly.
  io::FleetSnapshot snapshot(SnapshotMode mode = SnapshotMode::kFull);

  /// Reinstates a snapshot's sessions onto this fleet, which must not have
  /// any devices yet (shard layout may differ from the snapshot's — device
  /// routing is a pure function of the id). Each session resumes with the
  /// exported monitor state; per-session monitor options come from the
  /// image's option mirrors, not this fleet's defaults. Throws
  /// precondition_error if the fleet already has devices or an image is
  /// inconsistent; a refused snapshot registers no session.
  void restore(const io::FleetSnapshot& snapshot);

  /// Current state of one device's session (safe while traffic flows).
  core::MonitorState device_state(const std::string& device_id) const;

  /// Clears a latched alarm on one device (RuntimeMonitor::acknowledge_alarm
  /// semantics; throws if that session is not alarmed).
  void acknowledge_alarm(const std::string& device_id);

  /// Consistent fleet-wide snapshot: per-shard queue accounting, per-session
  /// monitor stats, and the fleet verdict counts. Safe while traffic flows
  /// (workers pause between captures, never mid-score).
  FleetStats stats() const;

  /// Moves every session's buffered events into `out` (appended), tagged
  /// with their device id, sessions in sorted-id order, each session's
  /// events oldest first. Clears the session logs. Returns the number of
  /// events drained.
  std::size_t drain_events(std::vector<FleetEvent>& out);
  std::vector<FleetEvent> drain_events();

 private:
  struct Session {
    std::string device_id;
    std::size_t shard = 0;
    core::RuntimeMonitor monitor;  // pinned: sessions live behind unique_ptr

    Session(std::string id, std::size_t shard_index, core::RuntimeMonitor m)
        : device_id{std::move(id)}, shard{shard_index}, monitor{std::move(m)} {}
  };

  struct WorkItem {
    Session* session = nullptr;
    core::Trace trace;
  };

  /// One worker shard: a fixed-capacity FIFO of work items plus its control
  /// flags and lifetime counters, all guarded by `mutex`. The worker holds
  /// `mutex` only to pop an item and to count it, never while scoring.
  /// exec_mutex guards the shard's session monitors (held by the worker per
  /// capture, and by snapshot readers) so stats()/drain_events() never race
  /// a score in flight and never block producers. See DESIGN.md §4i.
  struct Shard {
    Shard(std::size_t shard_index, std::size_t capacity)
        : index{shard_index}, queue(capacity) {}

    /// Appends at the tail; the caller checks depth < queue.size().
    void push(WorkItem&& item) {
      queue[(head + depth) % queue.size()] = std::move(item);
      ++depth;
      counts.queue_high_water = std::max(counts.queue_high_water, depth);
    }
    /// Removes the head; the caller checks depth > 0.
    WorkItem pop() {
      WorkItem item = std::move(queue[head]);
      head = (head + 1) % queue.size();
      --depth;
      return item;
    }

    const std::size_t index;

    mutable std::mutex mutex;
    std::condition_variable work_ready;   // worker: work queued / resumed / stopping
    std::condition_variable space_ready;  // kBlock producers: slot freed / stopping
    std::condition_variable idle;         // pause()/flush(): worker not busy
    std::vector<WorkItem> queue;          // ring storage, never reallocated
    std::size_t head = 0;                 // oldest queued item
    std::size_t depth = 0;                // queued items
    bool paused = false;
    bool stopping = false;
    bool busy = false;  // worker is scoring a popped item
    ShardStats counts;  // every field but queue_depth, which stats() reads from `depth`

    mutable std::mutex exec_mutex;
    std::thread worker;
  };

  struct EnqueueOutcome {
    std::size_t accepted = 0;
    bool evicted = false;  // any kDropOldest eviction happened
  };

  Session* find_session(const std::string& device_id) const;
  /// Every session, sorted by device id: the one order snapshot(), stats()
  /// and drain_events() report in. Holds sessions_mutex_ only to copy.
  std::vector<Session*> sorted_sessions() const;
  void worker_loop(Shard& shard);

  /// Moves items[0..n) into the shard queue under the fleet's backpressure
  /// policy, in one critical section (a kBlock wait releases the mutex
  /// until a slot frees). Accepts fewer than n only under kReject (queue
  /// full) or when shutdown races a kBlock wait.
  EnqueueOutcome enqueue_work(Shard& shard, WorkItem* items, std::size_t n);

  FleetOptions options_;
  std::vector<std::unique_ptr<Shard>> shards_;

  mutable std::mutex sessions_mutex_;  // guards the map itself
  std::unordered_map<std::string, std::unique_ptr<Session>> sessions_;

  /// Incremental-snapshot dirty baseline: traces_ingested per device at the
  /// last cut (missing entry = never snapshotted = dirty) plus explicit marks
  /// for mutations pushes don't cover (acknowledge_alarm, drain_events).
  /// Guarded by its own mutex — markers run on user threads while workers
  /// score.
  mutable std::mutex snapshot_marks_mutex_;
  std::unordered_map<std::string, std::uint64_t> snapshot_marks_;
  std::unordered_set<std::string> snapshot_force_dirty_;
};

}  // namespace emts::fleet
