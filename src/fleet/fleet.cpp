#include "fleet/fleet.hpp"

#include <algorithm>
#include <cmath>

#include "util/assert.hpp"

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

namespace emts::fleet {

const char* backpressure_label(BackpressurePolicy policy) {
  switch (policy) {
    case BackpressurePolicy::kBlock:
      return "BLOCK";
    case BackpressurePolicy::kDropOldest:
      return "DROP_OLDEST";
    case BackpressurePolicy::kReject:
      return "REJECT";
  }
  return "?";
}

std::uint64_t device_hash(const std::string& device_id) {
  // FNV-1a, 64-bit: a published algorithm, so the same manifest lands on the
  // same shards on every platform and toolchain (std::hash<std::string> is
  // implementation-defined). Ids are a few bytes, so its byte-serial speed
  // does not matter; the bulk payload checksums use util::xxh64 instead.
  std::uint64_t hash = 14695981039346656037ull;  // offset basis
  for (const char c : device_id) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ull;  // FNV prime
  }
  return hash;
}

namespace {

void pin_to_core(std::size_t shard_index) {
#if defined(__linux__)
  unsigned cores = std::thread::hardware_concurrency();
  if (cores == 0) cores = 1;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(static_cast<int>(shard_index % cores), &set);
  // Best effort: a restricted affinity mask (cgroups, taskset) can make the
  // chosen core invalid — the worker just keeps the inherited affinity.
  (void)pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
#else
  (void)shard_index;
#endif
}

}  // namespace

FleetMonitor::FleetMonitor(const FleetOptions& options) : options_{options} {
  EMTS_REQUIRE(options_.shards >= 1, "fleet needs at least one shard");
  EMTS_REQUIRE(options_.queue_capacity >= 1, "shard queue capacity must be >= 1");
  shards_.reserve(options_.shards);
  for (std::size_t i = 0; i < options_.shards; ++i) {
    shards_.push_back(std::make_unique<Shard>(i, options_.queue_capacity));
  }
  // Sessions may be added (and submits arrive) as soon as the constructor
  // returns, so the workers start only after every Shard exists.
  for (auto& shard : shards_) {
    Shard* raw = shard.get();
    raw->worker = std::thread([this, raw] { worker_loop(*raw); });
  }
}

FleetMonitor::~FleetMonitor() {
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    shard->stopping = true;
    shard->work_ready.notify_all();
    shard->space_ready.notify_all();
  }
  for (auto& shard : shards_) {
    if (shard->worker.joinable()) shard->worker.join();
  }
}

std::size_t FleetMonitor::shard_of(const std::string& device_id) const {
  return static_cast<std::size_t>(device_hash(device_id) %
                                  static_cast<std::uint64_t>(shards_.size()));
}

void FleetMonitor::add_device(const std::string& device_id, core::TrustEvaluator evaluator) {
  add_device(device_id, std::move(evaluator), options_.monitor);
}

void FleetMonitor::add_device(const std::string& device_id, core::TrustEvaluator evaluator,
                              const core::RuntimeMonitor::Options& monitor_options) {
  EMTS_REQUIRE(!device_id.empty(), "device id must be non-empty");
  const double sample_rate = evaluator.sample_rate();
  const std::size_t shard = shard_of(device_id);
  auto session = std::make_unique<Session>(
      device_id, shard,
      core::RuntimeMonitor{sample_rate, std::move(evaluator), monitor_options});
  std::lock_guard<std::mutex> lock(sessions_mutex_);
  EMTS_REQUIRE(sessions_.find(device_id) == sessions_.end(),
               "duplicate device '" + device_id + "'");
  sessions_.emplace(device_id, std::move(session));
}

bool FleetMonitor::has_device(const std::string& device_id) const {
  std::lock_guard<std::mutex> lock(sessions_mutex_);
  return sessions_.find(device_id) != sessions_.end();
}

std::size_t FleetMonitor::device_count() const {
  std::lock_guard<std::mutex> lock(sessions_mutex_);
  return sessions_.size();
}

std::vector<std::string> FleetMonitor::device_ids() const {
  std::vector<std::string> ids;
  {
    std::lock_guard<std::mutex> lock(sessions_mutex_);
    ids.reserve(sessions_.size());
    for (const auto& [id, session] : sessions_) ids.push_back(id);
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

FleetMonitor::Session* FleetMonitor::find_session(const std::string& device_id) const {
  std::lock_guard<std::mutex> lock(sessions_mutex_);
  const auto it = sessions_.find(device_id);
  return it == sessions_.end() ? nullptr : it->second.get();
}

std::vector<FleetMonitor::Session*> FleetMonitor::sorted_sessions() const {
  std::vector<Session*> sessions;
  {
    std::lock_guard<std::mutex> lock(sessions_mutex_);
    sessions.reserve(sessions_.size());
    for (const auto& [id, session] : sessions_) sessions.push_back(session.get());
  }
  std::sort(sessions.begin(), sessions.end(),
            [](const Session* a, const Session* b) { return a->device_id < b->device_id; });
  return sessions;
}

FleetMonitor::EnqueueOutcome FleetMonitor::enqueue_work(Shard& shard, WorkItem* items,
                                                        std::size_t n) {
  EnqueueOutcome out;
  bool counted_block = false;
  std::unique_lock<std::mutex> lock(shard.mutex);
  for (; out.accepted < n; ++out.accepted) {
    if (shard.depth == shard.queue.size()) {
      if (options_.backpressure == BackpressurePolicy::kReject) break;
      if (options_.backpressure == BackpressurePolicy::kDropOldest) {
        shard.pop();
        ++shard.counts.dropped_oldest;
        out.evicted = true;
      } else {
        if (!counted_block) {
          // One wait episode per call: one per blocked submit(), one per
          // shard group of a submit_frames() batch that had to wait.
          ++shard.counts.blocked;
          counted_block = true;
        }
        // The items this call already queued may be all that can free a
        // slot, so the worker must be awake before we wait on it.
        shard.work_ready.notify_one();
        shard.space_ready.wait(
            lock, [&] { return shard.stopping || shard.depth < shard.queue.size(); });
        // Shutdown raced the wait; refuse rather than enqueue into a
        // draining fleet.
        if (shard.stopping) break;
      }
    }
    shard.push(std::move(items[out.accepted]));
  }
  shard.counts.submitted += out.accepted;
  shard.counts.rejected_full += n - out.accepted;
  shard.work_ready.notify_one();
  return out;
}

SubmitResult FleetMonitor::submit(const std::string& device_id, core::Trace trace) {
  EMTS_REQUIRE(!trace.empty(), "cannot submit an empty trace");
  Session* session = find_session(device_id);
  EMTS_REQUIRE(session != nullptr, "unknown device '" + device_id + "'");
  // Sessions are never removed, so `session` stays valid after the lookup
  // lock drops; its shard assignment is immutable.
  WorkItem item{session, std::move(trace)};
  const EnqueueOutcome out = enqueue_work(*shards_[session->shard], &item, 1);
  if (out.accepted == 0) return SubmitResult::kRejected;
  return out.evicted ? SubmitResult::kReplacedOldest : SubmitResult::kAccepted;
}

FrameBatchOutcome FleetMonitor::submit_frames(std::vector<io::wire::TraceFrame>&& frames) {
  FrameBatchOutcome out;
  if (frames.empty()) return out;

  // Vet every frame up front, grouping the valid ones by shard in arrival
  // order — one device's frames land in one group, still in order, so
  // queueing each group in order preserves per-device FIFO.
  std::vector<std::vector<WorkItem>> groups(shards_.size());
  for (io::wire::TraceFrame& frame : frames) {
    Session* session = find_session(frame.device_id);
    if (session == nullptr || frame.trace.empty()) {
      ++out.rejected_invalid;
      continue;
    }
    const double expected = session->monitor.sample_rate();
    // Written so that a NaN rate fails: every comparison with NaN is false.
    if (!(std::abs(frame.sample_rate - expected) <= 1e-6 * expected)) {
      ++out.rejected_invalid;
      continue;
    }
    groups[session->shard].push_back(WorkItem{session, std::move(frame.trace)});
  }
  frames.clear();

  for (std::size_t s = 0; s < groups.size(); ++s) {
    std::vector<WorkItem>& items = groups[s];
    if (items.empty()) continue;
    const EnqueueOutcome enq = enqueue_work(*shards_[s], items.data(), items.size());
    out.accepted += enq.accepted;
    out.rejected_backpressure += items.size() - enq.accepted;
  }
  return out;
}

io::FleetSnapshot FleetMonitor::snapshot(SnapshotMode mode) {
  // Score everything already queued, then quiesce: the cut lands on a
  // whole-capture boundary for every device. Captures submitted after the
  // flush keep queueing (backpressure applies) and are simply on the far
  // side of the cut.
  flush();
  pause();

  io::FleetSnapshot out;
  out.shards = static_cast<std::uint32_t>(shards_.size());
  out.queue_capacity = static_cast<std::uint32_t>(options_.queue_capacity);
  out.backpressure = static_cast<std::uint8_t>(options_.backpressure);

  const std::vector<Session*> sessions = sorted_sessions();

  // The workers are quiesced, so per-session traces_ingested is stable for
  // the whole cut; the marks mutex only orders us against concurrent
  // acknowledge_alarm/drain_events markers.
  std::lock_guard<std::mutex> marks(snapshot_marks_mutex_);

  out.devices.reserve(sessions.size());
  for (const Session* session : sessions) {
    std::lock_guard<std::mutex> exec(shards_[session->shard]->exec_mutex);
    const std::uint64_t ingested = session->monitor.stats().traces_ingested;
    if (mode == SnapshotMode::kIncremental) {
      const auto mark = snapshot_marks_.find(session->device_id);
      const bool clean = mark != snapshot_marks_.end() && mark->second == ingested &&
                         snapshot_force_dirty_.count(session->device_id) == 0;
      if (clean) {
        io::FleetSnapshot::Device placeholder;
        placeholder.device_id = session->device_id;
        placeholder.dirty = false;
        out.devices.push_back(std::move(placeholder));
        continue;
      }
    }
    out.devices.push_back(io::FleetSnapshot::Device{
        session->device_id, session->monitor.evaluator(), session->monitor.export_state()});
    snapshot_marks_[session->device_id] = ingested;
  }
  snapshot_force_dirty_.clear();
  resume();
  return out;
}

void FleetMonitor::restore(const io::FleetSnapshot& snapshot) {
  // Build and restore every session before registering any, so a refused
  // image leaves the fleet untouched. Sessions nobody can see yet need no
  // exec_mutex.
  std::unordered_map<std::string, std::unique_ptr<Session>> restored;
  for (const io::FleetSnapshot::Device& device : snapshot.devices) {
    EMTS_REQUIRE(device.dirty && device.evaluator.has_value(),
                 "fleet restore: device '" + device.device_id +
                     "' is a clean placeholder — materialize it through the cache-aware"
                     " save first");
    EMTS_REQUIRE(!device.device_id.empty(), "device id must be non-empty");
    const core::MonitorStateImage& image = device.monitor;
    // Per-session options come from the image's mirrors — restore_state()
    // refuses a mismatch, so defaults on this fleet can never silently
    // change a restored stream's debounce, window or rebuild cadence.
    core::RuntimeMonitor::Options monitor_options = options_.monitor;
    monitor_options.alarm_debounce = static_cast<std::size_t>(image.alarm_debounce);
    monitor_options.spectral_window = static_cast<std::size_t>(image.spectral_window);
    monitor_options.event_log_capacity = static_cast<std::size_t>(image.event_log_capacity);
    monitor_options.spectral_rebuild_every =
        static_cast<std::size_t>(image.spectral_rebuild_every);
    auto session = std::make_unique<Session>(
        device.device_id, shard_of(device.device_id),
        core::RuntimeMonitor{device.evaluator->sample_rate(), *device.evaluator,
                             monitor_options});
    session->monitor.restore_state(image);
    EMTS_REQUIRE(restored.emplace(device.device_id, std::move(session)).second,
                 "duplicate device '" + device.device_id + "'");
  }
  std::lock_guard<std::mutex> lock(sessions_mutex_);
  EMTS_REQUIRE(sessions_.empty(), "fleet restore requires a fleet with no devices");
  sessions_ = std::move(restored);
}

void FleetMonitor::worker_loop(Shard& shard) {
  if (options_.pin_workers) pin_to_core(shard.index);
  std::unique_lock<std::mutex> lock(shard.mutex);
  for (;;) {
    // A stopping shard drains even while paused (the destructor's
    // drain-then-stop semantics must not hang on a paused fleet).
    shard.work_ready.wait(
        lock, [&] { return shard.stopping || (!shard.paused && shard.depth > 0); });
    if (shard.depth == 0) return;

    // Score outside the shard mutex (producers keep queueing) but under the
    // shard's exec lock (snapshot readers never observe a half-updated
    // monitor). push() cannot throw here — empty traces are refused at
    // submit() and malformed traces are rejected by the monitor's input
    // gate — but a worker must outlive any detector bug, so swallow and
    // count.
    bool fault = false;
    {
      const WorkItem item = shard.pop();
      // Claimed under the mutex: pause() sets `paused` under it and then
      // waits on !busy, so it never sees an idle worker that still scores.
      shard.busy = true;
      shard.space_ready.notify_one();
      lock.unlock();
      std::lock_guard<std::mutex> exec(shard.exec_mutex);
      try {
        item.session->monitor.push(item.trace);
      } catch (const std::exception&) {
        fault = true;
      }
    }
    lock.lock();
    ++shard.counts.processed;
    if (fault) ++shard.counts.worker_faults;
    shard.busy = false;
    shard.idle.notify_all();
  }
}

void FleetMonitor::pause() {
  for (auto& shard : shards_) {
    std::unique_lock<std::mutex> lock(shard->mutex);
    shard->paused = true;
    shard->idle.wait(lock, [&] { return !shard->busy; });
  }
}

void FleetMonitor::resume() {
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    shard->paused = false;
    shard->work_ready.notify_all();
  }
}

void FleetMonitor::flush() {
  for (auto& shard : shards_) {
    std::unique_lock<std::mutex> lock(shard->mutex);
    shard->idle.wait(lock, [&] { return shard->depth == 0 && !shard->busy; });
  }
}

core::MonitorState FleetMonitor::device_state(const std::string& device_id) const {
  const Session* session = find_session(device_id);
  EMTS_REQUIRE(session != nullptr, "unknown device '" + device_id + "'");
  std::lock_guard<std::mutex> exec(shards_[session->shard]->exec_mutex);
  return session->monitor.state();
}

void FleetMonitor::acknowledge_alarm(const std::string& device_id) {
  Session* session = find_session(device_id);
  EMTS_REQUIRE(session != nullptr, "unknown device '" + device_id + "'");
  {
    std::lock_guard<std::mutex> exec(shards_[session->shard]->exec_mutex);
    session->monitor.acknowledge_alarm();
  }
  // Mutates session state without moving traces_ingested — the incremental
  // dirty key can't see it, so mark explicitly.
  std::lock_guard<std::mutex> marks(snapshot_marks_mutex_);
  snapshot_force_dirty_.insert(device_id);
}

FleetStats FleetMonitor::stats() const {
  FleetStats out;
  out.shards.reserve(shards_.size());
  for (const auto& shard : shards_) {
    ShardStats snapshot;
    {
      std::lock_guard<std::mutex> lock(shard->mutex);
      snapshot = shard->counts;
      snapshot.queue_depth = shard->depth;
    }
    out.traces_submitted += snapshot.submitted;
    out.traces_processed += snapshot.processed;
    out.backpressure_dropped += snapshot.dropped_oldest;
    out.backpressure_rejected += snapshot.rejected_full;
    out.shards.push_back(snapshot);
  }

  const std::vector<Session*> sessions = sorted_sessions();

  out.devices = sessions.size();
  out.sessions.reserve(sessions.size());
  for (const Session* session : sessions) {
    std::lock_guard<std::mutex> exec(shards_[session->shard]->exec_mutex);
    SessionStats snapshot;
    snapshot.device_id = session->device_id;
    snapshot.shard = session->shard;
    snapshot.state = session->monitor.state();
    snapshot.last_score = session->monitor.last_score();
    snapshot.monitor = session->monitor.stats();
    switch (snapshot.state) {
      case core::MonitorState::kMonitoring:
        ++out.devices_monitoring;
        break;
      case core::MonitorState::kAlarm:
        ++out.devices_alarm;
        break;
    }
    out.alarms_latched += snapshot.monitor.alarms_latched;
    out.traces_rejected_invalid += snapshot.monitor.traces_rejected;
    out.sessions.push_back(std::move(snapshot));
  }
  return out;
}

std::size_t FleetMonitor::drain_events(std::vector<FleetEvent>& out) {
  const std::vector<Session*> sessions = sorted_sessions();

  std::size_t drained = 0;
  std::vector<core::MonitorEvent> scratch;
  for (Session* session : sessions) {
    scratch.clear();
    {
      std::lock_guard<std::mutex> exec(shards_[session->shard]->exec_mutex);
      session->monitor.drain_events(scratch);
    }
    if (!scratch.empty()) {
      // Emptied the session's event log: state moved without a push, so the
      // incremental dirty key must be forced.
      std::lock_guard<std::mutex> marks(snapshot_marks_mutex_);
      snapshot_force_dirty_.insert(session->device_id);
    }
    drained += scratch.size();
    for (core::MonitorEvent& event : scratch) {
      out.push_back(FleetEvent{session->device_id, event});
    }
  }
  return drained;
}

std::vector<FleetEvent> FleetMonitor::drain_events() {
  std::vector<FleetEvent> out;
  drain_events(out);
  return out;
}

}  // namespace emts::fleet
