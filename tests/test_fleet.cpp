#include "fleet/fleet.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "core/evaluator.hpp"
#include "core/monitor.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace emts::fleet {
namespace {

constexpr double kFs = 384e6;
constexpr std::size_t kLen = 2048;

core::Trace golden_trace(emts::Rng& rng) {
  core::Trace t(kLen);
  for (std::size_t i = 0; i < kLen; ++i) {
    t[i] = std::sin(2.0 * units::pi * 48e6 * static_cast<double>(i) / kFs) +
           rng.gaussian(0.0, 0.08);
  }
  return t;
}

core::Trace infected_trace(emts::Rng& rng) {
  core::Trace t = golden_trace(rng);
  for (std::size_t i = 0; i < kLen; ++i) {
    t[i] += 0.6 * std::sin(2.0 * units::pi * 72e6 * static_cast<double>(i) / kFs) +
            0.3 * std::sin(2.0 * units::pi * 3e6 * static_cast<double>(i) / kFs);
  }
  return t;
}

core::TraceSet make_set(std::size_t n, bool infected, std::uint64_t seed) {
  emts::Rng rng{seed};
  core::TraceSet set;
  set.sample_rate = kFs;
  for (std::size_t i = 0; i < n; ++i) {
    set.add(infected ? infected_trace(rng) : golden_trace(rng));
  }
  return set;
}

// One EMWF frame per trace, as a daemon's decoder hands them to
// submit_frames().
std::vector<io::wire::TraceFrame> frames_of(const std::string& device_id,
                                            const core::TraceSet& set) {
  std::vector<io::wire::TraceFrame> frames;
  for (const core::Trace& trace : set.traces) {
    io::wire::TraceFrame frame;
    frame.device_id = device_id;
    frame.sample_rate = set.sample_rate;
    frame.trace = trace;
    frames.push_back(std::move(frame));
  }
  return frames;
}

// One shared calibration for the whole suite — the fleet deployment shape
// (calibrate once, monitor many) and much cheaper than refitting per test.
const core::TrustEvaluator& fitted() {
  static const core::TrustEvaluator evaluator =
      core::TrustEvaluator::calibrate(make_set(30, false, 1));
  return evaluator;
}

core::RuntimeMonitor::Options small_options() {
  core::RuntimeMonitor::Options opt;
  opt.alarm_debounce = 3;
  opt.spectral_window = 8;
  return opt;
}

// ---------- routing ----------

TEST(DeviceHash, MatchesKnownFnv1aVectors) {
  EXPECT_EQ(device_hash(""), 14695981039346656037ull);
  EXPECT_EQ(device_hash("a"), 0xaf63dc4c8601ec8cull);  // published FNV-1a("a")
  EXPECT_EQ(device_hash("chip-00"), device_hash("chip-00"));
  EXPECT_NE(device_hash("chip-00"), device_hash("chip-01"));
}

TEST(FleetMonitor, ShardRoutingIsHashModuloShards) {
  FleetOptions opt;
  opt.shards = 4;
  FleetMonitor fleet{opt};
  EXPECT_EQ(fleet.shard_count(), 4u);
  for (const char* id : {"chip-00", "chip-07", "sensor/ne", "x"}) {
    EXPECT_EQ(fleet.shard_of(id), device_hash(id) % 4u);
  }
}

TEST(FleetMonitor, DeviceRegistry) {
  FleetOptions opt;
  opt.shards = 2;
  FleetMonitor fleet{opt};
  fleet.add_device("chip-01", fitted());
  fleet.add_device("chip-00", fitted());
  EXPECT_TRUE(fleet.has_device("chip-00"));
  EXPECT_FALSE(fleet.has_device("chip-99"));
  EXPECT_EQ(fleet.device_count(), 2u);
  const std::vector<std::string> ids = fleet.device_ids();
  ASSERT_EQ(ids.size(), 2u);
  EXPECT_EQ(ids[0], "chip-00");  // sorted, not insertion order
  EXPECT_EQ(ids[1], "chip-01");
}

TEST(BackpressureLabels, AreDistinct) {
  EXPECT_STREQ(backpressure_label(BackpressurePolicy::kBlock), "BLOCK");
  EXPECT_STREQ(backpressure_label(BackpressurePolicy::kDropOldest), "DROP_OLDEST");
  EXPECT_STREQ(backpressure_label(BackpressurePolicy::kReject), "REJECT");
}

// ---------- the acceptance criterion: fleet == standalone, bit for bit ----

TEST(FleetMonitor, PerDeviceResultsMatchStandaloneBitIdentically) {
  const core::RuntimeMonitor::Options mon = small_options();
  FleetOptions opt;
  opt.shards = 4;
  opt.queue_capacity = 8;
  opt.monitor = mon;
  FleetMonitor fleet{opt};

  const std::vector<std::string> ids = {"chip-00", "chip-01", "chip-02", "chip-03",
                                        "chip-04"};
  std::vector<core::RuntimeMonitor> standalone;
  standalone.reserve(ids.size());
  for (const std::string& id : ids) {
    fleet.add_device(id, core::TrustEvaluator{fitted()});
    standalone.emplace_back(kFs, core::TrustEvaluator{fitted()}, mon);
  }

  // Unique stream per device; the last device turns infected halfway.
  constexpr std::size_t kPerDevice = 24;
  std::vector<std::vector<core::Trace>> streams(ids.size());
  for (std::size_t d = 0; d < ids.size(); ++d) {
    emts::Rng rng{100 + d};
    for (std::size_t t = 0; t < kPerDevice; ++t) {
      const bool infected = d == ids.size() - 1 && t >= kPerDevice / 2;
      streams[d].push_back(infected ? infected_trace(rng) : golden_trace(rng));
    }
  }

  // Interleave submissions round-robin across devices — the fleet must
  // untangle them back into per-device order.
  for (std::size_t t = 0; t < kPerDevice; ++t) {
    for (std::size_t d = 0; d < ids.size(); ++d) {
      EXPECT_EQ(fleet.submit(ids[d], core::Trace{streams[d][t]}), SubmitResult::kAccepted);
    }
  }
  fleet.flush();

  for (std::size_t d = 0; d < ids.size(); ++d) {
    for (const core::Trace& trace : streams[d]) standalone[d].push(trace);
  }

  const FleetStats stats = fleet.stats();
  ASSERT_EQ(stats.sessions.size(), ids.size());
  EXPECT_EQ(stats.traces_submitted, kPerDevice * ids.size());
  EXPECT_EQ(stats.traces_processed, kPerDevice * ids.size());
  EXPECT_EQ(stats.devices, ids.size());
  EXPECT_EQ(stats.devices_alarm, 1u);
  EXPECT_EQ(stats.devices_monitoring, ids.size() - 1);

  for (std::size_t d = 0; d < ids.size(); ++d) {
    const SessionStats& session = stats.sessions[d];  // sorted == ids order here
    ASSERT_EQ(session.device_id, ids[d]);
    EXPECT_EQ(session.shard, fleet.shard_of(ids[d]));
    EXPECT_EQ(session.state, standalone[d].state());

    // Exact EQ on purpose: the fleet routes the same doubles through the
    // same monitor code on one thread per device, so scores must be
    // bit-identical, not approximately equal.
    ASSERT_EQ(session.last_score.has_value(), standalone[d].last_score().has_value());
    if (session.last_score.has_value()) {
      EXPECT_EQ(*session.last_score, *standalone[d].last_score());
    }

    const core::MonitorStats& expect = standalone[d].stats();
    EXPECT_EQ(session.monitor.traces_ingested, expect.traces_ingested);
    EXPECT_EQ(session.monitor.traces_rejected, expect.traces_rejected);
    EXPECT_EQ(session.monitor.scored_captures, expect.scored_captures);
    EXPECT_EQ(session.monitor.per_trace_anomalies, expect.per_trace_anomalies);
    EXPECT_EQ(session.monitor.spectral_passes, expect.spectral_passes);
    EXPECT_EQ(session.monitor.windowed_anomalies, expect.windowed_anomalies);
    EXPECT_EQ(session.monitor.alarms_latched, expect.alarms_latched);
  }

  // Event streams match too: same kinds, same trace indices, same payloads.
  std::vector<FleetEvent> fleet_events = fleet.drain_events();
  for (std::size_t d = 0; d < ids.size(); ++d) {
    std::vector<core::MonitorEvent> expect = standalone[d].drain_events();
    std::vector<core::MonitorEvent> got;
    for (const FleetEvent& event : fleet_events) {
      if (event.device_id == ids[d]) got.push_back(event.event);
    }
    ASSERT_EQ(got.size(), expect.size()) << ids[d];
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].kind, expect[i].kind);
      EXPECT_EQ(got[i].trace_index, expect[i].trace_index);
      EXPECT_EQ(got[i].value, expect[i].value);
    }
  }
}

// ---------- backpressure (deterministic via pause()) ----------

TEST(FleetMonitor, RejectPolicyRefusesWhenSaturated) {
  // Capacity is exact whether or not it is a power of two.
  for (const std::size_t capacity : {std::size_t{3}, std::size_t{4}}) {
    SCOPED_TRACE(capacity);
    FleetOptions opt;
    opt.shards = 1;
    opt.queue_capacity = capacity;
    opt.backpressure = BackpressurePolicy::kReject;
    opt.monitor = small_options();
    FleetMonitor fleet{opt};
    fleet.add_device("dev", core::TrustEvaluator{fitted()});

    emts::Rng rng{7};
    std::vector<core::Trace> traces;
    for (std::size_t i = 0; i < 7; ++i) traces.push_back(golden_trace(rng));

    fleet.pause();
    for (std::size_t i = 0; i < capacity; ++i) {
      EXPECT_EQ(fleet.submit("dev", core::Trace{traces[i]}), SubmitResult::kAccepted);
    }
    for (std::size_t i = capacity; i < 7; ++i) {
      EXPECT_EQ(fleet.submit("dev", core::Trace{traces[i]}), SubmitResult::kRejected);
    }

    const FleetStats saturated = fleet.stats();
    EXPECT_EQ(saturated.shards[0].queue_depth, capacity);
    EXPECT_EQ(saturated.shards[0].queue_high_water, capacity);
    EXPECT_EQ(saturated.shards[0].submitted, capacity);
    EXPECT_EQ(saturated.shards[0].rejected_full, 7 - capacity);
    EXPECT_EQ(saturated.backpressure_rejected, 7 - capacity);

    fleet.resume();
    fleet.flush();
    const FleetStats drained = fleet.stats();
    EXPECT_EQ(drained.traces_processed, capacity);
    EXPECT_EQ(drained.shards[0].queue_depth, 0u);
    EXPECT_EQ(drained.sessions[0].monitor.traces_ingested, capacity);
  }
}

TEST(FleetMonitor, DropOldestPolicyEvictsButStaysBounded) {
  FleetOptions opt;
  opt.shards = 1;
  opt.queue_capacity = 4;
  opt.backpressure = BackpressurePolicy::kDropOldest;
  opt.monitor = small_options();
  FleetMonitor fleet{opt};
  fleet.add_device("dev", core::TrustEvaluator{fitted()});

  emts::Rng rng{8};
  fleet.pause();
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(fleet.submit("dev", golden_trace(rng)), SubmitResult::kAccepted);
  }
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(fleet.submit("dev", golden_trace(rng)), SubmitResult::kReplacedOldest);
  }

  const FleetStats saturated = fleet.stats();
  EXPECT_EQ(saturated.shards[0].queue_depth, 4u);  // bounded despite 7 submits
  EXPECT_EQ(saturated.shards[0].submitted, 7u);
  EXPECT_EQ(saturated.shards[0].dropped_oldest, 3u);
  EXPECT_EQ(saturated.backpressure_dropped, 3u);

  fleet.resume();
  fleet.flush();
  const FleetStats drained = fleet.stats();
  EXPECT_EQ(drained.traces_processed, 4u);  // only the survivors were scored
  EXPECT_EQ(drained.sessions[0].monitor.traces_ingested, 4u);
}

TEST(FleetMonitor, BlockPolicyAppliesFlowControl) {
  FleetOptions opt;
  opt.shards = 1;
  opt.queue_capacity = 2;
  opt.backpressure = BackpressurePolicy::kBlock;
  opt.monitor = small_options();
  FleetMonitor fleet{opt};
  fleet.add_device("dev", core::TrustEvaluator{fitted()});

  emts::Rng rng{9};
  fleet.pause();
  EXPECT_EQ(fleet.submit("dev", golden_trace(rng)), SubmitResult::kAccepted);
  EXPECT_EQ(fleet.submit("dev", golden_trace(rng)), SubmitResult::kAccepted);

  std::atomic<int> result{-1};
  std::thread producer([&] {
    result.store(static_cast<int>(fleet.submit("dev", golden_trace(rng))),
                 std::memory_order_release);
  });
  // The producer found the queue full and is parked; `blocked` flips exactly
  // when it commits to waiting.
  while (fleet.stats().shards[0].blocked == 0) std::this_thread::yield();
  EXPECT_EQ(result.load(std::memory_order_acquire), -1);

  fleet.resume();
  producer.join();
  EXPECT_EQ(result.load(), static_cast<int>(SubmitResult::kAccepted));

  fleet.flush();
  const FleetStats stats = fleet.stats();
  EXPECT_EQ(stats.traces_processed, 3u);
  EXPECT_EQ(stats.shards[0].blocked, 1u);
  EXPECT_EQ(stats.backpressure_dropped, 0u);
  EXPECT_EQ(stats.backpressure_rejected, 0u);
}

// ---------- fault injection ----------

TEST(FleetMonitor, MalformedCapturesAreRejectedAndDeviceTagged) {
  FleetOptions opt;
  opt.shards = 2;
  opt.monitor = small_options();
  FleetMonitor fleet{opt};
  fleet.add_device("good", core::TrustEvaluator{fitted()});
  fleet.add_device("bad", core::TrustEvaluator{fitted()});

  emts::Rng rng{11};
  for (std::size_t i = 0; i < 4; ++i) fleet.submit("good", golden_trace(rng));

  fleet.submit("bad", golden_trace(rng));  // pins the stream shape
  core::Trace truncated(kLen / 2, 0.25);
  fleet.submit("bad", std::move(truncated));
  core::Trace poisoned = golden_trace(rng);
  poisoned[5] = std::numeric_limits<double>::quiet_NaN();
  fleet.submit("bad", std::move(poisoned));
  fleet.flush();

  const FleetStats stats = fleet.stats();
  EXPECT_EQ(stats.traces_rejected_invalid, 2u);
  ASSERT_EQ(stats.sessions.size(), 2u);
  const SessionStats& bad = stats.sessions[0];   // "bad" < "good"
  const SessionStats& good = stats.sessions[1];
  ASSERT_EQ(bad.device_id, "bad");
  EXPECT_EQ(bad.monitor.traces_ingested, 3u);
  EXPECT_EQ(bad.monitor.traces_rejected, 2u);
  EXPECT_EQ(bad.monitor.scored_captures, 1u);
  EXPECT_EQ(good.monitor.traces_rejected, 0u);
  EXPECT_EQ(good.monitor.scored_captures, 4u);

  bool saw_shape = false;
  bool saw_non_finite = false;
  for (const FleetEvent& event : fleet.drain_events()) {
    if (event.event.kind == core::MonitorEventKind::kTraceRejectedShape) {
      EXPECT_EQ(event.device_id, "bad");
      EXPECT_EQ(event.event.value, static_cast<double>(kLen / 2));
      saw_shape = true;
    }
    if (event.event.kind == core::MonitorEventKind::kTraceRejectedNonFinite) {
      EXPECT_EQ(event.device_id, "bad");
      EXPECT_EQ(event.event.value, 5.0);
      saw_non_finite = true;
    }
  }
  EXPECT_TRUE(saw_shape);
  EXPECT_TRUE(saw_non_finite);
}

// ---------- alarm lifecycle ----------

TEST(FleetMonitor, AcknowledgeAlarmRearmsOneDevice) {
  FleetOptions opt;
  opt.shards = 1;
  opt.monitor = small_options();
  FleetMonitor fleet{opt};
  fleet.add_device("dev", core::TrustEvaluator{fitted()});

  emts::Rng rng{12};
  for (std::size_t i = 0; i < 8; ++i) fleet.submit("dev", infected_trace(rng));
  fleet.flush();
  EXPECT_EQ(fleet.device_state("dev"), core::MonitorState::kAlarm);
  EXPECT_EQ(fleet.stats().devices_alarm, 1u);

  fleet.acknowledge_alarm("dev");
  EXPECT_EQ(fleet.device_state("dev"), core::MonitorState::kMonitoring);
  EXPECT_EQ(fleet.stats().devices_alarm, 0u);
  EXPECT_THROW(fleet.acknowledge_alarm("dev"), emts::precondition_error);
}

// ---------- preconditions ----------

TEST(FleetMonitor, PreconditionsThrow) {
  {
    FleetOptions opt;
    opt.shards = 0;
    EXPECT_THROW(FleetMonitor{opt}, emts::precondition_error);
  }
  {
    FleetOptions opt;
    opt.queue_capacity = 0;
    EXPECT_THROW(FleetMonitor{opt}, emts::precondition_error);
  }

  FleetMonitor fleet{FleetOptions{}};
  EXPECT_THROW(fleet.add_device("", core::TrustEvaluator{fitted()}),
               emts::precondition_error);
  fleet.add_device("dev", core::TrustEvaluator{fitted()});
  EXPECT_THROW(fleet.add_device("dev", core::TrustEvaluator{fitted()}),
               emts::precondition_error);

  emts::Rng rng{13};
  EXPECT_THROW(fleet.submit("ghost", golden_trace(rng)), emts::precondition_error);
  EXPECT_THROW(fleet.submit("dev", core::Trace{}), emts::precondition_error);
  EXPECT_THROW(fleet.device_state("ghost"), emts::precondition_error);
  EXPECT_THROW(fleet.acknowledge_alarm("ghost"), emts::precondition_error);
}

// ---------- concurrency (the TSan target) ----------

TEST(FleetMonitor, ConcurrentProducersAndObserversAreSafe) {
  constexpr std::size_t kProducers = 4;
  constexpr std::size_t kDevicesPerProducer = 2;
  constexpr std::size_t kTracesPerDevice = 20;

  FleetOptions opt;
  opt.shards = 4;
  opt.queue_capacity = 4;  // small on purpose: exercise the kBlock wait path
  opt.backpressure = BackpressurePolicy::kBlock;
  opt.monitor = small_options();
  FleetMonitor fleet{opt};

  std::vector<std::string> ids;
  for (std::size_t p = 0; p < kProducers; ++p) {
    for (std::size_t d = 0; d < kDevicesPerProducer; ++d) {
      ids.push_back("chip-" + std::to_string(p) + "-" + std::to_string(d));
      fleet.add_device(ids.back(), core::TrustEvaluator{fitted()});
    }
  }

  std::atomic<bool> done{false};
  std::thread observer([&] {
    // Live observability must not perturb or race the hot path.
    std::vector<FleetEvent> sink;
    while (!done.load(std::memory_order_acquire)) {
      const FleetStats stats = fleet.stats();
      EXPECT_LE(stats.traces_processed, stats.traces_submitted);
      fleet.drain_events(sink);
      fleet.device_state(ids.front());
      std::this_thread::yield();
    }
  });

  std::vector<std::thread> producers;
  for (std::size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      // One producer per device group keeps per-device submission ordered.
      emts::Rng rng{200 + p};
      for (std::size_t t = 0; t < kTracesPerDevice; ++t) {
        for (std::size_t d = 0; d < kDevicesPerProducer; ++d) {
          fleet.submit(ids[p * kDevicesPerProducer + d], golden_trace(rng));
        }
      }
    });
  }
  for (std::thread& producer : producers) producer.join();
  fleet.flush();
  done.store(true, std::memory_order_release);
  observer.join();

  const FleetStats stats = fleet.stats();
  EXPECT_EQ(stats.traces_submitted, kProducers * kDevicesPerProducer * kTracesPerDevice);
  EXPECT_EQ(stats.traces_processed, stats.traces_submitted);
  ASSERT_EQ(stats.sessions.size(), ids.size());
  for (const SessionStats& session : stats.sessions) {
    EXPECT_EQ(session.monitor.traces_ingested, kTracesPerDevice);
    EXPECT_EQ(session.monitor.traces_rejected, 0u);
  }
  for (const ShardStats& shard : stats.shards) {
    EXPECT_EQ(shard.worker_faults, 0u);
    EXPECT_LE(shard.queue_high_water, opt.queue_capacity);
  }
}

// ---------- pause/resume/flush racing blocking producers (tsan target) ----

TEST(FleetMonitor, PauseResumeFlushRaceWithBlockingProducers) {
  // Control-plane operations (pause, resume, flush — the snapshot quiesce
  // machinery) race four kBlock producers hammering tiny queues. The
  // invariant: no trace is ever lost and the accounting stays exact, no
  // matter how the quiesce interleaves with blocked submitters.
  FleetOptions opt;
  opt.shards = 2;
  opt.queue_capacity = 4;  // small: producers block constantly
  opt.backpressure = BackpressurePolicy::kBlock;
  opt.monitor = small_options();
  FleetMonitor fleet{opt};
  constexpr std::size_t kProducers = 4;
  constexpr std::size_t kPerProducer = 48;
  for (std::size_t p = 0; p < kProducers; ++p) {
    fleet.add_device("chip-" + std::to_string(p), fitted());
  }

  std::atomic<bool> stop_control{false};
  std::thread control{[&] {
    while (!stop_control.load()) {
      fleet.pause();
      std::this_thread::yield();
      fleet.resume();
      // flush() only after resume: a paused worker never drains, and the
      // barrier would deadlock against our own blocked producers.
      fleet.flush();
    }
  }};

  std::vector<std::thread> producers;
  for (std::size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&fleet, p] {
      emts::Rng rng{100 + p};
      const std::string id = "chip-" + std::to_string(p);
      for (std::size_t i = 0; i < kPerProducer; ++i) {
        fleet.submit(id, golden_trace(rng));
      }
    });
  }
  for (std::thread& t : producers) t.join();
  stop_control = true;
  control.join();
  fleet.flush();

  const FleetStats stats = fleet.stats();
  EXPECT_EQ(stats.traces_submitted, kProducers * kPerProducer);
  EXPECT_EQ(stats.traces_processed, kProducers * kPerProducer);
  EXPECT_EQ(stats.backpressure_dropped, 0u);
  EXPECT_EQ(stats.backpressure_rejected, 0u);
  ASSERT_EQ(stats.sessions.size(), kProducers);
  for (const SessionStats& session : stats.sessions) {
    EXPECT_EQ(session.monitor.scored_captures, kPerProducer);
    EXPECT_EQ(session.monitor.traces_rejected, 0u);
  }
  std::uint64_t shard_processed = 0;
  for (const ShardStats& shard : stats.shards) shard_processed += shard.processed;
  EXPECT_EQ(shard_processed, kProducers * kPerProducer);
}

TEST(FleetMonitor, SnapshotRacesBlockingProducers) {
  // snapshot() = flush + pause + copy + resume while kBlock producers keep
  // submitting: every producer lands wholly before or after the cut, and the
  // fleet keeps running afterwards.
  FleetOptions opt;
  opt.shards = 2;
  opt.queue_capacity = 4;
  opt.backpressure = BackpressurePolicy::kBlock;
  opt.monitor = small_options();
  FleetMonitor fleet{opt};
  fleet.add_device("chip-0", fitted());
  fleet.add_device("chip-1", fitted());

  std::vector<std::thread> producers;
  for (std::size_t p = 0; p < 2; ++p) {
    producers.emplace_back([&fleet, p] {
      emts::Rng rng{200 + p};
      const std::string id = "chip-" + std::to_string(p);
      for (std::size_t i = 0; i < 32; ++i) fleet.submit(id, golden_trace(rng));
    });
  }
  std::vector<io::FleetSnapshot> cuts;
  for (int s = 0; s < 3; ++s) cuts.push_back(fleet.snapshot());
  for (std::thread& t : producers) t.join();
  fleet.flush();

  for (const io::FleetSnapshot& cut : cuts) {
    ASSERT_EQ(cut.devices.size(), 2u);
    // Each snapshot is a consistent cut: whatever it saw had been fully
    // scored (ingested == scored, nothing half-processed).
    for (const io::FleetSnapshot::Device& device : cut.devices) {
      EXPECT_EQ(device.monitor.stats.traces_ingested,
                device.monitor.stats.scored_captures);
      EXPECT_LE(device.monitor.stats.scored_captures, 32u);
    }
  }
  EXPECT_EQ(fleet.stats().traces_processed, 64u);
}

TEST(FleetMonitor, FlushOnIdleFleetReturnsImmediately) {
  FleetMonitor fleet{FleetOptions{}};
  fleet.flush();
  fleet.pause();
  fleet.resume();
  fleet.flush();
  EXPECT_EQ(fleet.stats().traces_submitted, 0u);
}

// ---------- bulk frame submission: bit-identical to per-trace ----------

// The exact-EQ guarantee extends to submit_frames under every backpressure
// policy: with capacity >= traffic no policy loses traces, and a shard
// group is queued in order in one critical section, so the
// batched fleet, the per-trace fleet, and a standalone monitor must all
// agree bit for bit.
TEST(FleetMonitor, SubmitFramesMatchesPerTraceSubmitExactly) {
  const core::RuntimeMonitor::Options mon = small_options();
  for (const BackpressurePolicy policy :
       {BackpressurePolicy::kBlock, BackpressurePolicy::kDropOldest,
        BackpressurePolicy::kReject}) {
    SCOPED_TRACE(backpressure_label(policy));
    FleetOptions opt;
    opt.shards = 2;
    opt.queue_capacity = 64;  // >= total traffic: every policy is lossless
    opt.backpressure = policy;
    opt.monitor = mon;
    FleetMonitor batched{opt};
    FleetMonitor per_trace{opt};

    const std::vector<std::string> ids = {"chip-00", "chip-01", "chip-02"};
    std::vector<core::RuntimeMonitor> standalone;
    standalone.reserve(ids.size());
    std::vector<core::TraceSet> streams;
    for (std::size_t d = 0; d < ids.size(); ++d) {
      batched.add_device(ids[d], core::TrustEvaluator{fitted()});
      per_trace.add_device(ids[d], core::TrustEvaluator{fitted()});
      standalone.emplace_back(kFs, core::TrustEvaluator{fitted()}, mon);
      // The last device turns infected so states/alarms diverge per device.
      streams.push_back(make_set(18, d == ids.size() - 1, 300 + d));
    }

    for (std::size_t d = 0; d < ids.size(); ++d) {
      const FrameBatchOutcome outcome = batched.submit_frames(frames_of(ids[d], streams[d]));
      EXPECT_EQ(outcome.accepted, streams[d].size());
      EXPECT_EQ(outcome.rejected_backpressure, 0u);
      for (const core::Trace& trace : streams[d].traces) {
        EXPECT_NE(per_trace.submit(ids[d], core::Trace{trace}),
                  SubmitResult::kRejected);
        standalone[d].push(trace);
      }
    }
    batched.flush();
    per_trace.flush();

    const FleetStats batched_stats = batched.stats();
    const FleetStats per_trace_stats = per_trace.stats();
    ASSERT_EQ(batched_stats.sessions.size(), ids.size());
    EXPECT_EQ(batched_stats.traces_submitted, per_trace_stats.traces_submitted);
    EXPECT_EQ(batched_stats.traces_processed, per_trace_stats.traces_processed);
    EXPECT_EQ(batched_stats.devices_alarm, per_trace_stats.devices_alarm);

    for (std::size_t d = 0; d < ids.size(); ++d) {
      const SessionStats& a = batched_stats.sessions[d];
      const SessionStats& b = per_trace_stats.sessions[d];
      ASSERT_EQ(a.device_id, ids[d]);
      EXPECT_EQ(a.state, b.state);
      EXPECT_EQ(a.state, standalone[d].state());
      ASSERT_EQ(a.last_score.has_value(), standalone[d].last_score().has_value());
      if (a.last_score.has_value()) {
        // Exact EQ on purpose — same doubles, same code, same order.
        EXPECT_EQ(*a.last_score, *b.last_score);
        EXPECT_EQ(*a.last_score, *standalone[d].last_score());
      }
      EXPECT_EQ(a.monitor.traces_ingested, standalone[d].stats().traces_ingested);
      EXPECT_EQ(a.monitor.scored_captures, standalone[d].stats().scored_captures);
      EXPECT_EQ(a.monitor.per_trace_anomalies,
                standalone[d].stats().per_trace_anomalies);
      EXPECT_EQ(a.monitor.windowed_anomalies,
                standalone[d].stats().windowed_anomalies);
      EXPECT_EQ(a.monitor.alarms_latched, standalone[d].stats().alarms_latched);
    }

    // Event streams agree (kinds, indices, payloads) across all three paths.
    std::vector<FleetEvent> batched_events = batched.drain_events();
    std::vector<FleetEvent> per_trace_events = per_trace.drain_events();
    ASSERT_EQ(batched_events.size(), per_trace_events.size());
    for (std::size_t i = 0; i < batched_events.size(); ++i) {
      EXPECT_EQ(batched_events[i].device_id, per_trace_events[i].device_id);
      EXPECT_EQ(batched_events[i].event.kind, per_trace_events[i].event.kind);
      EXPECT_EQ(batched_events[i].event.trace_index,
                per_trace_events[i].event.trace_index);
      EXPECT_EQ(batched_events[i].event.value, per_trace_events[i].event.value);
    }
  }
}

TEST(FleetMonitor, SubmitFramesDropOldestEvictsExactlyLikePerTrace) {
  const core::RuntimeMonitor::Options mon = small_options();
  FleetOptions opt;
  opt.shards = 1;
  opt.queue_capacity = 2;
  opt.backpressure = BackpressurePolicy::kDropOldest;
  opt.monitor = mon;
  FleetMonitor fleet{opt};
  fleet.add_device("dev", core::TrustEvaluator{fitted()});

  const core::TraceSet batch = make_set(5, false, 51);
  fleet.pause();
  // Bulk admission into a saturating queue: 2 fit, then each further frame
  // evicts the oldest — every frame is "accepted", three are evicted.
  const FrameBatchOutcome outcome = fleet.submit_frames(frames_of("dev", batch));
  EXPECT_EQ(outcome.accepted, 5u);
  EXPECT_EQ(outcome.rejected_backpressure, 0u);
  const FleetStats saturated = fleet.stats();
  EXPECT_EQ(saturated.shards[0].submitted, 5u);
  EXPECT_EQ(saturated.shards[0].dropped_oldest, 3u);
  EXPECT_EQ(saturated.shards[0].queue_depth, 2u);
  fleet.resume();
  fleet.flush();

  // The survivors are the two newest traces, still in order — the same two
  // a per-trace submit loop would have kept. Standalone monitor fed only
  // those two must agree bit for bit.
  core::RuntimeMonitor standalone{kFs, core::TrustEvaluator{fitted()}, mon};
  standalone.push(batch.traces[3]);
  standalone.push(batch.traces[4]);

  const FleetStats drained = fleet.stats();
  EXPECT_EQ(drained.traces_processed, 2u);
  ASSERT_EQ(drained.sessions.size(), 1u);
  EXPECT_EQ(drained.sessions[0].monitor.scored_captures, 2u);
  ASSERT_TRUE(drained.sessions[0].last_score.has_value());
  EXPECT_EQ(*drained.sessions[0].last_score, *standalone.last_score());
}

// ---------- batched wire-frame draining (the daemon's read path) ----------

TEST(FleetMonitor, SubmitFramesVetsGroupsAndPreservesPerDeviceOrder) {
  const core::RuntimeMonitor::Options mon = small_options();
  FleetOptions opt;
  opt.shards = 2;
  opt.queue_capacity = 64;
  opt.monitor = mon;
  FleetMonitor fleet{opt};
  fleet.add_device("chip-00", core::TrustEvaluator{fitted()});
  fleet.add_device("chip-01", core::TrustEvaluator{fitted()});

  std::vector<core::RuntimeMonitor> standalone;
  standalone.emplace_back(kFs, core::TrustEvaluator{fitted()}, mon);
  standalone.emplace_back(kFs, core::TrustEvaluator{fitted()}, mon);

  // Interleave two devices' streams in one batch, with three bad frames
  // mixed in: an unknown device, a sample-rate mismatch and a NaN sample
  // rate. The bad ones must be counted out without disturbing the good
  // ones' ordering.
  std::vector<io::wire::TraceFrame> frames;
  emts::Rng rng{60};
  for (std::size_t i = 0; i < 10; ++i) {
    const std::size_t d = i % 2;
    io::wire::TraceFrame frame;
    frame.device_id = "chip-0" + std::to_string(d);
    frame.sample_rate = kFs;
    frame.trace = golden_trace(rng);
    standalone[d].push(frame.trace);
    frames.push_back(std::move(frame));
    if (i == 4) {
      io::wire::TraceFrame ghost;
      ghost.device_id = "ghost";
      ghost.sample_rate = kFs;
      ghost.trace = golden_trace(rng);
      frames.push_back(std::move(ghost));
    }
    if (i == 5) {
      io::wire::TraceFrame nan_rate;
      nan_rate.device_id = "chip-01";
      nan_rate.sample_rate = std::numeric_limits<double>::quiet_NaN();
      nan_rate.trace = golden_trace(rng);
      frames.push_back(std::move(nan_rate));
    }
    if (i == 7) {
      io::wire::TraceFrame wrong_rate;
      wrong_rate.device_id = "chip-00";
      wrong_rate.sample_rate = kFs * 2;
      wrong_rate.trace = golden_trace(rng);
      frames.push_back(std::move(wrong_rate));
    }
  }

  const FrameBatchOutcome outcome = fleet.submit_frames(std::move(frames));
  EXPECT_EQ(outcome.accepted, 10u);
  EXPECT_EQ(outcome.rejected_invalid, 3u);
  EXPECT_EQ(outcome.rejected_backpressure, 0u);
  fleet.flush();

  const FleetStats stats = fleet.stats();
  EXPECT_EQ(stats.traces_processed, 10u);
  ASSERT_EQ(stats.sessions.size(), 2u);
  for (std::size_t d = 0; d < 2; ++d) {
    EXPECT_EQ(stats.sessions[d].monitor.scored_captures, 5u);
    ASSERT_TRUE(stats.sessions[d].last_score.has_value());
    // Exact EQ: per-device arrival order survived the per-shard grouping.
    EXPECT_EQ(*stats.sessions[d].last_score, *standalone[d].last_score());
  }
}

TEST(FleetMonitor, SubmitFramesCountsRejectBackpressure) {
  FleetOptions opt;
  opt.shards = 1;
  opt.queue_capacity = 2;
  opt.backpressure = BackpressurePolicy::kReject;
  opt.monitor = small_options();
  FleetMonitor fleet{opt};
  fleet.add_device("dev", core::TrustEvaluator{fitted()});

  std::vector<io::wire::TraceFrame> frames;
  emts::Rng rng{61};
  for (std::size_t i = 0; i < 5; ++i) {
    io::wire::TraceFrame frame;
    frame.device_id = "dev";
    frame.sample_rate = kFs;
    frame.trace = golden_trace(rng);
    frames.push_back(std::move(frame));
  }

  fleet.pause();
  const FrameBatchOutcome outcome = fleet.submit_frames(std::move(frames));
  EXPECT_EQ(outcome.accepted, 2u);
  EXPECT_EQ(outcome.rejected_backpressure, 3u);
  EXPECT_EQ(outcome.rejected_invalid, 0u);
  fleet.resume();
  fleet.flush();
  EXPECT_EQ(fleet.stats().traces_processed, 2u);
}

// ---------- producers vs flush on the shard queues (tsan target) ----------

// Hammers the shard queues from four multi-frame producers while the main
// thread runs the whole control plane (flush/pause/resume/stats/drain)
// against them. Capacity 4 under 8-frame batches keeps kBlock waiting and
// wraps the queue storage. The exact totals prove nothing was lost or
// duplicated; the per-device images prove nothing was scored out of order.
TEST(FleetMonitor, ProducersVsFlushStress) {
  core::RuntimeMonitor::Options mon = small_options();
  mon.spectral_window = 5;  // 48 pushes leave 3 traces in the last window
  FleetOptions opt;
  opt.shards = 2;
  opt.queue_capacity = 4;  // tiny on purpose: constant kBlock contention
  opt.backpressure = BackpressurePolicy::kBlock;
  opt.monitor = mon;
  FleetMonitor fleet{opt};

  static constexpr std::size_t kProducers = 4;
  static constexpr std::size_t kChunks = 6;
  static constexpr std::size_t kChunk = 8;
  for (std::size_t p = 0; p < kProducers; ++p) {
    fleet.add_device("chip-" + std::to_string(p), core::TrustEvaluator{fitted()});
  }

  std::vector<std::thread> producers;
  const auto chunk = [](std::size_t p, std::size_t c) {
    return make_set(kChunk, false, 700 + p * 100 + c);
  };
  for (std::size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&fleet, &chunk, p] {
      const std::string id = "chip-" + std::to_string(p);
      for (std::size_t c = 0; c < kChunks; ++c) {
        const FrameBatchOutcome outcome = fleet.submit_frames(frames_of(id, chunk(p, c)));
        EXPECT_EQ(outcome.accepted, kChunk);
      }
    });
  }

  for (int round = 0; round < 10; ++round) {
    fleet.flush();
    fleet.pause();
    (void)fleet.stats();
    fleet.resume();
    std::vector<FleetEvent> events;
    fleet.drain_events(events);
  }
  for (std::thread& t : producers) t.join();
  fleet.flush();

  const FleetStats stats = fleet.stats();
  EXPECT_EQ(stats.traces_submitted, kProducers * kChunks * kChunk);
  EXPECT_EQ(stats.traces_processed, kProducers * kChunks * kChunk);
  EXPECT_EQ(stats.backpressure_dropped, 0u);
  EXPECT_EQ(stats.backpressure_rejected, 0u);
  for (const SessionStats& session : stats.sessions) {
    EXPECT_EQ(session.monitor.traces_ingested, kChunks * kChunk);
  }
  for (const ShardStats& shard : stats.shards) {
    EXPECT_EQ(shard.worker_faults, 0u);
    EXPECT_LE(shard.queue_high_water, opt.queue_capacity);
  }

  // Per-device FIFO under contention: each device's state equals a
  // standalone monitor fed the same chunks in order (devices sort by id).
  const io::FleetSnapshot cut = fleet.snapshot();
  ASSERT_EQ(cut.devices.size(), kProducers);
  for (std::size_t p = 0; p < kProducers; ++p) {
    core::RuntimeMonitor standalone{kFs, fitted(), mon};
    for (std::size_t c = 0; c < kChunks; ++c) standalone.push_batch(chunk(p, c));
    const core::MonitorStateImage expect = standalone.export_state();
    const core::MonitorStateImage& got = cut.devices[p].monitor;
    EXPECT_EQ(cut.devices[p].device_id, "chip-" + std::to_string(p));
    EXPECT_FALSE(got.window.empty());
    EXPECT_EQ(got.window, expect.window);
    EXPECT_EQ(got.spectral_sum, expect.spectral_sum);
    EXPECT_EQ(got.last_score, expect.last_score);
  }
}

// ---------- worker pinning ----------

TEST(FleetMonitor, PinnedWorkersProcessNormally) {
  FleetOptions opt;
  opt.shards = 2;
  opt.pin_workers = true;  // best-effort affinity; must never change results
  opt.monitor = small_options();
  FleetMonitor fleet{opt};
  fleet.add_device("chip-00", core::TrustEvaluator{fitted()});

  const core::TraceSet batch = make_set(6, false, 80);
  for (const core::Trace& trace : batch.traces) {
    EXPECT_EQ(fleet.submit("chip-00", trace), SubmitResult::kAccepted);
  }
  fleet.flush();
  const FleetStats stats = fleet.stats();
  EXPECT_EQ(stats.traces_processed, 6u);
  ASSERT_EQ(stats.sessions.size(), 1u);
  EXPECT_EQ(stats.sessions[0].monitor.scored_captures, 6u);
}

}  // namespace
}  // namespace emts::fleet
