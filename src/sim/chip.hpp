// The simulated security-enhanced AES chip — our stand-in for the paper's
// fabricated 180 nm die (Sec. V). It assembles every substrate:
//
//   floorplan (Fig. 3)  ->  supply current loops      (layout)
//   AES activity model  ->  per-module currents       (aes, power)
//   Trojan library      ->  extra currents when armed (trojan)
//   spiral + probe      ->  mutual-inductance couplings (em)
//   Faraday's law       ->  induced emf per coil
//   measurement chain   ->  recorded voltage traces   (sensor)
//
// capture() produces exactly what the paper's oscilloscope produced: one
// trace from the on-chip sensor pads and one from the external probe, for an
// encrypting or idle chip, with or without a Trojan activated.
#pragma once

#include <array>
#include <memory>
#include <optional>
#include <vector>

#include "aes/activity.hpp"
#include "em/coil.hpp"
#include "em/mutual.hpp"
#include "layout/power_grid.hpp"
#include "power/current_trace.hpp"
#include "sensor/measurement.hpp"
#include "trojan/trojan.hpp"
#include "util/rng.hpp"

namespace emts::sim {

struct ChipConfig {
  layout::DieSpec die{};
  power::ClockSpec clock{};                 // 48 MHz x 8 samples by default
  std::size_t trace_cycles = 512;           // 4096 samples per capture
  aes::Key key{};                           // device key
  std::uint64_t seed = 0x5eed5eedULL;       // master seed for all randomness
  // Trust evaluation replays a known challenge workload each window ("the
  // users know how the circuit will operate", Sec. III-B): every capture
  // encrypts the same plaintext sequence, so golden captures differ only by
  // noise. Set false for fully random traffic (harder, ablation bench).
  bool fixed_challenge_workload = true;
  // Per-module coupling mismatch (relative sigma): local metal thickness and
  // dielectric variation perturb each supply loop's inductance independently
  // from die to die. 0 = ideal geometry; silicon mode sets a few percent.
  // Reproducible per seed — this is what makes two dies' fingerprints differ
  // in *shape*, not just scale (the golden-chip problem).
  double coupling_mismatch_sigma = 0.0;
  em::OnChipSpiralSpec spiral{};            // Fig. 2(b) sensor
  em::ExternalProbeSpec probe{};            // Fig. 2(a) baseline probe
  sensor::ChainSpec onchip_chain{};         // set by make_default_config()
  sensor::NoiseSpec onchip_noise{};
  sensor::ChainSpec external_chain{};
  sensor::NoiseSpec external_noise{};
};

/// Baseline configuration used by every experiment: calibrated so the golden
/// on-chip capture lands near the paper's ~30 dB SNR; everything else follows
/// from the physics. See DESIGN.md §4.
ChipConfig make_default_config();

/// Floorplan module hosting a Trojan's payload (layout::module_names entry)
/// — the ground truth localization is judged against.
const char* trojan_host_module(trojan::TrojanKind kind);

/// Which pickup recorded a trace.
enum class Pickup { kOnChipSensor, kExternalProbe };

/// One capture: both pickups record the same window simultaneously (the
/// paper collects "the signals from the external probe and on-chip sensor
/// ... simultaneously").
struct Acquisition {
  std::vector<double> onchip_v;
  std::vector<double> external_v;

  const std::vector<double>& of(Pickup pickup) const {
    return pickup == Pickup::kOnChipSensor ? onchip_v : external_v;
  }
};

class Chip {
 public:
  explicit Chip(const ChipConfig& config);

  /// Arms one Trojan's payload (at most one active at a time mirrors the
  /// paper's "Trojans are activated in sequence"). Arming mutates the chip:
  /// it must not race with concurrent capture() calls — batch APIs capture
  /// under one fixed armed state (see sim::CaptureEngine).
  void arm(trojan::TrojanKind kind);
  void disarm_all();
  bool is_armed(trojan::TrojanKind kind) const;
  /// The Trojan whose payload is currently armed, if any.
  std::optional<trojan::TrojanKind> armed_kind() const;

  /// Records one window. `encrypting` = the AES core runs back-to-back
  /// encryptions of random plaintexts (signal capture); false = the chip is
  /// powered but idle (the paper's noise capture).
  ///
  /// capture() is const and a pure function of (config.seed, trace_index,
  /// encrypting, armed Trojan): every random stream (plaintexts, noise,
  /// interferer phases) is split off those labels, so identical inputs give
  /// bit-identical traces — across repeated calls, across independent Chip
  /// instances, and across threads. Any number of captures may run
  /// concurrently on one chip as long as no arm()/disarm_all() races them.
  Acquisition capture(bool encrypting, std::uint64_t trace_index) const;

  /// Records one window on one pickup only: bit-identical to
  /// capture(encrypting, trace_index).of(pickup), without measuring the other.
  std::vector<double> capture(Pickup pickup, bool encrypting, std::uint64_t trace_index) const;

  /// The noise stream of one capture for one pickup or array coil, named by
  /// `salt`: a pure function of (config.seed, trace_index, encrypting, armed
  /// Trojan, salt). The label folds the capture conditions in, so signal vs.
  /// idle windows and golden vs. infected populations at one index draw
  /// decorrelated noise. Every measurement chain's draws come from here.
  Rng capture_rng(bool encrypting, std::uint64_t trace_index, std::uint64_t salt) const;

  /// Induced emf at the coil terminals before the measurement chain — used
  /// by physics-level tests and the coupling benches.
  std::vector<double> raw_emf(Pickup pickup, bool encrypting, std::uint64_t trace_index) const;

  const ChipConfig& config() const { return config_; }
  const em::Coil& onchip_coil() const { return onchip_coil_; }
  const em::Coil& external_coil() const { return external_coil_; }

  /// Coupling (henries) between a floorplan module's supply loop and a coil.
  double coupling(const std::string& module_name, Pickup pickup) const;

  const layout::Floorplan& floorplan() const { return floorplan_; }
  const trojan::Trojan& trojan_model(trojan::TrojanKind kind) const;

  double sample_rate() const { return config_.clock.sample_rate(); }
  std::size_t samples_per_trace() const {
    return config_.trace_cycles * config_.clock.samples_per_cycle;
  }

  /// Per-module transient supply currents of one window, in floorplan order:
  /// the raw physical quantity every pickup's EMF derives from.
  std::vector<power::CurrentTrace> module_transients(bool encrypting,
                                                     std::uint64_t trace_index) const;

  /// dI/dt of every module_transients() trace: the one physics evaluation
  /// that both pickups and every array coil of a window share.
  std::vector<std::vector<double>> current_derivatives(bool encrypting,
                                                       std::uint64_t trace_index) const;

  /// The plaintexts the AES core encrypts during window `trace_index`, in
  /// execution order (one per kCyclesPerEncryption slot; the window tail
  /// idles). With the fixed challenge workload this list is identical for
  /// every window. An attacker observing the bus gets exactly this view —
  /// used by the CPA attack module.
  std::vector<aes::Block> window_plaintexts(std::uint64_t trace_index) const;

 private:
  struct ModuleSource {
    std::string name;
    double m_onchip = 0.0;    // coupling into the spiral, H
    double m_external = 0.0;  // coupling into the probe, H
  };

  /// Faraday emf induced in one pickup by the given current derivatives.
  std::vector<double> pickup_emf(Pickup pickup,
                                 const std::vector<std::vector<double>>& didt) const;

  /// One pickup's recorded trace: its emf through its measurement chain,
  /// with noise from the pickup's own capture stream.
  std::vector<double> measure_pickup(Pickup pickup,
                                     const std::vector<std::vector<double>>& didt,
                                     bool encrypting, std::uint64_t trace_index) const;

  // The physics model below is immutable after construction; the only
  // mutable state is the Trojans' armed flag (arm()/disarm_all()). All
  // per-capture state — RNG streams, filter state, waveform buffers — lives
  // on the capture's own stack, which is what makes capture() const and
  // safe to call from many threads at once.
  ChipConfig config_;
  layout::Floorplan floorplan_;
  em::Coil onchip_coil_;
  em::Coil external_coil_;
  std::vector<ModuleSource> sources_;  // AES units then Trojans, floorplan order
  aes::AesActivityModel aes_model_;
  std::array<std::unique_ptr<trojan::Trojan>, 5> trojans_;
  sensor::MeasurementChain onchip_chain_;
  sensor::MeasurementChain external_chain_;
  // Root of all derived random streams, fixed at construction from
  // config.seed; only its const fork() is ever called afterwards.
  const Rng stream_root_;
};

}  // namespace emts::sim
