#include "sim/chip.hpp"

#include <algorithm>

#include "dsp/filter.hpp"
#include "util/assert.hpp"

namespace emts::sim {

namespace {

// Charge per weighted toggle of the AES activity model (fC). With the
// default activity weights this puts the core at a few tens of mW at 48 MHz
// — a plausible 180 nm AES operating point.
constexpr double kChargePerToggleFc = 10.0;

// Floorplan module names of the AES units, in AesUnit order.
const char* aes_unit_module_name(aes::AesUnit unit) {
  namespace mn = layout::module_names;
  switch (unit) {
    case aes::AesUnit::kStateRegisters:
      return mn::kAesState;
    case aes::AesUnit::kKeyRegisters:
      return mn::kAesKeyRegs;
    case aes::AesUnit::kSboxArray:
      return mn::kAesSbox;
    case aes::AesUnit::kMixColumns:
      return mn::kAesMixColumns;
    case aes::AesUnit::kKeySchedule:
      return mn::kAesKeySchedule;
    case aes::AesUnit::kControl:
      return mn::kAesControl;
  }
  return "?";
}

aes::Key default_key() {
  // The FIPS-197 Appendix B key; any key works, this one keeps examples
  // cross-checkable against the standard.
  return aes::Key{0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6,
                  0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf, 0x4f, 0x3c};
}

}  // namespace

const char* trojan_host_module(trojan::TrojanKind kind) {
  namespace mn = layout::module_names;
  switch (kind) {
    case trojan::TrojanKind::kT1AmLeak:
      return mn::kTrojan1;
    case trojan::TrojanKind::kT2Leakage:
      return mn::kTrojan2;
    case trojan::TrojanKind::kT3Cdma:
      return mn::kTrojan3;
    case trojan::TrojanKind::kT4PowerHog:
      return mn::kTrojan4;
    case trojan::TrojanKind::kA2Analog:
      return mn::kTrojanA2;
  }
  return "?";
}

ChipConfig make_default_config() {
  ChipConfig config;
  config.key = default_key();

  // Noise calibration (DESIGN.md §4): the ambient broadband level is the one
  // fitted constant — chosen so the golden on-chip capture lands near the
  // paper's ~30 dB — and the on-chip sensor's pickup fraction reflects its
  // shielded, differential on-die wiring versus the probe's open air loop.
  constexpr double kAmbientRms = 115.0e-6;

  config.onchip_chain = sensor::ChainSpec{50.0, 500e6, 1.0, 12};
  config.onchip_noise = sensor::NoiseSpec{};
  config.onchip_noise.thermal_rms_v = 2.0e-6;
  config.onchip_noise.environment_rms_v = kAmbientRms;
  config.onchip_noise.environment_pickup = 0.2;

  config.external_chain = sensor::ChainSpec{40.0, 500e6, 1.0, 12};
  config.external_noise = sensor::NoiseSpec{};
  config.external_noise.thermal_rms_v = 2.0e-6;
  config.external_noise.environment_rms_v = kAmbientRms;
  config.external_noise.environment_pickup = 1.0;

  return config;
}

Chip::Chip(const ChipConfig& config)
    : config_{config},
      floorplan_{layout::reference_floorplan(config.die)},
      onchip_coil_{em::make_onchip_spiral(config.die, config.spiral)},
      external_coil_{em::make_external_probe(config.die, config.probe)},
      aes_model_{config.key},
      onchip_chain_{config.onchip_chain, config.onchip_noise},
      external_chain_{config.external_chain, config.external_noise},
      stream_root_{config.seed} {
  config_.clock.validate();
  EMTS_REQUIRE(config_.trace_cycles >= aes::kCyclesPerEncryption,
               "trace window shorter than one encryption");

  for (std::size_t i = 0; i < 5; ++i) {
    trojans_[i] = trojan::make_trojan(trojan::kAllTrojanKinds[i]);
  }

  // Precompute couplings: one supply loop per placed module, Neumann double
  // integral into each coil. This is the expensive step; captures afterwards
  // are weighted sums.
  const auto pads = layout::PadRing::for_die(config_.die);
  const auto loops = layout::supply_loops(floorplan_, pads);
  const em::FluxOptions flux_options{};
  Rng mismatch_rng = stream_root_.fork(0x7135ULL);
  for (const auto& loop : loops) {
    ModuleSource source;
    source.name = loop.module_name;
    source.m_onchip = em::loop_coil_coupling(loop, onchip_coil_, flux_options);
    source.m_external = em::loop_coil_coupling(loop, external_coil_, flux_options);
    if (config_.coupling_mismatch_sigma > 0.0) {
      // Independent per-module, per-coil inductance mismatch for this die.
      source.m_onchip *= 1.0 + mismatch_rng.gaussian(0.0, config_.coupling_mismatch_sigma);
      source.m_external *= 1.0 + mismatch_rng.gaussian(0.0, config_.coupling_mismatch_sigma);
    }
    sources_.push_back(source);
  }
}

void Chip::arm(trojan::TrojanKind kind) {
  for (auto& t : trojans_) t->set_active(t->kind() == kind);
}

void Chip::disarm_all() {
  for (auto& t : trojans_) t->set_active(false);
}

bool Chip::is_armed(trojan::TrojanKind kind) const {
  for (const auto& t : trojans_) {
    if (t->kind() == kind) return t->active();
  }
  return false;
}

std::optional<trojan::TrojanKind> Chip::armed_kind() const {
  for (const auto& t : trojans_) {
    if (t->active()) return t->kind();
  }
  return std::nullopt;
}

const trojan::Trojan& Chip::trojan_model(trojan::TrojanKind kind) const {
  for (const auto& t : trojans_) {
    if (t->kind() == kind) return *t;
  }
  EMTS_ASSERT(false);
  return *trojans_[0];
}

double Chip::coupling(const std::string& module_name, Pickup pickup) const {
  for (const ModuleSource& s : sources_) {
    if (s.name == module_name) {
      return pickup == Pickup::kOnChipSensor ? s.m_onchip : s.m_external;
    }
  }
  throw precondition_error("no module named " + module_name);
}

std::vector<aes::Block> Chip::window_plaintexts(std::uint64_t trace_index) const {
  // Mirrors the generation inside module_transients exactly.
  const std::uint64_t workload_label =
      config_.fixed_challenge_workload ? 0xae5ULL : (mix64(trace_index) ^ 0xae5ULL);
  Rng plaintext_rng = stream_root_.fork(workload_label);
  std::vector<aes::Block> plaintexts;
  for (std::size_t cycle = 0; cycle + aes::kCyclesPerEncryption <= config_.trace_cycles;
       cycle += aes::kCyclesPerEncryption) {
    aes::Block plaintext{};
    for (auto& b : plaintext) b = static_cast<std::uint8_t>(plaintext_rng.next_u32());
    plaintexts.push_back(plaintext);
  }
  return plaintexts;
}

std::vector<power::CurrentTrace> Chip::module_transients(bool encrypting,
                                                         std::uint64_t trace_index) const {
  std::vector<power::CurrentTrace> currents;
  currents.reserve(sources_.size());
  for (std::size_t i = 0; i < sources_.size(); ++i) {
    currents.emplace_back(config_.clock, config_.trace_cycles);
  }

  auto trace_of = [&](const char* name) -> power::CurrentTrace& {
    for (std::size_t i = 0; i < sources_.size(); ++i) {
      if (sources_[i].name == name) return currents[i];
    }
    EMTS_ASSERT(false);
    return currents[0];
  };

  // ---- AES units ----
  const std::uint64_t workload_label =
      config_.fixed_challenge_workload ? 0xae5ULL : (mix64(trace_index) ^ 0xae5ULL);
  Rng plaintext_rng = stream_root_.fork(workload_label);
  std::size_t cycle = 0;
  while (cycle < config_.trace_cycles) {
    std::vector<aes::CycleActivity> activity;
    if (encrypting && cycle + aes::kCyclesPerEncryption <= config_.trace_cycles) {
      aes::Block plaintext{};
      for (auto& b : plaintext) b = static_cast<std::uint8_t>(plaintext_rng.next_u32());
      activity = aes_model_.encrypt_activity(plaintext);
    } else {
      activity.assign(1, aes::AesActivityModel::idle_cycle());
    }

    for (std::size_t k = 0; k < activity.size(); ++k) {
      for (std::size_t u = 0; u < aes::kAesUnitCount; ++u) {
        const aes::UnitActivity& ua = activity[k][u];
        if (ua.toggles <= 0.0) continue;
        trace_of(aes_unit_module_name(static_cast<aes::AesUnit>(u)))
            .add_pulse({cycle + k, ua.toggles, ua.onset_ps, ua.spread_ps}, kChargePerToggleFc);
      }
    }
    cycle += activity.size();
  }

  // ---- Trojans ----
  trojan::TraceContext context;
  context.clock = config_.clock;
  context.num_cycles = config_.trace_cycles;
  context.key = config_.key;
  context.trace_index = trace_index;
  for (const auto& t : trojans_) {
    t->contribute(context, trace_of(trojan_host_module(t->kind())));
  }

  return currents;
}

std::vector<std::vector<double>> Chip::current_derivatives(bool encrypting,
                                                           std::uint64_t trace_index) const {
  const auto currents = module_transients(encrypting, trace_index);
  std::vector<std::vector<double>> didt;
  didt.reserve(currents.size());
  for (const auto& c : currents) didt.push_back(c.derivative());
  return didt;
}

std::vector<double> Chip::pickup_emf(Pickup pickup,
                                     const std::vector<std::vector<double>>& didt) const {
  std::vector<double> emf(samples_per_trace(), 0.0);
  for (std::size_t m = 0; m < sources_.size(); ++m) {
    const double coupling_h =
        pickup == Pickup::kOnChipSensor ? sources_[m].m_onchip : sources_[m].m_external;
    for (std::size_t i = 0; i < emf.size(); ++i) {
      emf[i] -= coupling_h * didt[m][i];  // Faraday: v = -M dI/dt
    }
  }
  return emf;
}

std::vector<double> Chip::raw_emf(Pickup pickup, bool encrypting,
                                  std::uint64_t trace_index) const {
  return pickup_emf(pickup, current_derivatives(encrypting, trace_index));
}

Rng Chip::capture_rng(bool encrypting, std::uint64_t trace_index, std::uint64_t salt) const {
  // Splittable per-capture stream derivation; the golden encrypting case
  // reduces to mix64(trace_index). A label fixes a stream, not a noise
  // realization: changing the sampler or how a chain draws from its stream
  // changes every capture's bits (DESIGN.md §4c).
  std::uint64_t label = mix64(trace_index);
  if (!encrypting) label = mix64(label ^ 0x1d1eULL);
  if (const auto armed = armed_kind()) {
    label = mix64(label ^ (0xa63edULL + static_cast<std::uint64_t>(*armed)));
  }
  return stream_root_.fork(label ^ salt);
}

std::vector<double> Chip::measure_pickup(Pickup pickup,
                                         const std::vector<std::vector<double>>& didt,
                                         bool encrypting, std::uint64_t trace_index) const {
  const bool onchip = pickup == Pickup::kOnChipSensor;
  Rng rng = capture_rng(encrypting, trace_index, onchip ? 0x0c1ULL : 0xe72ULL);
  const sensor::MeasurementChain& chain = onchip ? onchip_chain_ : external_chain_;
  return chain.measure(pickup_emf(pickup, didt), sample_rate(), rng);
}

Acquisition Chip::capture(bool encrypting, std::uint64_t trace_index) const {
  // Both pickups observe the same physical currents; compute them once.
  const auto didt = current_derivatives(encrypting, trace_index);
  Acquisition acq;
  acq.onchip_v = measure_pickup(Pickup::kOnChipSensor, didt, encrypting, trace_index);
  acq.external_v = measure_pickup(Pickup::kExternalProbe, didt, encrypting, trace_index);
  return acq;
}

std::vector<double> Chip::capture(Pickup pickup, bool encrypting,
                                  std::uint64_t trace_index) const {
  return measure_pickup(pickup, current_derivatives(encrypting, trace_index), encrypting,
                        trace_index);
}

}  // namespace emts::sim
