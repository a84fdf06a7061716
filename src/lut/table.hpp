// Delay / energy lookup tables.
//
// DelayEnergyTable stores, for every (process corner, temperature, supply
// grid point, pattern class):
//   * the victim's in-to-out delay (seconds; NaN when the victim holds) and
//   * the energy drawn from the supply rail by the victim's repeaters (J),
// characterised by transient simulation of the 3-wire cluster. The table is
// the bridge between circuit-level fidelity and architectural simulation
// speed: building it costs thousands of transient runs (done once, cached
// on disk), after which millions of bus cycles evaluate via table lookups —
// exactly the methodology of the paper's Section 3. Every voltage of the
// uniform grid is simulated (docs/characterization.md); storage is flat
// per-voltage arrays.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "interconnect/bus_design.hpp"
#include "lut/pattern.hpp"
#include "tech/corner.hpp"
#include "tech/device.hpp"
#include "tech/supply.hpp"

namespace razorbus::lut {

// Bump when the transient solver, netlist construction or device models
// change in a way that alters simulated values: table_key_hash mixes it in,
// so stale table files are simply never hit again (job hashes carry it too).
// History (docs/campaignd.md): 2 — banded solver over a reordered matrix;
// the new elimination order moves results in the last digits only
// (tests/spice_parity_test.cpp).
constexpr std::uint32_t kSimulatorVersion = 2;

// FNV-1a accumulator: the content-hash primitive behind the table cache
// key (table_key_hash) and the campaign job hash (core/job_hash.hpp).
struct Fnv1a {
  std::uint64_t h = 1469598103934665603ull;  // offset basis

  void mix(const void* data, std::size_t len) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < len; ++i) {
      h ^= bytes[i];
      h *= 1099511628211ull;  // FNV prime
    }
  }
  void mix_double(double v) { mix(&v, sizeof(v)); }
  void mix_int(std::int64_t v) { mix(&v, sizeof(v)); }
};

struct LutConfig {
  // Grid of DRIVER-EFFECTIVE voltages. It must extend below the regulator
  // minimum by the worst IR drop so droopy lookups stay in range.
  double vmin = 0.66;
  double vmax = 1.20;
  double vstep = 0.020;
  std::vector<double> temps{25.0, 100.0};
  std::vector<tech::ProcessCorner> corners{
      tech::ProcessCorner::slow, tech::ProcessCorner::typical, tech::ProcessCorner::fast};

  // The uniform voltage axis implied by vmin/vmax/vstep. Single source of
  // truth for the grid constants — DelayEnergyTable's default grid and
  // every built table's axis derive from it.
  tech::SupplyGrid reference_grid() const {
    return tech::SupplyGrid(vmin, vmax, vstep);
  }
};

// Cost counters for one build() call: transient_sims is the number of
// transient runs performed.
struct BuildStats {
  std::uint64_t transient_sims = 0;
  // Always 0. Kept only because perfbench's layer_probe reports it as
  // lut.store_hits, and perfbench changes only together with the benchmark.
  std::uint64_t store_hits = 0;
  std::uint64_t points = 0;  // characterised (corner, temp, voltage) points
};

// One (corner, temperature, voltage) slice: per-class arrays used in the
// bus simulator's hot loop.
struct TableSlice {
  double delay[PatternClass::kCount];   // seconds; NaN where victim holds
  double energy[PatternClass::kCount];  // joules
};

class DelayEnergyTable {
 public:
  // Empty table (no characterised values); assign from build()/load()
  // before use. Lookups on an empty table throw.
  DelayEnergyTable() : grid_(LutConfig{}.reference_grid()) {}
  bool empty() const { return delays_.empty(); }

  // Characterise `design` (repeaters must be sized) with transient runs.
  // `progress` (optional) is called with (done, total) as sims complete;
  // `stats` (optional) receives the cost counters for this build.
  static DelayEnergyTable build(const interconnect::BusDesign& design,
                                const tech::DriverModel& driver, const LutConfig& config,
                                const std::function<void(int, int)>& progress = {},
                                BuildStats* stats = nullptr);

  // Uniform voltage grid (regulators and sweeps step on this axis).
  const tech::SupplyGrid& grid() const { return grid_; }
  const std::vector<double>& temps() const { return temps_; }
  const std::vector<tech::ProcessCorner>& corners() const { return corners_; }

  // Voltage-interpolated lookups (v is the driver-effective supply).
  // Delay is NaN for victim-hold classes; energy is always defined.
  double delay(int pattern_class, tech::ProcessCorner corner, double temp_c,
               double v) const;
  double energy(int pattern_class, tech::ProcessCorner corner, double temp_c,
                double v) const;

  // Interpolated slice for a whole operating point: one call per regulator
  // voltage change instead of per cycle.
  TableSlice slice(tech::ProcessCorner corner, double temp_c, double v) const;

  // Lowest characterised voltage at which the worst-case pattern still
  // meets the shadow-latch capture limit (the paper's conservative
  // regulator floor). nullopt when even vmax fails; vmin if all pass.
  std::optional<double> min_shadow_safe_voltage(const interconnect::BusDesign& design,
                                                tech::ProcessCorner corner,
                                                double temp_c) const;

  // --- Serialization (versioned binary format with config hash and an
  // FNV-1a digest of the payload) ---
  void save(std::ostream& os, std::uint64_t key_hash) const;
  // Empty when the stream is not a valid table, the hash mismatches or the
  // payload does not match its digest.
  static std::optional<DelayEnergyTable> load(std::istream& is,
                                              std::uint64_t expected_hash);

  // Raw (non-interpolated) accessors used by tests; v_idx indexes grid().
  double delay_at(int pattern_class, std::size_t corner_idx, std::size_t temp_idx,
                  std::size_t v_idx) const;
  double energy_at(int pattern_class, std::size_t corner_idx, std::size_t temp_idx,
                   std::size_t v_idx) const;

 private:
  std::size_t corner_index(tech::ProcessCorner corner) const;
  std::size_t temp_index(double temp_c) const;
  std::size_t flat_index(std::size_t corner, std::size_t temp, std::size_t v,
                         int cls) const;

  tech::SupplyGrid grid_;
  std::vector<double> temps_;
  std::vector<tech::ProcessCorner> corners_;
  std::vector<double> delays_;    // [corner][temp][voltage][class]
  std::vector<double> energies_;  // same layout
};

// Stable FNV-1a hash of everything the table depends on, used as the
// disk-cache key: node electricals, parasitics, geometry, repeater sizing,
// the RC section discretisation, the simulator version, and the LUT config
// (grid extent, temps and corners). It deliberately EXCLUDES n_bits and
// shield_group: the 3-wire cluster sees one wire's electricals, so every
// bus width of one design shares a table (DESIGN.md §3).
std::uint64_t table_key_hash(const interconnect::BusDesign& design,
                             const LutConfig& config);

}  // namespace razorbus::lut
