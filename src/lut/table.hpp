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

class PointStore;

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

// Cost counters for one build() call. transient_sims is the number of
// actual transient runs performed; store_hits counts per-class values
// answered by the point store instead.
struct BuildStats {
  std::uint64_t transient_sims = 0;
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
  // `progress` (optional) is called with (done, total) as sims complete.
  // `store` (optional) answers already-simulated points without transient
  // runs and accumulates new ones; `stats` (optional) receives the cost
  // counters for this build.
  static DelayEnergyTable build(const interconnect::BusDesign& design,
                                const tech::DriverModel& driver, const LutConfig& config,
                                const std::function<void(int, int)>& progress = {},
                                PointStore* store = nullptr,
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

  // --- Serialization (versioned binary format with config hash) ---
  void save(std::ostream& os, std::uint64_t key_hash) const;
  // Empty when the stream is not a valid table or the hash mismatches.
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

// Stable FNV-1a hash of everything the table depends on: the design
// content hash (point_store.hpp) plus the LUT config — grid extent, temps
// and corners. Used as the disk-cache key.
std::uint64_t table_key_hash(const interconnect::BusDesign& design,
                             const LutConfig& config);

}  // namespace razorbus::lut
