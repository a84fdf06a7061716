// Fixed-step transient analysis.
//
// Backward-Euler companion models for capacitors keep the step robust across
// the conductance discontinuities introduced by switch-level drivers. The
// conductance matrix only changes when a driver toggles, so its
// factorization is reused between events. Unknowns are numbered by a
// bandwidth-reducing ordering and the matrix is factored in band storage
// (solver.hpp); everything the per-step loop touches — RHS injections,
// capacitor history currents, energy and crossing bookkeeping — is compiled
// at construction into flat arrays in that matrix-index space. Delay
// measurements are taken as threshold crossings of node waveforms; energy
// is the charge delivered by the pull-up rails times the rail voltage (the
// standard definition used when characterising bus energy per cycle).
#pragma once

#include <optional>
#include <vector>

#include "spice/netlist.hpp"
#include "spice/solver.hpp"

namespace razorbus::spice {

// Companion-model choice for capacitors. Backward Euler is robust across
// the conductance discontinuities of switch-level drivers (it damps the
// step); trapezoidal is second-order accurate for the same dt (useful when
// trading step size for speed). Driver events toggle from settled states
// here (capacitor currents near zero), which keeps the trapezoidal history
// consistent across the discontinuity.
enum class Integrator { backward_euler, trapezoidal };

// Linear solver behind the timestep loop. `banded` (the default) reorders
// the unknowns and factors in band storage. `dense_reference` keeps the
// netlist's node order and the dense LU: the golden solver that parity
// tests hold `banded` to (tests/spice_parity_test.cpp).
enum class SolverKind { banded, dense_reference };

struct TransientConfig {
  double t_stop = 2e-9;   // seconds
  double dt = 0.5e-12;    // timestep
  Integrator integrator = Integrator::backward_euler;
  SolverKind solver = SolverKind::banded;
  // Nodes whose full waveforms should be recorded (tests/debugging only;
  // crossing detection works for all nodes regardless).
  std::vector<NodeId> record;
};

// Crossing bookkeeping for one node and one threshold.
struct CrossingRecord {
  int rise_count = 0;
  int fall_count = 0;
  double last_rise = -1.0;  // seconds; negative = never crossed
  double last_fall = -1.0;
};

class TransientResult {
 public:
  // Last time v(node) crossed `threshold` going up / down; nullopt if never.
  std::optional<double> last_rise_crossing(NodeId node) const;
  std::optional<double> last_fall_crossing(NodeId node) const;
  int rise_count(NodeId node) const { return crossings_[node].rise_count; }
  int fall_count(NodeId node) const { return crossings_[node].fall_count; }

  // Total energy delivered by all pull-up rails over the run (J).
  double rail_energy() const { return rail_energy_; }
  // Energy delivered through one driver's pull-up path (J).
  double driver_rail_energy(std::size_t driver_index) const;

  double final_voltage(NodeId node) const { return final_voltages_[node]; }

  // Recorded waveform samples for nodes listed in TransientConfig::record.
  const std::vector<double>& times() const { return times_; }
  const std::vector<double>& waveform(NodeId node) const;

 private:
  friend class TransientSimulator;
  std::vector<CrossingRecord> crossings_;
  std::vector<double> final_voltages_;
  double rail_energy_ = 0.0;
  std::vector<double> driver_energy_;
  std::vector<double> times_;
  std::vector<NodeId> recorded_nodes_;
  std::vector<std::vector<double>> recorded_waves_;
};

class TransientSimulator {
 public:
  // The crossing threshold for every node is `threshold_fraction` times the
  // highest rail potential in the circuit (default: half swing).
  TransientSimulator(const Circuit& circuit, TransientConfig config,
                     double threshold_fraction = 0.5);

  TransientResult run();

 private:
  // A capacitor between two unknowns (parallel ones merged).
  struct CouplingCap {
    std::size_t a;
    std::size_t b;
    double farads;
  };
  // One matrix entry (row, column, value), duplicates merged.
  struct Entry {
    std::size_t row;
    std::size_t col;
    double value;
  };
  // A driver in matrix-index space.
  struct DriverSlot {
    std::size_t out;   // matrix index of the output node
    std::size_t in;    // slot of the inverter input (kNoNode: schedule only)
    double v_rail;
    double r_up;
    double r_dn;
    double threshold;  // inverter input threshold (V)
  };
  struct DriverState {
    bool up;
    std::size_t next_event;
  };

  void compile();
  // Assembles G + g_cap_scale * C + driver conductances and factors it,
  // then refreshes the per-step terms that change with it (rhs_base_,
  // node_g_).
  void factor(double g_cap_scale);
  void solve(std::vector<double>& x) const;
  void dc_operating_point();
  double cap_conductance_scale() const;
  // Voltage of a slot: unknowns first, then fixed nodes.
  double slot_voltage(std::size_t slot) const {
    return slot < n_ ? x_[slot] : fixed_potentials_[slot - n_];
  }

  const Circuit& circuit_;
  TransientConfig config_;
  double threshold_fraction_;
  double max_rail_ = 0.0;

  // --- compiled at construction (matrix-index space) ---
  std::size_t n_ = 0;                     // unknowns (matrix dimension)
  std::vector<std::size_t> slot_;         // per node: matrix index, or n_ + k if fixed
  std::vector<NodeId> unknown_nodes_;     // matrix index -> node
  std::vector<double> fixed_potentials_;  // slot n_ + k -> potential
  std::size_t lower_ = 0;                 // band half-widths of the ordering
  std::size_t upper_ = 0;
  std::vector<Entry> static_entries_;     // gmin + resistors
  std::vector<double> rhs_static_;        // resistor injections from fixed nodes
  // Capacitance from each unknown to fixed nodes, summed: its history
  // term is g * C * v_prev whatever the fixed potentials are.
  std::vector<double> node_cap_;
  std::vector<CouplingCap> coupling_caps_;
  std::vector<DriverSlot> drivers_;

  // --- run state ---
  std::vector<DriverState> driver_states_;
  std::vector<double> rhs_base_;   // rhs_static_ + rail injections of up drivers
  std::vector<double> node_g_;     // companion conductance g_cap_scale * node_cap_
  std::vector<double> x_;          // unknown voltages, current step
  std::vector<double> x_prev_;
  std::vector<double> node_currents_;      // trapezoidal history (grounded caps)
  std::vector<double> coupling_currents_;  // trapezoidal history (coupling caps)
  bool be_step_pending_ = true;            // BE step at discontinuities (TR mode)
  BandLu band_lu_;
  LuFactorization dense_lu_;
};

}  // namespace razorbus::spice
