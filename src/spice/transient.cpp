#include "spice/transient.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <numeric>
#include <stdexcept>
#include <utility>

namespace razorbus::spice {

namespace {
// Minimum conductance from every unknown node to ground. Keeps the matrix
// non-singular for momentarily floating nodes (standard SPICE gmin).
constexpr double kGmin = 1e-12;
}  // namespace

std::optional<double> TransientResult::last_rise_crossing(NodeId node) const {
  const auto& c = crossings_.at(node);
  if (c.last_rise < 0.0) return std::nullopt;
  return c.last_rise;
}

std::optional<double> TransientResult::last_fall_crossing(NodeId node) const {
  const auto& c = crossings_.at(node);
  if (c.last_fall < 0.0) return std::nullopt;
  return c.last_fall;
}

double TransientResult::driver_rail_energy(std::size_t driver_index) const {
  return driver_energy_.at(driver_index);
}

const std::vector<double>& TransientResult::waveform(NodeId node) const {
  for (std::size_t i = 0; i < recorded_nodes_.size(); ++i)
    if (recorded_nodes_[i] == node) return recorded_waves_[i];
  throw std::out_of_range("waveform: node was not recorded");
}

TransientSimulator::TransientSimulator(const Circuit& circuit, TransientConfig config,
                                       double threshold_fraction)
    : circuit_(circuit),
      config_(std::move(config)),
      threshold_fraction_(threshold_fraction) {
  circuit_.validate();
  if (config_.dt <= 0.0 || config_.t_stop <= 0.0)
    throw std::invalid_argument("transient: dt and t_stop must be positive");
  compile();
}

void TransientSimulator::compile() {
  const std::size_t nodes = circuit_.node_count();

  // Unknowns in netlist order, and the matrix sparsity graph over them.
  std::vector<std::size_t> natural(nodes, kNoNode);
  std::vector<NodeId> natural_nodes;
  for (NodeId nd = 0; nd < nodes; ++nd) {
    if (circuit_.is_fixed(nd)) continue;
    natural[nd] = natural_nodes.size();
    natural_nodes.push_back(nd);
  }
  if (natural_nodes.empty()) throw std::invalid_argument("transient: no unknown nodes");
  n_ = natural_nodes.size();
  std::vector<std::pair<std::size_t, std::size_t>> edges;
  auto add_edge = [&](NodeId a, NodeId b) {
    if (natural[a] != kNoNode && natural[b] != kNoNode)
      edges.emplace_back(natural[a], natural[b]);
  };
  for (const auto& r : circuit_.resistors()) add_edge(r.a, r.b);
  for (const auto& c : circuit_.capacitors()) add_edge(c.a, c.b);

  std::vector<std::size_t> order(n_);
  if (config_.solver == SolverKind::banded) {
    order = reverse_cuthill_mckee(n_, edges);
    lower_ = upper_ = bandwidth(order, edges);
  } else {
    std::iota(order.begin(), order.end(), std::size_t{0});
    lower_ = upper_ = n_ - 1;
  }

  slot_.assign(nodes, kNoNode);
  unknown_nodes_.resize(n_);
  for (std::size_t i = 0; i < n_; ++i) {
    unknown_nodes_[i] = natural_nodes[order[i]];
    slot_[unknown_nodes_[i]] = i;
  }
  max_rail_ = 0.0;
  for (NodeId nd = 0; nd < nodes; ++nd) {
    if (!circuit_.is_fixed(nd)) continue;
    slot_[nd] = n_ + fixed_potentials_.size();
    fixed_potentials_.push_back(circuit_.fixed_potential(nd));
    max_rail_ = std::max(max_rail_, circuit_.fixed_potential(nd));
  }

  // Conductance stamps (gmin + resistors), merged per entry. Resistors to
  // a fixed node inject g * V_fixed into the RHS at every step (and in the
  // DC solve).
  std::map<std::pair<std::size_t, std::size_t>, double> g_entries;
  rhs_static_.assign(n_, 0.0);
  for (std::size_t i = 0; i < n_; ++i) g_entries[{i, i}] += kGmin;
  for (const auto& r : circuit_.resistors()) {
    const double g = 1.0 / r.ohms;
    const std::size_t ia = slot_[r.a];
    const std::size_t ib = slot_[r.b];
    if (ia < n_) g_entries[{ia, ia}] += g;
    if (ib < n_) g_entries[{ib, ib}] += g;
    if (ia < n_ && ib < n_) {
      g_entries[{ia, ib}] -= g;
      g_entries[{ib, ia}] -= g;
    } else if (ia < n_) {
      rhs_static_[ia] += g * circuit_.fixed_potential(r.b);
    } else if (ib < n_) {
      rhs_static_[ib] += g * circuit_.fixed_potential(r.a);
    }
  }
  for (const auto& [rc, v] : g_entries)
    static_entries_.push_back({rc.first, rc.second, v});

  // Capacitors, for both the matrix and the history terms. Parallel caps
  // between one pair of unknowns act as one; caps from an unknown to fixed
  // nodes contribute g * C * (v - V_fixed) + g * C * V_fixed = g * C * v,
  // so they merge into one capacitance per node.
  node_cap_.assign(n_, 0.0);
  std::map<std::pair<std::size_t, std::size_t>, double> coupling;
  for (const auto& c : circuit_.capacitors()) {
    const std::size_t ia = slot_[c.a];
    const std::size_t ib = slot_[c.b];
    if (ia < n_ && ib < n_)
      coupling[{std::min(ia, ib), std::max(ia, ib)}] += c.farads;
    else if (ia < n_)
      node_cap_[ia] += c.farads;
    else if (ib < n_)
      node_cap_[ib] += c.farads;
  }
  for (const auto& [key, farads] : coupling)
    coupling_caps_.push_back({key.first, key.second, farads});

  for (const auto& d : circuit_.drivers()) {
    const double v_rail = circuit_.fixed_potential(d.vdd_rail);
    drivers_.push_back({slot_[d.out], d.in == kNoNode ? kNoNode : slot_.at(d.in), v_rail,
                        d.r_up, d.r_dn, threshold_fraction_ * v_rail});
  }
}

double TransientSimulator::cap_conductance_scale() const {
  // Companion conductance per farad: C/h for backward Euler, 2C/h for
  // trapezoidal. The step during which a driver toggles uses BE even in
  // trapezoidal mode: the capacitor current is discontinuous there and the
  // trapezoid rule would halve the initial charging current (the classic
  // reason simulators take one BE step at discontinuities).
  if (config_.integrator == Integrator::trapezoidal && !be_step_pending_)
    return 2.0 / config_.dt;
  return 1.0 / config_.dt;
}

void TransientSimulator::factor(double g_cap_scale) {
  auto assemble = [&](auto& m) {
    for (const Entry& e : static_entries_) m.at(e.row, e.col) += e.value;
    for (std::size_t i = 0; i < n_; ++i) m.at(i, i) += node_cap_[i] * g_cap_scale;
    for (const CouplingCap& c : coupling_caps_) {
      const double g = c.farads * g_cap_scale;
      m.at(c.a, c.a) += g;
      m.at(c.b, c.b) += g;
      m.at(c.a, c.b) -= g;
      m.at(c.b, c.a) -= g;
    }
    // Pull-up connects to the rail node, pull-down to an implicit 0 V
    // ground: only the diagonal is stamped; the rail enters the RHS.
    for (std::size_t i = 0; i < drivers_.size(); ++i) {
      const DriverSlot& d = drivers_[i];
      m.at(d.out, d.out) += 1.0 / (driver_states_[i].up ? d.r_up : d.r_dn);
    }
  };
  if (config_.solver == SolverKind::banded) {
    BandMatrix m(n_, lower_, upper_);
    assemble(m);
    band_lu_ = BandLu(m);
  } else {
    DenseMatrix m(n_);
    assemble(m);
    dense_lu_ = LuFactorization(m);
  }

  rhs_base_ = rhs_static_;
  for (std::size_t i = 0; i < drivers_.size(); ++i) {
    const DriverSlot& d = drivers_[i];
    if (driver_states_[i].up) rhs_base_[d.out] += d.v_rail / d.r_up;
  }
  node_g_.resize(n_);
  for (std::size_t i = 0; i < n_; ++i) node_g_[i] = node_cap_[i] * g_cap_scale;
}

void TransientSimulator::solve(std::vector<double>& x) const {
  if (config_.solver == SolverKind::banded)
    band_lu_.solve_in_place(x);
  else
    dense_lu_.solve_in_place(x);
}

void TransientSimulator::dc_operating_point() {
  // Steady state: capacitor currents are zero, so solve the resistive
  // network only (cap stamps scaled by zero).
  factor(0.0);
  x_ = rhs_base_;
  solve(x_);
}

TransientResult TransientSimulator::run() {
  const auto& circuit_drivers = circuit_.drivers();
  TransientResult result;
  result.crossings_.assign(circuit_.node_count(), CrossingRecord{});
  result.driver_energy_.assign(drivers_.size(), 0.0);
  result.recorded_nodes_ = config_.record;
  result.recorded_waves_.assign(config_.record.size(), {});
  std::vector<std::size_t> record_slots;
  for (const NodeId nd : config_.record) record_slots.push_back(slot_.at(nd));

  driver_states_.clear();
  for (const auto& d : circuit_drivers) driver_states_.push_back({d.initial_up, 0});
  dc_operating_point();
  be_step_pending_ = true;  // first step from the (steady) operating point
  factor(cap_conductance_scale());
  bool matrix_is_be = true;
  node_currents_.assign(n_, 0.0);
  coupling_currents_.assign(coupling_caps_.size(), 0.0);
  // Only the trapezoidal rule reads the branch currents.
  const bool track_currents = config_.integrator == Integrator::trapezoidal;

  const double h = config_.dt;
  const double threshold = threshold_fraction_ * max_rail_;
  std::vector<CrossingRecord> crossings(n_);  // matrix-index space
  std::vector<double> rhs(n_);
  x_prev_.assign(n_, 0.0);

  const auto steps = static_cast<std::size_t>(std::ceil(config_.t_stop / h));
  for (std::size_t step = 1; step <= steps; ++step) {
    const double t = static_cast<double>(step) * h;

    // Apply driver events and inverter toggles due at the START of this
    // step (time t-h), so a toggle scheduled at time T first affects the
    // integration interval [T, T+h).
    bool topology_changed = false;
    for (std::size_t i = 0; i < drivers_.size(); ++i) {
      const auto& schedule = circuit_drivers[i].schedule;
      auto& st = driver_states_[i];
      while (st.next_event < schedule.size() &&
             schedule[st.next_event].time <= t - h + 1e-18) {
        if (st.up != schedule[st.next_event].drive_up) {
          st.up = schedule[st.next_event].drive_up;
          topology_changed = true;
        }
        ++st.next_event;
      }
      const DriverSlot& d = drivers_[i];
      if (d.in != kNoNode) {
        const double vin = slot_voltage(d.in);
        if (st.up && vin > d.threshold) {
          st.up = false;  // input went high -> inverter pulls down
          topology_changed = true;
        } else if (!st.up && vin < d.threshold) {
          st.up = true;  // input went low -> inverter pulls up
          topology_changed = true;
        }
      }
    }
    if (topology_changed) be_step_pending_ = true;
    const bool use_be =
        config_.integrator == Integrator::backward_euler || be_step_pending_;
    const double g_scale = cap_conductance_scale();
    if (topology_changed || use_be != matrix_is_be) {
      factor(g_scale);
      matrix_is_be = use_be;
    }

    // Right-hand side: fixed-node and driver rail injections plus the
    // capacitor history currents (g * v_prev for BE, g * v_prev + i_prev
    // for TR).
    for (std::size_t i = 0; i < n_; ++i) rhs[i] = rhs_base_[i] + node_g_[i] * x_[i];
    if (!use_be)
      for (std::size_t i = 0; i < n_; ++i) rhs[i] += node_currents_[i];
    for (std::size_t k = 0; k < coupling_caps_.size(); ++k) {
      const CouplingCap& c = coupling_caps_[k];
      double i_hist = c.farads * g_scale * (x_[c.a] - x_[c.b]);
      if (!use_be) i_hist += coupling_currents_[k];
      rhs[c.a] += i_hist;
      rhs[c.b] -= i_hist;
    }

    solve(rhs);
    x_prev_.swap(x_);
    x_.swap(rhs);

    // Capacitor branch currents (trapezoidal state).
    if (track_currents) {
      auto update = [&](double farads, double dv, double& current) {
        if (use_be)
          current = farads / h * dv;
        else
          current = 2.0 * farads / h * dv - current;
      };
      for (std::size_t i = 0; i < n_; ++i)
        update(node_cap_[i], x_[i] - x_prev_[i], node_currents_[i]);
      for (std::size_t k = 0; k < coupling_caps_.size(); ++k) {
        const CouplingCap& c = coupling_caps_[k];
        update(c.farads, (x_[c.a] - x_[c.b]) - (x_prev_[c.a] - x_prev_[c.b]),
               coupling_currents_[k]);
      }
    }
    be_step_pending_ = false;

    // Rail energy accounting (signed: charge pushed back reduces the total).
    for (std::size_t i = 0; i < drivers_.size(); ++i) {
      if (!driver_states_[i].up) continue;
      const DriverSlot& d = drivers_[i];
      const double current = (d.v_rail - x_[d.out]) / d.r_up;
      const double e = d.v_rail * current * h;
      result.rail_energy_ += e;
      result.driver_energy_[i] += e;
    }

    // Threshold crossings with linear interpolation inside the step.
    for (std::size_t i = 0; i < n_; ++i) {
      const double v0 = x_prev_[i];
      const double v1 = x_[i];
      // Non-short-circuit tests: one rarely-taken branch per node.
      const unsigned rise = unsigned{v0 < threshold} & unsigned{v1 >= threshold};
      const unsigned fall = unsigned{v0 > threshold} & unsigned{v1 <= threshold};
      if ((rise | fall) == 0) continue;
      if (rise) {
        const double frac = (threshold - v0) / (v1 - v0);
        crossings[i].last_rise = t - h + frac * h;
        ++crossings[i].rise_count;
      } else {
        const double frac = (v0 - threshold) / (v0 - v1);
        crossings[i].last_fall = t - h + frac * h;
        ++crossings[i].fall_count;
      }
    }

    if (!record_slots.empty()) {
      result.times_.push_back(t);
      for (std::size_t i = 0; i < record_slots.size(); ++i)
        result.recorded_waves_[i].push_back(slot_voltage(record_slots[i]));
    }
  }

  for (std::size_t i = 0; i < n_; ++i)
    result.crossings_[unknown_nodes_[i]] = crossings[i];
  result.final_voltages_.resize(circuit_.node_count());
  for (NodeId nd = 0; nd < circuit_.node_count(); ++nd)
    result.final_voltages_[nd] = slot_voltage(slot_[nd]);
  return result;
}

}  // namespace razorbus::spice
