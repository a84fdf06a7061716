#include "sys/bus_system.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>

#include "bus/simulator.hpp"
#include "dvs/regulator.hpp"
#include "util/busword.hpp"

namespace razorbus::sys {

BusSystem::BusSystem(std::vector<BusLane> lanes) : lanes_(std::move(lanes)) {
  if (lanes_.empty()) throw std::invalid_argument("sys: no buses");
  for (const BusLane& lane : lanes_) {
    if (lane.system == nullptr) throw std::invalid_argument("sys: null lane system");
    if (!(lane.weight > 0.0))
      throw std::invalid_argument("sys: lane weight must be > 0");
  }
  const double vnom = lanes_.front().system->design().node.vdd_nominal;
  for (const BusLane& lane : lanes_)
    // razorlint: allow(float-eq): one regulator drives one rail; designs
    // must agree on the nominal supply exactly, not approximately.
    if (lane.system->design().node.vdd_nominal != vnom)
      throw std::invalid_argument(
          "sys: all buses must share one supply rail (vdd_nominal mismatch)");
  weights_.reserve(lanes_.size());
  for (const BusLane& lane : lanes_) weights_.push_back(lane.weight);
}

SystemRunReport BusSystem::run_closed_loop(const tech::PvtCorner& environment,
                                           const std::vector<trace::Trace>& traces,
                                           const SystemRunConfig& config) const {
  if (traces.size() != lanes_.size())
    throw std::invalid_argument("sys: " + std::to_string(lanes_.size()) +
                                " buses but " + std::to_string(traces.size()) +
                                " traces");
  std::vector<std::unique_ptr<trace::TraceSource>> views;
  views.reserve(traces.size());
  for (const auto& t : traces) views.push_back(trace::make_trace_view_source(t));
  return run_closed_loop_streamed(environment, views, config);
}

// Mirrors core's single-bus threshold loop segment for segment: every span
// runs at one regulator voltage, inside one controller window, and ends at
// a pending change landing. Chunks are cut where every lane's reader can
// serve them; reader spans subdivide the sim.run calls but never the
// control arithmetic (span-split invariance, DESIGN.md §5).
SystemRunReport BusSystem::run_closed_loop_streamed(
    const tech::PvtCorner& environment,
    const std::vector<std::unique_ptr<trace::TraceSource>>& sources,
    const SystemRunConfig& config, const core::StreamConfig& stream,
    core::StreamStats* stats) const {
  if (sources.size() != lanes_.size())
    throw std::invalid_argument("sys: " + std::to_string(lanes_.size()) +
                                " buses but " + std::to_string(sources.size()) +
                                " sources");
  for (std::size_t l = 0; l < lanes_.size(); ++l)
    lanes_[l].system->check_trace_width(*sources[l]);
  std::vector<trace::BlockReader> readers;
  readers.reserve(sources.size());
  for (const auto& s : sources) readers.emplace_back(*s, stream.block_cycles);

  const core::DvsRunConfig& run = config.run;
  const std::size_t n_lanes = lanes_.size();
  const double vnom = lanes_.front().system->design().node.vdd_nominal;
  double floor = 0.0;
  for (const BusLane& lane : lanes_)
    floor = std::max(floor, lane.system->dvs_floor(environment.process));
  const double start = run.start_supply > 0.0 ? run.start_supply : vnom;

  std::vector<bus::BusSimulator> sims;
  std::vector<bus::BusSimulator> baselines;
  sims.reserve(n_lanes);
  baselines.reserve(n_lanes);
  for (const BusLane& lane : lanes_) {
    sims.push_back(lane.system->make_simulator(environment));
    sims.back().set_engine_mode(run.engine);
    if (run.timing_jitter_sigma > 0.0)
      sims.back().set_timing_jitter(run.timing_jitter_sigma);
    baselines.push_back(lane.system->make_baseline_simulator(environment));
  }

  dvs::VoltageRegulator regulator(start, floor, vnom, run.regulator_delay_cycles);
  dvs::ThresholdController controller(run.controller);
  for (auto& sim : sims) sim.set_supply(regulator.voltage());

  const std::uint64_t window = run.controller.window_cycles;
  const double band_mid =
      0.5 * (run.controller.low_threshold + run.controller.high_threshold);
  const std::vector<double>& temp_axis = lanes_.front().system->table().temps();

  SystemRunReport report;
  report.floor_supply = floor;

  std::uint64_t cycle = 0;
  std::uint64_t remaining_window = window;
  std::vector<std::uint64_t> window_errors(n_lanes, 0);
  double supply_sum = 0.0;
  double track_sum = 0.0;
  tech::PvtCorner current = environment;

  // Re-derive the drift corner for the window starting at `at_cycle` and
  // push it into every lane and its lockstep baseline. Disabled schedules
  // never reach a set_environment call, which is what keeps zero-drift
  // runs byte-identical to static-corner runs.
  const auto apply_drift = [&](std::uint64_t at_cycle) {
    if (!config.drift.enabled()) return;
    const tech::PvtCorner next =
        config.drift.corner_at(environment, at_cycle, vnom, temp_axis);
    if (next == current) return;
    current = next;
    ++report.env_updates;
    for (auto& sim : sims) sim.set_environment(next);
    for (auto& baseline : baselines) baseline.set_environment(next);
  };
  apply_drift(0);

  for (;;) {
    bool more = true;
    for (auto& reader : readers) more = reader.available() > 0 && more;
    if (!more) break;

    const double advanced = regulator.advance(cycle);
    for (auto& sim : sims) sim.set_supply(advanced);

    std::uint64_t planned = remaining_window;
    const std::uint64_t change = regulator.next_change_cycle();
    if (change != dvs::VoltageRegulator::kNoPendingChange && change > cycle)
      planned = std::min(planned, change - cycle);

    // Serve the logical segment across reader spans, lockstep on every
    // lane; short only when a stream ends mid-segment.
    std::uint64_t served = 0;
    while (served < planned) {
      std::size_t avail = std::numeric_limits<std::size_t>::max();
      for (auto& reader : readers) avail = std::min(avail, reader.available());
      if (avail == 0) break;
      const auto chunk = static_cast<std::size_t>(
          std::min<std::uint64_t>(planned - served, avail));
      for (std::size_t l = 0; l < n_lanes; ++l) {
        const BusWord* words = readers[l].take(chunk);
        window_errors[l] += sims[l].run(words, chunk).errors;
        baselines[l].run(words, chunk);
      }
      served += chunk;
    }
    if (served == 0) break;
    supply_sum += sims.front().supply() * static_cast<double>(served);
    cycle += served;
    remaining_window -= served;

    if (remaining_window == 0) {
      const std::uint64_t fused =
          dvs::fuse_window_errors(config.arbitration, window_errors, weights_);
      const dvs::VoltageDecision decision = controller.observe_segment(window, fused);
      // The decision belongs to the last cycle of the window (cycle - 1),
      // exactly when the single-bus loop would have issued it.
      if (decision == dvs::VoltageDecision::step_down)
        regulator.request_change(-run.controller.voltage_step, cycle - 1);
      else if (decision == dvs::VoltageDecision::step_up)
        regulator.request_change(+run.controller.voltage_step, cycle - 1);

      track_sum += std::abs(controller.last_window_error_rate() - band_mid);
      ++report.windows;
      if (run.record_series)
        report.series.push_back(
            {cycle, sims.front().supply(), controller.last_window_error_rate()});
      std::fill(window_errors.begin(), window_errors.end(), 0);
      remaining_window = window;
      apply_drift(cycle);
    }
  }
  for (const auto& reader : readers) reader.account(stats);

  report.cycles = cycle;
  report.average_supply =
      cycle == 0 ? sims.front().supply()
                 : supply_sum / static_cast<double>(cycle);
  report.wall_tracking_error =
      report.windows == 0 ? 0.0 : track_sum / static_cast<double>(report.windows);
  report.per_bus.reserve(n_lanes);
  for (std::size_t l = 0; l < n_lanes; ++l) {
    core::DvsRunReport r;
    r.totals = sims[l].totals();
    r.floor_supply = floor;
    r.average_supply = report.average_supply;
    r.baseline_bus_energy = baselines[l].totals().bus_energy;
    report.per_bus.push_back(std::move(r));
  }
  return report;
}

drift::Schedule schedule_from_spec(const core::DriftSpec& spec,
                                   std::uint64_t cycles) {
  if (!spec.enabled) return {};
  if (!spec.points.empty()) {
    std::vector<drift::Breakpoint> points;
    points.reserve(spec.points.size());
    for (const auto& p : spec.points)
      points.push_back({p.cycle, p.temp_c, p.vth_shift});
    return drift::Schedule::piecewise(std::move(points));
  }
  return drift::Schedule::linear(cycles, spec.temp_start, spec.temp_end,
                                 spec.vth_shift_start, spec.vth_shift_end);
}

}  // namespace razorbus::sys
