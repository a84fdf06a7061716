#include "sys/bus_system.hpp"

#include <stdexcept>
#include <string>
#include <utility>

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

SystemRunReport BusSystem::run_closed_loop_streamed(
    const tech::PvtCorner& environment,
    const std::vector<std::unique_ptr<trace::TraceSource>>& sources,
    const SystemRunConfig& config, const core::StreamConfig& stream,
    core::StreamStats* stats) const {
  if (sources.size() != lanes_.size())
    throw std::invalid_argument("sys: " + std::to_string(lanes_.size()) +
                                " buses but " + std::to_string(sources.size()) +
                                " sources");
  return core::run_lockstep_loop(lanes_, environment, sources, config, stream, stats);
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
