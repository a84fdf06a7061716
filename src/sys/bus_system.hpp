// Multi-bus shared-supply system (docs/campaigns.md `multi_bus`,
// docs/architecture.md layer map).
//
// The paper evaluates one bus; a realistic SoC deployment hangs several
// buses of different widths and lengths off ONE regulator with ONE DVS
// controller. `BusSystem` models exactly that: N independent
// `bus::BusSimulator`s (each its own design, receiver bank and trace
// stream) advance in lockstep under a shared supply, each bus counts its
// own receiver-bank errors per controller window, and a pluggable
// arbitration policy (dvs::fuse_window_errors) fuses the N window counts
// into the single count the threshold controller sees. Decisions and
// regulator ramping are untouched single-bus machinery.
//
// Contracts, in the spirit of DESIGN.md §5/§12:
//
//  * N=1 PARITY (the load-bearing invariant, tests/system_test.cpp): a
//    one-bus BusSystem report is bit-identical to the single-bus
//    closed-loop drivers (core::run_closed_loop{,_streamed}) — same
//    integer counts, exactly equal doubles, for every arbitration policy
//    (they all reduce to the identity at N=1) and every engine mode.
//    Segments are delimited by controller windows and regulator change
//    landings exactly as the single-bus loop delimits them; the fused
//    window count equals the lane count; and the controller is fed whole
//    windows, which the count-based threshold decision cannot
//    distinguish from the single-bus per-segment feeding.
//  * ONE BODY: the lockstep loop lives in run_closed_loop_streamed, which
//    drains one trace::BlockReader per lane and serves logical segments
//    across reader spans, so block boundaries never move a control
//    decision. run_closed_loop forwards to it over zero-copy views of the
//    resident traces, so both report identically on the same words.
//  * DRIFT: an enabled drift::Schedule re-derives the operating corner at
//    every controller-window boundary and applies it to all lanes AND
//    their lockstep nominal baselines (the gain under drift compares the
//    DVS bus against a conventional bus aging in the same environment).
//    A disabled schedule executes the exact static-corner code path, so
//    zero-drift runs are byte-identical to static runs
//    (tests/drift_test.cpp). Window-granular application keeps a
//    10^9-cycle streamed drift run at ~10^5 table re-slices and O(block)
//    resident trace memory.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/experiments.hpp"
#include "core/scenario_spec.hpp"
#include "core/system.hpp"
#include "drift/schedule.hpp"
#include "dvs/arbitration.hpp"
#include "tech/corner.hpp"
#include "trace/source.hpp"
#include "trace/trace.hpp"

namespace razorbus::sys {

// One bus of the system. `system` is non-owning and must outlive the
// BusSystem; `weight` is read by the `weighted` arbitration policy.
struct BusLane {
  const core::DvsBusSystem* system = nullptr;
  double weight = 1.0;
};

// The single-bus run config (so a single-bus config maps 1:1 onto the N=1
// parity case) plus the system-level knobs.
struct SystemRunConfig {
  core::DvsRunConfig run{};
  dvs::ArbitrationPolicy arbitration = dvs::ArbitrationPolicy::max_error;
  drift::Schedule drift{};  // default-constructed = disabled
};

struct SystemRunReport {
  // Per-lane reports in lane order. At N=1, per_bus[0] is bit-identical
  // to the single-bus driver's DvsRunReport (series lives below instead).
  std::vector<core::DvsRunReport> per_bus;
  // One series for the whole system: the shared supply and the FUSED
  // window error rate at each completed window boundary.
  std::vector<core::WindowSample> series;
  std::uint64_t cycles = 0;   // lockstep cycles executed (per lane)
  std::uint64_t windows = 0;  // completed controller windows
  double floor_supply = 0.0;
  double average_supply = 0.0;  // cycle-weighted shared supply
  // Wall-tracking error of the controller: mean |fused window error rate
  // - band midpoint| over completed windows — how tightly the shared
  // loop holds the paper's [low, high] band under arbitration and drift.
  double wall_tracking_error = 0.0;
  std::uint64_t env_updates = 0;  // drift corner changes actually applied

  double total_energy() const {
    double e = 0.0;
    for (const auto& r : per_bus) e += r.totals.total_energy();
    return e;
  }
  double baseline_bus_energy() const {
    double e = 0.0;
    for (const auto& r : per_bus) e += r.baseline_bus_energy;
    return e;
  }
  double energy_gain() const {
    const double base = baseline_bus_energy();
    return base > 0.0 ? 1.0 - total_energy() / base : 0.0;
  }
  double error_rate() const {
    std::uint64_t cyc = 0, err = 0;
    for (const auto& r : per_bus) {
      cyc += r.totals.cycles;
      err += r.totals.errors;
    }
    return cyc ? static_cast<double>(err) / static_cast<double>(cyc) : 0.0;
  }
};

class BusSystem {
 public:
  // Throws std::invalid_argument on an empty lane list, a null lane
  // system, a non-positive weight, or lanes whose designs disagree on the
  // nominal supply (one regulator, one rail).
  explicit BusSystem(std::vector<BusLane> lanes);

  const std::vector<BusLane>& lanes() const { return lanes_; }

  // Materialized run: one trace per lane, lockstep; the run ends when the
  // shortest trace does. Traces wider than their lane throw (the
  // single-bus width rule, per lane). Forwards to run_closed_loop_streamed
  // over zero-copy views of the traces.
  SystemRunReport run_closed_loop(const tech::PvtCorner& environment,
                                  const std::vector<trace::Trace>& traces,
                                  const SystemRunConfig& config = {}) const;

  // Streamed run: one source per lane, each drained through its own
  // reader in lockstep; ends when the first source does.
  SystemRunReport run_closed_loop_streamed(
      const tech::PvtCorner& environment,
      const std::vector<std::unique_ptr<trace::TraceSource>>& sources,
      const SystemRunConfig& config = {}, const core::StreamConfig& stream = {},
      core::StreamStats* stats = nullptr) const;

 private:
  std::vector<BusLane> lanes_;
  std::vector<double> weights_;  // lanes_[i].weight, for fuse_window_errors
};

// Resolve a declarative drift spec (core::DriftSpec, docs/campaigns.md
// `drift`) into a schedule: the linear form ramps over `cycles` (the
// job's resolved budget), the piecewise form uses its breakpoints as-is.
// A disabled spec yields a disabled schedule.
drift::Schedule schedule_from_spec(const core::DriftSpec& spec,
                                   std::uint64_t cycles);

}  // namespace razorbus::sys
