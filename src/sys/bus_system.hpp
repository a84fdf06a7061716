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
// into the single count the threshold controller sees.
//
// BusSystem validates its lanes and runs core::run_lockstep_loop — the one
// closed loop every single-bus driver runs too. Contracts, in the spirit
// of DESIGN.md §5/§12:
//
//  * N=1 PARITY holds by construction: a single-bus driver
//    (core::run_closed_loop{,_streamed}) is the loop's one-lane case, and
//    every arbitration policy is the identity at N=1 (unit weight).
//    tests/system_test.cpp keeps checking it per width and engine.
//  * One reader per lane serves logical segments across spans, so block
//    boundaries never move a control decision; run_closed_loop forwards to
//    run_closed_loop_streamed over zero-copy views of the resident traces.
//  * A fused window count above the window length (sum_error, or weights
//    above 1) saturates at the window length: the rate is above any band,
//    so the controller steps up exactly as it would unsaturated.
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
#include "drift/schedule.hpp"
#include "tech/corner.hpp"
#include "trace/source.hpp"
#include "trace/trace.hpp"

namespace razorbus::sys {

// One bus of the system (non-owning `system`, `weight` for `weighted`),
// the single-bus run config plus the system knobs, and the report: the
// core loop's own types.
using BusLane = core::LoopLane;
using SystemRunConfig = core::LoopConfig;
using SystemRunReport = core::LoopReport;

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
};

// Resolve a declarative drift spec (core::DriftSpec, docs/campaigns.md
// `drift`) into a schedule: the linear form ramps over `cycles` (the
// job's resolved budget), the piecewise form uses its breakpoints as-is.
// A disabled spec yields a disabled schedule.
drift::Schedule schedule_from_spec(const core::DriftSpec& spec,
                                   std::uint64_t cycles);

}  // namespace razorbus::sys
