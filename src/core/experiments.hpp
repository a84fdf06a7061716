// Experiment drivers reproducing the paper's evaluation.
//
// Every table and figure of the paper maps to one of these functions; the
// bench binaries are thin printers around them (see DESIGN.md section 4
// for the experiment index).
//
// Each experiment has ONE body, written against `trace::TraceSource`
// (DESIGN.md §12) and drained through a `trace::BlockReader`, so campaign
// length is bounded by simulation time, not memory. Every driver has two
// signatures over that body:
//
//   * The `*_streamed` signature takes sources and reports StreamStats.
//   * The Trace-taking signature is a forwarding adapter: it views the
//     resident words as a source (trace::make_trace_view_source), which the
//     reader serves zero-copy, and runs the same body.
//
// Every closed loop — single-bus threshold, proportional, consecutive,
// PVT-sampled, and sys::BusSystem's N buses — is one call to
// run_lockstep_loop: N lanes in lockstep on one regulator, per-lane window
// error counts fused by the arbitration policy into one controller input
// per window, and an optional drift schedule. A single-bus run is its
// one-lane case, so the N=1 parity of sys::BusSystem holds by construction.
//
// A report therefore depends only on the word sequence — never on the
// block size or on whether the words were resident (same integer counts,
// exactly equal energy/supply doubles; tests/stream_test.cpp compares a
// materialized trace against a lazy producer of the same words). The
// nominal-supply baseline of every closed-loop and fixed-VS report comes
// from a baseline simulator fed the same spans in lockstep
// (DvsBusSystem::make_baseline_simulator). Traces wider than the bus
// throw; narrower traces are legal (surplus wires hold).
//
// Drivers give each shard its own reader over a clone of the source (one
// per sweep supply / suite trace / Monte-Carlo sample), so the §9
// determinism contract — bit-identical at any thread count — holds.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/system.hpp"
#include "drift/schedule.hpp"
#include "dvs/arbitration.hpp"
#include "dvs/controller.hpp"
#include "dvs/proportional.hpp"
#include "trace/source.hpp"
#include "trace/trace.hpp"
#include "util/stats.hpp"

namespace razorbus::core {

// ------------------------------------------------ streaming configuration
// Block sizing for the streamed drivers: each active stream is served
// through one buffer of `block_cycles` BusWords (1 MiB at the default; a
// resident trace needs none), so peak trace memory is block_cycles x
// concurrent shards, independent of how many cycles the campaign runs.
// Purely a memory/throughput knob — results are bit-identical at ANY block
// size (the batched engine's totals are invariant under span splits,
// DESIGN.md §5).
struct StreamConfig {
  std::size_t block_cycles = trace::kDefaultBlockCycles;
};

// Block accounting a streamed driver reports (trace::StreamStats). Counts
// cover every pass the driver makes: the closed-loop baseline shares its
// pass; each sweep supply (or SIMD chunk) is its own pass.
using StreamStats = trace::StreamStats;

// ---------------------------------------------------------------- Fig. 4
struct SweepPoint {
  double supply = 0.0;        // regulator output (V)
  double error_rate = 0.0;    // bus timing errors per cycle
  double bus_energy = 0.0;    // J over the traces (wires + leakage)
  double total_energy = 0.0;  // + razor/recovery overhead
  double norm_bus_energy = 0.0;    // relative to the nominal-supply bus energy
  double norm_total_energy = 0.0;  // same normalisation, with overhead
};

struct StaticSweepResult {
  std::vector<SweepPoint> points;   // ascending supply
  double baseline_bus_energy = 0.0; // bus energy at the nominal supply (J)
  double floor_supply = 0.0;        // shadow-safe minimum for this corner
};

// Run the combined traces at every 20 mV grid supply from the corner's
// shadow floor up to nominal. Sharded one supply point per shard (each
// point runs on its own BusSimulator), results in ascending-supply order —
// bit-identical at any thread count (DESIGN.md §9). The traces run back to
// back, i.e. as their concatenation, so they must share one width.
StaticSweepResult static_voltage_sweep(
    const DvsBusSystem& system, const tech::PvtCorner& environment,
    const std::vector<trace::Trace>& traces, double timing_jitter_sigma = 0.0,
    bus::EngineMode engine = bus::EngineMode::bit_parallel);

// Streamed form: each supply shard (or SIMD chunk of supplies) drains its
// own reader over `source`. For a suite pass trace::concatenate_sources.
StaticSweepResult static_voltage_sweep_streamed(
    const DvsBusSystem& system, const tech::PvtCorner& environment,
    const trace::TraceSource& source, double timing_jitter_sigma = 0.0,
    bus::EngineMode engine = bus::EngineMode::bit_parallel,
    const StreamConfig& stream = {}, StreamStats* stats = nullptr);

// ---------------------------------------------------------------- Fig. 5
struct TargetGainPoint {
  double target_error_rate = 0.0;
  double chosen_supply = 0.0;
  double achieved_error_rate = 0.0;
  double energy_gain = 0.0;  // 1 - E(total at chosen) / E(bus at nominal)
};

// Lowest static supply whose combined error rate stays within each target;
// reports the resulting energy gains (0 targets require exactly 0 errors).
std::vector<TargetGainPoint> gains_for_targets(const StaticSweepResult& sweep,
                                               const std::vector<double>& targets);

// ---------------------------------------------------------------- Fig. 6
struct VoltageDistribution {
  std::string benchmark;
  double target_error_rate = 0.0;
  // (supply, fraction of execution time) sorted by supply.
  std::vector<std::pair<double, double>> time_at_voltage;
  double achieved_error_rate = 0.0;
};

VoltageDistribution oracle_voltage_distribution(const DvsBusSystem& system,
                                                const tech::PvtCorner& environment,
                                                const trace::Trace& trace,
                                                double target_error_rate,
                                                std::uint64_t window_cycles = 10000);

// ------------------------------------------------------- Table 1 / Fig. 8
struct WindowSample {
  std::uint64_t end_cycle = 0;
  double supply = 0.0;      // at the window boundary
  double error_rate = 0.0;  // of the closed window
};

struct DvsRunConfig {
  dvs::ControllerConfig controller{};
  std::uint64_t regulator_delay_cycles = 3000;  // 2 us at 1.5 GHz
  double start_supply = 0.0;                    // 0 = nominal
  double timing_jitter_sigma = 0.0;
  bool record_series = false;                   // keep per-window samples (Fig. 8)
  // Cycle engine for the run. Results are bit-identical either way
  // (DESIGN.md §5); scenario specs select `reference` to cross-check.
  bus::EngineMode engine = bus::EngineMode::bit_parallel;
};

struct DvsRunReport {
  bus::RunningTotals totals;
  double baseline_bus_energy = 0.0;  // same trace at nominal, conventional bus
  double floor_supply = 0.0;
  double average_supply = 0.0;       // cycle-weighted
  std::vector<WindowSample> series;

  double energy_gain() const {
    return baseline_bus_energy > 0.0
               ? 1.0 - totals.total_energy() / baseline_bus_energy
               : 0.0;
  }
  double error_rate() const { return totals.error_rate(); }
};

// ------------------------------------------------------- the closed loop
// One bus of a lockstep closed loop. `system` is non-owning and must
// outlive the run; `weight` is read by the `weighted` arbitration policy.
struct LoopLane {
  const DvsBusSystem* system = nullptr;
  double weight = 1.0;
};

// The threshold run config plus the multi-lane knobs (sys::SystemRunConfig).
struct LoopConfig {
  DvsRunConfig run{};
  dvs::ArbitrationPolicy arbitration = dvs::ArbitrationPolicy::max_error;
  drift::Schedule drift{};  // default-constructed = disabled
};

struct LoopReport {
  // One report per source, in source order. A lane's report at N=1 is the
  // single-bus driver's DvsRunReport (series lives below instead).
  std::vector<DvsRunReport> per_bus;
  // One series for the whole run: the shared supply and the FUSED window
  // error rate at each completed window boundary.
  std::vector<WindowSample> series;
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

// The one closed loop, with the paper's threshold controller. `sources`
// holds one source per lane for each leg, leg-major; the legs run back to
// back with regulator, controller and window state carried across, each
// against fresh nominal baselines, and per_bus reports them in the same
// order. The lanes share one regulator whose floor is the highest lane
// dvs_floor; a leg ends when its shortest source does. Segments end at
// window ends and regulator change landings, never at block boundaries.
// At each window end the per-lane error counts are fused by
// `config.arbitration`, saturated at the window length, and fed to the
// controller; an enabled `config.drift` then re-derives the corner of every
// lane and baseline. Throws std::invalid_argument when `lanes` is empty or
// `sources` does not fill whole legs, and on a source wider than its lane.
LoopReport run_lockstep_loop(
    const std::vector<LoopLane>& lanes, const tech::PvtCorner& environment,
    const std::vector<std::unique_ptr<trace::TraceSource>>& sources,
    const LoopConfig& config = {}, const StreamConfig& stream = {},
    StreamStats* stats = nullptr);

// Closed-loop DVS over one trace (controller + ramping regulator).
DvsRunReport run_closed_loop(const DvsBusSystem& system,
                             const tech::PvtCorner& environment,
                             const trace::Trace& trace, const DvsRunConfig& config = {});

// Streamed form: run_lockstep_loop with one lane and one leg — a single
// pass over a clone of `source`, the nominal-supply baseline fed the same
// spans in lockstep.
DvsRunReport run_closed_loop_streamed(const DvsBusSystem& system,
                                      const tech::PvtCorner& environment,
                                      const trace::TraceSource& source,
                                      const DvsRunConfig& config = {},
                                      const StreamConfig& stream = {},
                                      StreamStats* stats = nullptr);

// Fixed-VS baseline: run the trace at the fixed-VS supply for the corner's
// process. Gains are zero errors by construction (at zero jitter; a
// non-zero jitter can push arrivals past the capture limit).
DvsRunReport run_fixed_vs(const DvsBusSystem& system, const tech::PvtCorner& environment,
                          const trace::Trace& trace,
                          bus::EngineMode engine = bus::EngineMode::bit_parallel,
                          double timing_jitter_sigma = 0.0);

DvsRunReport run_fixed_vs_streamed(const DvsBusSystem& system,
                                   const tech::PvtCorner& environment,
                                   const trace::TraceSource& source,
                                   bus::EngineMode engine = bus::EngineMode::bit_parallel,
                                   double timing_jitter_sigma = 0.0,
                                   const StreamConfig& stream = {},
                                   StreamStats* stats = nullptr);

// Closed loop with the PROPORTIONAL controller the paper discusses and
// rejects (Section 5). Same regulator model; the controller requests
// multi-step changes proportional to the band error. Used by the ablation
// bench to test the paper's "simpler is sufficient" argument. It runs as
// the one-lane run_lockstep_loop with a proportional window decision.
struct ProportionalRunConfig {
  dvs::ProportionalConfig controller{};
  std::uint64_t regulator_delay_cycles = 3000;
  double start_supply = 0.0;
  double timing_jitter_sigma = 0.0;
  bus::EngineMode engine = bus::EngineMode::bit_parallel;
};

DvsRunReport run_closed_loop_proportional(const DvsBusSystem& system,
                                          const tech::PvtCorner& environment,
                                          const trace::Trace& trace,
                                          const ProportionalRunConfig& config = {});

DvsRunReport run_closed_loop_proportional_streamed(
    const DvsBusSystem& system, const tech::PvtCorner& environment,
    const trace::TraceSource& source, const ProportionalRunConfig& config = {},
    const StreamConfig& stream = {}, StreamStats* stats = nullptr);

// Continue a closed-loop run across consecutive traces without resetting
// controller/regulator state (Fig. 8 runs the 10 benchmarks back to back).
struct ConsecutiveRunReport {
  std::vector<DvsRunReport> per_trace;
  std::vector<WindowSample> series;  // stitched, cycle offsets cumulative
};

ConsecutiveRunReport run_consecutive(const DvsBusSystem& system,
                                     const tech::PvtCorner& environment,
                                     const std::vector<trace::Trace>& traces,
                                     const DvsRunConfig& config = {});

// Streamed form of the paper's headline run: run_lockstep_loop with one
// lane and one leg per source, so regulator, controller and window state
// carry across source boundaries — the path that makes billion-cycle
// Fig. 8 campaigns memory-feasible. Each source keeps its own totals,
// average supply and lockstep baseline.
ConsecutiveRunReport run_consecutive_streamed(
    const DvsBusSystem& system, const tech::PvtCorner& environment,
    const std::vector<std::unique_ptr<trace::TraceSource>>& sources,
    const DvsRunConfig& config = {}, const StreamConfig& stream = {},
    StreamStats* stats = nullptr);

// Independent closed-loop / fixed-VS runs over a trace suite (Table 1 runs
// every benchmark separately). Unlike run_consecutive, controller and
// regulator state reset per trace, so the traces are embarrassingly
// parallel: sharded one trace per shard, one BusSimulator per shard,
// reports returned in trace order (DESIGN.md §9).
std::vector<DvsRunReport> run_closed_loop_suite(const DvsBusSystem& system,
                                                const tech::PvtCorner& environment,
                                                const std::vector<trace::Trace>& traces,
                                                const DvsRunConfig& config = {});
std::vector<DvsRunReport> run_fixed_vs_suite(
    const DvsBusSystem& system, const tech::PvtCorner& environment,
    const std::vector<trace::Trace>& traces,
    bus::EngineMode engine = bus::EngineMode::bit_parallel,
    double timing_jitter_sigma = 0.0);

// Streamed suite forms: one shard per source, each shard running the
// streamed single-trace driver on its own reader.
std::vector<DvsRunReport> run_closed_loop_suite_streamed(
    const DvsBusSystem& system, const tech::PvtCorner& environment,
    const std::vector<std::unique_ptr<trace::TraceSource>>& sources,
    const DvsRunConfig& config = {}, const StreamConfig& stream = {},
    StreamStats* stats = nullptr);
std::vector<DvsRunReport> run_fixed_vs_suite_streamed(
    const DvsBusSystem& system, const tech::PvtCorner& environment,
    const std::vector<std::unique_ptr<trace::TraceSource>>& sources,
    bus::EngineMode engine = bus::EngineMode::bit_parallel,
    double timing_jitter_sigma = 0.0, const StreamConfig& stream = {},
    StreamStats* stats = nullptr);

// ------------------------------------------------- PVT sampling extension
// Monte-Carlo over operating conditions (the paper hand-picks corners; the
// ablation samples a part population instead). Sharded one sample per
// shard: sample s draws its PVT point from a private Rng seeded with
// SplitMix of (seed, s) and runs on its own BusSimulator, so the
// population — and every derived statistic — is bit-identical at any
// thread count (DESIGN.md §9).
struct PvtSampleConfig {
  int samples = 24;
  std::uint64_t seed = 2025;
  DvsRunConfig run{};
};

struct PvtSample {
  tech::PvtCorner corner;
  DvsRunReport report;
};

struct PvtSampleResult {
  std::vector<PvtSample> samples;  // in sample (shard) order
  RunningStats gain_stats;         // merged in shard order
  RunningStats err_stats;
};

PvtSampleResult pvt_sample_gains(const DvsBusSystem& system, const trace::Trace& trace,
                                 const PvtSampleConfig& config = {});

// Streamed form: each sample shard runs the closed loop on its own reader
// over `source`. Under EngineMode::simd every sample's nominal baseline
// comes from one multi-point drain of the stream instead of a lockstep
// simulator per sample (bit-identical either way).
PvtSampleResult pvt_sample_gains_streamed(const DvsBusSystem& system,
                                          const trace::TraceSource& source,
                                          const PvtSampleConfig& config = {},
                                          const StreamConfig& stream = {},
                                          StreamStats* stats = nullptr);

}  // namespace razorbus::core
