#include "core/experiments.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <stdexcept>

#include "dvs/regulator.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace razorbus::core {

namespace {

// Resident traces as sources: the BlockReader serves each view straight
// from the trace's vector, so a Trace-taking driver runs its streamed body
// without copying a word.
std::vector<std::unique_ptr<trace::TraceSource>> view_sources(
    const std::vector<trace::Trace>& traces) {
  std::vector<std::unique_ptr<trace::TraceSource>> sources;
  sources.reserve(traces.size());
  for (const auto& t : traces) sources.push_back(trace::make_trace_view_source(t));
  return sources;
}

// Drain `reader` through `sim` (and the same spans through `baseline`,
// when given). The engine's span-split invariance makes the totals
// independent of the block size and of whether the words were resident.
void drain(trace::BlockReader& reader, bus::BusSimulator& sim,
           bus::BusSimulator* baseline) {
  for (std::size_t n; (n = reader.available()) > 0;) {
    const BusWord* words = reader.take(n);
    sim.run(words, n);
    if (baseline != nullptr) baseline->run(words, n);
  }
}

void drain(trace::BlockReader& reader, bus::MultiPointEngine& engine) {
  for (std::size_t n; (n = reader.available()) > 0;) engine.run(reader.take(n), n);
}

// Length of the next logical segment for a closed-loop driver at `cycle`:
// up to the end of the controller window or the cycle at which a pending
// regulator change lands, whichever comes first. The regulator output is
// constant across such a segment.
std::uint64_t plan_segment(std::uint64_t remaining_in_window,
                           std::uint64_t next_change_cycle, std::uint64_t cycle) {
  std::uint64_t seg = remaining_in_window;
  if (next_change_cycle != dvs::VoltageRegulator::kNoPendingChange &&
      next_change_cycle > cycle)
    seg = std::min(seg, next_change_cycle - cycle);
  return seg;
}

// Monte-Carlo operating-point draw of pvt_sample_gains: the population is
// part of the determinism contract, so there is exactly one copy of the
// distribution.
tech::PvtCorner draw_pvt_corner(Rng& rng) {
  tech::PvtCorner corner;
  // Process corners are discrete (die-to-die); skew toward typical.
  const double p = rng.next_double();
  corner.process = p < 0.2   ? tech::ProcessCorner::slow
                   : p < 0.8 ? tech::ProcessCorner::typical
                             : tech::ProcessCorner::fast;
  corner.temp_c = rng.uniform(25.0, 100.0);
  corner.ir_drop_fraction = rng.uniform(0.0, 0.10);

  // Temperatures are characterised at 25/100C; evaluate at the nearer one
  // (the table axis is coarse by design, like the paper's).
  corner.temp_c = corner.temp_c < 62.5 ? 25.0 : 100.0;
  return corner;
}

// ------------------------------------------------- batched (simd) helpers
//
// EngineMode::simd routes the sweep's point loop through
// bus::MultiPointEngine (DESIGN.md §13): one pass over the trace per CHUNK
// of operating points instead of one pass per point. Per-point results are
// bit-identical to the scalar loop at any chunking, so the chunk count is
// free to follow the thread pool — reports never depend on it.

// Supply points for one environment, in `supplies` order.
std::vector<bus::OperatingPoint> supply_points(const std::vector<double>& supplies,
                                               std::size_t lo, std::size_t hi,
                                               const tech::PvtCorner& environment) {
  std::vector<bus::OperatingPoint> points;
  points.reserve(hi - lo);
  for (std::size_t s = lo; s < hi; ++s) points.push_back({supplies[s], environment});
  return points;
}

std::size_t sweep_chunks(std::size_t n_points) {
  return std::min<std::size_t>(n_points,
                               std::max<std::size_t>(1, util::global_threads()));
}

std::vector<SweepPoint> collect_sweep_points(const bus::MultiPointEngine& engine,
                                             const std::vector<bus::OperatingPoint>& points) {
  std::vector<SweepPoint> out(points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    const bus::RunningTotals totals = engine.totals(i);
    out[i].supply = points[i].supply;
    out[i].error_rate = totals.error_rate();
    out[i].bus_energy = totals.bus_energy;
    out[i].total_energy = totals.total_energy();
  }
  return out;
}

// Each chunk drains its own reader through the batched engine — N supplies
// per drain instead of one, so a 20-supply sweep pulls the stream ~threads
// times instead of 20.
std::vector<SweepPoint> sweep_points_batched(
    const DvsBusSystem& system, const tech::PvtCorner& environment,
    const std::vector<double>& supplies, double timing_jitter_sigma,
    const trace::TraceSource& source, const StreamConfig& stream,
    std::vector<StreamStats>& shard_stats) {
  const std::size_t n_chunks = sweep_chunks(supplies.size());
  const std::size_t per = (supplies.size() + n_chunks - 1) / n_chunks;
  shard_stats.assign(n_chunks, StreamStats{});
  auto chunks = util::parallel_map(util::global_pool(), n_chunks, [&](std::size_t c) {
    const std::size_t lo = std::min(supplies.size(), c * per);
    const std::size_t hi = std::min(supplies.size(), lo + per);
    if (lo >= hi) return std::vector<SweepPoint>{};
    const auto points = supply_points(supplies, lo, hi, environment);
    bus::MultiPointConfig config;
    config.timing_jitter_sigma = timing_jitter_sigma;
    bus::MultiPointEngine engine(system.design(), system.table(), points, config);
    trace::BlockReader reader(source, stream.block_cycles);
    drain(reader, engine);
    reader.account(&shard_stats[c]);
    return collect_sweep_points(engine, points);
  });
  std::vector<SweepPoint> points;
  points.reserve(supplies.size());
  for (auto& chunk : chunks) points.insert(points.end(), chunk.begin(), chunk.end());
  return points;
}

// The end-of-window decision of a closed loop: the window's fused error
// count in, the requested supply change out (volts, 0 holds). Both
// controllers decide only at a window end, from the window's count, so
// feeding them whole windows decides exactly as feeding segments would.
struct WindowRule {
  std::uint64_t window_cycles = 0;
  double set_point = 0.0;  // error rate the wall-tracking error measures against
  std::function<double(std::uint64_t)> decide;
};

WindowRule threshold_rule(const dvs::ControllerConfig& config) {
  dvs::ThresholdController controller(config);
  WindowRule rule;
  rule.window_cycles = config.window_cycles;
  rule.set_point = 0.5 * (config.low_threshold + config.high_threshold);
  rule.decide = [controller](std::uint64_t errors) mutable {
    const dvs::ControllerConfig& c = controller.config();
    switch (controller.observe_segment(c.window_cycles, errors)) {
      case dvs::VoltageDecision::step_down: return -c.voltage_step;
      case dvs::VoltageDecision::step_up: return +c.voltage_step;
      case dvs::VoltageDecision::hold: break;
    }
    return 0.0;
  };
  return rule;
}

WindowRule proportional_rule(const dvs::ProportionalConfig& config) {
  dvs::ProportionalController controller(config);
  WindowRule rule;
  rule.window_cycles = config.window_cycles;
  rule.set_point = config.target_error_rate;
  rule.decide = [controller](std::uint64_t errors) mutable {
    return controller.observe_segment(controller.config().window_cycles, errors);
  };
  return rule;
}

// The one closed loop (run_lockstep_loop's contract). When `baselines` is
// non-null it holds one precomputed nominal reference energy per source
// (from a batched MultiPointEngine pass) and the lockstep baselines are
// skipped.
LoopReport lockstep_loop(const std::vector<LoopLane>& lanes,
                         const tech::PvtCorner& environment,
                         const std::vector<std::unique_ptr<trace::TraceSource>>& sources,
                         const LoopConfig& config, WindowRule rule,
                         const StreamConfig& stream, StreamStats* stats,
                         const double* baselines) {
  const std::size_t n_lanes = lanes.size();
  if (n_lanes == 0 || sources.size() % n_lanes != 0)
    throw std::invalid_argument("closed loop: need one source per lane for each leg");
  for (std::size_t i = 0; i < sources.size(); ++i)
    lanes[i % n_lanes].system->check_trace_width(*sources[i]);

  const DvsRunConfig& run = config.run;
  const double vnom = lanes.front().system->design().node.vdd_nominal;
  double floor = 0.0;
  std::vector<double> weights;
  std::vector<bus::BusSimulator> sims;
  for (const LoopLane& lane : lanes) {
    floor = std::max(floor, lane.system->dvs_floor(environment.process));
    weights.push_back(lane.weight);
    sims.push_back(lane.system->make_simulator(environment));
    sims.back().set_engine_mode(run.engine);
    if (run.timing_jitter_sigma > 0.0)
      sims.back().set_timing_jitter(run.timing_jitter_sigma);
  }
  const double start = run.start_supply > 0.0 ? run.start_supply : vnom;
  dvs::VoltageRegulator regulator(start, floor, vnom, run.regulator_delay_cycles);
  for (auto& sim : sims) sim.set_supply(regulator.voltage());

  LoopReport report;
  report.floor_supply = floor;
  std::uint64_t cycle = 0;
  std::uint64_t remaining_window = rule.window_cycles;
  std::vector<std::uint64_t> window_errors(n_lanes, 0);
  double supply_sum = 0.0;
  double track_sum = 0.0;
  tech::PvtCorner current = environment;
  std::vector<bus::BusSimulator> nominal;  // the current leg's lockstep baselines

  // Re-derive the drift corner for the window starting at `at_cycle` and
  // push it into every lane and its lockstep baseline. Disabled schedules
  // never reach a set_environment call, which is what keeps zero-drift
  // runs byte-identical to static-corner runs.
  const auto apply_drift = [&](std::uint64_t at_cycle) {
    if (!config.drift.enabled()) return;
    const tech::PvtCorner next = config.drift.corner_at(
        environment, at_cycle, vnom, lanes.front().system->table().temps());
    if (next == current) return;
    current = next;
    ++report.env_updates;
    for (auto& sim : sims) sim.set_environment(next);
    for (auto& baseline : nominal) baseline.set_environment(next);
  };
  apply_drift(0);

  for (std::size_t leg = 0; leg < sources.size(); leg += n_lanes) {
    std::vector<trace::BlockReader> readers;
    std::vector<bus::RunningTotals> before;
    nominal.clear();
    for (std::size_t l = 0; l < n_lanes; ++l) {
      readers.emplace_back(*sources[leg + l], stream.block_cycles);
      before.push_back(sims[l].totals());
      if (baselines != nullptr) continue;
      nominal.push_back(lanes[l].system->make_baseline_simulator(environment));
      if (current != environment) nominal.back().set_environment(current);
    }
    double leg_supply_sum = 0.0;
    std::uint64_t leg_cycles = 0;

    // Each logical segment runs at one regulator voltage inside one
    // controller window, served across as many reader spans as needed and
    // lockstep on every lane. The end of a leg is discovered, not planned,
    // so decisions land on the same cycles for any source and block size.
    for (;;) {
      bool more = true;
      for (auto& reader : readers) more = reader.available() > 0 && more;
      if (!more) break;

      const double supply = regulator.advance(cycle);
      for (auto& sim : sims) sim.set_supply(supply);
      const std::uint64_t planned =
          plan_segment(remaining_window, regulator.next_change_cycle(), cycle);
      std::uint64_t served = 0;
      while (served < planned) {
        std::size_t avail = std::numeric_limits<std::size_t>::max();
        for (auto& reader : readers) avail = std::min(avail, reader.available());
        if (avail == 0) break;
        const auto chunk =
            static_cast<std::size_t>(std::min<std::uint64_t>(planned - served, avail));
        for (std::size_t l = 0; l < n_lanes; ++l) {
          const BusWord* words = readers[l].take(chunk);
          window_errors[l] += sims[l].run(words, chunk).errors;
          if (baselines == nullptr) nominal[l].run(words, chunk);
        }
        served += chunk;
      }
      const double served_supply = sims.front().supply() * static_cast<double>(served);
      supply_sum += served_supply;
      leg_supply_sum += served_supply;
      cycle += served;
      leg_cycles += served;
      remaining_window -= served;
      if (remaining_window > 0) continue;

      // A fused count can exceed the window (sum_error, or weights above
      // 1); any rate above the band steps up, so saturating it decides the
      // same. One lane never reaches the cap.
      const std::uint64_t fused = std::min(
          rule.window_cycles,
          dvs::fuse_window_errors(config.arbitration, window_errors, weights));
      const double delta = rule.decide(fused);
      // razorlint: allow(float-eq): the rules return literal 0.0 for "hold";
      // any nonzero delta, however tiny, is a real request. The decision
      // belongs to the window's last cycle (cycle - 1).
      if (delta != 0.0) regulator.request_change(delta, cycle - 1);

      const double rate =
          static_cast<double>(fused) / static_cast<double>(rule.window_cycles);
      track_sum += std::abs(rate - rule.set_point);
      ++report.windows;
      if (run.record_series)
        report.series.push_back({cycle, sims.front().supply(), rate});
      std::fill(window_errors.begin(), window_errors.end(), 0);
      remaining_window = rule.window_cycles;
      apply_drift(cycle);
    }
    for (const auto& reader : readers) reader.account(stats);

    for (std::size_t l = 0; l < n_lanes; ++l) {
      DvsRunReport r;
      r.totals = sims[l].totals().since(before[l]);
      r.floor_supply = floor;
      r.average_supply = leg_cycles == 0
                             ? sims.front().supply()
                             : leg_supply_sum / static_cast<double>(leg_cycles);
      r.baseline_bus_energy =
          baselines != nullptr ? baselines[leg + l] : nominal[l].totals().bus_energy;
      report.per_bus.push_back(std::move(r));
    }
  }

  report.cycles = cycle;
  report.average_supply =
      cycle == 0 ? sims.front().supply() : supply_sum / static_cast<double>(cycle);
  report.wall_tracking_error =
      report.windows == 0 ? 0.0 : track_sum / static_cast<double>(report.windows);
  return report;
}

// One lane, one leg: the single-bus closed loop, series folded into the
// report.
DvsRunReport single_bus_loop(const DvsBusSystem& system,
                             const tech::PvtCorner& environment,
                             const trace::TraceSource& source, const LoopConfig& config,
                             WindowRule rule, const StreamConfig& stream,
                             StreamStats* stats, const double* baseline = nullptr) {
  std::vector<std::unique_ptr<trace::TraceSource>> one;
  one.push_back(source.clone());
  LoopReport r = lockstep_loop({LoopLane{&system}}, environment, one, config,
                               std::move(rule), stream, stats, baseline);
  DvsRunReport out = std::move(r.per_bus.front());
  out.series = std::move(r.series);
  return out;
}

}  // namespace

StaticSweepResult static_voltage_sweep(const DvsBusSystem& system,
                                       const tech::PvtCorner& environment,
                                       const std::vector<trace::Trace>& traces,
                                       double timing_jitter_sigma,
                                       bus::EngineMode engine) {
  // The traces run back to back through one simulator per supply: that is
  // their concatenation. Widths are checked per trace first so a too-wide
  // trace is named in the error.
  auto views = view_sources(traces);
  for (const auto& view : views) system.check_trace_width(*view);
  const auto source = trace::concatenate_sources(std::move(views), "suite");
  return static_voltage_sweep_streamed(system, environment, *source, timing_jitter_sigma,
                                       engine);
}

std::vector<TargetGainPoint> gains_for_targets(const StaticSweepResult& sweep,
                                               const std::vector<double>& targets) {
  if (sweep.points.empty()) throw std::invalid_argument("gains_for_targets: empty sweep");
  // One shard per target; cheap compared to the sweep itself, but keeps
  // every stage of the Fig. 5 pipeline on the executor.
  return util::parallel_map(util::global_pool(), targets.size(), [&](std::size_t t) {
    const double target = targets[t];
    TargetGainPoint g;
    g.target_error_rate = target;
    // Lowest supply whose error rate stays within the target (0 -> exact 0).
    const SweepPoint* chosen = &sweep.points.back();
    for (const auto& p : sweep.points) {
      // razorlint: allow(float-eq): a 0 target means literally error-free —
      // both sides are exact-by-construction (counts divided by counts).
      const bool ok = target == 0.0 ? p.error_rate == 0.0 : p.error_rate <= target;
      if (ok) {
        chosen = &p;
        break;
      }
    }
    g.chosen_supply = chosen->supply;
    g.achieved_error_rate = chosen->error_rate;
    g.energy_gain = 1.0 - chosen->total_energy / sweep.baseline_bus_energy;
    return g;
  });
}

VoltageDistribution oracle_voltage_distribution(const DvsBusSystem& system,
                                                const tech::PvtCorner& environment,
                                                const trace::Trace& trace,
                                                double target_error_rate,
                                                std::uint64_t window_cycles) {
  dvs::OracleSelector oracle(system.design(), system.table(), environment);
  dvs::OracleConfig config;
  config.window_cycles = window_cycles;
  config.target_error_rate = target_error_rate;
  config.vmin = system.shadow_floor(environment);
  const dvs::OracleResult r = oracle.select(trace, config);

  VoltageDistribution out;
  out.benchmark = trace.name;
  out.target_error_rate = target_error_rate;
  out.time_at_voltage = r.time_at_voltage.fractions();
  out.achieved_error_rate = r.achieved_error_rate;
  return out;
}

ConsecutiveRunReport run_consecutive(const DvsBusSystem& system,
                                     const tech::PvtCorner& environment,
                                     const std::vector<trace::Trace>& traces,
                                     const DvsRunConfig& config) {
  return run_consecutive_streamed(system, environment, view_sources(traces), config);
}

DvsRunReport run_closed_loop(const DvsBusSystem& system,
                             const tech::PvtCorner& environment,
                             const trace::Trace& trace, const DvsRunConfig& config) {
  return run_closed_loop_streamed(system, environment,
                                  *trace::make_trace_view_source(trace), config);
}

DvsRunReport run_closed_loop_proportional(const DvsBusSystem& system,
                                          const tech::PvtCorner& environment,
                                          const trace::Trace& trace,
                                          const ProportionalRunConfig& config) {
  return run_closed_loop_proportional_streamed(
      system, environment, *trace::make_trace_view_source(trace), config);
}

DvsRunReport run_fixed_vs(const DvsBusSystem& system, const tech::PvtCorner& environment,
                          const trace::Trace& trace, bus::EngineMode engine,
                          double timing_jitter_sigma) {
  return run_fixed_vs_streamed(system, environment, *trace::make_trace_view_source(trace),
                               engine, timing_jitter_sigma);
}

std::vector<DvsRunReport> run_closed_loop_suite(const DvsBusSystem& system,
                                                const tech::PvtCorner& environment,
                                                const std::vector<trace::Trace>& traces,
                                                const DvsRunConfig& config) {
  return run_closed_loop_suite_streamed(system, environment, view_sources(traces),
                                        config);
}

std::vector<DvsRunReport> run_fixed_vs_suite(const DvsBusSystem& system,
                                             const tech::PvtCorner& environment,
                                             const std::vector<trace::Trace>& traces,
                                             bus::EngineMode engine,
                                             double timing_jitter_sigma) {
  return run_fixed_vs_suite_streamed(system, environment, view_sources(traces), engine,
                                     timing_jitter_sigma);
}

PvtSampleResult pvt_sample_gains(const DvsBusSystem& system, const trace::Trace& trace,
                                 const PvtSampleConfig& config) {
  return pvt_sample_gains_streamed(system, *trace::make_trace_view_source(trace), config);
}

// ------------------------------------------------------ streamed bodies (§12)

StaticSweepResult static_voltage_sweep_streamed(const DvsBusSystem& system,
                                                const tech::PvtCorner& environment,
                                                const trace::TraceSource& source,
                                                double timing_jitter_sigma,
                                                bus::EngineMode engine,
                                                const StreamConfig& stream,
                                                StreamStats* stats) {
  system.check_trace_width(source);
  StaticSweepResult result;
  result.floor_supply = system.shadow_floor(environment);
  const double vnom = system.design().node.vdd_nominal;
  const double step = 0.020;

  // Supplies from the floor to nominal, anchored at the nominal grid.
  std::vector<double> supplies;
  for (double v = vnom; v > result.floor_supply - 1e-9; v -= step) supplies.push_back(v);
  std::sort(supplies.begin(), supplies.end());

  std::vector<StreamStats> shard_stats(supplies.size());
  if (engine == bus::EngineMode::simd) {
    // Batched: chunks of supplies share one stream drain each (bit-identical
    // to the per-supply loop below — see the multipoint parity suite).
    result.points = sweep_points_batched(system, environment, supplies,
                                         timing_jitter_sigma, source, stream,
                                         shard_stats);
  } else {
    // One shard per supply point; each shard owns a fresh simulator (the
    // jitter Rng is re-seeded per shard exactly as the sequential loop
    // re-seeded it per supply) and drains its own reader, so total trace
    // memory is block_cycles x live shards. Results land in
    // ascending-supply order.
    result.points = util::parallel_map(
        util::global_pool(), supplies.size(), [&](std::size_t s) {
          const double v = supplies[s];
          bus::BusSimulator sim = system.make_simulator(environment);
          sim.set_engine_mode(engine);
          if (timing_jitter_sigma > 0.0) sim.set_timing_jitter(timing_jitter_sigma);
          sim.set_supply(v);
          trace::BlockReader reader(source, stream.block_cycles);
          drain(reader, sim, nullptr);
          reader.account(&shard_stats[s]);

          SweepPoint p;
          p.supply = v;
          p.error_rate = sim.totals().error_rate();
          p.bus_energy = sim.totals().bus_energy;
          p.total_energy = sim.totals().total_energy();
          return p;
        });
  }
  if (stats != nullptr)
    for (const auto& shard : shard_stats) stats->merge(shard);

  result.baseline_bus_energy = result.points.back().bus_energy;  // nominal supply
  for (auto& p : result.points) {
    p.norm_bus_energy = p.bus_energy / result.baseline_bus_energy;
    p.norm_total_energy = p.total_energy / result.baseline_bus_energy;
  }
  return result;
}

LoopReport run_lockstep_loop(
    const std::vector<LoopLane>& lanes, const tech::PvtCorner& environment,
    const std::vector<std::unique_ptr<trace::TraceSource>>& sources,
    const LoopConfig& config, const StreamConfig& stream, StreamStats* stats) {
  return lockstep_loop(lanes, environment, sources, config,
                       threshold_rule(config.run.controller), stream, stats, nullptr);
}

ConsecutiveRunReport run_consecutive_streamed(
    const DvsBusSystem& system, const tech::PvtCorner& environment,
    const std::vector<std::unique_ptr<trace::TraceSource>>& sources,
    const DvsRunConfig& config, const StreamConfig& stream, StreamStats* stats) {
  LoopReport r = run_lockstep_loop({LoopLane{&system}}, environment, sources,
                                   LoopConfig{config}, stream, stats);
  return {std::move(r.per_bus), std::move(r.series)};
}

DvsRunReport run_closed_loop_streamed(const DvsBusSystem& system,
                                      const tech::PvtCorner& environment,
                                      const trace::TraceSource& source,
                                      const DvsRunConfig& config,
                                      const StreamConfig& stream, StreamStats* stats) {
  return single_bus_loop(system, environment, source, LoopConfig{config},
                         threshold_rule(config.controller), stream, stats);
}

DvsRunReport run_closed_loop_proportional_streamed(const DvsBusSystem& system,
                                                   const tech::PvtCorner& environment,
                                                   const trace::TraceSource& source,
                                                   const ProportionalRunConfig& config,
                                                   const StreamConfig& stream,
                                                   StreamStats* stats) {
  LoopConfig loop;
  loop.run.regulator_delay_cycles = config.regulator_delay_cycles;
  loop.run.start_supply = config.start_supply;
  loop.run.timing_jitter_sigma = config.timing_jitter_sigma;
  loop.run.engine = config.engine;
  return single_bus_loop(system, environment, source, loop,
                         proportional_rule(config.controller), stream, stats);
}

DvsRunReport run_fixed_vs_streamed(const DvsBusSystem& system,
                                   const tech::PvtCorner& environment,
                                   const trace::TraceSource& source,
                                   bus::EngineMode engine, double timing_jitter_sigma,
                                   const StreamConfig& stream, StreamStats* stats) {
  system.check_trace_width(source);
  const double supply = system.fixed_vs_supply(environment.process);

  // Conventional receiver: no double-sampling overhead at all.
  razor::RecoveryCostModel no_overhead;
  no_overhead.flop_clock_energy = 0.0;
  no_overhead.detection_energy_per_cycle = 0.0;

  bus::BusSimulator sim(system.design(), system.table(), environment, no_overhead);
  sim.set_engine_mode(engine);
  if (timing_jitter_sigma > 0.0) sim.set_timing_jitter(timing_jitter_sigma);
  sim.set_supply(supply);

  bus::BusSimulator baseline = system.make_baseline_simulator(environment);
  trace::BlockReader reader(source, stream.block_cycles);
  drain(reader, sim, &baseline);
  reader.account(stats);

  DvsRunReport report;
  report.totals = sim.totals();
  report.floor_supply = supply;
  report.average_supply = supply;
  report.baseline_bus_energy = baseline.totals().bus_energy;
  return report;
}

std::vector<DvsRunReport> run_closed_loop_suite_streamed(
    const DvsBusSystem& system, const tech::PvtCorner& environment,
    const std::vector<std::unique_ptr<trace::TraceSource>>& sources,
    const DvsRunConfig& config, const StreamConfig& stream, StreamStats* stats) {
  std::vector<StreamStats> shard_stats(sources.size());
  auto reports =
      util::parallel_map(util::global_pool(), sources.size(), [&](std::size_t t) {
        return run_closed_loop_streamed(system, environment, *sources[t], config,
                                        stream, &shard_stats[t]);
      });
  if (stats != nullptr)
    for (const auto& shard : shard_stats) stats->merge(shard);
  return reports;
}

std::vector<DvsRunReport> run_fixed_vs_suite_streamed(
    const DvsBusSystem& system, const tech::PvtCorner& environment,
    const std::vector<std::unique_ptr<trace::TraceSource>>& sources,
    bus::EngineMode engine, double timing_jitter_sigma, const StreamConfig& stream,
    StreamStats* stats) {
  std::vector<StreamStats> shard_stats(sources.size());
  auto reports =
      util::parallel_map(util::global_pool(), sources.size(), [&](std::size_t t) {
        return run_fixed_vs_streamed(system, environment, *sources[t], engine,
                                     timing_jitter_sigma, stream, &shard_stats[t]);
      });
  if (stats != nullptr)
    for (const auto& shard : shard_stats) stats->merge(shard);
  return reports;
}

PvtSampleResult pvt_sample_gains_streamed(const DvsBusSystem& system,
                                          const trace::TraceSource& source,
                                          const PvtSampleConfig& config,
                                          const StreamConfig& stream,
                                          StreamStats* stats) {
  const auto n = static_cast<std::size_t>(std::max(config.samples, 0));
  // Private Rng stream per sample: the drawn population depends only on
  // (seed, sample index), never on the shard-to-thread assignment.
  std::vector<tech::PvtCorner> corners(n);
  for (std::size_t s = 0; s < n; ++s) {
    Rng rng(util::shard_seed(config.seed, s));
    corners[s] = draw_pvt_corner(rng);
  }

  std::vector<StreamStats> shard_stats(n);
  PvtSampleResult out;
  if (config.run.engine == bus::EngineMode::simd && n > 0) {
    // Batched baselines: the closed loops themselves diverge per sample
    // (the controller feeds back), but every sample's NOMINAL reference
    // pass — one per corner, identical words — is a pure multi-point
    // batch: one drain of the stream for all N corners.
    system.check_trace_width(source);
    const double vnom = system.design().node.vdd_nominal;
    std::vector<bus::OperatingPoint> points(n);
    for (std::size_t s = 0; s < n; ++s) points[s] = {vnom, corners[s]};
    bus::MultiPointEngine baseline_engine(system.design(), system.table(), points);
    trace::BlockReader reader(source, stream.block_cycles);
    drain(reader, baseline_engine);
    reader.account(stats);

    out.samples = util::parallel_map(util::global_pool(), n, [&](std::size_t s) {
      const double baseline = baseline_engine.totals(s).bus_energy;
      return PvtSample{corners[s],
                       single_bus_loop(system, corners[s], source, LoopConfig{config.run},
                                       threshold_rule(config.run.controller), stream,
                                       &shard_stats[s], &baseline)};
    });
  } else {
    out.samples = util::parallel_map(util::global_pool(), n, [&](std::size_t s) {
      return PvtSample{corners[s],
                       run_closed_loop_streamed(system, corners[s], source, config.run,
                                                stream, &shard_stats[s])};
    });
  }
  if (stats != nullptr)
    for (const auto& shard : shard_stats) stats->merge(shard);

  // Per-shard singleton stats merged in shard order: the aggregate is the
  // same double sequence no matter how many threads ran the samples.
  for (const auto& sample : out.samples) {
    RunningStats gain, err;
    gain.add(sample.report.energy_gain());
    err.add(sample.report.error_rate());
    out.gain_stats.merge(gain);
    out.err_stats.merge(err);
  }
  return out;
}

}  // namespace razorbus::core
