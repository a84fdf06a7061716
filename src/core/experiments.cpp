#include "core/experiments.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "dvs/regulator.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace razorbus::core {

lut::LutConfig lut_config_for_tolerance(double tol, lut::LutConfig base) {
  if (tol > 0.0) {
    base.tolerance.relative = tol;
    base.tolerance.delay_abs_s = tol * 1e-10;
    base.tolerance.energy_abs_j = tol * 1e-13;
  }
  return base;
}

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

struct FeedResult {
  std::uint64_t cycles = 0;
  std::uint64_t errors = 0;
};

// Drive up to `cycles` words from `reader` through `sim` (and the same
// spans through `baseline`, when given); short only when the stream ends.
// The closed-loop drivers ask for LOGICAL segments (up to a controller
// window or a regulator change landing), served across as many reader
// spans as needed, so span boundaries never move a control decision —
// that, plus the engine's span-split invariance, makes reports
// independent of the block size and of whether the words were resident.
FeedResult feed(trace::BlockReader& reader, bus::BusSimulator& sim,
                bus::BusSimulator* baseline, std::uint64_t cycles) {
  FeedResult out;
  while (out.cycles < cycles) {
    const auto n = static_cast<std::size_t>(
        std::min<std::uint64_t>(reader.available(), cycles - out.cycles));
    if (n == 0) break;
    const BusWord* words = reader.take(n);
    const bus::RunningTotals d = sim.run(words, n);
    if (baseline != nullptr) baseline->run(words, n);
    out.cycles += d.cycles;
    out.errors += d.errors;
  }
  return out;
}

void feed_all(trace::BlockReader& reader, bus::MultiPointEngine& engine) {
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
    feed_all(reader, engine);
    reader.account(&shard_stats[c]);
    return collect_sweep_points(engine, points);
  });
  std::vector<SweepPoint> points;
  points.reserve(supplies.size());
  for (auto& chunk : chunks) points.insert(points.end(), chunk.begin(), chunk.end());
  return points;
}

// The one threshold closed loop, over consecutive sources with controller
// and regulator state carried across them. When `baselines` is non-null it
// holds one precomputed nominal reference energy per source (from a batched
// MultiPointEngine pass) and the lockstep baseline simulator is skipped.
ConsecutiveRunReport run_consecutive_impl(
    const DvsBusSystem& system, const tech::PvtCorner& environment,
    const std::vector<std::unique_ptr<trace::TraceSource>>& sources,
    const DvsRunConfig& config, const StreamConfig& stream, StreamStats* stats,
    const double* baselines) {
  for (const auto& source : sources) system.check_trace_width(*source);
  const double vnom = system.design().node.vdd_nominal;
  const double floor = system.dvs_floor(environment.process);
  const double start = config.start_supply > 0.0 ? config.start_supply : vnom;

  bus::BusSimulator sim = system.make_simulator(environment);
  sim.set_engine_mode(config.engine);
  if (config.timing_jitter_sigma > 0.0) sim.set_timing_jitter(config.timing_jitter_sigma);
  dvs::VoltageRegulator regulator(start, floor, vnom, config.regulator_delay_cycles);
  dvs::ThresholdController controller(config.controller);
  sim.set_supply(regulator.voltage());

  ConsecutiveRunReport report;
  std::uint64_t cycle = 0;

  for (std::size_t source_index = 0; source_index < sources.size(); ++source_index) {
    const bus::RunningTotals before = sim.totals();
    double supply_sum = 0.0;
    std::uint64_t source_cycles = 0;
    bus::BusSimulator baseline = system.make_baseline_simulator(environment);
    bus::BusSimulator* baseline_sim = baselines == nullptr ? &baseline : nullptr;
    trace::BlockReader reader(*sources[source_index], stream.block_cycles);

    // Window-batched closed loop: each logical segment runs at one
    // regulator voltage and stays within one controller window, so only
    // the segment's error COUNT feeds the controller — cycle-for-cycle
    // equivalent to stepping one word at a time through
    // observe_cycle()/advance(). The end of the trace is discovered, not
    // planned, so decisions land on the same cycles for any source.
    while (reader.available() > 0) {
      sim.set_supply(regulator.advance(cycle));
      const FeedResult fed =
          feed(reader, sim, baseline_sim,
               plan_segment(controller.cycles_remaining_in_window(),
                            regulator.next_change_cycle(), cycle));
      supply_sum += sim.supply() * static_cast<double>(fed.cycles);
      cycle += fed.cycles;
      source_cycles += fed.cycles;

      const dvs::VoltageDecision decision =
          controller.observe_segment(fed.cycles, fed.errors);
      // The decision belongs to the last cycle of the segment (cycle - 1),
      // exactly when the per-cycle loop would have issued it.
      if (decision == dvs::VoltageDecision::step_down)
        regulator.request_change(-config.controller.voltage_step, cycle - 1);
      else if (decision == dvs::VoltageDecision::step_up)
        regulator.request_change(+config.controller.voltage_step, cycle - 1);

      if (config.record_series && controller.cycles_remaining_in_window() ==
                                      config.controller.window_cycles &&
          controller.windows_completed() > 0)
        report.series.push_back(
            {cycle, sim.supply(), controller.last_window_error_rate()});
    }
    reader.account(stats);

    DvsRunReport r;
    r.totals.cycles = sim.totals().cycles - before.cycles;
    r.totals.errors = sim.totals().errors - before.errors;
    r.totals.shadow_failures = sim.totals().shadow_failures - before.shadow_failures;
    r.totals.bus_energy = sim.totals().bus_energy - before.bus_energy;
    r.totals.overhead_energy = sim.totals().overhead_energy - before.overhead_energy;
    r.floor_supply = floor;
    r.average_supply = source_cycles == 0
                           ? sim.supply()
                           : supply_sum / static_cast<double>(source_cycles);
    r.baseline_bus_energy = baselines != nullptr ? baselines[source_index]
                                                 : baseline.totals().bus_energy;
    report.per_trace.push_back(std::move(r));
  }
  return report;
}

// One source through run_consecutive_impl, series folded into the report.
DvsRunReport run_closed_loop_impl(const DvsBusSystem& system,
                                  const tech::PvtCorner& environment,
                                  const trace::TraceSource& source,
                                  const DvsRunConfig& config, const StreamConfig& stream,
                                  StreamStats* stats, const double* baseline) {
  std::vector<std::unique_ptr<trace::TraceSource>> one;
  one.push_back(source.clone());
  ConsecutiveRunReport r =
      run_consecutive_impl(system, environment, one, config, stream, stats, baseline);
  DvsRunReport out = std::move(r.per_trace.front());
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
          feed(reader, sim, nullptr, std::numeric_limits<std::uint64_t>::max());
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

ConsecutiveRunReport run_consecutive_streamed(
    const DvsBusSystem& system, const tech::PvtCorner& environment,
    const std::vector<std::unique_ptr<trace::TraceSource>>& sources,
    const DvsRunConfig& config, const StreamConfig& stream, StreamStats* stats) {
  return run_consecutive_impl(system, environment, sources, config, stream, stats,
                              nullptr);
}

DvsRunReport run_closed_loop_streamed(const DvsBusSystem& system,
                                      const tech::PvtCorner& environment,
                                      const trace::TraceSource& source,
                                      const DvsRunConfig& config,
                                      const StreamConfig& stream, StreamStats* stats) {
  return run_closed_loop_impl(system, environment, source, config, stream, stats,
                              nullptr);
}

DvsRunReport run_closed_loop_proportional_streamed(const DvsBusSystem& system,
                                                   const tech::PvtCorner& environment,
                                                   const trace::TraceSource& source,
                                                   const ProportionalRunConfig& config,
                                                   const StreamConfig& stream,
                                                   StreamStats* stats) {
  system.check_trace_width(source);
  const double vnom = system.design().node.vdd_nominal;
  const double floor = system.dvs_floor(environment.process);
  const double start = config.start_supply > 0.0 ? config.start_supply : vnom;

  bus::BusSimulator sim = system.make_simulator(environment);
  sim.set_engine_mode(config.engine);
  if (config.timing_jitter_sigma > 0.0) sim.set_timing_jitter(config.timing_jitter_sigma);
  dvs::VoltageRegulator regulator(start, floor, vnom, config.regulator_delay_cycles);
  dvs::ProportionalController controller(config.controller);
  sim.set_supply(regulator.voltage());

  bus::BusSimulator baseline = system.make_baseline_simulator(environment);
  trace::BlockReader reader(source, stream.block_cycles);
  double supply_sum = 0.0;
  std::uint64_t cycle = 0;
  while (reader.available() > 0) {
    sim.set_supply(regulator.advance(cycle));
    const FeedResult fed =
        feed(reader, sim, &baseline,
             plan_segment(controller.cycles_remaining_in_window(),
                          regulator.next_change_cycle(), cycle));
    supply_sum += sim.supply() * static_cast<double>(fed.cycles);
    cycle += fed.cycles;

    const double delta = controller.observe_segment(fed.cycles, fed.errors);
    // razorlint: allow(float-eq): the controller returns literal 0.0 for
    // "no step"; any nonzero delta, however tiny, is a real request.
    if (delta != 0.0) regulator.request_change(delta, cycle - 1);
  }
  reader.account(stats);

  DvsRunReport report;
  report.totals = sim.totals();
  report.floor_supply = floor;
  report.average_supply =
      cycle == 0 ? sim.supply() : supply_sum / static_cast<double>(cycle);
  report.baseline_bus_energy = baseline.totals().bus_energy;
  return report;
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
  feed(reader, sim, &baseline, std::numeric_limits<std::uint64_t>::max());
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
    feed_all(reader, baseline_engine);
    reader.account(stats);

    out.samples = util::parallel_map(util::global_pool(), n, [&](std::size_t s) {
      const double baseline = baseline_engine.totals(s).bus_energy;
      return PvtSample{corners[s],
                       run_closed_loop_impl(system, corners[s], source, config.run,
                                            stream, &shard_stats[s], &baseline)};
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
