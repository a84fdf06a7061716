// Declarative campaign jobs (docs/campaigns.md): the closed-loop,
// multi-bus and static-sweep experiments a campaign spec describes
// without naming a registered bench, plus make_job_scenario(), which turns
// any expanded job spec into the Scenario `campaignd run-one` executes.
#include <cstdio>
#include <map>
#include <memory>
#include <stdexcept>

#include "bus/businvert.hpp"
#include "scenario_registry.hpp"
#include "scenarios/scenarios.hpp"
#include "sys/bus_system.hpp"
#include "trace/io.hpp"
#include "trace/source.hpp"
#include "trace/synthetic.hpp"

namespace razorbus::bench {

namespace {

// The bus system a declarative job runs on: the paper bus at the job's
// width. The characterised tables are width-independent, so every width
// shares the paper system's cached characterization (DESIGN.md §10).
const core::DvsBusSystem& system_for_job(int width) {
  if (width == 32) return paper_system();
  // Keyed cache rather than a single slot: a multi_bus job builds one
  // system per distinct lane width and holds references to ALL of them for
  // the whole run, so earlier entries must survive later constructions.
  static std::map<int, std::unique_ptr<core::DvsBusSystem>> cache;
  auto it = cache.find(width);
  if (it == cache.end()) {
    interconnect::BusDesign design = interconnect::BusDesign::wide_bus(width);
    design.repeater_size = paper_system().design().repeater_size;
    it = cache
             .emplace(width, std::make_unique<core::DvsBusSystem>(
                                 design, options_with_progress("campaign bus")))
             .first;
  }
  return *it->second;
}

// The producers of one trace spec at `width`: one source per trace (a
// suite yields one per benchmark), each a lazy stream of the words the
// trace holds. A materialized job ("stream": false) drains each into
// memory first; the reader then serves it zero-copy, and the job makes
// the same driver call as a streamed one. Suite sources and
// non-multiple-of-32 benchmark widths in multi_bus lanes are rejected by
// the spec parser before they get here.
std::vector<std::unique_ptr<trace::TraceSource>> sources_for(const core::TraceSpec& spec,
                                                             int width,
                                                             std::size_t cycles,
                                                             bool bus_invert,
                                                             bool stream) {
  std::vector<std::unique_ptr<trace::TraceSource>> sources;
  switch (spec.source) {
    case core::TraceSpec::Source::synthetic: {
      trace::SyntheticConfig cfg;
      cfg.style = spec.style;
      cfg.cycles = cycles;
      cfg.load_rate = spec.load_rate;
      cfg.activity = spec.activity;
      cfg.seed = spec.seed;
      cfg.n_bits = width;
      sources.push_back(trace::make_synthetic_source(cfg, trace::to_string(spec.style)));
      break;
    }
    case core::TraceSpec::Source::benchmark:
    case core::TraceSpec::Source::suite: {
      // Mini-CPU kernels capture 32-bit load streams; wider buses pack
      // consecutive words into flits (README "memory bus" recipe).
      if (width % 32 != 0)
        throw std::invalid_argument("benchmark traces require a width that is a "
                                    "multiple of 32, got " +
                                    std::to_string(width));
      const int factor = width / 32;
      const auto stream_one = [&](const cpu::Benchmark& bench) {
        auto s = bench.stream(cycles * static_cast<std::size_t>(factor));
        if (factor > 1) s = trace::widen_source(std::move(s), factor);
        return s;
      };
      if (spec.source == core::TraceSpec::Source::benchmark) {
        sources.push_back(stream_one(cpu::benchmark_by_name(spec.benchmark)));
      } else {
        for (const auto& bench : cpu::spec2000_suite())
          sources.push_back(stream_one(bench));
      }
      break;
    }
    case core::TraceSpec::Source::file: {
      auto s = trace::open_trace_stream(spec.path);
      if (s->n_bits() != width)
        throw std::invalid_argument("trace file " + spec.path + " is " +
                                    std::to_string(s->n_bits()) + " wires, job wants " +
                                    std::to_string(width));
      sources.push_back(std::move(s));
      break;
    }
  }
  for (auto& s : sources) {
    if (bus_invert) s = bus::bus_invert_encode_source(std::move(s));
    if (!stream) s = trace::make_trace_source(trace::materialize(*s));
  }
  return sources;
}

// Block accounting of a streamed job, surfaced next to the experiment
// metrics (docs/bench-reports.md): how much trace was pulled and the
// peak-RSS-relevant per-shard buffer bound.
void record_stream_stats(ScenarioContext& ctx, const core::StreamStats& stats) {
  ctx.metric("stream_block_cycles", static_cast<double>(stats.block_cycles));
  ctx.metric("stream_blocks", static_cast<double>(stats.blocks));
  ctx.metric("stream_cycles", static_cast<double>(stats.cycles));
  ctx.metric("stream_peak_buffer_words", static_cast<double>(stats.peak_buffer_words));
}

std::string corner_key(const tech::PvtCorner& corner) {
  std::string key = tech::to_string(corner.process) + "_" +
                    std::to_string(static_cast<int>(corner.temp_c)) + "C";
  if (corner.ir_drop_fraction > 0.0)
    key += "_" + std::to_string(static_cast<int>(corner.ir_drop_fraction * 100.0 + 0.5)) +
           "ir";
  return key;
}

void run_closed_loop_job(const core::ScenarioSpec& spec, ScenarioContext& ctx) {
  const auto& system = system_for_job(spec.widths.at(0));
  const core::ControllerSpec& controller = spec.controllers.at(0);
  const auto sources = sources_for(spec.trace, spec.widths.at(0), ctx.cycles,
                                   spec.bus_invert, spec.stream);
  core::StreamStats stream_stats;

  Table table({"Corner", "Trace", "Gain (%)", "Err (%)", "Avg V (mV)", "Floor (mV)"});
  for (const auto& corner : spec.corners) {
    std::fprintf(stderr, "[%s @ %s]\n", controller.label().c_str(),
                 corner.name().c_str());
    std::vector<core::DvsRunReport> reports;
    std::vector<double> wall_tracking;
    std::uint64_t env_updates = 0;
    switch (controller.kind) {
      case dvs::ControllerKind::threshold: {
        core::DvsRunConfig cfg;
        cfg.controller = controller.threshold;
        cfg.engine = spec.engine;
        cfg.timing_jitter_sigma = spec.timing_jitter_sigma;
        if (spec.drift.enabled) {
          // Drift rides on a 1-lane BusSystem; a zero-drift schedule is
          // byte-identical to the plain drivers (tests/drift_test.cpp),
          // so this branch only fires when the schedule actually moves.
          const sys::SystemRunConfig system_cfg{
              cfg, dvs::ArbitrationPolicy::max_error,
              sys::schedule_from_spec(spec.drift, ctx.cycles)};
          const sys::BusSystem one_lane({{&system, 1.0}});
          for (const auto& source : sources) {
            std::vector<std::unique_ptr<trace::TraceSource>> one;
            one.push_back(source->clone());
            const sys::SystemRunReport rep = one_lane.run_closed_loop_streamed(
                corner, one, system_cfg, {}, &stream_stats);
            reports.push_back(rep.per_bus.front());
            wall_tracking.push_back(rep.wall_tracking_error);
            env_updates += rep.env_updates;
          }
          break;
        }
        reports = core::run_closed_loop_suite_streamed(system, corner, sources, cfg, {},
                                                       &stream_stats);
        break;
      }
      case dvs::ControllerKind::proportional: {
        core::ProportionalRunConfig cfg;
        cfg.controller = controller.proportional;
        cfg.engine = spec.engine;
        cfg.timing_jitter_sigma = spec.timing_jitter_sigma;
        for (const auto& s : sources)
          reports.push_back(core::run_closed_loop_proportional_streamed(
              system, corner, *s, cfg, {}, &stream_stats));
        break;
      }
      case dvs::ControllerKind::fixed_vs:
        reports = core::run_fixed_vs_suite_streamed(system, corner, sources, spec.engine,
                                                    spec.timing_jitter_sigma, {},
                                                    &stream_stats);
        break;
    }
    for (std::size_t t = 0; t < sources.size(); ++t) {
      const core::DvsRunReport& r = reports[t];
      const std::string& trace_name = sources[t]->name();
      table.row()
          .add(corner.name())
          .add(trace_name)
          .add(100.0 * r.energy_gain(), 1)
          .add(100.0 * r.error_rate(), 2)
          .add(to_mV(r.average_supply), 0)
          .add(to_mV(r.floor_supply), 0);
      const std::string key = corner_key(corner) + "_" + trace_name;
      ctx.metric(key + "_gain", r.energy_gain());
      ctx.metric(key + "_error_rate", r.error_rate());
      ctx.metric(key + "_avg_supply", r.average_supply);
      if (spec.drift.enabled)
        ctx.metric(key + "_wall_tracking", wall_tracking.at(t));
    }
    if (spec.drift.enabled)
      ctx.metric(corner_key(corner) + "_env_updates",
                 static_cast<double>(env_updates));
  }
  ctx.table("closed_loop", table);
  ctx.note("controller", controller.label());
  ctx.note("engine", bus::to_string(spec.engine));
  ctx.note("width", std::to_string(spec.widths.at(0)));
  ctx.note("trace_mode", spec.stream ? "streamed" : "materialized");
  if (spec.drift.enabled) ctx.note("drift", "enabled");
  if (spec.stream) record_stream_stats(ctx, stream_stats);
}

// N buses of mixed widths sharing one regulator (sys::BusSystem): the
// arbitration policy fuses per-lane window error counts into the single
// threshold-controller input; per-lane and system-aggregate metrics land
// under <corner>_bus<i>_* / <corner>_system_* (docs/bench-reports.md).
void run_multi_bus_job(const core::ScenarioSpec& spec, ScenarioContext& ctx) {
  std::vector<sys::BusLane> lanes;
  lanes.reserve(spec.buses.size());
  for (const auto& lane_spec : spec.buses)
    lanes.push_back({&system_for_job(lane_spec.width), lane_spec.weight});
  const sys::BusSystem system(std::move(lanes));

  sys::SystemRunConfig cfg;
  cfg.run.controller = spec.controllers.at(0).threshold;
  cfg.run.engine = spec.engine;
  cfg.run.timing_jitter_sigma = spec.timing_jitter_sigma;
  cfg.arbitration = spec.arbitration;
  cfg.drift = sys::schedule_from_spec(spec.drift, ctx.cycles);

  // Sources are cloned inside each run, so one set serves every corner.
  std::vector<std::unique_ptr<trace::TraceSource>> sources;
  for (const auto& lane_spec : spec.buses)
    sources.push_back(std::move(sources_for(lane_spec.trace, lane_spec.width, ctx.cycles,
                                            spec.bus_invert, spec.stream)
                                    .front()));
  core::StreamStats stream_stats;

  Table table({"Corner", "Bus", "Gain (%)", "Err (%)", "Avg V (mV)", "Floor (mV)"});
  for (const auto& corner : spec.corners) {
    std::fprintf(stderr, "[%zu-bus %s @ %s]\n", spec.buses.size(),
                 dvs::to_string(spec.arbitration).c_str(), corner.name().c_str());
    const sys::SystemRunReport report =
        system.run_closed_loop_streamed(corner, sources, cfg, {}, &stream_stats);
    const std::string ckey = corner_key(corner);
    for (std::size_t b = 0; b < report.per_bus.size(); ++b) {
      const core::DvsRunReport& r = report.per_bus[b];
      table.row()
          .add(corner.name())
          .add("bus" + std::to_string(b) + "_w" + std::to_string(spec.buses[b].width))
          .add(100.0 * r.energy_gain(), 1)
          .add(100.0 * r.error_rate(), 2)
          .add(to_mV(r.average_supply), 0)
          .add(to_mV(r.floor_supply), 0);
      const std::string key = ckey + "_bus" + std::to_string(b);
      ctx.metric(key + "_gain", r.energy_gain());
      ctx.metric(key + "_error_rate", r.error_rate());
      ctx.metric(key + "_avg_supply", r.average_supply);
    }
    ctx.metric(ckey + "_system_gain", report.energy_gain());
    ctx.metric(ckey + "_system_error_rate", report.error_rate());
    ctx.metric(ckey + "_system_avg_supply", report.average_supply);
    ctx.metric(ckey + "_system_wall_tracking", report.wall_tracking_error);
    if (spec.drift.enabled)
      ctx.metric(ckey + "_env_updates", static_cast<double>(report.env_updates));
  }
  ctx.table("multi_bus", table);
  ctx.note("buses", std::to_string(spec.buses.size()));
  ctx.note("arbitration", dvs::to_string(spec.arbitration));
  ctx.note("engine", bus::to_string(spec.engine));
  ctx.note("trace_mode", spec.stream ? "streamed" : "materialized");
  if (spec.drift.enabled) ctx.note("drift", "enabled");
  if (spec.stream) record_stream_stats(ctx, stream_stats);
}

void run_static_sweep_job(const core::ScenarioSpec& spec, ScenarioContext& ctx) {
  const auto& system = system_for_job(spec.widths.at(0));
  // A suite sweeps its traces back to back: their concatenation.
  auto parts = sources_for(spec.trace, spec.widths.at(0), ctx.cycles, spec.bus_invert,
                           spec.stream);
  const std::unique_ptr<trace::TraceSource> source =
      parts.size() == 1 ? std::move(parts.front())
                        : trace::concatenate_sources(std::move(parts), "suite");
  core::StreamStats stream_stats;

  for (const auto& corner : spec.corners) {
    std::fprintf(stderr, "[sweeping %s]\n", corner.name().c_str());
    const core::StaticSweepResult sweep = core::static_voltage_sweep_streamed(
        system, corner, *source, spec.timing_jitter_sigma, spec.engine, {},
        &stream_stats);
    Table table({"Supply (mV)", "Error Rate (%)", "Bus Energy (norm)",
                 "Bus+Recovery (norm)"});
    for (auto it = sweep.points.rbegin(); it != sweep.points.rend(); ++it) {
      table.row()
          .add(to_mV(it->supply), 0)
          .add(100.0 * it->error_rate, 2)
          .add(it->norm_bus_energy, 3)
          .add(it->norm_total_energy, 3);
    }
    ctx.table(corner_key(corner), table);
    ctx.metric(corner_key(corner) + "_floor_mV", to_mV(sweep.floor_supply));
    ctx.metric(corner_key(corner) + "_norm_energy_at_floor",
               sweep.points.front().norm_total_energy);
  }
  ctx.note("engine", bus::to_string(spec.engine));
  ctx.note("width", std::to_string(spec.widths.at(0)));
  ctx.note("trace_mode", spec.stream ? "streamed" : "materialized");
  if (spec.stream) record_stream_stats(ctx, stream_stats);
}

}  // namespace

Scenario make_job_scenario(const core::ScenarioSpec& spec, const std::string& spec_path) {
  if (spec.kind == core::ScenarioSpec::Kind::bench) return scenario_by_name(spec.bench);
  if (spec.cycles == 0)
    throw std::invalid_argument("job '" + spec.name +
                                "': declarative scenarios need a cycle budget "
                                "(scenario 'cycles' or campaign defaults)");
  Scenario scenario;
  scenario.name = spec.name;
  switch (spec.kind) {
    case core::ScenarioSpec::Kind::closed_loop:
      scenario.description = "declarative closed-loop DVS (" +
                             spec.controllers.at(0).label() + ", " +
                             std::to_string(spec.widths.at(0)) + " wires)";
      break;
    case core::ScenarioSpec::Kind::multi_bus:
      scenario.description = "declarative multi-bus shared-supply DVS (" +
                             std::to_string(spec.buses.size()) + " buses, " +
                             dvs::to_string(spec.arbitration) + ")";
      break;
    default:
      scenario.description = "declarative static voltage sweep (" +
                             std::to_string(spec.widths.at(0)) + " wires)";
      break;
  }
  if (spec.drift.enabled) scenario.description += " [drift]";
  if (spec.stream) scenario.description += " [streamed]";
  scenario.paper_ref = "campaign spec " + spec_path;
  scenario.default_cycles = spec.cycles;
  scenario.run = [spec](ScenarioContext& ctx) {
    if (spec.kind == core::ScenarioSpec::Kind::closed_loop)
      run_closed_loop_job(spec, ctx);
    else if (spec.kind == core::ScenarioSpec::Kind::multi_bus)
      run_multi_bus_job(spec, ctx);
    else
      run_static_sweep_job(spec, ctx);
  };
  return scenario;
}

}  // namespace razorbus::bench
