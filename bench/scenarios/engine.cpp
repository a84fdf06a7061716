// Engine microbenchmarks: throughput of the simulation layers the
// reproduction harnesses are built on (the measurement suite behind the
// perf_microbench binary).
//
// The headline numbers are the bus-cycle rates of the two engines
// (EngineMode::reference per-wire golden path vs the bit-parallel batched
// production path) on active, mixed and idle traffic, plus the single- vs
// multi-thread throughput of the sharded characterization build and static
// voltage sweep (--threads=N, DESIGN.md §9). They are printed as tables
// and written to BENCH_engine.json so both speedup trajectories can be
// tracked across commits — and gated by the CI bench-regression job.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <vector>

#include "bus/simulator.hpp"
#include "core/experiments.hpp"
#include "cpu/kernels.hpp"
#include "drift/schedule.hpp"
#include "lut/cache.hpp"
#include "lut/table.hpp"
#include "scenarios/scenarios.hpp"
#include "spice/transient.hpp"
#include "sys/bus_system.hpp"
#include "trace/synthetic.hpp"
#include "util/parallel.hpp"

namespace razorbus::bench {

namespace {

trace::Trace make_trace(trace::SyntheticStyle style, double load_rate, std::size_t cycles,
                        const char* name, int n_bits = 32) {
  trace::SyntheticConfig cfg;
  cfg.style = style;
  cfg.cycles = cycles;
  cfg.load_rate = load_rate;
  cfg.seed = 0xbeef;
  cfg.n_bits = n_bits;
  return trace::generate_synthetic(cfg, name);
}

// Cycles/second of a workload. `run(n)` simulates about n cycles and
// returns how many it ran. One pass of `pass_cycles` warms up (faulting in
// the tables) and sizes the windows; the result is the median rate of
// kWindows windows of about kWindowSeconds each, so one window stalled by
// a busy host does not move the key.
template <typename Fn>
double median_cps(std::uint64_t pass_cycles, Fn&& run) {
  constexpr int kWindows = 5;
  constexpr double kWindowSeconds = 0.1;
  using clock = std::chrono::steady_clock;
  const auto rate = [&run](std::uint64_t cycles) {
    const auto t0 = clock::now();
    const std::uint64_t done = run(cycles);
    return static_cast<double>(done) /
           std::chrono::duration<double>(clock::now() - t0).count();
  };
  const auto window_cycles = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(rate(pass_cycles) * kWindowSeconds));
  std::vector<double> rates;
  for (int w = 0; w < kWindows; ++w) rates.push_back(rate(window_cycles));
  std::nth_element(rates.begin(), rates.begin() + kWindows / 2, rates.end());
  return rates[kWindows / 2];
}

// median_cps's `run` for an engine driven by word spans: the next n words
// of `words`, wrapping around at the end of the trace.
template <typename Engine>
auto span_runner(Engine& engine, const std::vector<BusWord>& words) {
  return [&engine, &words, offset = std::size_t{0}](std::uint64_t n) mutable {
    for (std::uint64_t left = n; left > 0;) {
      const auto chunk =
          static_cast<std::size_t>(std::min<std::uint64_t>(left, words.size() - offset));
      engine.run(words.data() + offset, chunk);
      offset = (offset + chunk) % words.size();
      left -= chunk;
    }
    return n;
  };
}

// Cycles/second of `mode` on `design` over `words`.
double measure_cps(const interconnect::BusDesign& design, bus::EngineMode mode,
                  const std::vector<BusWord>& words) {
  bus::BusSimulator sim(design, paper_system().table(), tech::typical_corner());
  sim.set_engine_mode(mode);
  sim.set_supply(1.00);
  return median_cps(words.size(), span_runner(sim, words));
}

double measure_cps(bus::EngineMode mode, const std::vector<BusWord>& words) {
  return measure_cps(paper_system().design(), mode, words);
}

void engine_showdown(ScenarioContext& ctx) {
  struct Workload {
    const char* name;
    trace::Trace trace;
  };
  const Workload workloads[] = {
      {"active (load 1.0)",
       make_trace(trace::SyntheticStyle::uniform, 1.0, ctx.cycles, "active")},
      {"mixed (load 0.4)",
       make_trace(trace::SyntheticStyle::uniform, 0.4, ctx.cycles, "mixed")},
      {"worst-case toggle",
       make_trace(trace::SyntheticStyle::worst_case, 1.0, ctx.cycles, "toggle")},
      {"idle (load 0.02)",
       make_trace(trace::SyntheticStyle::sparse, 0.02, ctx.cycles, "idle")},
  };

  Table table({"Workload", "Reference (Mcyc/s)", "Bit-parallel (Mcyc/s)", "Speedup"});
  double active_speedup = 0.0;
  for (const auto& w : workloads) {
    const double ref_cps = measure_cps(bus::EngineMode::reference, w.trace.words);
    const double fast_cps = measure_cps(bus::EngineMode::bit_parallel, w.trace.words);
    const double speedup = fast_cps / ref_cps;
    table.row()
        .add(w.name)
        .add(ref_cps / 1e6, 1)
        .add(fast_cps / 1e6, 1)
        .add(speedup, 2);

    std::string key = w.name;
    key = key.substr(0, key.find(' '));
    ctx.metric(key + "_reference_cps", ref_cps);
    ctx.metric(key + "_bit_parallel_cps", fast_cps);
    ctx.metric(key + "_speedup", speedup);
    if (key == "active") active_speedup = speedup;
  }
  ctx.table("engine_throughput", table);
  std::printf(
      "\nThe bit-parallel batched engine is the default; the per-wire\n"
      "reference path remains as the golden model (DESIGN.md §5).\n");
  if (active_speedup < 5.0)
    std::printf("WARNING: active-traffic speedup %.2fx below the 5x budget\n",
                active_speedup);
}

// Throughput vs bus width (DESIGN.md §10): the same electrical design at
// 16, 32, 64 and 128 wires, driven with uniform traffic of that width. The
// characterised table is width-independent, so every width reuses the
// paper system's tables; what changes is the number of shield groups per
// cycle (lookups) and the lane count of the mask algebra. Tracked in
// BENCH_engine.json as width<N>_*_cps.
void width_showdown(ScenarioContext& ctx) {
  Table table(
      {"Width (wires)", "Reference (Mcyc/s)", "Bit-parallel (Mcyc/s)", "Speedup"});
  for (const int width : {16, 32, 64, 128}) {
    interconnect::BusDesign design = paper_system().design();  // sized repeaters
    design.n_bits = width;
    const trace::Trace t = make_trace(trace::SyntheticStyle::uniform, 0.4, ctx.cycles,
                                      "width", width);
    const double ref_cps = measure_cps(design, bus::EngineMode::reference, t.words);
    const double fast_cps = measure_cps(design, bus::EngineMode::bit_parallel, t.words);
    table.row()
        .add(static_cast<long long>(width))
        .add(ref_cps / 1e6, 1)
        .add(fast_cps / 1e6, 1)
        .add(fast_cps / ref_cps, 2);
    const std::string key = "width" + std::to_string(width);
    ctx.metric(key + "_reference_cps", ref_cps);
    ctx.metric(key + "_bit_parallel_cps", fast_cps);
  }
  ctx.table("width_throughput", table);
}

// Wall-clock of fn(), repeated until the window is long enough to trust;
// returns seconds per call.
template <typename Fn>
double measure_seconds(Fn&& fn) {
  using clock = std::chrono::steady_clock;
  int calls = 0;
  double elapsed = 0.0;
  const auto t0 = clock::now();
  do {
    fn();
    ++calls;
    elapsed = std::chrono::duration<double>(clock::now() - t0).count();
  } while (elapsed < 0.3);
  return elapsed / calls;
}

// Multi-operating-point engine (DESIGN.md §13): point-cycles/second of one
// batched pass vs batch size. The scalar loop's point-cycles/sec is flat in
// P by construction (P passes over the trace); the batch engine amortises
// classification and vectorises the per-point arithmetic, so its
// point-cycles/sec should GROW with P. Tracked per width and point count as
// sweep_points_w<W>_p<P>_cps, plus a driver-level scalar-vs-simd A/B on the
// Fig. 4 sweep (same report bytes, fewer passes).
// Closed-loop throughput of the system layer (sys::BusSystem): lockstep
// cycles/second of a 1-bus and a 3-bus shared-supply system, and of a
// 1-bus run under an active drift ramp (window-granular corner
// re-derivation). Every lane simulates its DVS bus AND the lockstep
// nominal baseline, so these rates sit well below the raw engine numbers.
// Tracked in BENCH_engine.json as system_*_cps and gated like the rest.
void system_showdown(ScenarioContext& ctx) {
  const std::size_t cycles = ctx.cycles;
  const auto measure = [&](std::size_t n_lanes, bool with_drift) {
    std::vector<sys::BusLane> lanes(n_lanes, sys::BusLane{&paper_system(), 1.0});
    const sys::BusSystem system(std::move(lanes));
    std::vector<trace::Trace> traces;
    for (std::size_t l = 0; l < n_lanes; ++l)
      traces.push_back(
          make_trace(trace::SyntheticStyle::uniform, 0.4, cycles, "sysbench"));
    sys::SystemRunConfig cfg;
    if (with_drift)
      cfg.drift = drift::Schedule::linear(cycles, 25.0, 100.0, 0.0, 0.05);
    const tech::PvtCorner corner = tech::typical_corner();
    // A closed loop runs whole traces: a window is the nearest whole number
    // of passes.
    return median_cps(cycles, [&](std::uint64_t n) {
      const std::uint64_t passes = std::max<std::uint64_t>(1, (n + cycles / 2) / cycles);
      std::uint64_t done = 0;
      for (std::uint64_t p = 0; p < passes; ++p)
        done += system.run_closed_loop(corner, traces, cfg).cycles;
      return done;
    });
  };
  const double one_cps = measure(1, false);
  const double three_cps = measure(3, false);
  const double drift_cps = measure(1, true);

  Table table({"System", "Closed loop (Mcyc/s)"});
  table.row().add("1 bus").add(one_cps / 1e6, 1);
  table.row().add("3 buses, shared rail").add(three_cps / 1e6, 1);
  table.row().add("1 bus + drift ramp").add(drift_cps / 1e6, 1);
  ctx.table("system_throughput", table);
  ctx.metric("system_1bus_cps", one_cps);
  ctx.metric("system_3bus_cps", three_cps);
  ctx.metric("system_drift_cps", drift_cps);
}

void multipoint_showdown(ScenarioContext& ctx) {
  const tech::PvtCorner corner = tech::typical_corner();
  const int point_counts[] = {1, 4, 8, 20};

  Table table({"Width (wires)", "P=1 (Mpt-cyc/s)", "P=4", "P=8", "P=20",
               "P=20 vs P=1"});
  for (const int width : {16, 32, 64, 128}) {
    interconnect::BusDesign design = paper_system().design();  // sized repeaters
    design.n_bits = width;
    const trace::Trace t = make_trace(trace::SyntheticStyle::uniform, 0.4, ctx.cycles,
                                      "points", width);
    table.row().add(static_cast<long long>(width));
    double first_cps = 0.0, last_cps = 0.0;
    for (const int n_points : point_counts) {
      std::vector<bus::OperatingPoint> points;
      for (int p = 0; p < n_points; ++p) points.push_back({1.00 + 0.01 * p, corner});
      bus::MultiPointEngine engine(design, paper_system().table(), points);
      const double cps = static_cast<double>(n_points) *
                         median_cps(t.words.size(), span_runner(engine, t.words));
      table.add(cps / 1e6, 1);
      ctx.metric("sweep_points_w" + std::to_string(width) + "_p" +
                     std::to_string(n_points) + "_cps",
                 cps);
      if (n_points == point_counts[0]) first_cps = cps;
      last_cps = cps;
    }
    table.add(first_cps > 0.0 ? last_cps / first_cps : 0.0, 2);
  }
  ctx.table("multipoint_throughput", table);

  // Fig. 4 sweep A/B: identical grid and report, scalar per-supply sharding
  // vs one EngineMode::simd batch per thread chunk.
  const auto& system = paper_system();
  const trace::Trace sweep_trace =
      make_trace(trace::SyntheticStyle::uniform, 0.4, ctx.cycles, "sweep_ab");
  const std::vector<trace::Trace> traces{sweep_trace};
  const std::size_t supplies =
      core::static_voltage_sweep(system, corner, traces).points.size();
  const double scalar_s = measure_seconds(
      [&] { core::static_voltage_sweep(system, corner, traces); });
  const double simd_s = measure_seconds([&] {
    core::static_voltage_sweep(system, corner, traces, 0.0, bus::EngineMode::simd);
  });
  const double speedup = scalar_s / simd_s;

  Table ab({"Fig. 4 sweep", "Supplies", "Scalar (s)", "SIMD batch (s)", "Speedup"});
  ab.row()
      .add("static_voltage_sweep")
      .add(static_cast<long long>(supplies))
      .add(scalar_s, 3)
      .add(simd_s, 3)
      .add(speedup, 2);
  ctx.table("sweep_engine_ab", ab);
  ctx.metric("sweep_supplies", static_cast<double>(supplies));
  ctx.metric("sweep_scalar_seconds", scalar_s);
  ctx.metric("sweep_simd_seconds", simd_s);
  ctx.metric("sweep_simd_speedup", speedup);
  if (speedup < 2.0)
    std::printf("WARNING: simd sweep speedup %.2fx below the 2x budget\n", speedup);
}

// Single- vs multi-thread throughput of the two sharded workloads
// (DESIGN.md §9): a characterization grid build and a static voltage
// sweep. Both are bit-identical at any width, so this is purely the
// executor's scaling trajectory, tracked in BENCH_engine.json.
void parallel_showdown(ScenarioContext& ctx) {
  const unsigned threads = util::global_threads();
  ctx.metric("threads", static_cast<double>(threads));

  // Characterization microcosm: one corner, one temperature, a short
  // supply grid — the same per-grid-point transient sims as the full
  // build, small enough to time in seconds.
  lut::LutConfig cfg;
  cfg.vmin = 1.08;
  cfg.vmax = 1.20;
  cfg.vstep = 0.02;
  cfg.temps = {100.0};
  cfg.corners = {tech::ProcessCorner::typical};
  const auto& system = paper_system();

  util::set_global_threads(1);
  const double char_1t = measure_seconds(
      [&] { lut::DelayEnergyTable::build(system.design(), system.driver(), cfg); });
  util::set_global_threads(threads);
  const double char_mt = measure_seconds(
      [&] { lut::DelayEnergyTable::build(system.design(), system.driver(), cfg); });

  // Sweep microcosm: the Fig. 4 driver on one synthetic trace.
  const trace::Trace trace =
      make_trace(trace::SyntheticStyle::uniform, 0.4, ctx.cycles, "sweep");
  const std::vector<trace::Trace> traces{trace};
  const tech::PvtCorner corner = tech::typical_corner();

  util::set_global_threads(1);
  const double sweep_1t =
      measure_seconds([&] { core::static_voltage_sweep(system, corner, traces); });
  util::set_global_threads(threads);
  const double sweep_mt =
      measure_seconds([&] { core::static_voltage_sweep(system, corner, traces); });

  const double char_speedup = char_1t / char_mt;
  const double sweep_speedup = sweep_1t / sweep_mt;

  Table table({"Sharded workload", "1 thread (s)", "N threads (s)", "Speedup"});
  table.row().add("characterization build").add(char_1t, 3).add(char_mt, 3).add(
      char_speedup, 2);
  table.row().add("static voltage sweep").add(sweep_1t, 3).add(sweep_mt, 3).add(
      sweep_speedup, 2);
  ctx.table("parallel_throughput", table);
  ctx.metric("characterization_seconds_1t", char_1t);
  ctx.metric("characterization_seconds_mt", char_mt);
  ctx.metric("characterization_parallel_speedup", char_speedup);
  ctx.metric("sweep_seconds_1t", sweep_1t);
  ctx.metric("sweep_seconds_mt", sweep_mt);
  ctx.metric("sweep_parallel_speedup", sweep_speedup);

  std::printf("\nExecutor width: %u thread%s (override with --threads=N)\n", threads,
              threads == 1 ? "" : "s");
  if (threads >= 4 && std::min(char_speedup, sweep_speedup) < 3.0)
    std::printf("WARNING: parallel speedup %.2fx below the 3x budget at %u threads\n",
                std::min(char_speedup, sweep_speedup), threads);
}

// Characterization cost (docs/characterization.md): transient runs of a
// cold dense build of one (corner, temperature) of the paper grid, plus a
// warm build_or_load in a copy of the cold cache directory — a disk hit
// (the in-process memo is keyed by directory, so it cannot answer), which
// must perform ZERO transient runs. Runs inside isolated RAZORBUS_CACHE_DIRs
// so the process's real cache is untouched. `lut_warm_sims` is gated as a
// COST key (more sims = regression) and `lut_build_cps` as throughput.
void characterization_showdown(ScenarioContext& ctx) {
  const auto& system = paper_system();

  lut::LutConfig cfg;  // paper voltage range, one corner and temp
  cfg.temps = {100.0};
  cfg.corners = {tech::ProcessCorner::typical};

  const char* prev_env = std::getenv("RAZORBUS_CACHE_DIR");
  const std::string prev_dir = prev_env ? prev_env : "";
  const std::string cold_dir = "BENCH_lut_cache.tmp";
  const std::string warm_dir = "BENCH_lut_cache_warm.tmp";
  std::error_code ec;
  std::filesystem::remove_all(cold_dir, ec);
  std::filesystem::remove_all(warm_dir, ec);
  setenv("RAZORBUS_CACHE_DIR", cold_dir.c_str(), 1);

  // Cold: empty cache directory, every grid point costs its transient runs.
  lut::BuildStats cold_stats;
  using clock = std::chrono::steady_clock;
  const auto t0 = clock::now();
  lut::build_or_load(system.design(), system.driver(), cfg, {}, &cold_stats);
  const double cold_s = std::chrono::duration<double>(clock::now() - t0).count();

  // Warm: a fresh process on a machine that already holds the table file.
  std::filesystem::copy(cold_dir, warm_dir, std::filesystem::copy_options::recursive,
                        ec);
  setenv("RAZORBUS_CACHE_DIR", warm_dir.c_str(), 1);
  lut::BuildStats warm_stats;
  lut::build_or_load(system.design(), system.driver(), cfg, {}, &warm_stats);

  if (prev_env)
    setenv("RAZORBUS_CACHE_DIR", prev_dir.c_str(), 1);
  else
    unsetenv("RAZORBUS_CACHE_DIR");
  std::filesystem::remove_all(cold_dir, ec);
  std::filesystem::remove_all(warm_dir, ec);

  const auto cold_sims = static_cast<double>(cold_stats.transient_sims);
  Table table({"Characterization", "Transient sims", "Points"});
  const auto add_row = [&table](const char* label, const lut::BuildStats& stats) {
    table.row()
        .add(label)
        .add(static_cast<long long>(stats.transient_sims))
        .add(static_cast<long long>(stats.points));
  };
  add_row("dense, cold", cold_stats);
  add_row("dense, warm table file", warm_stats);
  ctx.table("characterization_cost", table);

  ctx.metric("lut_build_cps", cold_s > 0.0 ? cold_sims / cold_s : 0.0);
  ctx.metric("lut_warm_sims", static_cast<double>(warm_stats.transient_sims));

  if (warm_stats.transient_sims > 0)
    std::printf("WARNING: warm load performed %llu transient sims (expected 0)\n",
                static_cast<unsigned long long>(warm_stats.transient_sims));
}

}  // namespace

Scenario make_engine_scenario() {
  Scenario scenario;
  scenario.name = "engine";
  scenario.description = "perf_microbench: engine throughput (cycles/sec per mode)";
  scenario.paper_ref = "methodology Section 3 (simulation speed enables 10M-cycle runs)";
  scenario.default_cycles = 1 << 18;
  scenario.run = [](ScenarioContext& ctx) {
    engine_showdown(ctx);
    width_showdown(ctx);
    system_showdown(ctx);
    multipoint_showdown(ctx);
    parallel_showdown(ctx);
    characterization_showdown(ctx);
  };
  return scenario;
}

}  // namespace razorbus::bench
