// layer_probe — per-layer timings for the benchmark's traced mode.
//
//   layer_probe --campaign=SPEC.json --reports=DIR --work=DIR --out=PROBE.json
//
// Calls each razorbus layer's public functions directly and records a span
// (name, start, end, parent) around every call. Spans are kept in memory
// and written to --out at the end together with the metrics derived from
// them (perfbench/README.md lists each metric and the workload it should
// move). Times are CLOCK_MONOTONIC seconds, the clock run.py's spans use,
// so both span sets share one time axis.
//
// --campaign is the workload's generated campaign: its jobs size the queue
// and the job-hash / result-cache probes, and --reports holds the reports
// the traced campaign wrote for them (real entry sizes for the cache).
// --work is scratch space; the probe points RAZORBUS_CACHE_DIR inside it,
// so the cold LUT build below starts from nothing.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bus/simulator.hpp"
#include "core/experiments.hpp"
#include "core/job_hash.hpp"
#include "core/scenario_spec.hpp"
#include "core/system.hpp"
#include "cpu/kernels.hpp"
#include "drift/schedule.hpp"
#include "interconnect/elmore.hpp"
#include "interconnect/rc_builder.hpp"
#include "lut/cache.hpp"
#include "svc/queue.hpp"
#include "svc/result_cache.hpp"
#include "sys/bus_system.hpp"
#include "trace/source.hpp"
#include "trace/synthetic.hpp"
#include "util/cli.hpp"
#include "util/json.hpp"

using namespace razorbus;
namespace fs = std::filesystem;

namespace {

double now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  std::string name;
  double start = 0.0;
  double end = 0.0;
  int parent = -1;  // index into the span list; -1 = the probe's root
};

class Tracer {
 public:
  int begin(const std::string& name, int parent) {
    spans_.push_back({name, now(), 0.0, parent});
    return static_cast<int>(spans_.size()) - 1;
  }
  double end(int id) {
    Span& s = spans_[static_cast<std::size_t>(id)];
    s.end = now();
    return s.end - s.start;
  }
  // Runs fn() inside one span and returns its duration in seconds.
  template <typename Fn>
  double timed(const std::string& name, int parent, Fn&& fn) {
    const int id = begin(name, parent);
    fn();
    return end(id);
  }
  // Median duration of at least `min_calls` spanned calls of fn(), called
  // until `min_seconds` have passed.
  template <typename Fn>
  double median_of(const std::string& name, int parent, int min_calls,
                   double min_seconds, Fn&& fn) {
    std::vector<double> durations;
    const double t0 = now();
    while (static_cast<int>(durations.size()) < min_calls || now() - t0 < min_seconds)
      durations.push_back(timed(name, parent, fn));
    std::sort(durations.begin(), durations.end());
    const std::size_t n = durations.size();
    return n % 2 ? durations[n / 2] : 0.5 * (durations[n / 2 - 1] + durations[n / 2]);
  }
  Json to_json() const {
    Json out = Json::array();
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      Json s = Json::object();
      s.set("id", static_cast<long long>(i));
      s.set("name", spans_[i].name);
      s.set("start", spans_[i].start);
      s.set("end", spans_[i].end);
      s.set("parent", static_cast<long long>(spans_[i].parent));
      out.push(std::move(s));
    }
    return out;
  }

 private:
  std::vector<Span> spans_;
};

trace::SyntheticConfig synthetic(std::size_t cycles, int n_bits, std::uint64_t seed) {
  trace::SyntheticConfig cfg;
  cfg.style = trace::SyntheticStyle::uniform;
  cfg.cycles = cycles;
  cfg.load_rate = 0.4;
  cfg.seed = seed;
  cfg.n_bits = n_bits;
  return cfg;
}

// Words drained from `source` through next_block, the producers' hot call.
std::size_t drain(trace::TraceSource& source) {
  std::vector<BusWord> block(trace::kDefaultBlockCycles);
  std::size_t words = 0;
  while (const std::size_t n = source.next_block(block.data(), block.size())) words += n;
  return words;
}

// Timesteps of one cluster transient. Mirrors the horizon rule of
// interconnect::ClusterCharacterizer::run (rc_builder.cpp: event at 50 ps,
// 1 ps steps, stop at 3 first-order delay estimates, clamped to [1, 5] ns).
double cluster_timesteps(const interconnect::BusDesign& design,
                         const tech::DriverModel& driver,
                         const interconnect::ClusterSpec& spec) {
  constexpr double kEventTime = 50e-12;
  constexpr double kDt = 1e-12;
  const double seg = design.segment_length();
  const double r_drv =
      driver.effective_resistance(design.repeater_size, spec.corner, spec.temp_c, spec.vdd);
  const double est = interconnect::repeated_line_delay(
      r_drv, driver.self_capacitance(design.repeater_size),
      driver.input_capacitance(design.repeater_size), design.parasitics.r_per_m * seg,
      (design.parasitics.cg_per_m + 4.0 * design.parasitics.cc_per_m) * seg,
      driver.input_capacitance(design.receiver_size), design.n_segments);
  const double t_stop = std::min(5e-9, std::max(1.0e-9, kEventTime + 3.0 * est));
  return t_stop / kDt;
}

std::string read_or(const fs::path& path, const std::string& fallback) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return fallback;
  std::ostringstream bytes;
  bytes << in.rdbuf();
  return bytes.str();
}

// Cycles/second of one engine call repeated over `words`, median per call.
template <typename Fn>
double median_rate(Tracer& tracer, const std::string& name, int parent, double work,
                   Fn&& fn) {
  fn();  // warm-up: faults in tables and buffers
  return work / tracer.median_of(name, parent, 5, 0.3, fn);
}

}  // namespace

int main(int argc, char** argv) {
  try {
    CliFlags flags(argc, argv);
    const std::string campaign_path = flags.get("campaign", "");
    const fs::path reports_dir = flags.get("reports", "");
    const fs::path work = flags.get("work", "");
    const std::string out_path = flags.get("out", "");
    flags.reject_unused();
    if (campaign_path.empty() || work.empty() || out_path.empty())
      throw std::invalid_argument(
          "usage: layer_probe --campaign=SPEC --reports=DIR --work=DIR --out=FILE");

    fs::remove_all(work);
    fs::create_directories(work);
    Tracer tracer;
    Json metrics = Json::object();
    const int root = tracer.begin("probe", -1);
    const tech::PvtCorner corner = tech::typical_corner();

    // ---- interconnect: repeater sizing of the paper bus (every job pays it).
    interconnect::BusDesign design = interconnect::BusDesign::paper_bus();
    const tech::DriverModel driver(design.node);
    metrics.set("interconnect.size_repeaters_s",
                tracer.median_of("interconnect.size_repeaters", root, 3, 0.0, [&] {
                  interconnect::BusDesign d = design;
                  interconnect::size_repeaters(d, driver, tech::worst_case_corner());
                }));
    interconnect::size_repeaters(design, driver, tech::worst_case_corner());

    // ---- spice: one transient of the worst-case 3-wire cluster.
    interconnect::ClusterSpec cluster;
    cluster.victim = interconnect::WireActivity::rise;
    cluster.left = interconnect::WireActivity::fall;
    cluster.right = interconnect::WireActivity::fall;
    cluster.vdd = design.node.vdd_nominal;
    cluster.corner = corner.process;
    cluster.temp_c = corner.temp_c;
    const interconnect::ClusterCharacterizer characterizer(design, driver);
    const double transient_s = tracer.median_of("spice.transient_run", root, 5, 0.2,
                                                [&] { characterizer.run(cluster); });
    metrics.set("spice.transient_run_s", transient_s);
    metrics.set("spice.timesteps_per_s",
                cluster_timesteps(design, driver, cluster) / transient_s);

    // ---- lut: cold build of the default table, then warm disk loads.
    const fs::path cold_dir = work / "lut_cold";
    setenv("RAZORBUS_CACHE_DIR", cold_dir.c_str(), 1);
    lut::BuildStats cold;
    metrics.set("lut.build_s", tracer.timed("lut.build_or_load.cold", root, [&] {
      lut::build_or_load(design, driver, lut::LutConfig{}, {}, &cold);
    }));
    metrics.set("lut.build_transient_sims", static_cast<double>(cold.transient_sims));
    metrics.set("lut.build_points", static_cast<double>(cold.points));
    metrics.set("lut.store_hits", static_cast<double>(cold.store_hits));

    // A fresh directory per load: the in-process memo is keyed by directory,
    // so each call reads the table from disk.
    int load_index = 0;
    std::uint64_t warm_sims = 0;
    metrics.set("lut.load_s", tracer.median_of("lut.build_or_load.warm", root, 5, 0.0, [&] {
      const fs::path dir = work / ("lut_warm" + std::to_string(load_index++));
      fs::copy(cold_dir, dir, fs::copy_options::recursive);
      setenv("RAZORBUS_CACHE_DIR", dir.c_str(), 1);
      lut::BuildStats stats;
      lut::build_or_load(design, driver, lut::LutConfig{}, {}, &stats);
      warm_sims += stats.transient_sims;
    }));
    if (warm_sims != 0) throw std::runtime_error("warm LUT load ran transient sims");
    setenv("RAZORBUS_CACHE_DIR", cold_dir.c_str(), 1);
    const core::DvsBusSystem system(design);  // memo hit on the cold build

    // ---- trace: producer next_block throughput.
    {
      const std::size_t cycles = std::size_t{1} << 22;
      const auto source = trace::make_synthetic_source(synthetic(cycles, 32, 7), "probe");
      metrics.set("trace.synthetic_words_per_s",
                  static_cast<double>(cycles) /
                      tracer.median_of("trace.synthetic.next_block", root, 3, 0.0, [&] {
                        drain(*source->clone());
                      }));
      std::size_t cpu_words = 0;
      const double cpu_s = tracer.timed("trace.cpu.next_block", root, [&] {
        for (const auto& kernel : cpu::spec2000_suite())
          cpu_words += drain(*kernel.stream(std::size_t{1} << 18));
      });
      metrics.set("trace.cpu_words_per_s", static_cast<double>(cpu_words) / cpu_s);
    }

    // ---- bus: engine throughput per width, and the multi-point engine.
    const std::size_t engine_cycles = std::size_t{1} << 20;
    for (const int width : {32, 64, 128}) {
      interconnect::BusDesign wide = design;
      wide.n_bits = width;
      const trace::Trace t = trace::generate_synthetic(synthetic(engine_cycles, width, 11),
                                                       "engine");
      bus::BusSimulator sim(wide, system.table(), corner);
      sim.set_supply(1.00);
      metrics.set("bus.bit_parallel_w" + std::to_string(width) + "_cps",
                  median_rate(tracer, "bus.BusSimulator.run", root,
                              static_cast<double>(engine_cycles),
                              [&] { sim.run(t.words); }));
    }
    const trace::Trace words32 =
        trace::generate_synthetic(synthetic(engine_cycles, 32, 11), "engine");
    // The sweep's supply axis (floor to nominal) does not depend on the trace.
    const std::vector<trace::Trace> axis_trace{
        trace::generate_synthetic(synthetic(1000, 32, 11), "axis")};
    std::vector<bus::OperatingPoint> points;
    for (const auto& p : core::static_voltage_sweep(system, corner, axis_trace).points)
      points.push_back({p.supply, corner});
    metrics.set("sweep.supplies", static_cast<double>(points.size()));
    {
      bus::MultiPointEngine engine(system.design(), system.table(), points);
      metrics.set("bus.multipoint_w32_pN_point_cps",
                  median_rate(tracer, "bus.MultiPointEngine.run", root,
                              static_cast<double>(engine_cycles * points.size()),
                              [&] { engine.run(words32.words); }));
    }
    {
      interconnect::BusDesign wide = design;
      wide.n_bits = 128;
      const trace::Trace t = trace::generate_synthetic(synthetic(engine_cycles, 128, 11),
                                                       "engine");
      bus::MultiPointEngine engine(wide, system.table(), {{1.00, corner}});
      metrics.set("bus.multipoint_w128_p1_cps",
                  median_rate(tracer, "bus.MultiPointEngine.run", root,
                              static_cast<double>(engine_cycles),
                              [&] { engine.run(t.words); }));
    }

    // ---- core + dvs: closed-loop drivers on the same words, and the loop's
    // own cost over the open-loop engine runs it contains.
    {
      core::DvsRunReport report;
      const double closed_s = tracer.median_of("core.run_closed_loop", root, 3, 0.0, [&] {
        report = core::run_closed_loop(system, corner, words32);
      });
      const double streamed_s =
          tracer.median_of("core.run_closed_loop_streamed", root, 3, 0.0, [&] {
            core::run_closed_loop_streamed(system, corner,
                                           *trace::make_trace_view_source(words32));
          });
      const double cycles = static_cast<double>(words32.words.size());
      metrics.set("core.closed_loop_cps", cycles / closed_s);
      metrics.set("core.closed_loop_streamed_cps", cycles / streamed_s);

      bus::BusSimulator dvs_bus = system.make_simulator(corner);
      dvs_bus.set_supply(report.average_supply);
      bus::BusSimulator baseline = system.make_simulator(corner);
      baseline.set_supply(system.design().node.vdd_nominal);
      const double open_s =
          tracer.median_of("bus.BusSimulator.run.dvs", root, 3, 0.0, [&] {
            dvs_bus.reset();
            dvs_bus.run(words32.words);
          }) +
          tracer.median_of("bus.BusSimulator.run.baseline", root, 3, 0.0, [&] {
            baseline.reset();
            baseline.run(words32.words);
          });
      metrics.set("dvs.loop_self_s", closed_s - open_s);
    }

    // ---- core: static sweep, scalar per-supply runs vs one SIMD batch.
    {
      const std::vector<trace::Trace> traces{
          trace::generate_synthetic(synthetic(std::size_t{1} << 18, 32, 13), "sweep")};
      const double scalar_s =
          tracer.median_of("core.static_voltage_sweep.scalar", root, 3, 0.0, [&] {
            core::static_voltage_sweep(system, corner, traces);
          });
      const double simd_s =
          tracer.median_of("core.static_voltage_sweep.simd", root, 3, 0.0, [&] {
            core::static_voltage_sweep(system, corner, traces, 0.0, bus::EngineMode::simd);
          });
      metrics.set("core.static_sweep_scalar_s", scalar_s);
      metrics.set("core.static_sweep_simd_s", simd_s);
      metrics.set("sweep.simd_speedup", scalar_s / simd_s);
    }

    // ---- sys + drift: shared-supply systems through BusSystem::run_closed_loop.
    {
      const auto system_cps = [&](std::size_t lanes, bool ramp) {
        const sys::BusSystem bus_system(
            std::vector<sys::BusLane>(lanes, sys::BusLane{&system, 1.0}));
        std::vector<trace::Trace> traces;
        for (std::size_t l = 0; l < lanes; ++l)
          traces.push_back(trace::generate_synthetic(
              synthetic(engine_cycles, 32, 17 + l), "lane"));
        sys::SystemRunConfig cfg;
        if (ramp) cfg.drift = drift::Schedule::linear(engine_cycles, 25.0, 100.0, 0.0, 0.05);
        return static_cast<double>(engine_cycles) /
               tracer.median_of("sys.BusSystem.run_closed_loop", root, 3, 0.0, [&] {
                 bus_system.run_closed_loop(corner, traces, cfg);
               });
      };
      metrics.set("sys.three_bus_cps", system_cps(3, false));
      metrics.set("drift.one_bus_ramp_cps", system_cps(1, true));
    }

    // ---- svc + job hash: the service's per-job fixed costs on this
    // workload's own jobs.
    {
      const auto jobs =
          core::expand_campaign(core::CampaignSpec::from_file(campaign_path));
      const double n = static_cast<double>(jobs.size());
      std::vector<std::string> hashes;
      metrics.set("core.job_hash_s", tracer.timed("core.job_hash_hex", root, [&] {
        for (const auto& job : jobs) hashes.push_back(core::job_hash_hex(job));
      }) / n);

      svc::JobQueue queue((work / "queue").string());
      for (std::size_t i = 0; i < jobs.size(); ++i) {
        svc::QueueJob record;
        record.name = jobs[i].name;
        record.hash_hex = hashes[i];
        record.spec_path = (work / (jobs[i].name + ".spec.json")).string();
        record.report_path = (work / ("BENCH_" + jobs[i].name + ".json")).string();
        record.log_path = (work / (jobs[i].name + ".log")).string();
        queue.enqueue(record);
      }
      double claim_s = 0.0;
      for (std::size_t i = 0; i < jobs.size(); ++i) {
        std::optional<svc::QueueJob> claimed;
        claim_s += tracer.timed("svc.JobQueue.claim", root,
                                [&] { claimed = queue.claim("probe"); });
        if (!claimed) throw std::runtime_error("queue drained early");
        Json outcome = Json::object();
        outcome.set("name", claimed->name);
        outcome.set("status", "ok");
        queue.complete(claimed->name, outcome);
      }
      metrics.set("svc.claim_s", claim_s / n);

      svc::ResultCache cache((work / "cache").string());
      std::vector<std::string> reports;
      for (const auto& job : jobs)
        reports.push_back(read_or(reports_dir / ("BENCH_" + job.name + ".json"),
                                  "{\"scenario\": \"" + job.name + "\"}"));
      metrics.set("svc.cache_insert_s", tracer.timed("svc.ResultCache.insert", root, [&] {
        for (std::size_t i = 0; i < jobs.size(); ++i) cache.insert(hashes[i], reports[i]);
      }) / n);
      std::size_t hits = 0;
      metrics.set("svc.cache_lookup_s", tracer.timed("svc.ResultCache.lookup", root, [&] {
        for (const auto& hash : hashes) hits += cache.lookup(hash).has_value();
      }) / n);
      if (hits != jobs.size()) throw std::runtime_error("result cache lost an entry");
    }
    tracer.end(root);

    Json out = Json::object();
    out.set("metrics", std::move(metrics));
    out.set("spans", tracer.to_json());
    std::ofstream(out_path) << out.dump(1) << "\n";
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "layer_probe: %s\n", e.what());
    return 2;
  }
}
