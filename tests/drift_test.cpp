// Lifetime-scale drift (drift::Schedule + the sys::BusSystem drift
// wrapper): schedule math (lerp, clamp, validation, corner quantisation
// and the vth -> IR-drop fold), the ZERO-DRIFT byte-identity contract (a
// disabled or constant-at-the-corner schedule reproduces the static-corner
// run exactly), ramp monotonicity in the expected physical direction, and
// thread-count independence of drift runs (this suite also runs under
// TSan — concurrent drift runs share one characterised table).
#include <gtest/gtest.h>

#include <memory>
#include <thread>
#include <vector>

#include "core/experiments.hpp"
#include "drift/schedule.hpp"
#include "sys/bus_system.hpp"
#include "test_support.hpp"
#include "trace/source.hpp"
#include "trace/synthetic.hpp"

using namespace razorbus;

namespace {

constexpr std::size_t kCycles = 30000;

// The drift suite needs a system whose voltage axis reaches the error
// wall, or every drift schedule would be invisible.
const core::DvsBusSystem& drift_system() { return test_support::error_wall_system(); }

trace::SyntheticConfig synth_config(std::size_t cycles, std::uint64_t seed) {
  trace::SyntheticConfig cfg;
  cfg.cycles = cycles;
  cfg.load_rate = 0.5;
  cfg.seed = seed;
  cfg.n_bits = 32;
  return cfg;
}

trace::Trace synth(std::size_t cycles, std::uint64_t seed) {
  return trace::generate_synthetic(synth_config(cycles, seed), "drift");
}

sys::SystemRunConfig run_config(drift::Schedule schedule = {}) {
  sys::SystemRunConfig config;
  config.run.controller.window_cycles = 2000;
  config.run.regulator_delay_cycles = 700;
  config.run.record_series = true;
  config.drift = std::move(schedule);
  return config;
}

void expect_reports_eq(const sys::SystemRunReport& a, const sys::SystemRunReport& b) {
  ASSERT_EQ(a.per_bus.size(), b.per_bus.size());
  for (std::size_t l = 0; l < a.per_bus.size(); ++l) {
    EXPECT_EQ(a.per_bus[l].totals.cycles, b.per_bus[l].totals.cycles);
    EXPECT_EQ(a.per_bus[l].totals.errors, b.per_bus[l].totals.errors);
    EXPECT_EQ(a.per_bus[l].totals.shadow_failures, b.per_bus[l].totals.shadow_failures);
    EXPECT_EQ(a.per_bus[l].totals.bus_energy, b.per_bus[l].totals.bus_energy);
    EXPECT_EQ(a.per_bus[l].totals.overhead_energy,
              b.per_bus[l].totals.overhead_energy);
    EXPECT_EQ(a.per_bus[l].baseline_bus_energy, b.per_bus[l].baseline_bus_energy);
  }
  ASSERT_EQ(a.series.size(), b.series.size());
  for (std::size_t i = 0; i < a.series.size(); ++i) {
    EXPECT_EQ(a.series[i].end_cycle, b.series[i].end_cycle);
    EXPECT_EQ(a.series[i].supply, b.series[i].supply);
    EXPECT_EQ(a.series[i].error_rate, b.series[i].error_rate);
  }
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.windows, b.windows);
  EXPECT_EQ(a.floor_supply, b.floor_supply);
  EXPECT_EQ(a.average_supply, b.average_supply);
  EXPECT_EQ(a.wall_tracking_error, b.wall_tracking_error);
  EXPECT_EQ(a.env_updates, b.env_updates);
}

}  // namespace

// ------------------------------------------------------------- schedule

TEST(DriftSchedule, DefaultConstructedIsDisabled) {
  const drift::Schedule schedule;
  EXPECT_FALSE(schedule.enabled());
}

TEST(DriftSchedule, LinearInterpolatesAndClamps) {
  const auto s = drift::Schedule::linear(1000, 25.0, 100.0, 0.0, 0.1);
  ASSERT_TRUE(s.enabled());
  EXPECT_DOUBLE_EQ(s.at(0).temp_c, 25.0);
  EXPECT_DOUBLE_EQ(s.at(0).vth_shift_v, 0.0);
  EXPECT_DOUBLE_EQ(s.at(500).temp_c, 62.5);
  EXPECT_DOUBLE_EQ(s.at(500).vth_shift_v, 0.05);
  EXPECT_DOUBLE_EQ(s.at(1000).temp_c, 100.0);
  // Clamped past the end: lifetime runs longer than the ramp hold the
  // final state.
  EXPECT_DOUBLE_EQ(s.at(5000).temp_c, 100.0);
  EXPECT_DOUBLE_EQ(s.at(5000).vth_shift_v, 0.1);
}

TEST(DriftSchedule, PiecewiseInterpolatesBetweenBreakpoints) {
  const auto s = drift::Schedule::piecewise(
      {{1000, 30.0, 0.0}, {2000, 50.0, 0.02}, {4000, 50.0, 0.06}});
  EXPECT_DOUBLE_EQ(s.at(0).temp_c, 30.0);    // clamped before the first point
  EXPECT_DOUBLE_EQ(s.at(1500).temp_c, 40.0);
  EXPECT_DOUBLE_EQ(s.at(1500).vth_shift_v, 0.01);
  EXPECT_DOUBLE_EQ(s.at(3000).temp_c, 50.0);
  EXPECT_DOUBLE_EQ(s.at(3000).vth_shift_v, 0.04);
}

TEST(DriftSchedule, Validation) {
  EXPECT_THROW(drift::Schedule::linear(0, 25.0, 100.0, 0.0, 0.0),
               std::invalid_argument);
  EXPECT_THROW(drift::Schedule::piecewise({}), std::invalid_argument);
  // Breakpoint cycles must be strictly increasing.
  EXPECT_THROW(drift::Schedule::piecewise({{100, 25.0, 0.0}, {100, 30.0, 0.0}}),
               std::invalid_argument);
  EXPECT_THROW(drift::Schedule::piecewise({{200, 25.0, 0.0}, {100, 30.0, 0.0}}),
               std::invalid_argument);
  // Out-of-range operating states.
  EXPECT_THROW(drift::Schedule::linear(100, 25.0, 400.0, 0.0, 0.0),
               std::invalid_argument);
  EXPECT_THROW(drift::Schedule::linear(100, 25.0, 100.0, -0.1, 0.0),
               std::invalid_argument);
}

TEST(DriftSchedule, CornerSnapsToTemperatureAxisAndFoldsVth) {
  const std::vector<double> axis{25.0, 100.0};
  tech::PvtCorner base;
  base.temp_c = 25.0;
  base.ir_drop_fraction = 0.05;

  const auto low = drift::Schedule::linear(100, 40.0, 40.0, 0.0, 0.0);
  EXPECT_DOUBLE_EQ(low.corner_at(base, 0, 1.2, axis).temp_c, 25.0);
  const auto high = drift::Schedule::linear(100, 80.0, 80.0, 0.0, 0.0);
  EXPECT_DOUBLE_EQ(high.corner_at(base, 0, 1.2, axis).temp_c, 100.0);

  // dVth/vdd stacks on the base IR drop: 0.05 + 0.06/1.2 = 0.10.
  const auto aged = drift::Schedule::linear(100, 25.0, 25.0, 0.06, 0.06);
  const tech::PvtCorner folded = aged.corner_at(base, 50, 1.2, axis);
  EXPECT_DOUBLE_EQ(folded.ir_drop_fraction, 0.10);
  EXPECT_EQ(folded.process, base.process);

  // A shift that eats the whole supply is rejected.
  const auto fatal = drift::Schedule::linear(100, 25.0, 25.0, 1.3, 1.3);
  EXPECT_THROW(fatal.corner_at(base, 0, 1.2, axis), std::invalid_argument);
}

TEST(DriftSchedule, FromSpecResolvesLinearOverTheCycleBudget) {
  core::DriftSpec spec;
  EXPECT_FALSE(sys::schedule_from_spec(spec, 1000).enabled());

  spec.enabled = true;
  spec.temp_start = 25.0;
  spec.temp_end = 100.0;
  const auto linear = sys::schedule_from_spec(spec, 1000);
  ASSERT_TRUE(linear.enabled());
  EXPECT_DOUBLE_EQ(linear.at(500).temp_c, 62.5);

  spec.points = {{0, 30.0, 0.0}, {500, 90.0, 0.01}};
  const auto piecewise = sys::schedule_from_spec(spec, 1000);
  ASSERT_EQ(piecewise.points().size(), 2u);
  EXPECT_DOUBLE_EQ(piecewise.at(250).temp_c, 60.0);
}

// ------------------------------------------------------- zero-drift parity

// The load-bearing contract (ISSUE acceptance): a schedule that never
// moves the corner must reproduce the static-corner run BYTE-identically.
// Two flavours: a disabled schedule (the wrapper is skipped entirely) and
// a constant schedule pinned at the environment's own operating point
// (the wrapper runs but every re-derivation is a no-op).
TEST(DriftParity, ZeroDriftMatchesStaticRunByteIdentically) {
  const trace::Trace trace = synth(kCycles, 3);
  const sys::BusSystem system({{&drift_system(), 1.0}});
  // typical_corner() is 100C and small_system's axis is {100}, so the
  // constant schedule re-derives exactly the environment corner.
  const auto constant = drift::Schedule::linear(kCycles, 100.0, 100.0, 0.0, 0.0);

  const sys::SystemRunReport plain =
      system.run_closed_loop(tech::typical_corner(), {trace}, run_config());
  const sys::SystemRunReport zero = system.run_closed_loop(
      tech::typical_corner(), {trace}, run_config(constant));
  expect_reports_eq(plain, zero);
  EXPECT_EQ(zero.env_updates, 0u);

  // And both equal the single-bus driver (transitively: drift runs sit on
  // the same N=1-parity loop the system tests pin down).
  core::DvsRunConfig single_cfg;
  single_cfg.controller.window_cycles = 2000;
  single_cfg.regulator_delay_cycles = 700;
  single_cfg.record_series = true;
  const core::DvsRunReport single =
      core::run_closed_loop(drift_system(), tech::typical_corner(), trace, single_cfg);
  EXPECT_EQ(zero.per_bus.front().totals.errors, single.totals.errors);
  EXPECT_EQ(zero.per_bus.front().totals.bus_energy, single.totals.bus_energy);
  EXPECT_EQ(zero.average_supply, single.average_supply);
}

TEST(DriftParity, ZeroDriftStreamedMatchesMaterialized) {
  const auto cfg_src = synth_config(kCycles, 5);
  const sys::BusSystem system({{&drift_system(), 1.0}});
  const auto constant = drift::Schedule::linear(kCycles, 100.0, 100.0, 0.0, 0.0);

  const trace::Trace trace = trace::generate_synthetic(cfg_src, "drift");
  const sys::SystemRunReport materialized = system.run_closed_loop(
      tech::typical_corner(), {trace}, run_config(constant));

  std::vector<std::unique_ptr<trace::TraceSource>> sources;
  sources.push_back(trace::make_synthetic_source(cfg_src, "drift"));
  core::StreamConfig stream;
  stream.block_cycles = 1537;
  const sys::SystemRunReport streamed = system.run_closed_loop_streamed(
      tech::typical_corner(), sources, run_config(constant), stream);
  expect_reports_eq(materialized, streamed);
}

// ----------------------------------------------------------- drift physics

// Threshold-shift aging raises the effective IR drop window by window, so
// the closed loop must hold a higher average supply than the fresh run —
// and must actually have applied corner updates along the way.
TEST(DriftPhysics, AgingRampRaisesTheHeldSupplyMonotonically) {
  const trace::Trace trace = synth(kCycles, 7);
  const sys::BusSystem system({{&drift_system(), 1.0}});

  const sys::SystemRunReport fresh =
      system.run_closed_loop(tech::typical_corner(), {trace}, run_config());
  const auto aging = drift::Schedule::linear(kCycles, 100.0, 100.0, 0.0, 0.08);
  const sys::SystemRunReport aged = system.run_closed_loop(
      tech::typical_corner(), {trace}, run_config(aging));

  EXPECT_GT(aged.env_updates, 0u);
  EXPECT_GT(aged.average_supply, fresh.average_supply);
  // The regulator floor is a property of the base process corner, not the
  // drifted operating point.
  EXPECT_EQ(aged.floor_supply, fresh.floor_supply);

  // Stronger monotonicity: more aging by the end of life, higher supply.
  const auto milder = drift::Schedule::linear(kCycles, 100.0, 100.0, 0.0, 0.04);
  const sys::SystemRunReport mild = system.run_closed_loop(
      tech::typical_corner(), {trace}, run_config(milder));
  EXPECT_GE(aged.average_supply, mild.average_supply);
  EXPECT_GE(mild.average_supply, fresh.average_supply);
}

// Streamed drift runs agree with materialized drift runs even when the
// schedule is active (window boundaries, not block boundaries, drive the
// corner updates).
TEST(DriftPhysics, ActiveDriftStreamedMatchesMaterialized) {
  const auto cfg_src = synth_config(kCycles, 11);
  const sys::BusSystem system({{&drift_system(), 1.0}});
  const auto aging = drift::Schedule::linear(kCycles, 100.0, 100.0, 0.01, 0.06);

  const trace::Trace trace = trace::generate_synthetic(cfg_src, "drift");
  const sys::SystemRunReport materialized = system.run_closed_loop(
      tech::typical_corner(), {trace}, run_config(aging));
  EXPECT_GT(materialized.env_updates, 0u);

  std::vector<std::unique_ptr<trace::TraceSource>> sources;
  sources.push_back(trace::make_synthetic_source(cfg_src, "drift"));
  core::StreamConfig stream;
  stream.block_cycles = 997;
  const sys::SystemRunReport streamed = system.run_closed_loop_streamed(
      tech::typical_corner(), sources, run_config(aging), stream);
  expect_reports_eq(materialized, streamed);
}

// --------------------------------------------------------------- threading

// Drift runs only read the shared characterised table, so N concurrent
// runs over one system must each reproduce the serial report exactly.
// Under TSan (this test is in the sanitizer matrix) this also proves the
// drift path added no unsynchronised shared state.
TEST(DriftThreading, ConcurrentDriftRunsAreThreadCountIndependent) {
  const trace::Trace trace = synth(kCycles / 2, 13);
  const sys::BusSystem system({{&drift_system(), 1.0}});
  const auto aging = drift::Schedule::linear(kCycles / 2, 100.0, 100.0, 0.0, 0.06);

  const sys::SystemRunReport serial = system.run_closed_loop(
      tech::typical_corner(), {trace}, run_config(aging));

  constexpr int kThreads = 4;
  std::vector<sys::SystemRunReport> reports(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i)
    threads.emplace_back([&, i] {
      reports[i] = system.run_closed_loop(tech::typical_corner(), {trace},
                                          run_config(aging));
    });
  for (auto& t : threads) t.join();
  for (const auto& report : reports) expect_reports_eq(serial, report);
}
