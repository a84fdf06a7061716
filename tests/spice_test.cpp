#include <gtest/gtest.h>

#include <cmath>
#include <utility>
#include <vector>

#include "spice/netlist.hpp"
#include "spice/solver.hpp"
#include "spice/transient.hpp"
#include "util/units.hpp"

namespace razorbus::spice {
namespace {

// ---------------------------------------------------------------- solver

TEST(DenseMatrix, StoresAndClears) {
  DenseMatrix m(3);
  m.at(1, 2) = 5.0;
  EXPECT_DOUBLE_EQ(m.at(1, 2), 5.0);
  EXPECT_DOUBLE_EQ(m.at(2, 1), 0.0);
  m.clear();
  EXPECT_DOUBLE_EQ(m.at(1, 2), 0.0);
}

TEST(Lu, SolvesIdentity) {
  DenseMatrix m(3);
  for (std::size_t i = 0; i < 3; ++i) m.at(i, i) = 1.0;
  const LuFactorization lu(m);
  const auto x = lu.solve({1.0, 2.0, 3.0});
  EXPECT_DOUBLE_EQ(x[0], 1.0);
  EXPECT_DOUBLE_EQ(x[1], 2.0);
  EXPECT_DOUBLE_EQ(x[2], 3.0);
}

TEST(Lu, SolvesKnown2x2) {
  DenseMatrix m(2);
  m.at(0, 0) = 2.0;
  m.at(0, 1) = 1.0;
  m.at(1, 0) = 1.0;
  m.at(1, 1) = 3.0;
  const LuFactorization lu(m);
  const auto x = lu.solve({5.0, 10.0});
  EXPECT_NEAR(x[0], 1.0, 1e-12);
  EXPECT_NEAR(x[1], 3.0, 1e-12);
}

TEST(Lu, PivotsRowsWhenDiagonalIsZero) {
  DenseMatrix m(2);
  m.at(0, 0) = 0.0;
  m.at(0, 1) = 1.0;
  m.at(1, 0) = 1.0;
  m.at(1, 1) = 0.0;
  const LuFactorization lu(m);  // needs pivoting
  const auto x = lu.solve({2.0, 3.0});
  EXPECT_NEAR(x[0], 3.0, 1e-12);
  EXPECT_NEAR(x[1], 2.0, 1e-12);
}

TEST(Lu, ThrowsOnSingular) {
  DenseMatrix m(2);
  m.at(0, 0) = 1.0;
  m.at(0, 1) = 2.0;
  m.at(1, 0) = 2.0;
  m.at(1, 1) = 4.0;
  EXPECT_THROW(LuFactorization{m}, std::runtime_error);
}

TEST(Lu, SolveDimensionMismatchThrows) {
  DenseMatrix m(2);
  m.at(0, 0) = m.at(1, 1) = 1.0;
  const LuFactorization lu(m);
  std::vector<double> wrong{1.0};
  EXPECT_THROW(lu.solve_in_place(wrong), std::invalid_argument);
}

TEST(Lu, LargerRandomSystemRoundTrip) {
  // A strictly diagonally dominant random system has a stable solution:
  // verify A * x == b after solving.
  const std::size_t n = 24;
  DenseMatrix m(n);
  std::vector<double> b(n);
  unsigned state = 12345;
  auto rnd = [&state] {
    state = state * 1103515245u + 12345u;
    return static_cast<double>((state >> 16) & 0x7fff) / 32768.0;
  };
  for (std::size_t r = 0; r < n; ++r) {
    double row_sum = 0.0;
    for (std::size_t c = 0; c < n; ++c) {
      if (r == c) continue;
      m.at(r, c) = rnd() - 0.5;
      row_sum += std::abs(m.at(r, c));
    }
    m.at(r, r) = row_sum + 1.0;
    b[r] = rnd() * 10.0;
  }
  const LuFactorization lu(m);
  const auto x = lu.solve(b);
  for (std::size_t r = 0; r < n; ++r) {
    double acc = 0.0;
    for (std::size_t c = 0; c < n; ++c) acc += m.at(r, c) * x[c];
    EXPECT_NEAR(acc, b[r], 1e-9);
  }
}

// ----------------------------------------------------------- band solver

// Deterministic LCG in [0, 1) (test data only).
struct TestRng {
  unsigned state;
  double operator()() {
    state = state * 1103515245u + 12345u;
    return static_cast<double>((state >> 16) & 0x7fff) / 32768.0;
  }
};

// The same band matrix in dense and band storage.
std::pair<DenseMatrix, BandMatrix> random_band(std::size_t n, std::size_t lower,
                                               std::size_t upper, TestRng& rnd,
                                               bool dominant) {
  DenseMatrix dense(n);
  BandMatrix band(n, lower, upper);
  for (std::size_t r = 0; r < n; ++r) {
    double row_sum = 0.0;
    for (std::size_t c = 0; c < n; ++c) {
      if (c == r || !band.in_band(r, c)) continue;
      const double v = rnd() - 0.5;
      dense.at(r, c) = band.at(r, c) = v;
      row_sum += std::abs(v);
    }
    dense.at(r, r) = band.at(r, r) = dominant ? row_sum + 1.0 : rnd() - 0.5;
  }
  return {dense, band};
}

TEST(BandLu, MatchesDenseOnRandomDiagonallyDominantBands) {
  TestRng rnd{777};
  const std::size_t shapes[][3] = {{1, 0, 0}, {2, 1, 1}, {12, 1, 1}, {48, 3, 3},
                                   {48, 2, 5}, {48, 5, 2}, {30, 29, 29}, {64, 7, 7}};
  for (const auto& shape : shapes) {
    const auto [dense, band] = random_band(shape[0], shape[1], shape[2], rnd, true);
    std::vector<double> b(shape[0]);
    for (double& v : b) v = rnd() * 10.0 - 5.0;
    const auto x_dense = LuFactorization(dense).solve(b);
    const auto x_band = BandLu(band).solve(b);
    ASSERT_EQ(x_band.size(), x_dense.size());
    for (std::size_t i = 0; i < b.size(); ++i)
      EXPECT_NEAR(x_band[i], x_dense[i], 1e-12 * (1.0 + std::abs(x_dense[i])))
          << "n=" << shape[0] << " lower=" << shape[1] << " upper=" << shape[2];
  }
}

// Lu.PivotsRowsWhenDiagonalIsZero's matrix in band storage: the band path
// must pivot inside the band, not divide by the zero diagonal.
TEST(BandLu, PivotsWithinTheBandWhenDiagonalIsZero) {
  BandMatrix m(2, 1, 1);
  m.at(0, 1) = 1.0;
  m.at(1, 0) = 1.0;
  const BandLu lu(m);
  const auto x = lu.solve({2.0, 3.0});
  EXPECT_NEAR(x[0], 3.0, 1e-12);
  EXPECT_NEAR(x[1], 2.0, 1e-12);
}

// Random bands with arbitrary (often tiny or zero) diagonals force row
// swaps throughout; every solve must satisfy A x = b and agree with the
// dense LU.
TEST(BandLu, PivotedSolvesMatchDense) {
  TestRng rnd{4242};
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t n = 10 + static_cast<std::size_t>(trial);
    const std::size_t lower = 1 + static_cast<std::size_t>(trial % 3);
    const std::size_t upper = 1 + static_cast<std::size_t>(trial % 4);
    auto [dense, band] = random_band(n, lower, upper, rnd, false);
    if (trial % 2 == 0)
      for (std::size_t r = 0; r < n; r += 2) dense.at(r, r) = band.at(r, r) = 0.0;
    std::vector<double> b(n);
    for (double& v : b) v = rnd() - 0.5;
    std::vector<double> x_dense;
    try {
      x_dense = LuFactorization(dense).solve(b);
    } catch (const std::runtime_error&) {
      EXPECT_THROW(BandLu{band}, std::runtime_error);  // both refuse, loudly
      continue;
    }
    const auto x = BandLu(band).solve(b);
    for (std::size_t r = 0; r < n; ++r) {
      double acc = 0.0;
      for (std::size_t c = 0; c < n; ++c) acc += dense.at(r, c) * x[c];
      EXPECT_NEAR(acc, b[r], 1e-9) << "trial " << trial;
      EXPECT_NEAR(x[r], x_dense[r], 1e-8 * (1.0 + std::abs(x_dense[r])))
          << "trial " << trial;
    }
  }
}

TEST(BandLu, ThrowsOnSingularInsteadOfMisSolving) {
  BandMatrix m(3, 1, 1);
  m.at(0, 0) = 1.0;
  m.at(0, 1) = 2.0;
  m.at(1, 0) = 2.0;
  m.at(1, 1) = 4.0;  // rows 0 and 1 dependent
  m.at(2, 2) = 1.0;
  EXPECT_THROW(BandLu{m}, std::runtime_error);
}

TEST(BandLu, SolveDimensionMismatchThrows) {
  BandMatrix m(2, 0, 0);
  m.at(0, 0) = m.at(1, 1) = 1.0;
  const BandLu lu(m);
  std::vector<double> wrong{1.0};
  EXPECT_THROW(lu.solve_in_place(wrong), std::invalid_argument);
}

// The characterization cluster's sparsity: three wires of n_seg repeater
// segments, 4 RC nodes each (rc_builder.cpp), coupled node-for-node
// victim-left and victim-right. Numbered wire by wire (as the netlist
// builder does) the bandwidth is 32; reordered it is 3.
TEST(Ordering, ClusterBandwidthDropsFrom32To3) {
  constexpr std::size_t kSegments = 4;
  constexpr std::size_t kNodes = 4;
  const auto id = [](std::size_t wire, std::size_t seg, std::size_t node) {
    return wire * kSegments * kNodes + seg * kNodes + node;
  };
  std::vector<std::pair<std::size_t, std::size_t>> edges;
  for (std::size_t w = 0; w < 3; ++w)
    for (std::size_t s = 0; s < kSegments; ++s)
      for (std::size_t i = 0; i + 1 < kNodes; ++i)
        edges.emplace_back(id(w, s, i), id(w, s, i + 1));
  for (std::size_t s = 0; s < kSegments; ++s)
    for (std::size_t i = 0; i < kNodes; ++i) {
      edges.emplace_back(id(0, s, i), id(1, s, i));
      edges.emplace_back(id(0, s, i), id(2, s, i));
    }
  const std::size_t n = 3 * kSegments * kNodes;
  std::vector<std::size_t> natural(n);
  for (std::size_t i = 0; i < n; ++i) natural[i] = i;
  EXPECT_EQ(bandwidth(natural, edges), 32u);

  const auto order = reverse_cuthill_mckee(n, edges);
  ASSERT_EQ(order.size(), n);
  std::vector<bool> seen(n, false);
  for (const std::size_t v : order) {
    ASSERT_LT(v, n);
    EXPECT_FALSE(seen[v]);
    seen[v] = true;
  }
  EXPECT_EQ(bandwidth(order, edges), 3u);
  EXPECT_EQ(reverse_cuthill_mckee(n, edges), order);  // deterministic
}

TEST(Ordering, IsolatedVerticesAndSelfLoops) {
  const auto order = reverse_cuthill_mckee(4, {{1, 1}, {2, 3}, {3, 2}});
  ASSERT_EQ(order.size(), 4u);
  EXPECT_EQ(order[0], 0u);
  EXPECT_EQ(order[1], 1u);
  EXPECT_LE(bandwidth(order, {{2, 3}}), 1u);
  EXPECT_THROW(reverse_cuthill_mckee(2, {{0, 2}}), std::invalid_argument);
}

// ---------------------------------------------------------------- netlist

TEST(Circuit, ValidatesElementNodes) {
  Circuit c;
  const NodeId a = c.add_node("a");
  EXPECT_THROW(c.add_resistor(a, 57, 100.0), std::invalid_argument);
  EXPECT_THROW(c.add_resistor(a, a, -5.0), std::invalid_argument);
  EXPECT_THROW(c.add_capacitor(a, 57, 1e-15), std::invalid_argument);
  EXPECT_THROW(c.add_capacitor(a, a, 0.0), std::invalid_argument);
}

TEST(Circuit, DriverValidation) {
  Circuit c;
  const NodeId out = c.add_node("out");
  const NodeId rail = c.add_fixed_node("vdd", 1.2);

  Driver bad_rail;
  bad_rail.out = out;
  bad_rail.vdd_rail = out;  // not fixed
  bad_rail.r_up = bad_rail.r_dn = 100.0;
  c.add_driver(bad_rail);
  EXPECT_THROW(c.validate(), std::invalid_argument);

  Circuit c2;
  const NodeId out2 = c2.add_node("out");
  const NodeId rail2 = c2.add_fixed_node("vdd", 1.2);
  Driver good;
  good.out = out2;
  good.vdd_rail = rail2;
  good.r_up = good.r_dn = 100.0;
  c2.add_driver(good);
  EXPECT_NO_THROW(c2.validate());
  (void)rail;
}

TEST(Circuit, DriverRejectsNonPositiveResistance) {
  Circuit c;
  const NodeId out = c.add_node("out");
  const NodeId rail = c.add_fixed_node("vdd", 1.2);
  Driver d;
  d.out = out;
  d.vdd_rail = rail;
  d.r_up = 0.0;
  d.r_dn = 100.0;
  EXPECT_THROW(c.add_driver(d), std::invalid_argument);
}

TEST(Circuit, UnsortedScheduleRejected) {
  Circuit c;
  const NodeId out = c.add_node("out");
  const NodeId rail = c.add_fixed_node("vdd", 1.2);
  Driver d;
  d.out = out;
  d.vdd_rail = rail;
  d.r_up = d.r_dn = 100.0;
  d.schedule = {{2e-9, true}, {1e-9, false}};
  c.add_driver(d);
  EXPECT_THROW(c.validate(), std::invalid_argument);
}

// ---------------------------------------------------------------- transient

// RC charging step: driver pulls a single capacitor up through R.
// Analytic: v(t) = V (1 - exp(-t/RC)); 50% crossing at t = RC ln 2.
TEST(Transient, RcStepResponseMatchesAnalytic) {
  constexpr double kR = 1000.0;     // ohm
  constexpr double kC = 100e-15;    // F
  constexpr double kV = 1.2;
  constexpr double kTau = kR * kC;  // 100 ps

  Circuit c;
  const NodeId rail = c.add_fixed_node("vdd", kV);
  const NodeId out = c.add_node("out");
  c.add_capacitor(out, c.add_fixed_node("gnd", 0.0), kC);
  Driver d;
  d.out = out;
  d.vdd_rail = rail;
  d.r_up = d.r_dn = kR;
  d.initial_up = false;
  d.schedule = {{100e-12, true}};
  c.add_driver(d);

  TransientConfig cfg;
  cfg.t_stop = 1.2e-9;
  cfg.dt = 0.25e-12;
  TransientSimulator sim(c, cfg);
  const TransientResult result = sim.run();

  const auto cross = result.last_rise_crossing(out);
  ASSERT_TRUE(cross.has_value());
  EXPECT_NEAR(*cross - 100e-12, kTau * std::log(2.0), 2e-12);
  // Fully settled at the end.
  EXPECT_NEAR(result.final_voltage(out), kV, 0.001);
}

// Energy drawn from the rail to charge C to V is exactly C V^2 (half stored,
// half dissipated) for a step charge through a resistor.
TEST(Transient, RailEnergyIsCVSquared) {
  constexpr double kC = 200e-15;
  constexpr double kV = 1.0;
  Circuit c;
  const NodeId rail = c.add_fixed_node("vdd", kV);
  const NodeId gnd = c.add_fixed_node("gnd", 0.0);
  const NodeId out = c.add_node("out");
  c.add_capacitor(out, gnd, kC);
  Driver d;
  d.out = out;
  d.vdd_rail = rail;
  d.r_up = d.r_dn = 500.0;
  d.initial_up = false;
  d.schedule = {{50e-12, true}};
  c.add_driver(d);

  TransientConfig cfg;
  cfg.t_stop = 1.5e-9;
  cfg.dt = 0.25e-12;
  TransientSimulator sim(c, cfg);
  const TransientResult result = sim.run();
  EXPECT_NEAR(result.rail_energy(), kC * kV * kV, 0.02 * kC * kV * kV);
}

// A discharging driver (pull-down) draws no rail energy.
TEST(Transient, DischargeDrawsNoRailEnergy) {
  Circuit c;
  const NodeId rail = c.add_fixed_node("vdd", 1.2);
  const NodeId gnd = c.add_fixed_node("gnd", 0.0);
  const NodeId out = c.add_node("out");
  c.add_capacitor(out, gnd, 100e-15);
  Driver d;
  d.out = out;
  d.vdd_rail = rail;
  d.r_up = d.r_dn = 500.0;
  d.initial_up = true;
  d.schedule = {{50e-12, false}};
  c.add_driver(d);

  TransientConfig cfg;
  cfg.t_stop = 1e-9;
  cfg.dt = 0.5e-12;
  TransientSimulator sim(c, cfg);
  const TransientResult result = sim.run();
  // Only the (tiny) settling current before the event counts.
  EXPECT_LT(result.rail_energy(), 1e-18);
  EXPECT_TRUE(result.last_fall_crossing(out).has_value());
}

// Two cascaded inverters: the second switches only after the first's output
// crosses threshold, so the total delay is about twice the single-stage one.
TEST(Transient, InverterChainPropagates) {
  constexpr double kR = 1000.0;
  constexpr double kC = 100e-15;
  Circuit c;
  const NodeId rail = c.add_fixed_node("vdd", 1.2);
  const NodeId gnd = c.add_fixed_node("gnd", 0.0);
  const NodeId n1 = c.add_node("n1");
  const NodeId n2 = c.add_node("n2");
  c.add_capacitor(n1, gnd, kC);
  c.add_capacitor(n2, gnd, kC);

  Driver first;
  first.out = n1;
  first.vdd_rail = rail;
  first.r_up = first.r_dn = kR;
  first.initial_up = false;
  first.schedule = {{100e-12, true}};
  c.add_driver(first);

  Driver second;  // inverter: n2 = NOT(n1)
  second.out = n2;
  second.vdd_rail = rail;
  second.r_up = second.r_dn = kR;
  second.initial_up = true;  // n1 starts low -> n2 high
  second.in = n1;
  c.add_driver(second);

  TransientConfig cfg;
  cfg.t_stop = 2e-9;
  cfg.dt = 0.25e-12;
  TransientSimulator sim(c, cfg);
  const TransientResult result = sim.run();

  const auto rise1 = result.last_rise_crossing(n1);
  const auto fall2 = result.last_fall_crossing(n2);
  ASSERT_TRUE(rise1.has_value());
  ASSERT_TRUE(fall2.has_value());
  EXPECT_GT(*fall2, *rise1);  // second stage lags the first
  const double tau_ln2 = kR * kC * std::log(2.0);
  EXPECT_NEAR(*fall2 - *rise1, tau_ln2, 0.35 * tau_ln2);
  EXPECT_NEAR(result.final_voltage(n2), 0.0, 0.01);
}

// Capacitive coupling: a quiet floating victim capacitively tied to a
// switching aggressor bounces, then is restored by its holding driver.
TEST(Transient, CouplingInjectsGlitchThatDecays) {
  Circuit c;
  const NodeId rail = c.add_fixed_node("vdd", 1.0);
  const NodeId gnd = c.add_fixed_node("gnd", 0.0);
  const NodeId victim = c.add_node("victim");
  const NodeId aggressor = c.add_node("aggressor");
  c.add_capacitor(victim, gnd, 50e-15);
  c.add_capacitor(aggressor, gnd, 50e-15);
  c.add_capacitor(victim, aggressor, 100e-15);  // strong coupling

  Driver hold;  // victim held low
  hold.out = victim;
  hold.vdd_rail = rail;
  hold.r_up = hold.r_dn = 2000.0;
  hold.initial_up = false;
  c.add_driver(hold);

  Driver attack;
  attack.out = aggressor;
  attack.vdd_rail = rail;
  attack.r_up = attack.r_dn = 500.0;
  attack.initial_up = false;
  attack.schedule = {{100e-12, true}};
  c.add_driver(attack);

  TransientConfig cfg;
  cfg.t_stop = 2e-9;
  cfg.dt = 0.25e-12;
  cfg.record = {victim};
  TransientSimulator sim(c, cfg);
  const TransientResult result = sim.run();

  double peak = 0.0;
  for (const double v : result.waveform(victim)) peak = std::max(peak, v);
  EXPECT_GT(peak, 0.1);                              // visible glitch
  EXPECT_LT(peak, 1.0);                              // bounded by the rail
  EXPECT_NEAR(result.final_voltage(victim), 0.0, 0.01);  // restored
}

TEST(Transient, DcOperatingPointRespectsInitialDriverStates) {
  Circuit c;
  const NodeId rail = c.add_fixed_node("vdd", 1.2);
  const NodeId gnd = c.add_fixed_node("gnd", 0.0);
  const NodeId hi = c.add_node("hi");
  const NodeId lo = c.add_node("lo");
  c.add_capacitor(hi, gnd, 10e-15);
  c.add_capacitor(lo, gnd, 10e-15);
  Driver up;
  up.out = hi;
  up.vdd_rail = rail;
  up.r_up = up.r_dn = 100.0;
  up.initial_up = true;
  c.add_driver(up);
  Driver down;
  down.out = lo;
  down.vdd_rail = rail;
  down.r_up = down.r_dn = 100.0;
  down.initial_up = false;
  c.add_driver(down);

  TransientConfig cfg;
  cfg.t_stop = 100e-12;
  cfg.dt = 1e-12;
  TransientSimulator sim(c, cfg);
  const TransientResult result = sim.run();
  EXPECT_NEAR(result.final_voltage(hi), 1.2, 1e-6);
  EXPECT_NEAR(result.final_voltage(lo), 0.0, 1e-6);
}

TEST(Transient, RejectsBadConfig) {
  Circuit c;
  const NodeId rail = c.add_fixed_node("vdd", 1.2);
  (void)rail;
  c.add_node("a");
  TransientConfig bad;
  bad.dt = 0.0;
  EXPECT_THROW(TransientSimulator(c, bad), std::invalid_argument);
}

TEST(Transient, ThrowsWithoutUnknownNodes) {
  Circuit c;
  c.add_fixed_node("vdd", 1.2);
  TransientConfig cfg;
  EXPECT_THROW(TransientSimulator(c, cfg), std::invalid_argument);
}

TEST(Transient, WaveformRequestedNodeOnly) {
  Circuit c;
  const NodeId rail = c.add_fixed_node("vdd", 1.2);
  const NodeId gnd = c.add_fixed_node("gnd", 0.0);
  const NodeId a = c.add_node("a");
  const NodeId b = c.add_node("b");
  c.add_capacitor(a, gnd, 1e-15);
  c.add_capacitor(b, gnd, 1e-15);
  c.add_resistor(a, b, 100.0);
  Driver d;
  d.out = a;
  d.vdd_rail = rail;
  d.r_up = d.r_dn = 100.0;
  d.initial_up = true;
  c.add_driver(d);

  TransientConfig cfg;
  cfg.t_stop = 50e-12;
  cfg.dt = 1e-12;
  cfg.record = {a};
  TransientSimulator sim(c, cfg);
  const TransientResult result = sim.run();
  EXPECT_EQ(result.waveform(a).size(), result.times().size());
  EXPECT_THROW(result.waveform(b), std::out_of_range);
}

// Trapezoidal integration: second-order accurate, so at a coarse timestep
// its delay error against the analytic RC answer must be clearly smaller
// than backward Euler's.
TEST(Transient, TrapezoidalBeatsBackwardEulerAtCoarseStep) {
  constexpr double kR = 1000.0;
  constexpr double kC = 100e-15;
  constexpr double kTau = kR * kC;
  const double exact = kTau * std::log(2.0);

  auto delay_with = [&](Integrator integrator, double dt) {
    Circuit c;
    const NodeId rail = c.add_fixed_node("vdd", 1.0);
    const NodeId gnd = c.add_fixed_node("gnd", 0.0);
    const NodeId out = c.add_node("out");
    c.add_capacitor(out, gnd, kC);
    Driver d;
    d.out = out;
    d.vdd_rail = rail;
    d.r_up = d.r_dn = kR;
    d.initial_up = false;
    d.schedule = {{100e-12, true}};
    c.add_driver(d);
    TransientConfig cfg;
    cfg.t_stop = 1.5e-9;
    cfg.dt = dt;
    cfg.integrator = integrator;
    TransientSimulator sim(c, cfg);
    const auto cross = sim.run().last_rise_crossing(out);
    EXPECT_TRUE(cross.has_value());
    return *cross - 100e-12;
  };

  const double dt = 4e-12;  // tau / 25: coarse
  const double err_be = std::abs(delay_with(Integrator::backward_euler, dt) - exact);
  const double err_tr = std::abs(delay_with(Integrator::trapezoidal, dt) - exact);
  EXPECT_LT(err_tr, 0.5 * err_be);
  // And at a fine step both are close to exact.
  const double fine_tr = delay_with(Integrator::trapezoidal, 0.25e-12);
  EXPECT_NEAR(fine_tr, exact, 1.5e-12);
}

TEST(Transient, TrapezoidalEnergyStillCVSquared) {
  constexpr double kC = 200e-15;
  constexpr double kV = 1.0;
  Circuit c;
  const NodeId rail = c.add_fixed_node("vdd", kV);
  const NodeId gnd = c.add_fixed_node("gnd", 0.0);
  const NodeId out = c.add_node("out");
  c.add_capacitor(out, gnd, kC);
  Driver d;
  d.out = out;
  d.vdd_rail = rail;
  d.r_up = d.r_dn = 500.0;
  d.initial_up = false;
  d.schedule = {{50e-12, true}};
  c.add_driver(d);

  TransientConfig cfg;
  cfg.t_stop = 1.5e-9;
  cfg.dt = 1e-12;
  cfg.integrator = Integrator::trapezoidal;
  TransientSimulator sim(c, cfg);
  const TransientResult result = sim.run();
  EXPECT_NEAR(result.rail_energy(), kC * kV * kV, 0.02 * kC * kV * kV);
}

TEST(Transient, IntegratorsAgreeOnInverterChain) {
  auto final_state = [&](Integrator integrator) {
    Circuit c;
    const NodeId rail = c.add_fixed_node("vdd", 1.2);
    const NodeId gnd = c.add_fixed_node("gnd", 0.0);
    const NodeId n1 = c.add_node("n1");
    const NodeId n2 = c.add_node("n2");
    c.add_capacitor(n1, gnd, 100e-15);
    c.add_capacitor(n2, gnd, 100e-15);
    Driver first;
    first.out = n1;
    first.vdd_rail = rail;
    first.r_up = first.r_dn = 1000.0;
    first.initial_up = false;
    first.schedule = {{100e-12, true}};
    c.add_driver(first);
    Driver second;
    second.out = n2;
    second.vdd_rail = rail;
    second.r_up = second.r_dn = 1000.0;
    second.initial_up = true;
    second.in = n1;
    c.add_driver(second);
    TransientConfig cfg;
    cfg.t_stop = 2e-9;
    cfg.dt = 1e-12;
    cfg.integrator = integrator;
    TransientSimulator sim(c, cfg);
    const TransientResult r = sim.run();
    return std::pair<double, double>(r.final_voltage(n2),
                                     r.last_fall_crossing(n2).value_or(-1.0));
  };
  const auto [v_be, t_be] = final_state(Integrator::backward_euler);
  const auto [v_tr, t_tr] = final_state(Integrator::trapezoidal);
  EXPECT_NEAR(v_be, v_tr, 0.02);
  EXPECT_NEAR(t_be, t_tr, 5e-12);
}

// Crossing counters: a driver toggling twice produces one rise + one fall.
TEST(Transient, CrossingCountsTrackToggles) {
  Circuit c;
  const NodeId rail = c.add_fixed_node("vdd", 1.0);
  const NodeId gnd = c.add_fixed_node("gnd", 0.0);
  const NodeId out = c.add_node("out");
  c.add_capacitor(out, gnd, 20e-15);
  Driver d;
  d.out = out;
  d.vdd_rail = rail;
  d.r_up = d.r_dn = 200.0;
  d.initial_up = false;
  d.schedule = {{50e-12, true}, {500e-12, false}};
  c.add_driver(d);

  TransientConfig cfg;
  cfg.t_stop = 1e-9;
  cfg.dt = 0.5e-12;
  TransientSimulator sim(c, cfg);
  const TransientResult result = sim.run();
  EXPECT_EQ(result.rise_count(out), 1);
  EXPECT_EQ(result.fall_count(out), 1);
  ASSERT_TRUE(result.last_fall_crossing(out).has_value());
  EXPECT_GT(*result.last_fall_crossing(out), *result.last_rise_crossing(out));
}

// A resistor to a fixed non-zero node sources current in every timestep,
// not only in the DC solve: a divider between two rails holds its DC value.
TEST(Transient, ResistorToFixedNodeHoldsDcThroughTheRun) {
  Circuit c;
  const NodeId hi = c.add_fixed_node("hi", 1.0);
  const NodeId lo = c.add_fixed_node("lo", 0.0);
  const NodeId mid = c.add_node("mid");
  c.add_resistor(hi, mid, 1000.0);
  c.add_resistor(mid, lo, 1000.0);
  c.add_capacitor(mid, lo, 10e-15);
  TransientConfig cfg;
  cfg.t_stop = 200e-12;
  cfg.dt = 1e-12;
  TransientSimulator sim(c, cfg);
  const TransientResult result = sim.run();
  EXPECT_NEAR(result.final_voltage(mid), 0.5, 1e-6);
  EXPECT_EQ(result.rise_count(mid), 0);
  EXPECT_EQ(result.fall_count(mid), 0);
}

// Solver parity on a coupled two-stage circuit in both integrators: the
// banded path over its reordered unknowns matches the dense golden.
TEST(Transient, BandedMatchesDenseReference) {
  for (const Integrator integrator :
       {Integrator::backward_euler, Integrator::trapezoidal}) {
    auto run = [&](SolverKind solver) {
      Circuit c;
      const NodeId rail = c.add_fixed_node("vdd", 1.2);
      const NodeId gnd = c.add_fixed_node("gnd", 0.0);
      std::vector<NodeId> a;
      std::vector<NodeId> b;
      for (int i = 0; i < 6; ++i) a.push_back(c.add_node("a" + std::to_string(i)));
      for (int i = 0; i < 6; ++i) b.push_back(c.add_node("b" + std::to_string(i)));
      for (int i = 0; i < 6; ++i) {
        c.add_capacitor(a[i], gnd, 5e-15);
        c.add_capacitor(b[i], gnd, 5e-15);
        c.add_capacitor(a[i], b[i], 8e-15);
        if (i + 1 < 6) {
          c.add_resistor(a[i], a[i + 1], 150.0);
          c.add_resistor(b[i], b[i + 1], 150.0);
        }
      }
      Driver da;
      da.out = a[0];
      da.vdd_rail = rail;
      da.r_up = da.r_dn = 400.0;
      da.schedule = {{50e-12, true}};
      c.add_driver(da);
      Driver db;  // inverter on a's far end
      db.out = b[0];
      db.vdd_rail = rail;
      db.r_up = db.r_dn = 400.0;
      db.initial_up = true;
      db.in = a[5];
      c.add_driver(db);
      TransientConfig cfg;
      cfg.t_stop = 1e-9;
      cfg.dt = 1e-12;
      cfg.integrator = integrator;
      cfg.solver = solver;
      TransientSimulator sim(c, cfg);
      const TransientResult r = sim.run();
      return std::vector<double>{*r.last_rise_crossing(a[5]), *r.last_fall_crossing(b[5]),
                                 r.rail_energy(), r.final_voltage(b[3])};
    };
    const auto banded = run(SolverKind::banded);
    const auto dense = run(SolverKind::dense_reference);
    // Crossing times and energy to 1e-12 relative; the settled voltage
    // (tens of microvolts) to 1e-12 V.
    for (std::size_t i = 0; i < 3; ++i)
      EXPECT_NEAR(banded[i], dense[i], 1e-12 * std::abs(dense[i])) << i;
    EXPECT_NEAR(banded[3], dense[3], 1e-12);
  }
}

}  // namespace
}  // namespace razorbus::spice
