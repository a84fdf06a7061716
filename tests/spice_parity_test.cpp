// Solver parity: the banded transient solver against the dense golden.
//
// Every point the default LUT characterises — each canonical switching
// class at each corner, temperature and grid supply of LutConfig{} on the
// paper bus — is simulated twice, once per spice::SolverKind. Reordering
// the unknowns changes elimination order, so results are not bit-equal;
// they must agree to 1e-12 relative in both delay and energy (energy
// relative to at least 1 pJ; see kEnergyScaleJ). This is the contract
// behind lut::kSimulatorVersion 2 (docs/campaignd.md).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "interconnect/rc_builder.hpp"
#include "lut/pattern.hpp"
#include "lut/table.hpp"
#include "test_support.hpp"
#include "util/parallel.hpp"

namespace razorbus {
namespace {

// |a - b| relative to the larger magnitude, but never to less than `floor`.
double relative_gap(double a, double b, double floor = 0.0) {
  const double scale = std::max({std::abs(a), std::abs(b), floor});
  return scale > 0.0 ? std::abs(a - b) / scale : 0.0;
}

// Energies are measured against at least one picojoule, the scale of a
// single switching event here (about 2 pJ). A held victim's energy is the
// signed sum of (V_rail - v) * h / R over the run with v within
// microvolts of the rail, so its last digits are rounding noise whatever
// the solver: held classes reach 1e-20 J, where the two solvers differ by
// ~1e-25 J, and glitch-dominated classes near 1e-13 J differ by ~1e-12 of
// their own size. Measured against a picojoule, both are below 1e-12.
constexpr double kEnergyScaleJ = 1e-12;

TEST(SolverParity, BandedMatchesDenseOnEveryDefaultLutPoint) {
  const interconnect::BusDesign& design = test_support::sized_paper_bus();
  const tech::DriverModel driver(design.node);
  const interconnect::ClusterCharacterizer characterizer(design, driver);
  const lut::LutConfig config;
  const tech::SupplyGrid grid = config.reference_grid();

  std::vector<int> classes;
  for (int cls = 0; cls < lut::PatternClass::kCount; ++cls)
    if (lut::PatternClass::is_canonical(cls) && lut::PatternClass::any_switching(cls))
      classes.push_back(cls);

  struct Point {
    tech::ProcessCorner corner;
    double temp_c;
    double vdd;
  };
  std::vector<Point> points;
  for (const auto corner : config.corners)
    for (const double temp : config.temps)
      for (std::size_t vi = 0; vi < grid.size(); ++vi)
        if (driver.conducts(corner, temp, grid.voltage(vi)))
          points.push_back({corner, temp, grid.voltage(vi)});
  ASSERT_FALSE(points.empty());

  // Per point: worst relative delay gap, worst energy gap, sims run.
  struct Gap {
    double delay = 0.0;
    double energy = 0.0;
    int sims = 0;
    bool switched_alike = true;
  };
  std::vector<Gap> gaps(points.size());
  util::global_pool().parallel_for(points.size(), [&](std::size_t p) {
    Gap& gap = gaps[p];
    for (const int cls : classes) {
      interconnect::ClusterSpec spec;
      spec.victim = lut::to_wire_activity(lut::PatternClass::victim_of(cls));
      spec.left = lut::to_wire_activity(lut::PatternClass::left_of(cls));
      spec.right = lut::to_wire_activity(lut::PatternClass::right_of(cls));
      spec.vdd = points[p].vdd;
      spec.corner = points[p].corner;
      spec.temp_c = points[p].temp_c;
      const interconnect::ClusterResult banded = characterizer.run(spec);
      spec.solver = spice::SolverKind::dense_reference;
      const interconnect::ClusterResult dense = characterizer.run(spec);
      gap.switched_alike &= (banded.delay < 0.0) == (dense.delay < 0.0);
      gap.delay = std::max(gap.delay, relative_gap(banded.delay, dense.delay));
      gap.energy =
          std::max(gap.energy, relative_gap(banded.victim_energy, dense.victim_energy,
                                            kEnergyScaleJ));
      ++gap.sims;
    }
  });

  double worst_delay = 0.0;
  double worst_energy = 0.0;
  int sims = 0;
  for (std::size_t p = 0; p < points.size(); ++p) {
    EXPECT_TRUE(gaps[p].switched_alike) << "point " << p;
    worst_delay = std::max(worst_delay, gaps[p].delay);
    worst_energy = std::max(worst_energy, gaps[p].energy);
    sims += gaps[p].sims;
  }
  EXPECT_EQ(sims, static_cast<int>(points.size() * classes.size()));
  EXPECT_LE(worst_delay, 1e-12);
  EXPECT_LE(worst_energy, 1e-12);
  RecordProperty("worst_delay_gap", std::to_string(worst_delay));
  RecordProperty("worst_energy_gap", std::to_string(worst_energy));
  std::printf("parity over %d sims: worst delay gap %.3g, worst energy gap %.3g\n", sims,
              worst_delay, worst_energy);
}

}  // namespace
}  // namespace razorbus
