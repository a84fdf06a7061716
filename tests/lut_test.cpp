#include <gtest/gtest.h>

#include <sys/resource.h>

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <sstream>

#include "interconnect/elmore.hpp"
#include "lut/cache.hpp"
#include "lut/pattern.hpp"
#include "lut/table.hpp"
#include "test_support.hpp"
#include "util/rng.hpp"

namespace razorbus::lut {
namespace {

using interconnect::BusDesign;
using test_support::small_lut_config;
using test_support::sized_paper_bus;

// ---------------------------------------------------------------- pattern

TEST(Pattern, EncodeDecodeRoundTrip) {
  for (int v = 0; v < 4; ++v) {
    for (int l = 0; l < 4; ++l) {
      for (int r = 0; r < 4; ++r) {
        const int cls = PatternClass::encode(static_cast<VictimActivity>(v),
                                             static_cast<NeighborActivity>(l),
                                             static_cast<NeighborActivity>(r));
        EXPECT_EQ(static_cast<int>(PatternClass::victim_of(cls)), v);
        EXPECT_EQ(static_cast<int>(PatternClass::left_of(cls)), l);
        EXPECT_EQ(static_cast<int>(PatternClass::right_of(cls)), r);
      }
    }
  }
}

TEST(Pattern, AllClassIdsDistinctAndInRange) {
  std::set<int> ids;
  for (int v = 0; v < 4; ++v)
    for (int l = 0; l < 4; ++l)
      for (int r = 0; r < 4; ++r)
        ids.insert(PatternClass::encode(static_cast<VictimActivity>(v),
                                        static_cast<NeighborActivity>(l),
                                        static_cast<NeighborActivity>(r)));
  EXPECT_EQ(ids.size(), static_cast<std::size_t>(PatternClass::kCount));
  EXPECT_EQ(*ids.begin(), 0);
  EXPECT_EQ(*ids.rbegin(), PatternClass::kCount - 1);
}

TEST(Pattern, CanonicalSwapsNeighbors) {
  const int cls = PatternClass::encode(VictimActivity::rise, NeighborActivity::shield,
                                       NeighborActivity::fall);
  const int canon = PatternClass::canonical(cls);
  EXPECT_EQ(PatternClass::left_of(canon), NeighborActivity::fall);
  EXPECT_EQ(PatternClass::right_of(canon), NeighborActivity::shield);
  EXPECT_EQ(PatternClass::victim_of(canon), VictimActivity::rise);
  EXPECT_TRUE(PatternClass::is_canonical(canon));
  EXPECT_FALSE(PatternClass::is_canonical(cls));
}

TEST(Pattern, CanonicalIsIdempotent) {
  for (int cls = 0; cls < PatternClass::kCount; ++cls)
    EXPECT_EQ(PatternClass::canonical(PatternClass::canonical(cls)),
              PatternClass::canonical(cls));
  EXPECT_THROW(PatternClass::canonical(-1), std::out_of_range);
  EXPECT_THROW(PatternClass::canonical(64), std::out_of_range);
}

TEST(Pattern, VictimSwitchClassification) {
  EXPECT_TRUE(PatternClass::victim_switches(
      PatternClass::encode(VictimActivity::rise, NeighborActivity::hold,
                           NeighborActivity::hold)));
  EXPECT_TRUE(PatternClass::victim_switches(
      PatternClass::encode(VictimActivity::fall, NeighborActivity::hold,
                           NeighborActivity::hold)));
  EXPECT_FALSE(PatternClass::victim_switches(
      PatternClass::encode(VictimActivity::hold_low, NeighborActivity::rise,
                           NeighborActivity::hold)));
  EXPECT_FALSE(PatternClass::victim_switches(
      PatternClass::encode(VictimActivity::hold_high, NeighborActivity::rise,
                           NeighborActivity::hold)));
}

TEST(Pattern, AnySwitchingDetectsQuietClasses) {
  EXPECT_FALSE(PatternClass::any_switching(
      PatternClass::encode(VictimActivity::hold_low, NeighborActivity::hold,
                           NeighborActivity::shield)));
  EXPECT_TRUE(PatternClass::any_switching(
      PatternClass::encode(VictimActivity::hold_low, NeighborActivity::fall,
                           NeighborActivity::shield)));
}

TEST(Pattern, ClassifyVictimFromBits) {
  EXPECT_EQ(classify_victim(false, true), VictimActivity::rise);
  EXPECT_EQ(classify_victim(true, false), VictimActivity::fall);
  EXPECT_EQ(classify_victim(false, false), VictimActivity::hold_low);
  EXPECT_EQ(classify_victim(true, true), VictimActivity::hold_high);
}

TEST(Pattern, ClassifyNeighborFromBits) {
  EXPECT_EQ(classify_neighbor(false, true), NeighborActivity::rise);
  EXPECT_EQ(classify_neighbor(true, false), NeighborActivity::fall);
  EXPECT_EQ(classify_neighbor(false, false), NeighborActivity::hold);
  EXPECT_EQ(classify_neighbor(true, true), NeighborActivity::hold);
}

TEST(Pattern, MillerFactorSums) {
  auto mf = [](VictimActivity v, NeighborActivity l, NeighborActivity r) {
    return miller_factor_sum(PatternClass::encode(v, l, r));
  };
  // Eq. 1: both neighbors opposing a rising victim -> 4.
  EXPECT_DOUBLE_EQ(
      mf(VictimActivity::rise, NeighborActivity::fall, NeighborActivity::fall), 4.0);
  // Both in phase -> 0.
  EXPECT_DOUBLE_EQ(
      mf(VictimActivity::rise, NeighborActivity::rise, NeighborActivity::rise), 0.0);
  // Quiet/shield neighbors -> 1 each.
  EXPECT_DOUBLE_EQ(
      mf(VictimActivity::rise, NeighborActivity::hold, NeighborActivity::shield), 2.0);
  // Falling victim mirrors.
  EXPECT_DOUBLE_EQ(
      mf(VictimActivity::fall, NeighborActivity::rise, NeighborActivity::rise), 4.0);
  // Holding victims have no delay hence no Miller sum.
  EXPECT_DOUBLE_EQ(
      mf(VictimActivity::hold_low, NeighborActivity::fall, NeighborActivity::fall), 0.0);
}

// ---------------------------------------------------------------- table

class TableTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    const tech::DriverModel driver(sized_paper_bus().node);
    table_ = new DelayEnergyTable(
        DelayEnergyTable::build(sized_paper_bus(), driver, small_lut_config()));
  }
  static void TearDownTestSuite() {
    delete table_;
    table_ = nullptr;
  }
  static DelayEnergyTable* table_;
};

DelayEnergyTable* TableTest::table_ = nullptr;

TEST_F(TableTest, AxesMatchConfig) {
  EXPECT_EQ(table_->temps().size(), 1u);
  EXPECT_EQ(table_->corners().size(), 2u);
  EXPECT_EQ(table_->grid().size(), 8u);  // 1.06 .. 1.20 at 20 mV
}

TEST_F(TableTest, WorstPatternSlowestAcrossClasses) {
  const int worst = PatternClass::encode(VictimActivity::rise, NeighborActivity::fall,
                                         NeighborActivity::fall);
  const double d_worst = table_->delay(worst, tech::ProcessCorner::slow, 100.0, 1.08);
  for (int cls = 0; cls < PatternClass::kCount; ++cls) {
    if (!PatternClass::victim_switches(cls)) continue;
    EXPECT_LE(table_->delay(cls, tech::ProcessCorner::slow, 100.0, 1.08),
              d_worst + 1e-15);
  }
}

TEST_F(TableTest, HoldClassesHaveNoDelay) {
  const int hold = PatternClass::encode(VictimActivity::hold_low, NeighborActivity::fall,
                                        NeighborActivity::fall);
  EXPECT_TRUE(std::isnan(table_->delay(hold, tech::ProcessCorner::typical, 100.0, 1.2)));
  // ... but a defined crosstalk-recharge energy, small compared to a full
  // transition. It can be mildly negative: charge pushed back into the rail
  // through held-high repeater stages (the aggressor's own row carries the
  // corresponding positive energy).
  const double e_hold = table_->energy(hold, tech::ProcessCorner::typical, 100.0, 1.2);
  const int swing = PatternClass::encode(VictimActivity::rise, NeighborActivity::hold,
                                         NeighborActivity::hold);
  const double e_swing = table_->energy(swing, tech::ProcessCorner::typical, 100.0, 1.2);
  EXPECT_LT(std::abs(e_hold), 0.6 * e_swing);
}

TEST_F(TableTest, QuietClassesHaveZeroEnergy) {
  const int quiet = PatternClass::encode(VictimActivity::hold_low, NeighborActivity::hold,
                                         NeighborActivity::shield);
  EXPECT_DOUBLE_EQ(table_->energy(quiet, tech::ProcessCorner::typical, 100.0, 1.2), 0.0);
}

TEST_F(TableTest, MirroredClassesShareValues) {
  const int a = PatternClass::encode(VictimActivity::rise, NeighborActivity::shield,
                                     NeighborActivity::fall);
  const int b = PatternClass::encode(VictimActivity::rise, NeighborActivity::fall,
                                     NeighborActivity::shield);
  EXPECT_DOUBLE_EQ(table_->delay(a, tech::ProcessCorner::typical, 100.0, 1.1),
                   table_->delay(b, tech::ProcessCorner::typical, 100.0, 1.1));
  EXPECT_DOUBLE_EQ(table_->energy(a, tech::ProcessCorner::typical, 100.0, 1.1),
                   table_->energy(b, tech::ProcessCorner::typical, 100.0, 1.1));
}

TEST_F(TableTest, DelayMonotonicInVoltageAndCorner) {
  const int worst = PatternClass::encode(VictimActivity::rise, NeighborActivity::fall,
                                         NeighborActivity::fall);
  double prev = 0.0;
  for (double v = 1.2; v >= 1.06; v -= 0.02) {
    const double d = table_->delay(worst, tech::ProcessCorner::typical, 100.0, v);
    EXPECT_GT(d, prev);
    prev = d;
  }
  EXPECT_GT(table_->delay(worst, tech::ProcessCorner::slow, 100.0, 1.2),
            table_->delay(worst, tech::ProcessCorner::typical, 100.0, 1.2));
}

TEST_F(TableTest, InterpolationBetweenGridPoints) {
  const int cls = PatternClass::encode(VictimActivity::rise, NeighborActivity::hold,
                                       NeighborActivity::hold);
  const double lo = table_->delay(cls, tech::ProcessCorner::typical, 100.0, 1.10);
  const double hi = table_->delay(cls, tech::ProcessCorner::typical, 100.0, 1.12);
  const double mid = table_->delay(cls, tech::ProcessCorner::typical, 100.0, 1.11);
  EXPECT_NEAR(mid, 0.5 * (lo + hi), 1e-15);
}

TEST_F(TableTest, OutOfRangeVoltageClampsToEnds) {
  const int cls = PatternClass::encode(VictimActivity::rise, NeighborActivity::hold,
                                       NeighborActivity::hold);
  EXPECT_DOUBLE_EQ(table_->delay(cls, tech::ProcessCorner::typical, 100.0, 2.0),
                   table_->delay(cls, tech::ProcessCorner::typical, 100.0, 1.20));
  EXPECT_DOUBLE_EQ(table_->delay(cls, tech::ProcessCorner::typical, 100.0, 0.5),
                   table_->delay(cls, tech::ProcessCorner::typical, 100.0, 1.06));
}

TEST_F(TableTest, SliceMatchesPointLookups) {
  const TableSlice slice = table_->slice(tech::ProcessCorner::typical, 100.0, 1.13);
  for (int cls = 0; cls < PatternClass::kCount; ++cls) {
    const double d = table_->delay(cls, tech::ProcessCorner::typical, 100.0, 1.13);
    if (std::isnan(d))
      EXPECT_TRUE(std::isnan(slice.delay[cls]));
    else
      EXPECT_DOUBLE_EQ(slice.delay[cls], d);
    EXPECT_DOUBLE_EQ(slice.energy[cls],
                     table_->energy(cls, tech::ProcessCorner::typical, 100.0, 1.13));
  }
}

TEST_F(TableTest, UncharacterisedAxesThrow) {
  const int cls = 0;
  EXPECT_THROW(table_->delay(cls, tech::ProcessCorner::fast, 100.0, 1.1),
               std::out_of_range);
  EXPECT_THROW(table_->delay(cls, tech::ProcessCorner::typical, 25.0, 1.1),
               std::out_of_range);
}

TEST_F(TableTest, SerializationRoundTrip) {
  std::stringstream buffer;
  table_->save(buffer, 0xdeadbeefull);
  const auto loaded = DelayEnergyTable::load(buffer, 0xdeadbeefull);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->grid().size(), table_->grid().size());
  for (int cls = 0; cls < PatternClass::kCount; ++cls) {
    const double a = table_->delay(cls, tech::ProcessCorner::slow, 100.0, 1.1);
    const double b = loaded->delay(cls, tech::ProcessCorner::slow, 100.0, 1.1);
    if (std::isnan(a))
      EXPECT_TRUE(std::isnan(b));
    else
      EXPECT_DOUBLE_EQ(a, b);
  }
}

TEST_F(TableTest, LoadRejectsWrongHash) {
  std::stringstream buffer;
  table_->save(buffer, 1);
  EXPECT_FALSE(DelayEnergyTable::load(buffer, 2).has_value());
}

TEST_F(TableTest, LoadRejectsGarbage) {
  std::stringstream buffer("not a table at all");
  EXPECT_FALSE(DelayEnergyTable::load(buffer, 0).has_value());
}

TEST_F(TableTest, LoadRejectsTruncated) {
  std::stringstream buffer;
  table_->save(buffer, 7);
  std::string data = buffer.str();
  data.resize(data.size() / 2);
  std::stringstream half(data);
  EXPECT_FALSE(DelayEnergyTable::load(half, 7).has_value());
}

// A corrupt grid header is a cache miss (nullopt), never a throw out of
// the SupplyGrid constructor: build_or_load then rebuilds instead of
// failing the job. A negative step is the sign bit of byte 39 flipped; a
// NaN step would otherwise reach an out-of-range double -> size_t cast
// (undefined behaviour) in SupplyGrid.
TEST_F(TableTest, LoadRejectsCorruptGridStep) {
  constexpr std::size_t kStepOffset = 32;  // after magic, key hash, vmin, vmax
  for (const double step : {-table_->grid().step(), std::nan("")}) {
    SCOPED_TRACE(step);
    std::stringstream buffer;
    table_->save(buffer, 7);
    std::string data = buffer.str();
    std::memcpy(&data[kStepOffset], &step, sizeof(step));
    std::stringstream corrupt(data);
    std::optional<DelayEnergyTable> loaded;
    EXPECT_NO_THROW(loaded = DelayEnergyTable::load(corrupt, 7));
    EXPECT_FALSE(loaded.has_value());
  }
}

// Peak resident set of this process so far, in KiB.
long peak_rss_kib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss;
}

// Hostile input for the table loader: seeded truncations, single-bit flips
// and splices of two serialized tables, plus a header that claims the
// largest grid the header checks admit. Every case must load a table or
// return nullopt: no throw, no crash (the ASan/UBSan leg runs this too) and
// no allocation beyond the bytes the stream holds.
TEST_F(TableTest, LoadSurvivesMutatedBytes) {
  constexpr std::uint64_t kHash = 7;
  const auto serialize = [&](const DelayEnergyTable& table) {
    std::stringstream out;
    table.save(out, kHash);
    return out.str();
  };
  const std::string a = serialize(*table_);
  LutConfig tiny = small_lut_config();
  tiny.vmin = 1.16;
  tiny.corners = {tech::ProcessCorner::fast};
  const std::string b = serialize(DelayEnergyTable::build(
      sized_paper_bus(), tech::DriverModel(sized_paper_bus().node), tiny));
  ASSERT_NE(a.size(), b.size());

  int loaded = 0;
  int rejected = 0;
  const auto load = [&](const std::string& bytes) {
    std::stringstream in(bytes);
    std::optional<DelayEnergyTable> table;
    EXPECT_NO_THROW(table = DelayEnergyTable::load(in, kHash));
    (table ? loaded : rejected) += 1;
    return table.has_value();
  };

  // The largest header the checks admit: 8 corners x 16 temps x 4,095
  // voltages x 64 classes, with a matching value count but no values.
  // Loading it must not first allocate the ~0.5 GB it claims.
  std::string huge = a.substr(0, 16);  // magic + key hash
  const auto put = [&huge](const auto& v) {
    huge.append(reinterpret_cast<const char*>(&v), sizeof(v));
  };
  put(0.0);       // vmin
  put(4.0949);    // vmax
  put(0.001);     // step: 4,095 grid voltages
  put(std::uint64_t{16});
  put(std::uint64_t{8});
  for (int t = 0; t < 16; ++t) put(25.0);
  for (int c = 0; c < 8; ++c) put(std::int32_t{0});
  put(std::uint64_t{8} * 16 * 4095 * PatternClass::kCount);
  const long rss_before = peak_rss_kib();
  EXPECT_FALSE(load(huge));
  EXPECT_LT(peak_rss_kib() - rss_before, 64 * 1024);

  Rng rng(0x7ab1e5eedull);
  // Truncation: every byte of the file is needed, so every cut is a miss.
  constexpr std::size_t kHeaderBytes = 128;
  for (std::size_t cut = 0; cut < kHeaderBytes; ++cut)
    EXPECT_FALSE(load(a.substr(0, cut))) << "cut at " << cut;
  for (int i = 0; i < 200; ++i) {
    const std::size_t cut = rng.next_below(a.size());
    EXPECT_FALSE(load(a.substr(0, cut))) << "cut at " << cut;
  }
  // Single-bit flips: every header bit, then random bits anywhere.
  const auto flipped = [&](std::size_t bit) {
    std::string bytes = a;
    bytes[bit / 8] = static_cast<char>(bytes[bit / 8] ^ (1 << (bit % 8)));
    return bytes;
  };
  for (std::size_t bit = 0; bit < kHeaderBytes * 8; ++bit) load(flipped(bit));
  for (int i = 0; i < 500; ++i) load(flipped(rng.next_below(a.size() * 8)));
  // Splices: a prefix of one table followed by the tail of the other.
  for (int i = 0; i < 300; ++i) {
    const bool a_first = rng.bernoulli(0.5);
    const std::string& head = a_first ? a : b;
    const std::string& tail = a_first ? b : a;
    load(head.substr(0, rng.next_below(head.size() + 1)) +
         tail.substr(rng.next_below(tail.size() + 1)));
  }
  EXPECT_GT(loaded, 0);  // payload flips load (no digest yet: ROADMAP)
  EXPECT_GT(rejected, 0);
}

TEST_F(TableTest, MinShadowSafeVoltageIsConsistent) {
  const std::optional<double> v = table_->min_shadow_safe_voltage(
      sized_paper_bus(), tech::ProcessCorner::slow, 100.0);
  ASSERT_TRUE(v.has_value());
  const int worst = PatternClass::encode(VictimActivity::rise, NeighborActivity::fall,
                                         NeighborActivity::fall);
  EXPECT_LE(table_->delay(worst, tech::ProcessCorner::slow, 100.0, *v),
            sized_paper_bus().shadow_capture_limit());
}

// Cross-check against first-order analytics: the characterised worst-case
// delay must land within a factor-of-two band around the Elmore estimate
// (Elmore is a known overestimate for distributed RC, ln2-scaled here).
TEST_F(TableTest, WorstDelayConsistentWithElmoreEstimate) {
  const auto& bus = sized_paper_bus();
  const tech::DriverModel driver(bus.node);
  const double r_drv = driver.effective_resistance(
      bus.repeater_size, tech::ProcessCorner::typical, 100.0, 1.2);
  const double estimate = interconnect::repeated_line_delay(
      r_drv, driver.self_capacitance(bus.repeater_size),
      driver.input_capacitance(bus.repeater_size),
      bus.parasitics.r_per_m * bus.segment_length(),
      bus.parasitics.worst_case_c_per_m() * bus.segment_length(),
      driver.input_capacitance(bus.receiver_size), bus.n_segments);

  const int worst = PatternClass::encode(VictimActivity::rise, NeighborActivity::fall,
                                         NeighborActivity::fall);
  const double simulated = table_->delay(worst, tech::ProcessCorner::typical, 100.0, 1.2);
  EXPECT_GT(simulated, 0.5 * estimate);
  EXPECT_LT(simulated, 2.0 * estimate);
}

// Monotonicity across ALL classes and both corners: delay never decreases
// as the supply drops (property sweep over the whole table).
TEST_F(TableTest, AllClassesMonotoneInSupply) {
  for (const auto corner : {tech::ProcessCorner::slow, tech::ProcessCorner::typical}) {
    for (int cls = 0; cls < PatternClass::kCount; ++cls) {
      if (!PatternClass::victim_switches(cls)) continue;
      double prev = 0.0;
      for (double v = 1.20; v >= 1.06 - 1e-9; v -= 0.02) {
        const double d = table_->delay(cls, corner, 100.0, v);
        EXPECT_GE(d, prev - 1e-15) << "class " << cls << " at " << v;
        prev = d;
      }
    }
  }
}

// ---------------------------------------------------------------- hashing

TEST(TableHash, SensitiveToDesignChanges) {
  const LutConfig config = small_lut_config();
  const BusDesign a = sized_paper_bus();
  BusDesign b = a;
  b.repeater_size += 1.0;
  BusDesign c = a;
  c.parasitics.cc_per_m *= 1.01;
  EXPECT_NE(table_key_hash(a, config), table_key_hash(b, config));
  EXPECT_NE(table_key_hash(a, config), table_key_hash(c, config));
  EXPECT_EQ(table_key_hash(a, config), table_key_hash(a, config));
}

TEST(TableHash, SensitiveToConfigChanges) {
  const BusDesign bus = sized_paper_bus();
  LutConfig a = small_lut_config();
  LutConfig b = a;
  b.vstep = 0.040;
  EXPECT_NE(table_key_hash(bus, a), table_key_hash(bus, b));
}

// ---------------------------------------------------------------- cache

TEST(Cache, BuildStoreReload) {
  // Use an isolated cache directory for this test.
  const std::string dir = "./.razorbus_cache_test";
  std::filesystem::remove_all(dir);
  setenv("RAZORBUS_CACHE_DIR", dir.c_str(), 1);

  const tech::DriverModel driver(sized_paper_bus().node);
  LutConfig tiny = small_lut_config();
  tiny.vmin = 1.18;  // 2 grid points only: fast build
  tiny.corners = {tech::ProcessCorner::typical};

  int build_calls = 0;
  const auto progress = [&build_calls](int, int) { ++build_calls; };
  const DelayEnergyTable first = build_or_load(sized_paper_bus(), driver, tiny, progress);
  EXPECT_GT(build_calls, 0);  // cache miss: built

  build_calls = 0;
  const DelayEnergyTable second =
      build_or_load(sized_paper_bus(), driver, tiny, progress);
  EXPECT_EQ(build_calls, 0);  // cache hit: loaded

  const int cls = PatternClass::encode(VictimActivity::rise, NeighborActivity::fall,
                                       NeighborActivity::fall);
  EXPECT_DOUBLE_EQ(first.delay(cls, tech::ProcessCorner::typical, 100.0, 1.2),
                   second.delay(cls, tech::ProcessCorner::typical, 100.0, 1.2));

  unsetenv("RAZORBUS_CACHE_DIR");
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace razorbus::lut
