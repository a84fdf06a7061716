#include "lut/table.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <istream>
#include <iterator>
#include <limits>
#include <ostream>
#include <stdexcept>

#include "lut/point_store.hpp"
#include "util/parallel.hpp"
#include "util/thread_annotations.hpp"

namespace razorbus::lut {

namespace {

constexpr char kMagic[8] = {'R', 'B', 'L', 'U', 'T', '0', '0', '2'};
constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
// A loaded header naming more grid voltages than this is corrupt (the
// paper grid has 28; this allows a 1 mV step over 4 V).
constexpr double kMaxGridPoints = 4096.0;

// Linear interpolation helper shared by delay() / energy() / slice().
double lerp(double a, double b, double f) {
  if (std::isinf(a) || std::isinf(b)) return f < 1.0 ? a : b;
  return a + (b - a) * f;
}

struct InterpPoint {
  std::size_t lo;
  std::size_t hi;
  double frac;
};

InterpPoint interp_point(const tech::SupplyGrid& grid, double v) {
  if (v <= grid.vmin()) return {0, 0, 0.0};
  if (v >= grid.vmax()) return {grid.size() - 1, grid.size() - 1, 0.0};
  const double raw = (v - grid.vmin()) / grid.step();
  const auto lo = static_cast<std::size_t>(raw);
  const std::size_t hi = std::min(lo + 1, grid.size() - 1);
  return {lo, hi, raw - static_cast<double>(lo)};
}

// All pattern classes of one characterised (corner, temp, voltage) point.
struct ClassPoint {
  double delay[PatternClass::kCount];
  double energy[PatternClass::kCount];
};

struct CostCounters {
  std::atomic<std::uint64_t> transient_sims{0};
  std::atomic<std::uint64_t> store_hits{0};
};

// One class's raw result: answered by the point store when it already
// holds the key, otherwise simulated and inserted. Stored values came
// from the identical deterministic simulation (the key covers everything
// the result depends on), so consulting the store can never change table
// contents — only skip work.
interconnect::ClusterResult simulate_or_fetch(
    const interconnect::ClusterCharacterizer& characterizer,
    const interconnect::ClusterSpec& spec, int cls, PointStore* store,
    std::uint64_t design_hash, CostCounters& counters) {
  if (store) {
    const std::uint64_t key =
        point_key(design_hash, spec.corner, spec.temp_c, spec.vdd, cls);
    if (const auto hit = store->lookup(key)) {
      ++counters.store_hits;
      interconnect::ClusterResult r;
      r.delay = hit->delay;
      r.victim_energy = hit->energy;
      r.settled = true;
      return r;
    }
    const interconnect::ClusterResult r = characterizer.run(spec);
    ++counters.transient_sims;
    store->insert(key, {r.delay, r.victim_energy});
    return r;
  }
  ++counters.transient_sims;
  return characterizer.run(spec);
}

// Characterise every pattern class at one (corner, temp, voltage) — the
// one copy of the per-class policy: quiet canonical classes get zero
// energy, non-conducting points get infinite delay with no simulation,
// mirrors are copied. `per_unit` is invoked once per completed switching
// canonical class.
ClassPoint characterize_classes(const interconnect::ClusterCharacterizer& characterizer,
                                const tech::DriverModel& driver,
                                tech::ProcessCorner corner, double temp_c, double vdd,
                                PointStore* store, std::uint64_t design_hash,
                                CostCounters& counters,
                                const std::function<void()>& per_unit) {
  ClassPoint p;
  for (int cls = 0; cls < PatternClass::kCount; ++cls) {
    p.delay[cls] = kNan;
    p.energy[cls] = 0.0;
  }
  const bool conducts = driver.conducts(corner, temp_c, vdd);
  for (int cls = 0; cls < PatternClass::kCount; ++cls) {
    if (!PatternClass::is_canonical(cls)) continue;
    if (!PatternClass::any_switching(cls)) continue;  // quiet: zero energy
    if (!conducts) {
      if (PatternClass::victim_switches(cls))
        p.delay[cls] = std::numeric_limits<double>::infinity();
      per_unit();
      continue;
    }
    interconnect::ClusterSpec spec;
    spec.victim = to_wire_activity(PatternClass::victim_of(cls));
    spec.left = to_wire_activity(PatternClass::left_of(cls));
    spec.right = to_wire_activity(PatternClass::right_of(cls));
    spec.vdd = vdd;
    spec.corner = corner;
    spec.temp_c = temp_c;
    const interconnect::ClusterResult r =
        simulate_or_fetch(characterizer, spec, cls, store, design_hash, counters);
    if (PatternClass::victim_switches(cls))
      p.delay[cls] = r.delay >= 0.0 ? r.delay : std::numeric_limits<double>::infinity();
    p.energy[cls] = r.victim_energy;
    per_unit();
  }
  for (int cls = 0; cls < PatternClass::kCount; ++cls) {
    if (PatternClass::is_canonical(cls)) continue;
    const int src = PatternClass::canonical(cls);
    p.delay[cls] = p.delay[src];
    p.energy[cls] = p.energy[src];
  }
  return p;
}

int switching_canonical_count() {
  int n = 0;
  for (int cls = 0; cls < PatternClass::kCount; ++cls)
    if (PatternClass::is_canonical(cls) && PatternClass::any_switching(cls)) ++n;
  return n;
}

}  // namespace

std::uint64_t table_key_hash(const interconnect::BusDesign& design,
                             const LutConfig& config) {
  // Design/model/simulator content (including the n_bits / shield_group
  // exclusions) lives in design_content_hash — the same hash that keys the
  // point store — so the table key and the point keys can never disagree
  // about what "the same design" means.
  Fnv1a fnv;
  fnv.h = design_content_hash(design);
  for (double v : {config.vmin, config.vmax, config.vstep}) fnv.mix_double(v);
  for (double t : config.temps) fnv.mix_double(t);
  for (auto c : config.corners) fnv.mix_int(static_cast<std::int64_t>(c));
  return fnv.h;
}

DelayEnergyTable DelayEnergyTable::build(const interconnect::BusDesign& design,
                                         const tech::DriverModel& driver,
                                         const LutConfig& config,
                                         const std::function<void(int, int)>& progress,
                                         PointStore* store, BuildStats* stats) {
  DelayEnergyTable table;
  table.grid_ = config.reference_grid();
  table.temps_ = config.temps;
  table.corners_ = config.corners;
  const std::size_t total_slots =
      table.corners_.size() * table.temps_.size() * table.grid_.size() *
      static_cast<std::size_t>(PatternClass::kCount);
  table.delays_.resize(total_slots);
  table.energies_.resize(total_slots);

  const interconnect::ClusterCharacterizer characterizer(design, driver);
  const std::uint64_t design_hash = design_content_hash(design);
  CostCounters counters;

  // Count canonical classes that need simulation (for progress reporting).
  const int sims_per_point = switching_canonical_count();
  const int total = static_cast<int>(table.corners_.size() * table.temps_.size() *
                                     table.grid_.size()) *
                    sims_per_point;
  std::atomic<int> done{0};
  util::Mutex progress_mutex;
  int reported = 0;  // monotonic max of done counts already reported

  // The dominant cold-start cost: thousands of independent transient runs.
  // Sharded one (corner, temperature, voltage) grid point per shard — each
  // point owns the contiguous per-class range [flat_index(ci,ti,vi,0),
  // flat_index(ci,ti,vi,kCount)) of delays_/energies_, so shards write
  // disjoint memory and the table contents are bit-identical at any thread
  // count (DESIGN.md §9).
  const std::size_t points_per_corner = table.temps_.size() * table.grid_.size();
  const std::function<void()> per_unit = [&]() {
    const int now_done = ++done;
    if (progress) {
      // Report only monotonically increasing counts: two shards can
      // increment in one order and acquire this mutex in the other, and
      // progress printers assume done never goes backwards. The shard that
      // increments to `total` always reports it.
      util::MutexLock lock(progress_mutex);
      if (now_done > reported) {
        reported = now_done;
        progress(now_done, total);
      }
    }
  };
  util::global_pool().parallel_for(
      table.corners_.size() * points_per_corner, [&](std::size_t point) {
        const std::size_t ci = point / points_per_corner;
        const std::size_t ti = (point % points_per_corner) / table.grid_.size();
        const std::size_t vi = point % table.grid_.size();
        const ClassPoint p = characterize_classes(
            characterizer, driver, table.corners_[ci], table.temps_[ti],
            table.grid_.voltage(vi), store, design_hash, counters, per_unit);
        const std::size_t base = table.flat_index(ci, ti, vi, 0);
        std::copy(std::begin(p.delay), std::end(p.delay), table.delays_.begin() + base);
        std::copy(std::begin(p.energy), std::end(p.energy),
                  table.energies_.begin() + base);
      });
  if (stats) {
    stats->transient_sims = counters.transient_sims.load();
    stats->store_hits = counters.store_hits.load();
    stats->points = table.corners_.size() * points_per_corner;
  }
  return table;
}

std::size_t DelayEnergyTable::corner_index(tech::ProcessCorner corner) const {
  for (std::size_t i = 0; i < corners_.size(); ++i)
    if (corners_[i] == corner) return i;
  throw std::out_of_range("DelayEnergyTable: corner not characterised");
}

std::size_t DelayEnergyTable::temp_index(double temp_c) const {
  for (std::size_t i = 0; i < temps_.size(); ++i)
    if (std::abs(temps_[i] - temp_c) < 0.5) return i;
  throw std::out_of_range("DelayEnergyTable: temperature not characterised");
}

std::size_t DelayEnergyTable::flat_index(std::size_t corner, std::size_t temp,
                                         std::size_t v, int cls) const {
  return ((corner * temps_.size() + temp) * grid_.size() + v) *
             static_cast<std::size_t>(PatternClass::kCount) +
         static_cast<std::size_t>(cls);
}

double DelayEnergyTable::delay(int cls, tech::ProcessCorner corner, double temp_c,
                               double v) const {
  const std::size_t ci = corner_index(corner);
  const std::size_t ti = temp_index(temp_c);
  const InterpPoint p = interp_point(grid_, v);
  return lerp(delays_[flat_index(ci, ti, p.lo, cls)],
              delays_[flat_index(ci, ti, p.hi, cls)], p.frac);
}

double DelayEnergyTable::energy(int cls, tech::ProcessCorner corner, double temp_c,
                                double v) const {
  const std::size_t ci = corner_index(corner);
  const std::size_t ti = temp_index(temp_c);
  const InterpPoint p = interp_point(grid_, v);
  return lerp(energies_[flat_index(ci, ti, p.lo, cls)],
              energies_[flat_index(ci, ti, p.hi, cls)], p.frac);
}

TableSlice DelayEnergyTable::slice(tech::ProcessCorner corner, double temp_c,
                                   double v) const {
  const std::size_t ci = corner_index(corner);
  const std::size_t ti = temp_index(temp_c);
  TableSlice s{};
  const InterpPoint p = interp_point(grid_, v);
  for (int cls = 0; cls < PatternClass::kCount; ++cls) {
    s.delay[cls] = lerp(delays_[flat_index(ci, ti, p.lo, cls)],
                        delays_[flat_index(ci, ti, p.hi, cls)], p.frac);
    s.energy[cls] = lerp(energies_[flat_index(ci, ti, p.lo, cls)],
                         energies_[flat_index(ci, ti, p.hi, cls)], p.frac);
  }
  return s;
}

std::optional<double> DelayEnergyTable::min_shadow_safe_voltage(
    const interconnect::BusDesign& design, tech::ProcessCorner corner,
    double temp_c) const {
  const int worst = PatternClass::encode(VictimActivity::rise, NeighborActivity::fall,
                                         NeighborActivity::fall);
  const double limit = design.shadow_capture_limit();
  const std::size_t ci = corner_index(corner);
  const std::size_t ti = temp_index(temp_c);
  for (std::size_t vi = 0; vi < grid_.size(); ++vi) {
    const double d = delay_at(worst, ci, ti, vi);
    if (d <= limit) return grid_.voltage(vi);
  }
  return std::nullopt;
}

double DelayEnergyTable::delay_at(int cls, std::size_t ci, std::size_t ti,
                                  std::size_t vi) const {
  return delays_.at(flat_index(ci, ti, vi, cls));
}

double DelayEnergyTable::energy_at(int cls, std::size_t ci, std::size_t ti,
                                   std::size_t vi) const {
  return energies_.at(flat_index(ci, ti, vi, cls));
}

void DelayEnergyTable::save(std::ostream& os, std::uint64_t key_hash) const {
  os.write(kMagic, sizeof(kMagic));
  os.write(reinterpret_cast<const char*>(&key_hash), sizeof(key_hash));
  const double vmin = grid_.vmin();
  const double vmax = grid_.vmax();
  const double step = grid_.step();
  os.write(reinterpret_cast<const char*>(&vmin), sizeof(vmin));
  os.write(reinterpret_cast<const char*>(&vmax), sizeof(vmax));
  os.write(reinterpret_cast<const char*>(&step), sizeof(step));

  const std::uint64_t n_temps = temps_.size();
  const std::uint64_t n_corners = corners_.size();
  os.write(reinterpret_cast<const char*>(&n_temps), sizeof(n_temps));
  os.write(reinterpret_cast<const char*>(&n_corners), sizeof(n_corners));
  os.write(reinterpret_cast<const char*>(temps_.data()),
           static_cast<std::streamsize>(temps_.size() * sizeof(double)));
  for (auto c : corners_) {
    const std::int32_t v = static_cast<std::int32_t>(c);
    os.write(reinterpret_cast<const char*>(&v), sizeof(v));
  }
  const std::uint64_t n_values = delays_.size();
  os.write(reinterpret_cast<const char*>(&n_values), sizeof(n_values));
  os.write(reinterpret_cast<const char*>(delays_.data()),
           static_cast<std::streamsize>(delays_.size() * sizeof(double)));
  os.write(reinterpret_cast<const char*>(energies_.data()),
           static_cast<std::streamsize>(energies_.size() * sizeof(double)));
}

std::optional<DelayEnergyTable> DelayEnergyTable::load(std::istream& is,
                                                       std::uint64_t expected_hash) {
  char magic[sizeof(kMagic)];
  if (!is.read(magic, sizeof(magic)) || std::memcmp(magic, kMagic, sizeof(kMagic)) != 0)
    return std::nullopt;
  std::uint64_t hash = 0;
  if (!is.read(reinterpret_cast<char*>(&hash), sizeof(hash)) || hash != expected_hash)
    return std::nullopt;

  double vmin = 0, vmax = 0, step = 0;
  is.read(reinterpret_cast<char*>(&vmin), sizeof(vmin));
  is.read(reinterpret_cast<char*>(&vmax), sizeof(vmax));
  is.read(reinterpret_cast<char*>(&step), sizeof(step));
  std::uint64_t n_temps = 0, n_corners = 0;
  is.read(reinterpret_cast<char*>(&n_temps), sizeof(n_temps));
  is.read(reinterpret_cast<char*>(&n_corners), sizeof(n_corners));
  if (!is || n_temps == 0 || n_temps > 16 || n_corners == 0 || n_corners > 8)
    return std::nullopt;
  // A corrupt grid header is a cache miss like any other corruption, never
  // a SupplyGrid throw (or an out-of-range double -> size_t cast in it).
  if (!std::isfinite(vmin) || !std::isfinite(vmax) || !std::isfinite(step) ||
      !(step > 0.0) || !(vmax >= vmin) || (vmax - vmin) / step >= kMaxGridPoints)
    return std::nullopt;

  DelayEnergyTable table;
  table.grid_ = tech::SupplyGrid(vmin, vmax, step);
  table.temps_.resize(n_temps);
  is.read(reinterpret_cast<char*>(table.temps_.data()),
          static_cast<std::streamsize>(n_temps * sizeof(double)));
  table.corners_.resize(n_corners);
  for (auto& c : table.corners_) {
    std::int32_t v = 0;
    is.read(reinterpret_cast<char*>(&v), sizeof(v));
    c = static_cast<tech::ProcessCorner>(v);
  }
  std::uint64_t n_values = 0;
  is.read(reinterpret_cast<char*>(&n_values), sizeof(n_values));
  const std::uint64_t expected_values = n_corners * n_temps * table.grid_.size() *
                                        static_cast<std::uint64_t>(PatternClass::kCount);
  if (!is || n_values != expected_values) return std::nullopt;
  table.delays_.resize(n_values);
  table.energies_.resize(n_values);
  is.read(reinterpret_cast<char*>(table.delays_.data()),
          static_cast<std::streamsize>(n_values * sizeof(double)));
  is.read(reinterpret_cast<char*>(table.energies_.data()),
          static_cast<std::streamsize>(n_values * sizeof(double)));
  if (!is) return std::nullopt;
  return table;
}

}  // namespace razorbus::lut
