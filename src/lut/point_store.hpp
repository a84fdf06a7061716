// Incremental, content-addressed store of simulated characterization points.
//
// One transient run characterises one (corner, temperature, voltage,
// pattern class) of one electrical design. That result never changes —
// the simulator is deterministic — so it is worth exactly one simulation
// per process FLEET, not one per table. The point store keys every raw
// simulator result by an FNV-1a content hash of everything the result
// depends on (design content, simulator version, corner, temperature,
// voltage, class) and persists the accumulated points per design in the
// cache directory. Tables then characterise only the points they are
// missing: a second campaign whose grid overlaps a first one performs
// zero redundant transient runs, and a lost table file rebuilds without
// re-paying for anything already simulated (docs/characterization.md).
//
// The store holds RAW ClusterResult quantities (delay as the simulator
// reported it, including the -1.0 "victim did not switch" convention).
// Interpretation — NaN for hold victims, +inf for non-conducting points —
// stays in the table builder, so the store is simulator-faithful and
// table-policy-free.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>

#include "interconnect/bus_design.hpp"
#include "tech/corner.hpp"
#include "util/thread_annotations.hpp"

namespace razorbus::lut {

// Bump when the transient solver, netlist construction or device models
// change in a way that alters simulated values: every stored point is
// keyed under the version, so stale points are simply never hit again.
// History (docs/campaignd.md): 2 — banded solver over a reordered matrix;
// the new elimination order moves results in the last digits only
// (tests/spice_parity_test.cpp).
constexpr std::uint32_t kSimulatorVersion = 2;

// FNV-1a accumulator: the content-hash primitive shared by the table
// cache key (table_key_hash) and the per-point keys.
struct Fnv1a {
  std::uint64_t h = 1469598103934665603ull;  // offset basis

  void mix(const void* data, std::size_t len) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < len; ++i) {
      h ^= bytes[i];
      h *= 1099511628211ull;  // FNV prime
    }
  }
  void mix_double(double v) { mix(&v, sizeof(v)); }
  void mix_int(std::int64_t v) { mix(&v, sizeof(v)); }
};

// Hash of every design/model parameter a transient result depends on:
// node electricals, parasitics, geometry, repeater sizing, the RC section
// discretisation and the simulator version. Deliberately EXCLUDES n_bits
// and shield_group (the 3-wire cluster sees one wire's electricals, so all
// bus widths share points — DESIGN.md §10) and the LUT grid (it chooses
// WHICH points exist, not their values).
std::uint64_t design_content_hash(const interconnect::BusDesign& design);

// Content key of one simulated point under a design hash.
std::uint64_t point_key(std::uint64_t design_hash, tech::ProcessCorner corner,
                        double temp_c, double vdd, int pattern_class);

// One raw simulator result (see the header comment for conventions).
struct StoredPoint {
  double delay = -1.0;
  double energy = 0.0;
};

// Thread-safe, process-shared point store for one design in one cache
// directory. All state is guarded by one mutex; values are pure functions
// of their key, so concurrent access can never perturb simulation results
// (DESIGN.md §9) — the only race is benign duplicated work.
class PointStore {
 public:
  struct Stats {
    std::uint64_t hits = 0;     // lookups answered from the store
    std::uint64_t misses = 0;   // lookups that required a transient run
    std::uint64_t inserts = 0;  // new points added since open/flush
  };

  // Opens (or creates) the store for `design_hash` under `dir`, loading
  // any previously persisted points. One instance per (dir, design hash)
  // is shared process-wide, like the table memo — that sharing is what
  // makes a second overlapping campaign free.
  static std::shared_ptr<PointStore> open(const std::string& dir,
                                          std::uint64_t design_hash);

  std::optional<StoredPoint> lookup(std::uint64_t key);
  void insert(std::uint64_t key, StoredPoint point);

  // Persists the current contents via the atomic temp+rename path (same
  // crash/concurrency contract as the table cache files). Best-effort: a
  // failed write only costs a later process re-simulation.
  void flush();

  Stats stats() const;
  std::size_t size() const;

  // Test hook: path of the backing file.
  const std::string& path() const { return path_; }

 private:
  PointStore(std::string path);

  void load_file() REQUIRES(mutex_);

  std::string path_;
  mutable util::Mutex mutex_;
  // std::map: deterministic iteration order for the persisted file bytes.
  std::map<std::uint64_t, StoredPoint> points_ GUARDED_BY(mutex_);
  std::uint64_t persisted_ GUARDED_BY(mutex_) = 0;  // entries already on disk
  Stats stats_ GUARDED_BY(mutex_);
};

}  // namespace razorbus::lut
