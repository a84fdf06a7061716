// Disk cache for characterised lookup tables.
//
// Building a table costs thousands of transient simulations (tens of
// seconds); every bench and example would otherwise pay that. The cache
// stores tables keyed by a hash of everything they depend on, so a change
// to any design or model parameter transparently re-characterises.
#pragma once

#include <functional>
#include <string>

#include "lut/table.hpp"

namespace razorbus::lut {

// Returns the cache directory, creating it if needed. Honours the
// RAZORBUS_CACHE_DIR environment variable; defaults to ".razorbus_cache"
// in the current working directory.
std::string cache_directory();

// Loads the table for (design, config) from the cache, or builds and stores
// it. `progress` forwards to DelayEnergyTable::build on a cache miss.
//
// Builds consult the design's incremental point store (point_store.hpp) in
// the same cache directory, so only points no table has ever simulated cost
// transient runs; a memo or disk hit never opens the store. `stats`
// (optional) receives the build's cost counters — all zero on a hit.
DelayEnergyTable build_or_load(const interconnect::BusDesign& design,
                               const tech::DriverModel& driver, const LutConfig& config,
                               const std::function<void(int, int)>& progress = {},
                               BuildStats* stats = nullptr);

}  // namespace razorbus::lut
