#include "lut/cache.hpp"

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <system_error>
#include <utility>

#include "util/fsio.hpp"
#include "util/lease.hpp"
#include "util/thread_annotations.hpp"

namespace razorbus::lut {

namespace {

// In-memory memo of every table this process has built or loaded, keyed by
// (cache directory, table hash). Repeat build_or_load calls — each test
// binary, bench scenario and experiment driver asks for the same paper bus —
// return the memoised table instead of re-reading (or re-building) the disk
// file. The directory is part of the key because tests point
// RAZORBUS_CACHE_DIR at isolated directories and expect a fresh build there.
// Entries are never evicted: a process touches a handful of (design, config)
// pairs and each table is small. Contents depend only on the key, never on
// timing, so the memo cannot perturb determinism.
// razorlint: allow(no-mutable-static): process-wide memo guarded by the
// annotated Mutex; see the determinism note above.
util::Mutex g_memo_mutex;
// razorlint: allow(no-mutable-static): guarded by g_memo_mutex above.
std::map<std::pair<std::string, std::uint64_t>, DelayEnergyTable> g_memo
    GUARDED_BY(g_memo_mutex);

// Publishes through util::write_file_atomic (temp file + rename), so a
// crash mid-write or a concurrent second writer (parallel test binaries
// share this cache) can never leave a torn lut_*.bin — readers see the old
// file, the new file, or no file, all of which load() handles.
// Best-effort: a failed write only costs the next process a rebuild.
void write_cache_file(const std::string& path, const DelayEnergyTable& table,
                      std::uint64_t hash) {
  std::ostringstream bytes;
  table.save(bytes, hash);
  try {
    util::write_file_atomic(path, bytes.str());
  } catch (const std::runtime_error&) {
    // Unwritable cache directory: keep the built table in memory only.
  }
}

}  // namespace

std::string cache_directory() {
  const char* env = std::getenv("RAZORBUS_CACHE_DIR");
  const std::string dir = env && *env ? env : ".razorbus_cache";
  std::filesystem::create_directories(dir);
  return dir;
}

DelayEnergyTable build_or_load(const interconnect::BusDesign& design,
                               const tech::DriverModel& driver, const LutConfig& config,
                               const std::function<void(int, int)>& progress,
                               BuildStats* stats) {
  if (stats) *stats = BuildStats{};  // memo/disk hits perform zero sims
  const std::uint64_t hash = table_key_hash(design, config);
  const std::string dir = cache_directory();
  const std::pair<std::string, std::uint64_t> key{dir, hash};
  {
    util::MutexLock lock(g_memo_mutex);
    const auto it = g_memo.find(key);
    if (it != g_memo.end()) return it->second;
  }

  std::ostringstream name;
  name << dir << "/lut_" << std::hex << hash << ".bin";
  const std::string path = name.str();

  // A valid published table, memoised, or nothing.
  auto load_published = [&]() -> std::optional<DelayEnergyTable> {
    {
      util::MutexLock lock(g_memo_mutex);
      const auto it = g_memo.find(key);
      if (it != g_memo.end()) return it->second;
    }
    std::ifstream in(path, std::ios::binary);
    if (!in) return std::nullopt;
    auto table = DelayEnergyTable::load(in, hash);
    if (!table) return std::nullopt;
    util::MutexLock lock(g_memo_mutex);
    // emplace keeps the incumbent if another thread raced us here; both
    // tables are bit-identical (same key), so either copy is the answer.
    return g_memo.emplace(key, *std::move(table)).first->second;
  };
  auto build_and_publish = [&] {
    DelayEnergyTable table =
        DelayEnergyTable::build(design, driver, config, progress, stats);
    write_cache_file(path, table, hash);
    util::MutexLock lock(g_memo_mutex);
    return g_memo.emplace(key, std::move(table)).first->second;
  };

  // Single flight: one caller per table — thread or process — holds the
  // build lease and characterises; the others wait for it to let go and
  // load what it published. The table is published before the lease is
  // released, so a waiter that finds no table afterwards knows the leader
  // failed (threw or died) and competes for the lease again.
  const std::string lease_path = path + ".lease";
  while (true) {
    if (auto table = load_published()) return *std::move(table);
    std::optional<util::FileLease> lease;
    try {
      lease = util::FileLease::try_acquire(lease_path, "lut build");
    } catch (const std::system_error&) {
      break;  // no lease possible here (read-only cache dir): just build
    }
    if (lease) {
      // A leader may have published between the load above and the lease.
      if (auto table = load_published()) return *std::move(table);
      return build_and_publish();  // the lease releases after the publish
    }
    util::FileLease::wait_released(lease_path);
  }
  return build_and_publish();
}

}  // namespace razorbus::lut
