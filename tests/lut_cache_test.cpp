// The LUT cache stack: the in-memory memo behind build_or_load, the
// RAZORBUS_CACHE_DIR disk cache with its key-hash check, and single-flight
// cold builds (docs/characterization.md).
#include <gtest/gtest.h>

#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include "lut/cache.hpp"
#include "lut/pattern.hpp"
#include "lut/table.hpp"
#include "test_support.hpp"

namespace razorbus::lut {
namespace {

using test_support::small_lut_config;
using test_support::sized_paper_bus;

// Points RAZORBUS_CACHE_DIR at an isolated per-test directory for the
// guard's lifetime; restores the previous value and removes the directory
// on destruction.
class CacheDirGuard {
 public:
  explicit CacheDirGuard(const std::string& dir) : dir_(dir) {
    const char* prev = std::getenv("RAZORBUS_CACHE_DIR");
    had_prev_ = prev != nullptr;
    if (prev) prev_ = prev;
    std::filesystem::remove_all(dir_);
    setenv("RAZORBUS_CACHE_DIR", dir_.c_str(), 1);
  }
  ~CacheDirGuard() {
    if (had_prev_)
      setenv("RAZORBUS_CACHE_DIR", prev_.c_str(), 1);
    else
      unsetenv("RAZORBUS_CACHE_DIR");
    std::filesystem::remove_all(dir_);
  }

 private:
  std::string dir_;
  std::string prev_;
  bool had_prev_ = false;
};

// A few dense grid points only: fast to characterise.
LutConfig tiny_config(double vmin) {
  LutConfig cfg = small_lut_config();
  cfg.vmin = vmin;
  cfg.corners = {tech::ProcessCorner::typical};
  return cfg;
}

std::string table_path(const std::string& dir, const LutConfig& cfg) {
  std::ostringstream name;
  name << dir << "/lut_" << std::hex << table_key_hash(sized_paper_bus(), cfg)
       << ".bin";
  return name.str();
}

TEST(LutCache, MemoHitSkipsDisk) {
  CacheDirGuard guard("./.razorbus_cache_memo_test");
  const tech::DriverModel driver(sized_paper_bus().node);
  const LutConfig cfg = tiny_config(1.16);

  int first_progress = 0;
  const DelayEnergyTable first = build_or_load(
      sized_paper_bus(), driver, cfg, [&](int, int) { ++first_progress; });
  EXPECT_GT(first_progress, 0);  // cold: characterised for real

  // Wipe the disk cache entirely: a repeat call must be served by the
  // in-memory memo — no rebuild (progress stays silent), no sims.
  std::filesystem::remove_all(cache_directory());
  int second_progress = 0;
  BuildStats stats;
  stats.transient_sims = 99;  // must be overwritten, not accumulated
  const DelayEnergyTable second = build_or_load(
      sized_paper_bus(), driver, cfg, [&](int, int) { ++second_progress; }, &stats);
  EXPECT_EQ(second_progress, 0);
  EXPECT_EQ(stats.transient_sims, 0u);
  ASSERT_FALSE(second.empty());

  const int cls = PatternClass::encode(VictimActivity::rise, NeighborActivity::fall,
                                       NeighborActivity::fall);
  EXPECT_EQ(first.delay_at(cls, 0, 0, 0), second.delay_at(cls, 0, 0, 0));
  EXPECT_EQ(first.energy_at(cls, 0, 0, 0), second.energy_at(cls, 0, 0, 0));
}

TEST(LutCache, HashMismatchRebuildsCleanly) {
  CacheDirGuard guard("./.razorbus_cache_mismatch_test");
  const tech::DriverModel driver(sized_paper_bus().node);
  const LutConfig cfg_a = tiny_config(1.16);
  const LutConfig cfg_b = tiny_config(1.18);
  ASSERT_NE(table_key_hash(sized_paper_bus(), cfg_a),
            table_key_hash(sized_paper_bus(), cfg_b));

  build_or_load(sized_paper_bus(), driver, cfg_a);
  const std::string dir = cache_directory();

  // Plant config A's bytes at config B's expected path — the stale-entry
  // shape a config change leaves behind. Its embedded hash cannot match
  // B's key, so build_or_load must rebuild instead of trusting the file.
  std::filesystem::copy_file(table_path(dir, cfg_a), table_path(dir, cfg_b));
  int progress_calls = 0;
  const DelayEnergyTable b = build_or_load(sized_paper_bus(), driver, cfg_b,
                                           [&](int, int) { ++progress_calls; });
  EXPECT_GT(progress_calls, 0);  // rebuilt, not loaded from the planted file
  EXPECT_DOUBLE_EQ(b.grid().vmin(), cfg_b.vmin);

  // The rebuild replaced the planted file with a loadable one.
  std::ifstream in(table_path(dir, cfg_b), std::ios::binary);
  ASSERT_TRUE(in.good());
  EXPECT_TRUE(
      DelayEnergyTable::load(in, table_key_hash(sized_paper_bus(), cfg_b)).has_value());
}

// Bytes of a whole file (empty when it cannot be read).
std::string file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream bytes;
  bytes << in.rdbuf();
  return bytes.str();
}

// A lost table file costs one rebuild, and the rebuild publishes the same
// bytes: characterization is deterministic, so nothing downstream can tell
// a rebuilt table from the original.
TEST(LutCache, LostTableRebuildsByteIdentically) {
  const tech::DriverModel driver(sized_paper_bus().node);
  const LutConfig cfg = tiny_config(1.10);
  std::string original;
  {
    CacheDirGuard guard("./.razorbus_cache_lost_a_test");
    build_or_load(sized_paper_bus(), driver, cfg);
    const std::string path = table_path(cache_directory(), cfg);
    original = file_bytes(path);
    ASSERT_FALSE(original.empty());
    std::filesystem::remove(path);
  }
  // A fresh directory, so the in-process memo (keyed by directory) misses
  // and the table is characterised again from scratch.
  CacheDirGuard guard("./.razorbus_cache_lost_b_test");
  BuildStats stats;
  build_or_load(sized_paper_bus(), driver, cfg, {}, &stats);
  EXPECT_GT(stats.transient_sims, 0u);
  EXPECT_EQ(file_bytes(table_path(cache_directory(), cfg)), original);
}

// The table file is the only thing a cold build leaves behind: no temp
// file, no lease, and no second cache format next to it.
TEST(LutCache, ColdBuildLeavesOnlyTheTableFile) {
  CacheDirGuard guard("./.razorbus_cache_only_table_test");
  const tech::DriverModel driver(sized_paper_bus().node);
  const LutConfig cfg = tiny_config(1.12);
  build_or_load(sized_paper_bus(), driver, cfg);
  std::vector<std::string> names;
  for (const auto& entry : std::filesystem::directory_iterator(cache_directory()))
    names.push_back(entry.path().filename().string());
  ASSERT_EQ(names.size(), 1u);
  EXPECT_EQ(cache_directory() + "/" + names[0], table_path(cache_directory(), cfg));
}

// ------------------------------------------------- single-flight builds

// Transient runs of one cold build of `cfg` in the private cache directory
// `dir` (each caller needs its own: the in-process memo remembers it).
std::uint64_t one_build_sims(const LutConfig& cfg, const std::string& dir) {
  CacheDirGuard guard(dir);
  const tech::DriverModel driver(sized_paper_bus().node);
  BuildStats stats;
  build_or_load(sized_paper_bus(), driver, cfg, {}, &stats);
  EXPECT_GT(stats.transient_sims, 0u);
  return stats.transient_sims;
}

// Concurrent cold callers of one table build it once: one thread holds the
// build lease and characterises, the others wait and load what it
// published — so the summed transient runs equal a single build's, and
// the waiters do no build work at all.
TEST(LutSingleFlight, ConcurrentThreadsBuildOnce) {
  const LutConfig cfg = tiny_config(1.14);
  const std::uint64_t expected = one_build_sims(cfg, "./.razorbus_cache_sf_ref_test");

  CacheDirGuard guard("./.razorbus_cache_sf_threads_test");
  const tech::DriverModel driver(sized_paper_bus().node);
  constexpr int kCallers = 6;
  std::vector<BuildStats> stats(kCallers);
  std::vector<DelayEnergyTable> tables(kCallers);
  std::vector<std::thread> threads;
  for (int i = 0; i < kCallers; ++i)
    threads.emplace_back([&, i] {
      tables[i] = build_or_load(sized_paper_bus(), driver, cfg, {}, &stats[i]);
    });
  for (auto& t : threads) t.join();

  std::uint64_t sims = 0;
  int builders = 0;
  for (const BuildStats& s : stats) {
    sims += s.transient_sims;
    builders += s.points > 0 ? 1 : 0;
  }
  EXPECT_EQ(sims, expected);
  EXPECT_EQ(builders, 1);
  const int cls = PatternClass::encode(VictimActivity::rise, NeighborActivity::fall,
                                       NeighborActivity::fall);
  for (const DelayEnergyTable& t : tables)
    EXPECT_EQ(t.delay_at(cls, 0, 0, 0), tables[0].delay_at(cls, 0, 0, 0));
  EXPECT_FALSE(std::filesystem::exists(table_path(cache_directory(), cfg) + ".lease"));
}

// The child half of ConcurrentProcessesBuildOnce: builds (or waits and
// loads) in the shared RAZORBUS_CACHE_DIR and writes its transient-run
// count where LUT_CACHE_TEST_CHILD_OUT says. Skipped in a normal run.
TEST(LutSingleFlightChild, BuildAndReport) {
  const char* out = std::getenv("LUT_CACHE_TEST_CHILD_OUT");
  if (!out) GTEST_SKIP() << "child half of LutSingleFlight.ConcurrentProcessesBuildOnce";
  const tech::DriverModel driver(sized_paper_bus().node);
  BuildStats stats;
  build_or_load(sized_paper_bus(), driver, tiny_config(1.14), {}, &stats);
  std::ofstream(out) << stats.transient_sims << "\n";
}

// The same contract across processes: N copies of this test binary build
// one table cold in one cache directory at once.
TEST(LutSingleFlight, ConcurrentProcessesBuildOnce) {
  const LutConfig cfg = tiny_config(1.14);
  const std::uint64_t expected =
      one_build_sims(cfg, "./.razorbus_cache_sf_procs_ref_test");

  const std::string dir = "./.razorbus_cache_sf_procs_test";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  constexpr int kChildren = 4;
  std::vector<pid_t> pids;
  for (int i = 0; i < kChildren; ++i) {
    const std::string out_env =
        "LUT_CACHE_TEST_CHILD_OUT=" + dir + "/child" + std::to_string(i) + ".txt";
    const std::string cache_env = "RAZORBUS_CACHE_DIR=" + dir;
    std::string filter = "--gtest_filter=LutSingleFlightChild.BuildAndReport";
    std::string exe = "/proc/self/exe";
    char* argv[] = {exe.data(), filter.data(), nullptr};
    std::vector<std::string> env_strings{out_env, cache_env};
    std::vector<char*> envp;
    for (auto& e : env_strings) envp.push_back(e.data());
    envp.push_back(nullptr);
    pid_t pid = 0;
    ASSERT_EQ(
        posix_spawn(&pid, "/proc/self/exe", nullptr, nullptr, argv, envp.data()), 0);
    pids.push_back(pid);
  }
  std::uint64_t sims = 0;
  for (int i = 0; i < kChildren; ++i) {
    int status = 0;
    ASSERT_EQ(waitpid(pids[static_cast<std::size_t>(i)], &status, 0),
              pids[static_cast<std::size_t>(i)]);
    EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0) << "child " << i;
    std::ifstream in(dir + "/child" + std::to_string(i) + ".txt");
    std::uint64_t child_sims = 0;
    ASSERT_TRUE(static_cast<bool>(in >> child_sims)) << "child " << i;
    sims += child_sims;
  }
  EXPECT_EQ(sims, expected);
  std::filesystem::remove_all(dir);
}

// A leader that throws mid-build releases the lease (RAII), so a caller
// waiting on it wakes up, takes the lease over and builds the table.
TEST(LutSingleFlight, ThrowingLeaderReleasesWaiters) {
  CacheDirGuard guard("./.razorbus_cache_sf_throw_test");
  const tech::DriverModel driver(sized_paper_bus().node);
  const LutConfig cfg = tiny_config(1.16);
  std::atomic<bool> leading{false};
  std::atomic<bool> thrown{false};
  std::thread leader([&] {
    try {
      build_or_load(sized_paper_bus(), driver, cfg, [&](int, int) {
        if (leading.exchange(true)) return;
        // Give the waiter time to block on the lease, then fail.
        std::this_thread::sleep_for(std::chrono::milliseconds(200));
        throw std::runtime_error("leader failed");
      });
    } catch (const std::runtime_error&) {
      thrown = true;
    }
  });
  while (!leading) std::this_thread::yield();
  BuildStats stats;
  const DelayEnergyTable table =
      build_or_load(sized_paper_bus(), driver, cfg, {}, &stats);
  leader.join();
  EXPECT_TRUE(thrown.load());
  EXPECT_FALSE(table.empty());
  // The failed leader published nothing, so the waiter that took the lease
  // over characterised the table itself.
  EXPECT_GT(stats.transient_sims, 0u);
  EXPECT_TRUE(std::filesystem::exists(table_path(cache_directory(), cfg)));
  EXPECT_FALSE(std::filesystem::exists(table_path(cache_directory(), cfg) + ".lease"));
}

// A lease left by a crashed builder — dead pid, torn or foreign bytes — is
// stale: the next caller takes it over and builds, never hangs or crashes.
TEST(LutSingleFlight, StaleLeaseFilesAreTakenOver) {
  const tech::DriverModel driver(sized_paper_bus().node);
  const std::string debris[] = {
      "{\"owner\": \"lut build\", \"pid\": 999999999}\n",
      "{\"owner\": \"lut bu",
      std::string("\xde\xad\x00\x01", 4),
  };
  int round = 0;
  for (const std::string& bytes : debris) {
    CacheDirGuard guard("./.razorbus_cache_sf_stale_test" + std::to_string(round++));
    const LutConfig cfg = tiny_config(1.18);
    const std::string lease = table_path(cache_directory(), cfg) + ".lease";
    std::ofstream(lease, std::ios::binary) << bytes;
    BuildStats stats;
    const DelayEnergyTable table =
        build_or_load(sized_paper_bus(), driver, cfg, {}, &stats);
    EXPECT_FALSE(table.empty());
    EXPECT_GT(stats.transient_sims, 0u);
    EXPECT_FALSE(std::filesystem::exists(lease));
  }
}

}  // namespace
}  // namespace razorbus::lut
