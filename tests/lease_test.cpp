// util::FileLease (util/lease.hpp): exclusive single-flight ownership
// across threads and processes, stale takeover, RAII release and waiting.
// Runs in the TSan CI leg.
#include <gtest/gtest.h>

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "util/lease.hpp"

namespace razorbus::util {
namespace {

namespace fs = std::filesystem;

std::string scratch(const std::string& name) {
  const std::string dir = "lease_test_out/" + name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

void plant(const std::string& path, const std::string& bytes) {
  std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;
}

TEST(FileLease, ExclusiveUntilReleased) {
  const std::string path = scratch("exclusive") + "/job.lease";
  auto first = FileLease::try_acquire(path, "a");
  ASSERT_TRUE(first.has_value());
  EXPECT_TRUE(first->held());
  EXPECT_TRUE(fs::exists(path));
  EXPECT_FALSE(FileLease::try_acquire(path, "b").has_value());  // same process, too

  first->release();
  EXPECT_FALSE(first->held());
  EXPECT_FALSE(fs::exists(path));  // release removes the file
  first->release();                // idempotent
  EXPECT_TRUE(FileLease::try_acquire(path, "b").has_value());
}

TEST(FileLease, MoveTransfersOwnership) {
  const std::string path = scratch("move") + "/job.lease";
  auto lease = FileLease::try_acquire(path, "a");
  ASSERT_TRUE(lease.has_value());
  FileLease moved = *std::move(lease);
  EXPECT_FALSE(lease->held());  // NOLINT(bugprone-use-after-move): checked on purpose
  EXPECT_TRUE(moved.held());
  EXPECT_FALSE(FileLease::try_acquire(path, "b").has_value());
  moved = FileLease(std::move(moved));
  EXPECT_TRUE(moved.held());
}

// A lease file whose holder is gone — a dead pid, or bytes nobody could
// have written as a record — is stale and taken over, never a crash.
TEST(FileLease, DeadPidTornAndForeignLeasesAreTakenOver) {
  const std::string dir = scratch("stale");
  const pid_t dead = fork();
  ASSERT_GE(dead, 0);
  if (dead == 0) _exit(0);
  ASSERT_EQ(waitpid(dead, nullptr, 0), dead);

  const std::vector<std::string> debris = {
      "{\n  \"owner\": \"killed\",\n  \"pid\": " + std::to_string(dead) + "\n}\n",
      "{\"owner\": \"torn",
      "",
      std::string("\x00\xff\x13garbage", 10),
      // A live pid (ours) in a file nobody locks: liveness is the lock.
      "{\"owner\": \"liar\", \"pid\": " + std::to_string(::getpid()) + "}\n",
  };
  for (std::size_t i = 0; i < debris.size(); ++i) {
    const std::string path = dir + "/job" + std::to_string(i) + ".lease";
    plant(path, debris[i]);
    auto lease = FileLease::try_acquire(path, "next");
    ASSERT_TRUE(lease.has_value()) << "debris " << i;
    EXPECT_FALSE(FileLease::try_acquire(path, "third").has_value()) << "debris " << i;
    FileLease::wait_released(dir + "/missing.lease");  // no lease: returns at once
  }
}

// A holder in another process is live while it runs, and its lease is
// taken over the moment it is killed — the kill -9 contract.
TEST(FileLease, KilledHolderProcessIsTakenOver) {
  const std::string path = scratch("killed") + "/job.lease";
  int ready[2];
  ASSERT_EQ(pipe(ready), 0);
  const pid_t child = fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    close(ready[0]);
    auto lease = FileLease::try_acquire(path, "child");
    const char ok = lease ? '1' : '0';
    (void)!write(ready[1], &ok, 1);
    pause();  // hold until killed
    _exit(0);
  }
  close(ready[1]);
  char ok = 0;
  ASSERT_EQ(read(ready[0], &ok, 1), 1);
  close(ready[0]);
  ASSERT_EQ(ok, '1');

  EXPECT_FALSE(FileLease::try_acquire(path, "parent").has_value());
  kill(child, SIGKILL);
  ASSERT_EQ(waitpid(child, nullptr, 0), child);
  EXPECT_TRUE(fs::exists(path));  // the dead holder never cleaned up
  FileLease::wait_released(path);  // lock already dropped by the kernel
  EXPECT_TRUE(FileLease::try_acquire(path, "parent").has_value());
}

// A holder that throws releases through RAII, so a waiter wakes up.
TEST(FileLease, ThrowingHolderReleasesItsWaiters) {
  const std::string path = scratch("throwing") + "/job.lease";
  std::atomic<bool> holding{false};
  std::atomic<bool> waiter_done{false};
  std::thread holder([&] {
    try {
      auto lease = FileLease::try_acquire(path, "holder");
      ASSERT_TRUE(lease.has_value());
      holding = true;
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
      EXPECT_FALSE(waiter_done.load());  // still waiting while we hold it
      throw std::runtime_error("leader failed");
    } catch (const std::runtime_error&) {
    }
  });
  while (!holding) std::this_thread::yield();
  FileLease::wait_released(path);
  waiter_done = true;
  holder.join();
  EXPECT_FALSE(fs::exists(path));
  EXPECT_TRUE(FileLease::try_acquire(path, "waiter").has_value());
}

// Many threads hammering one lease: at most one holder at any instant,
// and every thread eventually gets its turn by waiting, not polling.
TEST(FileLease, ConcurrentContendersNeverOverlap) {
  const std::string path = scratch("hammer") + "/job.lease";
  std::atomic<int> inside{0};
  std::atomic<int> overlaps{0};
  std::atomic<int> turns{0};
  const auto contender = [&] {
    for (int done = 0; done < 20;) {
      auto lease = FileLease::try_acquire(path, "worker");
      if (!lease) {
        FileLease::wait_released(path);
        continue;
      }
      if (inside.fetch_add(1) != 0) ++overlaps;
      std::this_thread::yield();
      inside.fetch_sub(1);
      ++turns;
      ++done;
    }
  };
  std::vector<std::thread> threads;
  for (int t = 0; t < 6; ++t) threads.emplace_back(contender);
  for (auto& t : threads) t.join();
  EXPECT_EQ(overlaps.load(), 0);
  EXPECT_EQ(turns.load(), 6 * 20);
  EXPECT_FALSE(fs::exists(path));
}

TEST(FileLease, UnwritableDirectoryThrows) {
  EXPECT_THROW(FileLease::try_acquire("lease_test_out/no/such/dir/job.lease", "x"),
               std::system_error);
}

}  // namespace
}  // namespace razorbus::util
