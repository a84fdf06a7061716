// Single-flight file leases: exclusive, crash-safe ownership of one named
// piece of work among the threads and processes of one host.
//
// A lease is a small file at a caller-chosen path (a queue claim, a
// `lut_<hash>.bin.lease`). Its holder keeps an open descriptor with an
// exclusive flock(2) on it for as long as it holds the lease:
//
//   * Acquire: create the file with O_CREAT|O_EXCL, which succeeds for
//     exactly one contender, lock it, check the path still names it, and
//     write the record ({"owner", "pid"}) for people reading the directory.
//   * Liveness is the lock, not the recorded pid: the kernel drops it when
//     the holder releases or its process dies, however it dies. A lease
//     file nobody holds a lock on is stale — its pid is dead, or its bytes
//     are torn or foreign — and the next contender takes it over: it locks
//     the stale file, checks the path still names that file, and unlinks it
//     before retrying the create. Pid reuse cannot keep a dead lease alive,
//     and no file bytes are ever parsed.
//   * Release (RAII, so exceptions release too): unlink the path while
//     still locked, then close.
//   * Waiting: wait_released() blocks in flock(2) on the lease file until
//     the holder lets go. Waiters read no clock and never poll.
//
// flock locks belong to an open file description, so two threads of one
// process contend exactly like two processes. Descriptors are O_CLOEXEC:
// child processes spawned while a lease is held never inherit it. Leases
// are per host (local filesystem locks), like the queue they serve.
#pragma once

#include <optional>
#include <string>
#include <utility>

namespace razorbus::util {

class FileLease {
 public:
  // Takes the lease at `path` unless a live holder has it (then nullopt).
  // Throws std::system_error when the lease cannot be created at all (for
  // example an unwritable directory).
  static std::optional<FileLease> try_acquire(const std::string& path,
                                              const std::string& owner);

  // Blocks until no live holder has the lease at `path`; returns at once
  // when there is none. Does not acquire it.
  static void wait_released(const std::string& path);

  FileLease(FileLease&& other) noexcept;
  FileLease& operator=(FileLease&& other) noexcept;
  FileLease(const FileLease&) = delete;
  FileLease& operator=(const FileLease&) = delete;
  ~FileLease() { release(); }

  // Gives the lease up now (idempotent).
  void release();

  bool held() const { return fd_ >= 0; }

 private:
  FileLease(std::string path, int fd) : path_(std::move(path)), fd_(fd) {}

  std::string path_;
  int fd_ = -1;
};

}  // namespace razorbus::util
