#include "util/lease.hpp"

#include <fcntl.h>
#include <sys/file.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <string>
#include <system_error>

#include "util/json.hpp"

namespace razorbus::util {

namespace {

[[noreturn]] void throw_errno(const std::string& what) {
  throw std::system_error(errno, std::generic_category(), what);
}

// flock(2), retried across signal interruptions.
int lock_fd(int fd, int operation) {
  int rc = 0;
  do {
    rc = ::flock(fd, operation);
  } while (rc != 0 && errno == EINTR);
  return rc;
}

// Does `path` currently name the file open as `fd`?
bool names_same_file(const std::string& path, int fd) {
  struct stat by_fd {};
  struct stat by_path {};
  return ::fstat(fd, &by_fd) == 0 && ::stat(path.c_str(), &by_path) == 0 &&
         by_fd.st_dev == by_path.st_dev && by_fd.st_ino == by_path.st_ino;
}

enum class Existing { live, gone };

// Classifies the lease file currently at `path`. A file nobody holds a lock
// on is stale: it is unlinked here (under its lock, after checking the path
// still names it, so a lease that replaced it in the meantime is never
// touched) and reported gone, as is a file that vanished by itself.
Existing probe_existing(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    if (errno == ENOENT) return Existing::gone;
    throw_errno("lease: cannot open " + path);
  }
  Existing state = Existing::live;
  if (lock_fd(fd, LOCK_EX | LOCK_NB) == 0) {
    if (names_same_file(path, fd)) ::unlink(path.c_str());
    state = Existing::gone;
  } else if (errno != EWOULDBLOCK) {
    const int err = errno;
    ::close(fd);
    throw std::system_error(err, std::generic_category(), "lease: cannot lock " + path);
  }
  ::close(fd);
  return state;
}

}  // namespace

std::optional<FileLease> FileLease::try_acquire(const std::string& path,
                                                const std::string& owner) {
  // Each round creates the lease, finds a live holder, or removes one stale
  // (or vanished) lease; the bound only stops a pathological stream of
  // stale files from spinning forever.
  for (int round = 0; round < 64; ++round) {
    const int fd = ::open(path.c_str(), O_CREAT | O_EXCL | O_RDWR | O_CLOEXEC, 0644);
    if (fd < 0) {
      if (errno != EEXIST) throw_errno("lease: cannot create " + path);
      if (probe_existing(path) == Existing::live) return std::nullopt;
      continue;
    }
    // Between the create and this lock a contender may have found the file
    // unlocked, judged it stale and unlinked it; the lock is then on an
    // orphan, and the path check sends us round again.
    if (lock_fd(fd, LOCK_EX) != 0 || !names_same_file(path, fd)) {
      ::close(fd);
      continue;
    }
    Json record = Json::object();
    record.set("owner", owner);
    record.set("pid", static_cast<long long>(::getpid()));
    const std::string text = record.dump(2) + "\n";
    // The record is for people reading the directory; liveness is the
    // lock, so a short write costs nothing.
    (void)!::write(fd, text.data(), text.size());
    return FileLease(path, fd);
  }
  return std::nullopt;
}

void FileLease::wait_released(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return;  // no lease, or released meanwhile
  // A shared lock waits out the holder's exclusive one without making
  // waiters queue behind each other.
  (void)lock_fd(fd, LOCK_SH);
  ::close(fd);
}

FileLease::FileLease(FileLease&& other) noexcept
    : path_(std::move(other.path_)), fd_(other.fd_) {
  other.fd_ = -1;
}

FileLease& FileLease::operator=(FileLease&& other) noexcept {
  if (this != &other) {
    release();
    path_ = std::move(other.path_);
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

void FileLease::release() {
  if (fd_ < 0) return;
  // Unlink while still locked, and only our own file: a waiter that wakes
  // up then finds either nothing or a newer holder's lease.
  if (names_same_file(path_, fd_)) ::unlink(path_.c_str());
  ::close(fd_);
  fd_ = -1;
}

}  // namespace razorbus::util
