#include "svc/result_cache.hpp"

#include <filesystem>
#include <system_error>

#include "util/fsio.hpp"
#include "util/json.hpp"

namespace razorbus::svc {

namespace fs = std::filesystem;

ResultCache::ResultCache(std::string dir) : dir_(std::move(dir)) {
  fs::create_directories(dir_);
}

std::string ResultCache::entry_path(const std::string& hash_hex) const {
  return (fs::path(dir_) / ("r_" + hash_hex + ".json")).string();
}

std::optional<std::string> ResultCache::lookup(const std::string& hash_hex) {
  const std::string path = entry_path(hash_hex);
  std::optional<std::string> bytes;
  try {
    std::string content = util::read_file(path);
    Json::parse(content);  // torn/corrupt entry -> miss
    bytes = std::move(content);
  } catch (const std::exception&) {
    bytes = std::nullopt;
  }
  if (!bytes) {
    // Remove debris so insert()'s atomic rename lands on a clean slot.
    std::error_code ec;
    fs::remove(path, ec);
  }
  util::MutexLock lock(mutex_);
  if (bytes)
    ++stats_.hits;
  else
    ++stats_.misses;
  return bytes;
}

void ResultCache::insert(const std::string& hash_hex,
                         const std::string& report_bytes) {
  Json::parse(report_bytes);  // throws: never cache an unparseable report
  util::write_file_atomic(entry_path(hash_hex), report_bytes);
  util::MutexLock lock(mutex_);
  ++stats_.inserts;
}

ResultCache::Stats ResultCache::stats() const {
  util::MutexLock lock(mutex_);
  return stats_;
}

}  // namespace razorbus::svc
