#include "svc/queue.hpp"

#include <algorithm>
#include <filesystem>
#include <system_error>
#include <utility>

#include "svc/fsio.hpp"

namespace razorbus::svc {

namespace fs = std::filesystem;

Json QueueJob::to_json() const {
  Json j = Json::object();
  j.set("name", name);
  j.set("hash", hash_hex);
  j.set("spec", spec_path);
  j.set("report", report_path);
  j.set("log", log_path);
  return j;
}

QueueJob QueueJob::from_json(const Json& json) {
  QueueJob job;
  job.name = json.at("name").as_string();
  job.hash_hex = json.at("hash").as_string();
  job.spec_path = json.at("spec").as_string();
  job.report_path = json.at("report").as_string();
  job.log_path = json.at("log").as_string();
  return job;
}

JobQueue::JobQueue(std::string dir) : dir_(std::move(dir)) {
  jobs_dir_ = (fs::path(dir_) / "jobs").string();
  claims_dir_ = (fs::path(dir_) / "claims").string();
  done_dir_ = (fs::path(dir_) / "done").string();
  fs::create_directories(jobs_dir_);
  fs::create_directories(claims_dir_);
  fs::create_directories(done_dir_);
}

void JobQueue::enqueue(const QueueJob& job) {
  write_file_atomic((fs::path(jobs_dir_) / (job.name + ".json")).string(),
                    job.to_json().dump(2) + "\n");
}

std::vector<QueueJob> JobQueue::jobs() const {
  std::vector<QueueJob> out;
  std::vector<std::string> paths;
  for (const auto& entry : fs::directory_iterator(jobs_dir_)) {
    if (entry.path().extension() == ".json") paths.push_back(entry.path().string());
  }
  std::sort(paths.begin(), paths.end());
  for (const auto& path : paths) {
    try {
      out.push_back(QueueJob::from_json(Json::parse_file(path)));
    } catch (const std::exception&) {
      // Torn or foreign file: not a job. (Publishes are atomic, so this
      // can only be debris; skipping matches the PointStore contract.)
    }
  }
  return out;
}

std::string JobQueue::claim_path(const std::string& name) const {
  // Claim-file names derive from the job name (filesystem-safe by the
  // ScenarioSpec name validation), so claim/job/done files line up 1:1.
  return (fs::path(claims_dir_) / (name + ".claim")).string();
}

std::optional<QueueJob> JobQueue::claim(const std::string& worker_id) {
  for (const QueueJob& job : jobs()) {
    if (is_done(job.name)) continue;
    std::optional<util::FileLease> lease;
    try {
      lease = util::FileLease::try_acquire(claim_path(job.name), worker_id);
    } catch (const std::system_error&) {
      continue;  // unwritable claims dir: skip the job
    }
    if (!lease) continue;  // a live worker holds it
    // Re-check under the claim: another worker may have completed the job
    // (done record written, then claim released) since the check above.
    if (is_done(job.name)) continue;  // the lease releases on scope exit
    util::MutexLock lock(mutex_);
    claims_.insert_or_assign(job.name, *std::move(lease));
    return job;
  }
  return std::nullopt;
}

void JobQueue::complete(const std::string& name, const Json& record) {
  write_file_atomic((fs::path(done_dir_) / (name + ".json")).string(),
                    record.dump(2) + "\n");
  release(name);
}

void JobQueue::release(const std::string& name) {
  std::optional<util::FileLease> held;
  {
    util::MutexLock lock(mutex_);
    const auto it = claims_.find(name);
    if (it == claims_.end()) return;
    held = std::move(it->second);
    claims_.erase(it);
  }
  // `held` releases (unlinks the claim file) here, outside the lock.
}

bool JobQueue::is_done(const std::string& name) const {
  return done_record(name).has_value();
}

std::optional<Json> JobQueue::done_record(const std::string& name) const {
  try {
    return Json::parse_file((fs::path(done_dir_) / (name + ".json")).string());
  } catch (const std::exception&) {
    return std::nullopt;
  }
}

void JobQueue::reset(const std::string& name) {
  release(name);
  std::error_code ec;
  fs::remove(fs::path(done_dir_) / (name + ".json"), ec);
  fs::remove(claim_path(name), ec);
}

void JobQueue::remove(const std::string& name) {
  reset(name);
  std::error_code ec;
  fs::remove(fs::path(jobs_dir_) / (name + ".json"), ec);
}

std::size_t JobQueue::done_count() const {
  std::size_t n = 0;
  for (const QueueJob& job : jobs())
    if (is_done(job.name)) ++n;
  return n;
}

bool JobQueue::all_done() const {
  for (const QueueJob& job : jobs())
    if (!is_done(job.name)) return false;
  return true;
}

}  // namespace razorbus::svc
