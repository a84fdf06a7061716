// Durable on-disk job queue for the campaign service (docs/campaignd.md).
//
// The queue is a directory of small JSON files — no daemon state, no locks
// held across crashes — organised so that every transition is one atomic
// filesystem operation:
//
//   <dir>/jobs/<name>.json     the job record (atomic temp+rename)
//   <dir>/claims/<name>.claim  exclusive claim (O_CREAT|O_EXCL) by a worker
//   <dir>/done/<name>.json     outcome record (atomic temp+rename)
//
// A job is PENDING when it has a record but no done file, RUNNING while a
// live worker holds its claim, and DONE once the outcome record exists.
// A claim is a util::FileLease (util/lease.hpp): created with
// O_CREAT|O_EXCL, which the filesystem guarantees to succeed for exactly
// one contender, and held by a flock that the kernel drops when the worker
// dies. That is the whole work-stealing protocol: any number of worker
// processes can point at one queue directory and each job runs exactly
// once. A claim nobody holds (worker killed mid-job, so its pid is dead;
// or torn bytes) is stale; the next claimant takes it over through the
// same O_EXCL gate, which is what makes a campaign resumable after
// `kill -9`. A claimant re-checks the done record while holding the
// claim, so a job that another worker finished between the first check
// and the claim is released, never run twice.
//
// Locks are per host, so one queue directory serves the workers of ONE
// host. Multi-host splits partition jobs by content hash instead
// (`campaignd manifest`) — hosts share the result cache, not the queue.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "util/json.hpp"
#include "util/lease.hpp"
#include "util/thread_annotations.hpp"

namespace razorbus::svc {

// One enqueued unit of work: a named job plus the file locations its
// execution reads and writes. The content hash ties the job to its result
// cache entry and lets a resumed queue detect spec drift.
struct QueueJob {
  std::string name;
  std::string hash_hex;     // core::job_hash_hex of the expanded job
  std::string spec_path;    // resolved ScenarioSpec JSON for `run-one`
  std::string report_path;  // BENCH_<name>.json destination
  std::string log_path;     // captured stdout/stderr of the worker child

  Json to_json() const;
  static QueueJob from_json(const Json& json);
};

// Thread-safe: the claim lanes of one process share one handle. Claims
// taken through a handle are held by it until complete(), release(),
// reset() or the handle's destruction.
class JobQueue {
 public:
  // Opens (or creates) the queue rooted at `dir`.
  explicit JobQueue(std::string dir);

  // Publishes (or overwrites) a job record. Idempotent: re-enqueueing the
  // same name replaces the record atomically without touching its claim or
  // done state.
  void enqueue(const QueueJob& job);

  // Every parseable job record, sorted by name (deterministic order). A
  // torn record — crash before its first atomic publish completed — is
  // skipped, like a torn LUT table file (util/fsio.hpp).
  std::vector<QueueJob> jobs() const;

  // Claims the first (by name) job that is neither done nor claimed by a
  // live worker, recording `worker_id` and this process's pid in the claim
  // file. Returns nullopt when nothing is claimable right now (all done,
  // or every remaining job is claimed by live workers).
  std::optional<QueueJob> claim(const std::string& worker_id);

  // Records a job's outcome (atomic) and releases its claim. `record`
  // must at least carry "status": "ok" | "failed".
  void complete(const std::string& name, const Json& record);

  // Drops this handle's claim without recording an outcome (tests / error
  // unwinding); a no-op for jobs it does not hold.
  void release(const std::string& name);

  bool is_done(const std::string& name) const;
  // The outcome record, or nullopt when missing or torn.
  std::optional<Json> done_record(const std::string& name) const;

  // Clears a job's done + claim state so it runs again (spec drift,
  // --force, or a done record whose report went missing).
  void reset(const std::string& name);

  // Drops the job record itself along with its claim/done state — used
  // when reconciling a queue against a campaign that no longer contains
  // the job.
  void remove(const std::string& name);

  std::size_t done_count() const;
  bool all_done() const;

  const std::string& dir() const { return dir_; }

 private:
  std::string claim_path(const std::string& name) const;

  std::string dir_;
  std::string jobs_dir_;
  std::string claims_dir_;
  std::string done_dir_;
  util::Mutex mutex_;
  std::map<std::string, util::FileLease> claims_ GUARDED_BY(mutex_);
};

}  // namespace razorbus::svc
