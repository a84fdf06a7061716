// campaignd's scheduler: durable queue + content-hash result cache over
// the core::CampaignSpec job expansion (docs/campaignd.md).
//
// CampaignService turns a campaign's expanded ScenarioJobs into queue
// records keyed by core::job_content_hash, then drives worker lanes that
// each loop {claim -> cache lookup -> run-one subprocess -> record}. A
// cache hit replays the stored report bytes verbatim (zero simulated
// cycles, byte-identical BENCH_<job>.json); a miss shells out to the
// runner binary's `run-one`, records the fresh report and inserts it into
// the cache. All queue and cache state lives on disk, so a killed worker
// resumes without re-running completed jobs, additional `campaignd
// worker` processes can attach to the same queue and steal work, and CI
// runs share results through the cache directory.
//
// The service's own accounting (wall time, throughput, status snapshots)
// reads the host clock; simulation results never do — they come from the
// run-one children, whose determinism contract (DESIGN.md §9) is exactly
// what makes the result cache sound.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/scenario_spec.hpp"
#include "svc/queue.hpp"
#include "svc/result_cache.hpp"
#include "util/thread_annotations.hpp"

namespace razorbus::svc {

// POSIX-shell single-quoting: inhibits every expansion, survives spaces,
// '$', backticks and double quotes in operator-supplied paths.
std::string shell_quote(const std::string& s);

struct ServiceConfig {
  std::string out_dir;     // spec/report/log files land here
  std::string queue_dir;   // default <out_dir>/queue
  std::string cache_dir;   // default <out_dir>/cache
  std::string status_path; // default <out_dir>/status.json
  // Binary whose `run-one <spec> --json=<report>` executes one job
  // (campaignd defaults to itself).
  std::string runner;
  unsigned workers = 1;    // claim loops (ThreadPool lanes) in this process
  bool force = false;      // ignore done records AND cache entries
  std::size_t max_jobs = 0;  // stop after claiming this many jobs (0 = all)
  // Shard-manifest mode for multi-host splits: keep only jobs with
  // hash % shard_count == shard_index. Hosts share the result cache (rsync
  // or a shared mount), not the queue (docs/campaignd.md).
  int shard_index = -1;
  int shard_count = 0;
  bool verbose = true;     // per-job progress lines on stdout
};

class CampaignService {
 public:
  // What a run() accomplished, for summaries and exit codes.
  struct Summary {
    std::size_t jobs_total = 0;    // queued jobs (after shard filtering)
    std::size_t cached_prior = 0;  // already done when prepare() reconciled
    std::uint64_t cache_hits = 0;  // replayed from the result cache
    std::uint64_t cache_misses = 0;
    std::size_t executed = 0;      // run-one children actually spawned
    std::size_t failed = 0;        // jobs whose outcome is "failed"
    double executed_cycles = 0.0;  // sum of "cycles" over executed reports
    double wall_seconds = 0.0;
    bool drained = false;          // every queued job has an outcome
  };

  // Full mode: owns the campaign, writes spec files, reconciles and
  // enqueues. `jobs` is the core::expand_campaign cross product.
  CampaignService(core::CampaignSpec campaign, std::vector<core::ScenarioJob> jobs,
                  ServiceConfig config);

  // Attach mode (`campaignd worker`): joins the queue another process
  // prepared and steals work from it. No campaign spec, no prepare().
  explicit CampaignService(ServiceConfig config);

  // Reconciles the queue with the expanded jobs and enqueues them:
  //  - a valid done record (status ok, hash matches, report parses) keeps
  //    the job done — the resume path, counted as cached_prior;
  //  - --force, a hash mismatch (spec or trace or code version drift), a
  //    failed outcome, or a missing/torn report resets the job to pending
  //    (torn-report tolerance: skip + re-run, like the LUT table cache);
  //  - queue records for jobs no longer in the campaign are dropped.
  // Returns the number of jobs resumed as already-done.
  std::size_t prepare();

  // Drives `workers` claim loops until the queue drains or the max_jobs
  // budget is exhausted, writing a status snapshot on every transition.
  Summary run();

  // Consolidated campaign report (BENCH_campaign.json shape: campaign /
  // description / out_dir / jobs / cached / wall_seconds / cache stats /
  // scenarios), built from the done records and per-job report files.
  // Full mode only.
  Json aggregate() const;

  // The machine-readable status surface (docs/campaignd.md): per-job
  // states plus cache hit rate and throughput. Also written atomically to
  // `status_path` while running.
  Json status_json() const;

  const ServiceConfig& config() const { return config_; }
  JobQueue& queue() { return queue_; }
  ResultCache& cache() { return cache_; }

 private:
  enum class JobState { pending, running, ok, failed };

  void run_job(const QueueJob& job, const std::string& worker_id);
  void set_state(const std::string& name, JobState state, bool cached);
  void write_status() const;
  Json status_json_locked() const REQUIRES(mutex_);

  core::CampaignSpec campaign_;
  std::vector<core::ScenarioJob> jobs_;  // shard-filtered in full mode
  ServiceConfig config_;
  JobQueue queue_;
  ResultCache cache_;
  bool attached_ = false;

  mutable util::Mutex mutex_;
  // std::map: status snapshots iterate deterministically.
  std::map<std::string, std::pair<JobState, bool>> states_ GUARDED_BY(mutex_);
  Summary summary_ GUARDED_BY(mutex_);
  std::size_t claims_ GUARDED_BY(mutex_) = 0;    // max_jobs budget accounting
  std::size_t finished_ GUARDED_BY(mutex_) = 0;  // progress-line numerator
  double started_at_ GUARDED_BY(mutex_) = -1.0;  // monotonic seconds; -1 = not run
};

}  // namespace razorbus::svc
