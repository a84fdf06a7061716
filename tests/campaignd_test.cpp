// Campaign service (docs/campaignd.md): content-hash job identity, the
// durable O_EXCL claim queue, the verbatim result cache, and campaignd end
// to end.
//
// The in-process tests drive src/svc directly (the concurrency ones run
// under the TSan CI leg); the end-to-end tests spawn the sibling
// `campaignd` binary from the build directory, like ctest and CI do, and
// assert the acceptance contract: a warm rerun of a campaign performs
// zero simulations and emits byte-identical per-job reports, and a worker
// killed mid-campaign resumes without re-running completed jobs.
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <thread>
#include <vector>

#include "core/job_hash.hpp"
#include "core/scenario_spec.hpp"
#include "svc/queue.hpp"
#include "svc/result_cache.hpp"
#include "svc/service.hpp"
#include "util/fsio.hpp"
#include "util/json.hpp"

namespace razorbus {
namespace {

namespace fs = std::filesystem;

int run_cmd(const std::string& cmd) { return std::system(cmd.c_str()); }

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(static_cast<bool>(in)) << "missing " << path;
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

core::ScenarioJob make_job(const std::string& name, const std::string& spec_json) {
  core::ScenarioJob job;
  job.name = name;
  job.spec = core::ScenarioSpec::from_json(Json::parse(spec_json));
  return job;
}

// A scratch directory per test, wiped on entry.
std::string scratch(const std::string& name) {
  const std::string dir = "campaignd_test_out/" + name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

// --------------------------------------------------------- content hashing

TEST(JobHash, SameSpecSameHash) {
  const char* spec = R"({"name": "a", "experiment": "closed_loop",
      "trace": {"source": "synthetic", "style": "uniform", "seed": 5},
      "cycles": 1000, "threads": 1})";
  EXPECT_EQ(core::job_content_hash(make_job("a", spec)),
            core::job_content_hash(make_job("a", spec)));
  EXPECT_EQ(core::job_hash_hex(make_job("a", spec)).size(), 16u);
}

// Any field change — the knobs that pick what gets simulated, how much,
// and with which engine — must move the hash, or the result cache would
// serve stale reports.
TEST(JobHash, AnyFieldChangeChangesHash) {
  const auto base = [](const std::string& patch) {
    Json spec = Json::parse(
        R"({"name": "a", "experiment": "closed_loop",
            "trace": {"source": "synthetic", "style": "uniform", "seed": 5},
            "cycles": 1000, "threads": 1})");
    if (!patch.empty()) {
      const Json extra = Json::parse(patch);
      for (const auto& [key, value] : extra.members()) spec.set(key, value);
    }
    core::ScenarioJob job;
    job.name = "a";
    job.spec = core::ScenarioSpec::from_json(spec);
    return core::job_content_hash(job);
  };
  const std::uint64_t reference = base("");
  const std::vector<std::string> patches = {
      R"({"cycles": 1001})",
      R"({"threads": 2})",
      R"({"widths": [64]})",
      R"({"controllers": ["fixed_vs"]})",
      R"({"engine": "reference"})",
      R"({"stream": true})",
      R"({"corners": ["worst"]})",
      R"({"encoding": "bus_invert"})",
      R"({"trace": {"source": "synthetic", "style": "uniform", "seed": 6}})",
      R"({"trace": {"source": "synthetic", "style": "sparse", "seed": 5}})",
  };
  std::set<std::uint64_t> seen{reference};
  for (const auto& patch : patches) {
    const std::uint64_t hash = base(patch);
    EXPECT_NE(hash, reference) << patch;
    EXPECT_TRUE(seen.insert(hash).second) << "collision for " << patch;
  }
  // The job NAME is part of the identity too (distinct axis points).
  core::ScenarioJob renamed = make_job(
      "b", R"({"name": "a", "experiment": "closed_loop",
               "trace": {"source": "synthetic", "style": "uniform", "seed": 5},
               "cycles": 1000, "threads": 1})");
  EXPECT_NE(core::job_content_hash(renamed), reference);
}

// The multi-bus lane list, the arbitration policy and the drift schedule
// all pick what gets simulated, so each must move the content hash — a
// cached one_bus report must never satisfy a two_bus job, and an aged run
// must never replay a fresh one.
TEST(JobHash, MultiBusAndDriftFieldsChangeHash) {
  const auto base = [](const std::string& patch) {
    Json spec = Json::parse(
        R"({"name": "soc", "experiment": "multi_bus",
            "arbitration": "max_error",
            "buses": [
              {"width": 32, "weight": 1.0,
               "trace": {"source": "synthetic", "style": "uniform", "seed": 3}},
              {"width": 32, "weight": 1.0,
               "trace": {"source": "synthetic", "style": "sparse", "seed": 4}}
            ],
            "cycles": 1000, "threads": 1})");
    if (!patch.empty()) {
      const Json extra = Json::parse(patch);
      for (const auto& [key, value] : extra.members()) spec.set(key, value);
    }
    core::ScenarioJob job;
    job.name = "soc";
    job.spec = core::ScenarioSpec::from_json(spec);
    return core::job_content_hash(job);
  };
  const std::uint64_t reference = base("");
  const std::vector<std::string> patches = {
      R"({"arbitration": "sum_error"})",
      R"({"arbitration": "weighted"})",
      // Lane list: width, weight, trace and count all matter.
      R"({"buses": [{"width": 64, "weight": 1.0,
                     "trace": {"source": "synthetic", "style": "uniform", "seed": 3}},
                    {"width": 32, "weight": 1.0,
                     "trace": {"source": "synthetic", "style": "sparse", "seed": 4}}]})",
      R"({"buses": [{"width": 32, "weight": 2.5,
                     "trace": {"source": "synthetic", "style": "uniform", "seed": 3}},
                    {"width": 32, "weight": 1.0,
                     "trace": {"source": "synthetic", "style": "sparse", "seed": 4}}]})",
      R"({"buses": [{"width": 32, "weight": 1.0,
                     "trace": {"source": "synthetic", "style": "uniform", "seed": 9}},
                    {"width": 32, "weight": 1.0,
                     "trace": {"source": "synthetic", "style": "sparse", "seed": 4}}]})",
      R"({"buses": [{"width": 32, "weight": 1.0,
                     "trace": {"source": "synthetic", "style": "uniform", "seed": 3}}]})",
      // Drift: enabling it, each ramp endpoint, and the piecewise form.
      R"({"drift": {"temp_start": 25.0, "temp_end": 100.0}})",
      R"({"drift": {"temp_start": 25.0, "temp_end": 90.0}})",
      R"({"drift": {"temp_start": 25.0, "temp_end": 100.0,
                    "vth_shift_start": 0.0, "vth_shift_end": 0.05}})",
      R"({"drift": {"points": [{"cycle": 0, "temp_c": 25.0},
                               {"cycle": 500, "temp_c": 100.0}]}})",
      R"({"drift": {"points": [{"cycle": 0, "temp_c": 25.0},
                               {"cycle": 600, "temp_c": 100.0}]}})",
  };
  std::set<std::uint64_t> seen{reference};
  for (const auto& patch : patches) {
    const std::uint64_t hash = base(patch);
    EXPECT_NE(hash, reference) << patch;
    EXPECT_TRUE(seen.insert(hash).second) << "collision for " << patch;
  }
}

// File traces hash their BYTES: editing the trace file invalidates the
// cached result even though the spec is unchanged.
TEST(JobHash, TraceFileBytesAreHashed) {
  const std::string dir = scratch("job_hash_trace");
  const std::string trace_path = dir + "/trace.bin";
  const auto job_for = [&] {
    core::ScenarioJob job;
    job.name = "file_job";
    job.spec = core::ScenarioSpec::from_json(Json::parse(
        R"({"name": "file_job", "experiment": "static_sweep",
            "trace": {"source": "file", "path": ")" +
        trace_path + R"("}, "cycles": 100})"));
    return job;
  };
  util::write_file_atomic(trace_path, "trace-bytes-v1");
  const std::uint64_t first = core::job_content_hash(job_for());
  EXPECT_EQ(first, core::job_content_hash(job_for()));
  util::write_file_atomic(trace_path, "trace-bytes-v2");
  EXPECT_NE(core::job_content_hash(job_for()), first);
  // Unreadable trace: identity still computes (the job fails at run time).
  fs::remove(trace_path);
  EXPECT_NE(core::job_content_hash(job_for()), first);
}

// ------------------------------------------------------------- job queue

svc::QueueJob queue_job(const std::string& name) {
  svc::QueueJob job;
  job.name = name;
  job.hash_hex = "00000000000000" + name.substr(name.size() - 2);
  job.spec_path = name + ".spec.json";
  job.report_path = "BENCH_" + name + ".json";
  job.log_path = name + ".log";
  return job;
}

TEST(JobQueue, ClaimCompleteDrain) {
  svc::JobQueue queue(scratch("queue_basic"));
  for (const char* name : {"j01", "j02", "j03"}) queue.enqueue(queue_job(name));
  EXPECT_EQ(queue.jobs().size(), 3u);
  EXPECT_FALSE(queue.all_done());

  // Claims hand out distinct jobs in name order; a claimed job is invisible
  // to other claimants until released or completed.
  const auto first = queue.claim("w1");
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->name, "j01");
  const auto second = queue.claim("w1");
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->name, "j02");

  Json ok = Json::object();
  ok.set("status", "ok");
  queue.complete("j01", ok);
  queue.complete("j02", ok);
  EXPECT_TRUE(queue.is_done("j01"));
  EXPECT_EQ(queue.done_count(), 2u);

  const auto third = queue.claim("w1");
  ASSERT_TRUE(third.has_value());
  EXPECT_EQ(third->name, "j03");
  queue.complete("j03", ok);
  EXPECT_TRUE(queue.all_done());
  EXPECT_FALSE(queue.claim("w1").has_value());

  // reset() reopens a done job.
  queue.reset("j02");
  EXPECT_FALSE(queue.all_done());
  const auto again = queue.claim("w2");
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(again->name, "j02");
}

// The kill -9 contract: a claim whose recorded pid is dead is stale, and
// the next claimant steals the job; done jobs stay done.
TEST(JobQueue, DurableAcrossAKilledWorker) {
  const std::string dir = scratch("queue_killed");
  svc::JobQueue queue(dir);
  queue.enqueue(queue_job("j01"));
  queue.enqueue(queue_job("j02"));

  Json ok = Json::object();
  ok.set("status", "ok");
  queue.complete("j01", ok);

  // A worker that died mid-job: its claim records a pid that no longer
  // exists (fork a child that exits immediately and reap it).
  const pid_t dead = fork();
  ASSERT_GE(dead, 0);
  if (dead == 0) _exit(0);
  ASSERT_EQ(waitpid(dead, nullptr, 0), dead);
  Json stale = Json::object();
  stale.set("worker", "killed");
  stale.set("pid", static_cast<long long>(dead));
  util::write_file_atomic(dir + "/claims/j02.claim", stale.dump(2) + "\n");

  // A fresh queue handle (a new process after the kill) reclaims j02 and
  // does NOT re-run j01.
  svc::JobQueue resumed(dir);
  EXPECT_TRUE(resumed.is_done("j01"));
  const auto claimed = resumed.claim("w2");
  ASSERT_TRUE(claimed.has_value());
  EXPECT_EQ(claimed->name, "j02");

  // A LIVE claim (this process) is not stealable.
  svc::JobQueue contender(dir);
  EXPECT_FALSE(contender.claim("w3").has_value());

  // A torn claim file (crash mid-write, before any pid landed) is stale.
  resumed.release("j02");
  util::write_file_atomic(dir + "/claims/j02.claim", "{\"worker\": \"torn");
  const auto reclaimed = contender.claim("w3");
  ASSERT_TRUE(reclaimed.has_value());
  EXPECT_EQ(reclaimed->name, "j02");
}

// Two workers hammering one queue never claim the same job twice — the
// O_CREAT|O_EXCL claim lease is the whole mutual-exclusion protocol. Runs
// under the TSan CI leg.
TEST(JobQueue, ConcurrentWorkersNeverDoubleClaim) {
  const std::string dir = scratch("queue_concurrent");
  {
    svc::JobQueue setup(dir);
    for (int i = 0; i < 8; ++i)
      setup.enqueue(queue_job("j0" + std::to_string(i)));
  }
  std::vector<std::string> claimed[2];
  Json ok = Json::object();
  ok.set("status", "ok");
  const auto worker = [&](int lane) {
    svc::JobQueue queue(dir);  // own handle, like a separate process
    while (true) {
      const auto job = queue.claim("w" + std::to_string(lane));
      if (!job) break;
      claimed[lane].push_back(job->name);
      queue.complete(job->name, ok);
    }
  };
  std::thread other([&] { worker(1); });
  worker(0);
  other.join();

  std::set<std::string> all;
  for (const auto& lane : claimed)
    for (const auto& name : lane)
      EXPECT_TRUE(all.insert(name).second) << name << " claimed twice";
  EXPECT_EQ(all.size(), 8u);
  svc::JobQueue queue(dir);
  EXPECT_TRUE(queue.all_done());
}

// Regression for the duplicate-claim race: a lane checked is_done(), then
// another lane completed the job (done record written, claim released),
// then the first lane's claim succeeded and the job ran a second time.
// Many tiny jobs over many lanes, runs counted on the executing side (not
// from any summary counter): every job runs exactly once. TSan leg.
TEST(JobQueue, ManyLanesRunEachJobExactlyOnce) {
  constexpr int kJobs = 48;
  constexpr int kLanes = 8;
  Json ok = Json::object();
  ok.set("status", "ok");
  // A few rounds: the race window is narrow, one round may miss it.
  for (int round = 0; round < 4; ++round) {
    const std::string dir = scratch("queue_exactly_once_" + std::to_string(round));
    {
      svc::JobQueue setup(dir);
      for (int i = 0; i < kJobs; ++i)
        setup.enqueue(queue_job("j" + std::to_string(100 + i)));
    }
    std::vector<std::atomic<int>> runs(kJobs);
    const auto lane = [&](int id) {
      svc::JobQueue queue(dir);  // own handle, like a separate process
      while (!queue.all_done()) {
        const auto job = queue.claim("w" + std::to_string(id));
        if (!job) continue;
        ++runs[std::stoi(job->name.substr(1)) - 100];  // the "child side"
        queue.complete(job->name, ok);
      }
    };
    std::vector<std::thread> lanes;
    for (int i = 0; i < kLanes; ++i) lanes.emplace_back(lane, i);
    for (auto& t : lanes) t.join();
    for (int i = 0; i < kJobs; ++i)
      EXPECT_EQ(runs[i].load(), 1) << "round " << round << ", job " << i;
  }
}

// ----------------------------------------------------------- result cache

TEST(ResultCache, VerbatimRoundTripAndTornEntryTolerance) {
  svc::ResultCache cache(scratch("cache"));
  const std::string hash = "00c0ffee00c0ffee";
  EXPECT_FALSE(cache.lookup(hash).has_value());

  const std::string report = "{\n  \"scenario\": \"x\",\n  \"cycles\": 7\n}\n";
  cache.insert(hash, report);
  const auto bytes = cache.lookup(hash);
  ASSERT_TRUE(bytes.has_value());
  EXPECT_EQ(*bytes, report);  // verbatim, not re-serialized

  // A torn entry — crash before the atomic publish — is a miss, and the
  // debris is cleared for the next insert.
  util::write_file_atomic(cache.entry_path(hash), report.substr(0, 10));
  EXPECT_FALSE(cache.lookup(hash).has_value());
  EXPECT_FALSE(fs::exists(cache.entry_path(hash)));
  cache.insert(hash, report);
  EXPECT_TRUE(cache.lookup(hash).has_value());

  // Unparseable bytes must never enter the cache.
  EXPECT_THROW(cache.insert(hash, "not json"), std::exception);

  const auto stats = cache.stats();
  EXPECT_EQ(stats.hits, 2u);
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.inserts, 2u);
}

// ------------------------------------------------------------- end to end

class CampaigndEndToEnd : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!std::ifstream("./campaignd"))
      GTEST_SKIP() << "bench binaries not in the working directory; run from build/";
    fs::create_directories("campaignd_test_out");
    std::ofstream spec("campaignd_test_out/tiny.json");
    spec << R"({"name": "tiny", "defaults": {"cycles": 2000, "threads": 1},
      "scenarios": [
        {"name": "uni", "experiment": "closed_loop",
         "trace": {"source": "synthetic", "style": "uniform", "seed": 7},
         "controllers": ["threshold", "fixed_vs"]},
        {"name": "sweep", "experiment": "static_sweep",
         "trace": {"source": "synthetic", "style": "uniform", "seed": 7}}
      ]})";
  }

  static Json status_of(const std::string& out_dir) {
    return Json::parse(slurp(out_dir + "/status.json"));
  }
};

// The acceptance contract: a warm rerun against a shared cache performs
// ZERO simulations (no run-one children, zero simulated cycles) and emits
// byte-identical per-job reports.
TEST_F(CampaigndEndToEnd, WarmRerunIsAllCacheHitsAndByteIdentical) {
  const std::string cold = "campaignd_test_out/cold";
  const std::string warm = "campaignd_test_out/warm";
  fs::remove_all(cold);
  fs::remove_all(warm);
  ASSERT_EQ(run_cmd("./campaignd run campaignd_test_out/tiny.json --out=" + cold +
                    " --workers=2 > " + cold + ".log 2>&1"),
            0);
  const Json cold_status = status_of(cold);
  EXPECT_EQ(cold_status.at("executed").as_int(), 3);
  EXPECT_EQ(cold_status.at("cache_hits").as_int(), 0);

  // Fresh out dir, shared cache: everything replays.
  ASSERT_EQ(run_cmd("./campaignd run campaignd_test_out/tiny.json --out=" + warm +
                    " --cache=" + cold + "/cache > " + warm + ".log 2>&1"),
            0);
  const Json warm_status = status_of(warm);
  EXPECT_EQ(warm_status.at("executed").as_int(), 0);
  EXPECT_EQ(warm_status.at("executed_cycles").as_double(), 0.0);
  EXPECT_EQ(warm_status.at("cache_hits").as_int(), 3);
  EXPECT_EQ(warm_status.at("jobs_total").as_int(), 3);
  EXPECT_DOUBLE_EQ(warm_status.at("cache_hit_rate").as_double(), 1.0);

  for (const char* name : {"uni_threshold", "uni_fixed_vs", "sweep"}) {
    const std::string file = std::string("BENCH_") + name + ".json";
    EXPECT_EQ(slurp(cold + "/" + file), slurp(warm + "/" + file)) << file;
  }

  // The status subcommand reads the same snapshot.
  ASSERT_EQ(run_cmd("./campaignd status --out=" + warm + " > " + warm +
                    "_status.log 2>&1"),
            0);
  const std::string printed = slurp(warm + "_status.log");
  EXPECT_NE(printed.find("hit rate 100%"), std::string::npos) << printed;
}

// A scheduler stopped mid-campaign (here: a one-job budget, the same queue
// state a kill -9 leaves behind) resumes without re-running completed jobs.
TEST_F(CampaigndEndToEnd, InterruptedCampaignResumesWithoutRerunning) {
  const std::string out = "campaignd_test_out/resume";
  fs::remove_all(out);
  ASSERT_EQ(run_cmd("./campaignd run campaignd_test_out/tiny.json --out=" + out +
                    " --max_jobs=1 > " + out + ".log 2>&1"),
            0);
  EXPECT_EQ(status_of(out).at("executed").as_int(), 1);
  EXPECT_NE(slurp(out + ".log").find("queue not drained"), std::string::npos);

  ASSERT_EQ(run_cmd("./campaignd run campaignd_test_out/tiny.json --out=" + out +
                    " > " + out + "2.log 2>&1"),
            0);
  const std::string log = slurp(out + "2.log");
  // The completed job resumed as done; only the remaining two executed.
  EXPECT_NE(log.find("[cached]"), std::string::npos) << log;
  EXPECT_EQ(status_of(out).at("executed").as_int(), 2);
  EXPECT_EQ(status_of(out).at("done").as_int(), 3);
  svc::JobQueue queue(out + "/queue");
  EXPECT_TRUE(queue.all_done());
}

// campaignd found through PATH and started from another directory, with
// no --runner: its run-one children are the same binary, found the same
// way, so every job executes.
TEST_F(CampaigndEndToEnd, DefaultRunnerWorksThroughPathFromAnotherDirectory) {
  const std::string out = fs::absolute("campaignd_test_out/via_path").string();
  fs::remove_all(out);
  fs::create_directories(out + "/cwd");
  // Share this directory's characterization cache: the run's cwd is elsewhere.
  const char* lut_env = std::getenv("RAZORBUS_CACHE_DIR");
  const std::string lut_dir =
      fs::absolute(lut_env != nullptr && *lut_env != '\0' ? lut_env : ".razorbus_cache")
          .string();
  const std::string spec = fs::absolute("campaignd_test_out/tiny.json").string();
  const std::string log = out + ".log";
  ASSERT_EQ(run_cmd("cd " + svc::shell_quote(out + "/cwd") +
                    " && PATH=" + svc::shell_quote(fs::current_path().string()) +
                    ":\"$PATH\" RAZORBUS_CACHE_DIR=" + svc::shell_quote(lut_dir) +
                    " campaignd run " + svc::shell_quote(spec) +
                    " --out=" + svc::shell_quote(out + "/run") + " > " +
                    svc::shell_quote(log) + " 2>&1"),
            0)
      << slurp(log);
  const Json status = status_of(out + "/run");
  EXPECT_EQ(status.at("executed").as_int(), 3);
  EXPECT_EQ(status.at("failed").as_int(), 0);
  EXPECT_EQ(status.at("done").as_int(), 3);
}

// The checked-in multi-bus and drift campaign files run cold end to end,
// and a warm rerun against the shared cache replays every job without a
// single simulated cycle, byte-identically — the same reuse contract the
// campaign-cache CI leg asserts for quick.json.
TEST_F(CampaigndEndToEnd, SystemAndDriftCampaignsColdThenWarm) {
  for (const std::string campaign : {"system", "drift"}) {
    const std::string file =
        std::string(RAZORBUS_SOURCE_DIR) + "/campaigns/" + campaign + ".json";
    const std::string cold = "campaignd_test_out/" + campaign + "_cold";
    const std::string warm = "campaignd_test_out/" + campaign + "_warm";
    fs::remove_all(cold);
    fs::remove_all(warm);
    ASSERT_EQ(run_cmd("./campaignd run " + file + " --out=" + cold +
                      " --workers=2 > " + cold + ".log 2>&1"),
              0)
        << campaign;
    const Json cold_status = status_of(cold);
    const long long jobs = cold_status.at("jobs_total").as_int();
    EXPECT_GE(jobs, 3) << campaign;
    EXPECT_EQ(cold_status.at("executed").as_int(), jobs) << campaign;
    EXPECT_EQ(cold_status.at("cache_hits").as_int(), 0) << campaign;

    ASSERT_EQ(run_cmd("./campaignd run " + file + " --out=" + warm +
                      " --cache=" + cold + "/cache > " + warm + ".log 2>&1"),
              0)
        << campaign;
    const Json warm_status = status_of(warm);
    EXPECT_EQ(warm_status.at("executed").as_int(), 0) << campaign;
    EXPECT_EQ(warm_status.at("executed_cycles").as_double(), 0.0) << campaign;
    EXPECT_EQ(warm_status.at("cache_hits").as_int(), jobs) << campaign;

    // Every cold per-job report replays byte-identically. (The merged
    // BENCH_campaign.json summary carries wall-clock fields, so it is the
    // one BENCH_*.json file exempt from the byte contract.)
    std::size_t compared = 0;
    for (const auto& entry : fs::directory_iterator(cold)) {
      const std::string name = entry.path().filename().string();
      if (name.rfind("BENCH_", 0) != 0 || name == "BENCH_campaign.json") continue;
      EXPECT_EQ(slurp(cold + "/" + name), slurp(warm + "/" + name)) << name;
      ++compared;
    }
    EXPECT_EQ(compared, static_cast<std::size_t>(jobs)) << campaign;
  }
}

// End-to-end exactly-once: many tiny jobs on many lanes, each child run
// logged by a runner wrapper (the child side), never by campaignd's own
// counters. Before the claim re-check, a job finished in the window
// between a lane's done check and its claim ran twice.
TEST_F(CampaigndEndToEnd, ManyLanesSpawnOneChildPerJob) {
  const std::string out = "campaignd_test_out/exactly_once";
  fs::remove_all(out);
  fs::create_directories(out);
  const std::string runs_log = fs::absolute(out + "/runs.log").string();
  const std::string wrapper = out + "/runner.sh";
  {
    std::ofstream script(wrapper);
    script << "#!/bin/sh\n"
           << "echo \"$2\" >> " << svc::shell_quote(runs_log) << "\n"
           << "exec " << svc::shell_quote(fs::absolute("campaignd").string())
           << " \"$@\"\n";
  }
  fs::permissions(wrapper, fs::perms::owner_all, fs::perm_options::add);
  std::ofstream spec(out + "/many.json");
  spec << R"({"name": "many", "defaults": {"cycles": 500, "threads": 1},
    "scenarios": [)";
  for (int i = 0; i < 6; ++i) {
    spec << (i ? "," : "") << R"({"name": "s)" << i
         << R"(", "experiment": "closed_loop",
           "trace": {"source": "synthetic", "style": "uniform", "seed": )"
         << i << R"(}, "controllers": ["threshold", "fixed_vs"]})";
  }
  spec << "]}";
  spec.close();

  ASSERT_EQ(run_cmd("./campaignd run " + out + "/many.json --out=" + out +
                    "/run --workers=6 --runner=" + wrapper + " > " + out + ".log 2>&1"),
            0)
      << slurp(out + ".log");
  const Json status = status_of(out + "/run");
  EXPECT_EQ(status.at("jobs_total").as_int(), 12);
  EXPECT_EQ(status.at("executed").as_int(), 12);

  std::map<std::string, int> runs;
  std::ifstream log(runs_log);
  for (std::string line; std::getline(log, line);) ++runs[line];
  EXPECT_EQ(runs.size(), 12u);
  for (const auto& [spec_path, count] : runs) EXPECT_EQ(count, 1) << spec_path;
}

// Two runs of one job publishing the same report at once (a duplicate
// run, or a resumed worker racing a live one) leave one complete report:
// the runner writes it atomically, never interleaved.
TEST_F(CampaigndEndToEnd, ConcurrentReportWritersLeaveOneCompleteReport) {
  const std::string out = "campaignd_test_out/report_race";
  fs::remove_all(out);
  fs::create_directories(out);
  std::ofstream(out + "/job.spec.json")
      << R"({"name": "uni", "experiment": "closed_loop",
        "trace": {"source": "synthetic", "style": "uniform", "seed": 3},
        "cycles": 2000, "threads": 1})";
  const std::string report = out + "/BENCH_uni.json";
  for (int round = 0; round < 4; ++round) {
    const std::string one = "./campaignd run-one " + out + "/job.spec.json --json=" +
                            report + " > /dev/null 2>&1";
    ASSERT_EQ(run_cmd("(" + one + " & " + one + " & wait)"), 0);
    const std::string bytes = slurp(report);
    EXPECT_NO_THROW(Json::parse(bytes)) << "round " << round << ":\n" << bytes;
  }
  std::size_t debris = 0;
  for (const auto& entry : fs::directory_iterator(out))
    if (entry.path().filename().string().find(".tmp.") != std::string::npos) ++debris;
  EXPECT_EQ(debris, 0u);
}

// `campaignd manifest` splits jobs across shards by content hash:
// exhaustive, disjoint, and stable.
TEST_F(CampaigndEndToEnd, ManifestPartitionsJobsByHash) {
  const std::string out = "campaignd_test_out/manifest";
  fs::remove_all(out);
  ASSERT_EQ(run_cmd("./campaignd manifest campaignd_test_out/tiny.json --shards=2 "
                    "--out=" + out + " > " + out + ".log 2>&1"),
            0);
  std::set<std::string> names;
  std::size_t total = 0;
  for (int s = 0; s < 2; ++s) {
    const Json shard = Json::parse(
        slurp(out + "/shard_" + std::to_string(s) + "_of_2.json"));
    EXPECT_EQ(shard.at("campaign").as_string(), "tiny");
    EXPECT_EQ(shard.at("shards").as_int(), 2);
    for (const auto& entry : shard.at("jobs").items()) {
      EXPECT_TRUE(names.insert(entry.at("name").as_string()).second);
      ++total;
    }
  }
  EXPECT_EQ(total, 3u);
  EXPECT_EQ(names.count("sweep"), 1u);
}

}  // namespace
}  // namespace razorbus
