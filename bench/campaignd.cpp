// campaignd — the campaign binary (docs/campaignd.md).
//
//   campaignd run <campaign.json> [--out=DIR] [--cache=DIR] [--workers=N]
//                 [--runner=BIN] [--force] [--max_jobs=N] [--shard=K/N]
//                 [--json=PATH]
//   campaignd worker [--out=DIR] [--cache=DIR] [--runner=BIN] [--workers=N]
//                 [--max_jobs=N]
//   campaignd status [--out=DIR]      (also: campaignd --status)
//   campaignd manifest <campaign.json> --shards=N [--out=DIR]
//   campaignd hash <campaign.json>
//   campaignd list
//   campaignd run-one <job.spec.json> --json=PATH
//
// `run` expands the campaign into jobs, reconciles them against the
// durable queue under <out>/queue (a worker killed mid-campaign resumes
// without re-running completed jobs), and schedules them across --workers
// claim loops. Every job is first looked up in the content-hash result
// cache under <out>/cache (shareable across campaigns, CI runs and hosts
// via --cache): a hit replays the stored BENCH_<job>.json byte-for-byte
// with zero simulated cycles; a miss runs the job as a `run-one` child of
// --runner (default: this binary). `worker` attaches additional processes
// to the same queue — the O_EXCL claim protocol makes them steal work
// safely. `manifest` splits a campaign across hosts by content hash; each
// host runs its shard (--shard=K/N) against a shared cache. `status`
// prints the live status snapshot campaignd maintains at
// <out>/status.json. `hash` prints every expanded job with its content
// hash; `list` prints the registered bench scenarios. `run-one` executes
// one expanded job in-process through the same run_scenario path as the
// standalone bench binaries, so a bench job's report is byte-identical to
// theirs (modulo wall-clock fields; tests/campaign_test.cpp).
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "core/job_hash.hpp"
#include "core/scenario_spec.hpp"
#include "lut/table.hpp"
#include "scenario_registry.hpp"
#include "scenarios/scenarios.hpp"
#include "svc/service.hpp"
#include "util/cli.hpp"
#include "util/fsio.hpp"

using namespace razorbus;
using namespace razorbus::bench;

namespace fs = std::filesystem;

namespace {

// The binary whose `run-one` executes a single job: this one by default,
// overridable with --runner. An argv[0] with a '/' is a path, made
// absolute; a bare name was found through PATH, which the children
// inherit, so it stays bare.
std::string default_runner(const char* argv0) {
  const std::string self(argv0);
  return self.find('/') == std::string::npos ? self : fs::absolute(self).string();
}

struct Expanded {
  core::CampaignSpec campaign;
  std::vector<core::ScenarioJob> jobs;
};

Expanded expand(const std::string& campaign_path) {
  Expanded out;
  out.campaign = core::CampaignSpec::from_file(campaign_path);
  out.jobs = core::expand_campaign(out.campaign);
  // Fail-fast contract (DESIGN.md §11): a typo'd bench name must surface
  // before any job burns its budget.
  for (const auto& job : out.jobs)
    if (job.spec.kind == core::ScenarioSpec::Kind::bench)
      scenario_by_name(job.spec.bench);  // throws, listing the known names
  return out;
}

// --shard=K/N ("this host runs hash-assigned shard K of N").
void parse_shard(const std::string& text, svc::ServiceConfig& config) {
  const auto slash = text.find('/');
  if (slash == std::string::npos)
    throw std::invalid_argument("--shard wants K/N, got '" + text + "'");
  const int index = std::stoi(text.substr(0, slash));
  const int count = std::stoi(text.substr(slash + 1));
  if (count <= 0 || index < 0 || index >= count)
    throw std::invalid_argument("--shard=" + text + " out of range");
  config.shard_index = index;
  config.shard_count = count;
}

void print_summary(const char* name, const svc::CampaignService::Summary& s,
                   const std::string& wrote) {
  const auto cached = s.cached_prior + static_cast<std::size_t>(s.cache_hits);
  std::printf("\n[%s: %zu job(s), %zu cached (%llu cache hit(s)), %zu executed, "
              "%zu failed, %.2f s]%s%s\n",
              name, s.jobs_total, cached,
              static_cast<unsigned long long>(s.cache_hits), s.executed, s.failed,
              s.wall_seconds, wrote.empty() ? "" : " wrote ", wrote.c_str());
}

int run(const char* argv0, const std::string& campaign_path, const CliFlags& flags) {
  Expanded ex = expand(campaign_path);

  svc::ServiceConfig config;
  config.out_dir = flags.get("out", "campaign_out/" + ex.campaign.name);
  config.cache_dir = flags.get("cache", "");
  config.runner = flags.get("runner", default_runner(argv0));
  config.workers = static_cast<unsigned>(
      std::max<std::int64_t>(1, flags.get_int("workers", 1)));
  config.force = flags.get_bool("force", false);
  config.max_jobs = static_cast<std::size_t>(
      std::max<std::int64_t>(0, flags.get_int("max_jobs", 0)));
  const std::string shard = flags.get("shard", "");
  if (!shard.empty()) parse_shard(shard, config);
  const std::string consolidated = flags.get(
      "json", (fs::path(config.out_dir) / "BENCH_campaign.json").string());
  flags.reject_unused();

  std::printf("campaignd '%s': %zu scenario(s) -> %zu job(s)%s\n",
              ex.campaign.name.c_str(), ex.campaign.scenarios.size(), ex.jobs.size(),
              shard.empty() ? "" : (" (shard " + shard + ")").c_str());

  svc::CampaignService service(std::move(ex.campaign), std::move(ex.jobs),
                               std::move(config));
  service.prepare();
  const auto summary = service.run();
  util::write_file_atomic(consolidated, service.aggregate().dump(2) + "\n");
  print_summary(service.config().out_dir.c_str(), summary, consolidated);
  if (!summary.drained)
    std::printf("queue not drained (max_jobs budget or external claims): resume "
                "with `campaignd run` or attach `campaignd worker`\n");
  return summary.failed == 0 ? 0 : 1;
}

int worker(const char* argv0, const CliFlags& flags) {
  svc::ServiceConfig config;
  config.out_dir = flags.get("out", "campaign_out");
  config.cache_dir = flags.get("cache", "");
  config.runner = flags.get("runner", default_runner(argv0));
  config.workers = static_cast<unsigned>(
      std::max<std::int64_t>(1, flags.get_int("workers", 1)));
  config.max_jobs = static_cast<std::size_t>(
      std::max<std::int64_t>(0, flags.get_int("max_jobs", 0)));
  // A worker's status snapshots must not clobber the owning scheduler's.
  config.status_path =
      (fs::path(config.out_dir) / ("status.worker" + std::to_string(::getpid()) +
                                   ".json")).string();
  flags.reject_unused();

  svc::CampaignService service(std::move(config));
  if (service.queue().jobs().empty()) {
    std::printf("campaignd worker: nothing queued under %s\n",
                service.config().out_dir.c_str());
    return 0;
  }
  const auto summary = service.run();
  print_summary("worker", summary, "");
  return summary.failed == 0 ? 0 : 1;
}

int status(const CliFlags& flags) {
  const std::string out_dir = flags.get("out", "campaign_out");
  flags.reject_unused();
  const std::string path = (fs::path(out_dir) / "status.json").string();
  Json status_json;
  try {
    status_json = Json::parse_file(path);
  } catch (const std::exception&) {
    std::printf("campaignd: no status at %s (has a campaign run here?)\n",
                path.c_str());
    return 1;
  }
  const auto count = [&](const char* key) {
    const Json* v = status_json.find(key);
    return v != nullptr && v->is_number() ? v->as_double() : 0.0;
  };
  std::printf("campaign '%s' (%s)\n", status_json.at("campaign").as_string().c_str(),
              out_dir.c_str());
  std::printf("  jobs: %.0f total, %.0f pending, %.0f running, %.0f done, "
              "%.0f failed\n",
              count("jobs_total"), count("pending"), count("running"), count("done"),
              count("failed"));
  std::printf("  cache: %.0f hit(s), %.0f miss(es), hit rate %.0f%%, "
              "%.0f resumed-as-done\n",
              count("cache_hits"), count("cache_misses"),
              100.0 * count("cache_hit_rate"), count("cached_prior"));
  std::printf("  throughput: %.0f executed (%.0f simulated cycles), %.2f s, "
              "%.2f jobs/s\n",
              count("executed"), count("executed_cycles"), count("wall_seconds"),
              count("jobs_per_second"));
  if (const Json* jobs = status_json.find("jobs"); jobs != nullptr && jobs->is_object())
    for (const auto& [name, state] : jobs->members())
      std::printf("    %-40s %s\n", name.c_str(), state.as_string().c_str());
  return 0;
}

int manifest(const std::string& campaign_path, const CliFlags& flags) {
  Expanded ex = expand(campaign_path);
  const auto shards = static_cast<int>(flags.get_int("shards", 0));
  if (shards <= 0) throw std::invalid_argument("manifest wants --shards=N (N >= 1)");
  const std::string out_dir = flags.get("out", "campaign_out/" + ex.campaign.name);
  flags.reject_unused();

  fs::create_directories(out_dir);
  std::vector<Json> lists;
  for (int s = 0; s < shards; ++s) lists.push_back(Json::array());
  for (const auto& job : ex.jobs) {
    const auto shard = static_cast<int>(core::job_content_hash(job) %
                                        static_cast<std::uint64_t>(shards));
    Json entry = Json::object();
    entry.set("name", job.name);
    entry.set("hash", core::job_hash_hex(job));
    lists[static_cast<std::size_t>(shard)].push(std::move(entry));
  }
  for (int s = 0; s < shards; ++s) {
    Json doc = Json::object();
    doc.set("campaign", ex.campaign.name);
    doc.set("shard", s);
    doc.set("shards", shards);
    doc.set("hash_scheme", static_cast<long long>(core::kJobHashSchemeVersion));
    doc.set("jobs", std::move(lists[static_cast<std::size_t>(s)]));
    const std::string path =
        (fs::path(out_dir) / ("shard_" + std::to_string(s) + "_of_" +
                              std::to_string(shards) + ".json")).string();
    util::write_file_atomic(path, doc.dump(2) + "\n");
    std::printf("  shard %d/%d: %zu job(s) -> %s\n", s, shards,
                doc.at("jobs").size(), path.c_str());
  }
  std::printf("run each shard with `campaignd run %s --shard=K/%d` against a "
              "shared --cache directory\n",
              campaign_path.c_str(), shards);
  return 0;
}

int hash(const std::string& campaign_path, const CliFlags& flags) {
  Expanded ex = expand(campaign_path);
  flags.reject_unused();
  std::printf("hash scheme v%u, simulator v%u\n", core::kJobHashSchemeVersion,
              lut::kSimulatorVersion);
  for (const auto& job : ex.jobs)
    std::printf("  %s  %s\n", core::job_hash_hex(job).c_str(), job.name.c_str());
  return 0;
}

int list() {
  std::printf("registered bench scenarios (usable as \"bench\" spec entries):\n");
  for (const auto& scenario : all_scenarios())
    std::printf("  %-26s %s\n", scenario.name.c_str(), scenario.description.c_str());
  return 0;
}

// Executes one expanded job in-process: the synthesized argv is exactly
// what the standalone binary would have been given.
int run_one(const std::string& spec_path, const std::string& json_flag) {
  const core::ScenarioSpec spec =
      core::ScenarioSpec::from_json(Json::parse_file(spec_path));
  const Scenario scenario = make_job_scenario(spec, spec_path);

  std::vector<std::string> args;
  args.push_back("campaignd run-one");
  if (scenario.default_cycles > 0 && spec.cycles > 0)
    args.push_back("--cycles=" + std::to_string(spec.cycles));
  args.push_back("--threads=" + std::to_string(spec.threads));
  args.push_back(json_flag);
  for (const auto& [key, value] : spec.flags) args.push_back("--" + key + "=" + value);
  std::vector<char*> argv;
  argv.reserve(args.size());
  for (auto& arg : args) argv.push_back(arg.data());
  return run_scenario(static_cast<int>(argv.size()), argv.data(), scenario);
}

}  // namespace

int main(int argc, char** argv) {
  try {
    CliFlags flags(argc, argv);
    const auto& positional = flags.positional();
    std::string command = positional.empty() ? "" : positional[0];
    if (command.empty() && flags.has("status")) command = "status";

    if (command == "run") {
      if (positional.size() != 2)
        throw std::invalid_argument(
            "usage: campaignd run <campaign.json> [--out=DIR] [--cache=DIR] "
            "[--workers=N] [--runner=BIN] [--force] [--max_jobs=N] "
            "[--shard=K/N] [--json=PATH]");
      return run(argv[0], positional[1], flags);
    }
    if (command == "worker") return worker(argv[0], flags);
    if (command == "status") {
      (void)flags.get_bool("status", false);  // accept the --status alias
      return status(flags);
    }
    if (command == "manifest") {
      if (positional.size() != 2)
        throw std::invalid_argument(
            "usage: campaignd manifest <campaign.json> --shards=N [--out=DIR]");
      return manifest(positional[1], flags);
    }
    if (command == "hash") {
      if (positional.size() != 2)
        throw std::invalid_argument("usage: campaignd hash <campaign.json>");
      return hash(positional[1], flags);
    }
    if (command == "list") {
      if (positional.size() != 1)
        throw std::invalid_argument("usage: campaignd list (a campaign's expanded jobs: "
                                    "campaignd hash <campaign.json>)");
      flags.reject_unused();
      return list();
    }
    if (command == "run-one") {
      if (positional.size() != 2)
        throw std::invalid_argument(
            "usage: campaignd run-one <job.spec.json> [--json=PATH]");
      const std::string json_flag = "--json=" + flags.get("json", "true");
      flags.reject_unused();
      return run_one(positional[1], json_flag);
    }
    throw std::invalid_argument(
        "usage: campaignd run <campaign.json> | campaignd worker | "
        "campaignd status | campaignd manifest <campaign.json> --shards=N | "
        "campaignd hash <campaign.json> | campaignd list | "
        "campaignd run-one <job.spec.json>");
  } catch (const std::exception& e) {
    std::fprintf(stderr, "campaignd: %s\n", e.what());
    return 2;
  }
}
