#include "core/job_hash.hpp"

#include <cstdio>
#include <fstream>
#include <sstream>

#include "lut/table.hpp"

namespace razorbus::core {
namespace {

// Content hash of a trace file's bytes, or a marker when the file cannot
// be read. An unreadable trace must not abort identity computation — the
// job itself will fail (and be recorded as failed) when it tries to load
// the trace, which is the same behavior the batch runner always had.
std::string trace_file_digest(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return "unreadable";
  lut::Fnv1a fnv;
  char buf[1 << 16];
  while (in.read(buf, sizeof(buf)) || in.gcount() > 0) {
    fnv.mix(buf, static_cast<std::size_t>(in.gcount()));
    if (!in) break;
  }
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(fnv.h));
  return hex;
}

}  // namespace

std::string job_identity(const ScenarioJob& job) {
  std::ostringstream id;
  id << "razorbus-job-v" << kJobHashSchemeVersion << "\n";
  id << "sim-v" << lut::kSimulatorVersion << "\n";
  id << "name=" << job.name << "\n";
  // The resolved spec's canonical JSON: ScenarioSpec::to_json emits every
  // field in a fixed order, so equal specs produce equal bytes. The full
  // spec is hashed — including `threads`, which cannot change results
  // (DESIGN.md §9) but keeps the identity conservative and simple.
  id << "spec=" << job.spec.to_json().dump(0) << "\n";
  if (job.spec.trace.source == TraceSpec::Source::file) {
    id << "trace-file=" << trace_file_digest(job.spec.trace.path) << "\n";
  }
  return id.str();
}

std::uint64_t job_content_hash(const ScenarioJob& job) {
  lut::Fnv1a fnv;
  const std::string identity = job_identity(job);
  fnv.mix(identity.data(), identity.size());
  return fnv.h;
}

std::string job_hash_hex(const ScenarioJob& job) {
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(job_content_hash(job)));
  return hex;
}

}  // namespace razorbus::core
