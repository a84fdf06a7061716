// docs/campaigns.md must document EXACTLY the keys the strict campaign
// parser accepts — no more, no less. The parser throws on unknown keys, so
// the set of keys it LOOKS UP equals the set it accepts;
// core::record_accepted_keys captures that set while parsing an exemplar
// campaign that exercises every branch, and this test diffs it against the
// keys extracted from the schema tables in docs/campaigns.md (the blocks
// fenced by `<!-- schema:NAME -->` / `<!-- /schema -->` markers). Adding a
// spec key without a doc row — or documenting a key the parser would
// reject — fails here, which is what keeps the schema reference honest.
// A second check holds the docs' `./build/<prog>` commands to the
// executables the build defines.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "core/scenario_spec.hpp"
#include "util/json.hpp"

using namespace razorbus;

namespace {

// One campaign that walks every parser branch: a bench reference with
// flags, a closed_loop with every declarative knob and both tunable
// controller kinds, a static_sweep, a multi_bus with lanes + arbitration +
// a linear drift ramp, a piecewise drift schedule, and every trace source
// / corner form.
const char* kExemplarCampaign = R"JSON({
  "name": "exemplar",
  "description": "covers every schema branch",
  "defaults": {"cycles": 1000, "threads": 2},
  "scenarios": [
    {"bench": "fig4_voltage_sweep", "name": "bench_job", "cycles": 500,
     "threads": 1, "flags": {"max_rows": 4}},
    {"name": "cl", "experiment": "closed_loop",
     "trace": {"source": "synthetic", "style": "uniform", "load_rate": 0.4,
               "activity": 0.5, "seed": 7},
     "widths": [16, 32],
     "controllers": ["fixed_vs",
                     {"kind": "threshold", "label": "tight", "low": 0.005,
                      "high": 0.01, "window": 5000, "step": 0.02},
                     {"kind": "proportional", "target": 0.015, "gain": 2.0,
                      "window": 5000, "max_step": 0.04}],
     "corners": ["typical", {"process": "fast", "temp_c": 25, "ir_drop": 0.05}],
     "encoding": "bus_invert", "engine": "reference",
     "timing_jitter_sigma": 3e-12, "stream": true},
    {"name": "sweep_bench_trace", "experiment": "static_sweep",
     "trace": {"source": "benchmark", "name": "crafty"}},
    {"name": "sweep_suite", "experiment": "static_sweep",
     "trace": {"source": "suite"}},
    {"name": "sweep_file", "experiment": "static_sweep",
     "trace": {"source": "file", "path": "some.rbtrace"}},
    {"name": "soc", "experiment": "multi_bus", "arbitration": "weighted",
     "buses": [{"width": 16, "weight": 0.5,
                "trace": {"source": "synthetic", "style": "sparse", "seed": 2}},
               {"width": 64}],
     "drift": {"temp_start": 25.0, "temp_end": 100.0,
               "vth_shift_start": 0.0, "vth_shift_end": 0.05}},
    {"name": "cl_aging", "experiment": "closed_loop",
     "drift": {"points": [{"cycle": 0, "temp_c": 25.0, "vth_shift": 0.0},
                          {"cycle": 900, "temp_c": 100.0, "vth_shift": 0.03}]}}
  ]
})JSON";

std::string docs_path() {
  return std::string(RAZORBUS_SOURCE_DIR) + "/docs/campaigns.md";
}

// Keys per schema block: first backticked token of each table row inside
// `<!-- schema:NAME -->` ... `<!-- /schema -->`.
std::map<std::string, std::set<std::string>> documented_keys(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.is_open()) << "cannot open " << path;
  std::map<std::string, std::set<std::string>> keys;
  std::string section;
  for (std::string line; std::getline(in, line);) {
    const std::string open = "<!-- schema:";
    const auto at = line.find(open);
    if (at != std::string::npos) {
      const auto end = line.find(" -->", at);
      EXPECT_NE(end, std::string::npos) << "malformed marker: " << line;
      section = line.substr(at + open.size(), end - at - open.size());
      keys[section];  // a block may legitimately document zero keys
      continue;
    }
    if (line.find("<!-- /schema -->") != std::string::npos) {
      section.clear();
      continue;
    }
    if (section.empty()) continue;
    // Table rows look like: | `key` | type | ...
    const auto tick = line.find("| `");
    if (tick == std::string::npos) continue;
    const auto start = tick + 3;
    const auto close = line.find('`', start);
    if (close == std::string::npos) continue;
    keys[section].insert(line.substr(start, close - start));
  }
  EXPECT_TRUE(section.empty()) << "unclosed schema block '" << section << "'";
  return keys;
}

std::string join(const std::set<std::string>& keys) {
  std::ostringstream out;
  for (const auto& key : keys) out << key << " ";
  return out.str();
}

}  // namespace

TEST(DocsSchema, ExemplarExercisesEveryObject) {
  const auto accepted = core::record_accepted_keys(Json::parse(kExemplarCampaign));
  for (const char* section : {"campaign", "defaults", "scenario", "trace",
                              "controllers", "corners", "buses", "drift",
                              "drift_points"})
    EXPECT_TRUE(accepted.count(section))
        << "exemplar campaign never parsed a '" << section << "' object";
}

TEST(DocsSchema, DocumentedKeysMatchParserExactly) {
  const auto accepted = core::record_accepted_keys(Json::parse(kExemplarCampaign));
  const auto documented = documented_keys(docs_path());

  for (const auto& [section, keys] : accepted) {
    ASSERT_TRUE(documented.count(section))
        << "docs/campaigns.md has no `<!-- schema:" << section << " -->` block";
    EXPECT_EQ(documented.at(section), keys)
        << "section '" << section << "': parser accepts [" << join(keys)
        << "] but docs/campaigns.md documents [" << join(documented.at(section)) << "]";
  }
  for (const auto& [section, keys] : documented)
    EXPECT_TRUE(accepted.count(section))
        << "docs/campaigns.md documents unknown schema block '" << section << "'";
}

TEST(DocsSchema, ParserStaysStrict) {
  // The equivalence above rests on "looked up == accepted": verify the
  // strict half still holds by smuggling one unknown key into an
  // otherwise-valid document.
  Json campaign = Json::parse(kExemplarCampaign);
  campaign.set("cycels", 42);  // the canonical typo
  EXPECT_THROW(core::record_accepted_keys(campaign), std::invalid_argument);
  EXPECT_THROW(core::CampaignSpec::from_json(campaign), std::invalid_argument);
}

// Every `./build/<prog>` command the docs show must name an executable
// CMakeLists.txt defines (RAZORBUS_EXECUTABLES, space-separated), so a
// deleted or renamed binary cannot stay documented.
TEST(DocsCommands, BuildCommandsNameDefinedExecutables) {
  std::set<std::string> executables;
  std::istringstream names(RAZORBUS_EXECUTABLES);
  for (std::string name; names >> name;) executables.insert(name);
  ASSERT_TRUE(executables.count("campaignd")) << RAZORBUS_EXECUTABLES;

  const std::string root = RAZORBUS_SOURCE_DIR;
  std::vector<std::string> docs = {root + "/README.md", root + "/DESIGN.md"};
  for (const auto& entry : std::filesystem::directory_iterator(root + "/docs"))
    if (entry.path().extension() == ".md") docs.push_back(entry.path().string());

  const std::string prefix = "./build/";
  const std::string name_chars =
      "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_";
  std::size_t checked = 0;
  for (const std::string& doc : docs) {
    std::ifstream in(doc);
    ASSERT_TRUE(static_cast<bool>(in)) << doc;
    std::ostringstream text;
    text << in.rdbuf();
    const std::string body = text.str();
    for (auto at = body.find(prefix); at != std::string::npos;
         at = body.find(prefix, at + 1)) {
      const auto start = at + prefix.size();
      const std::string program =
          body.substr(start, body.find_first_not_of(name_chars, start) - start);
      EXPECT_TRUE(executables.count(program))
          << doc << " runs ./build/" << program
          << ", which CMakeLists.txt does not define";
      ++checked;
    }
  }
  EXPECT_GT(checked, 0u);
}
