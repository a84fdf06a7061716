#include "core/bench_gate.hpp"

#include <algorithm>
#include <map>
#include <vector>

namespace razorbus::core {

namespace {

bool has_suffix(const std::string& key, const std::string& suffix) {
  return key.size() > suffix.size() &&
         key.compare(key.size() - suffix.size(), suffix.size(), suffix) == 0;
}

bool is_throughput_key(const std::string& key) { return has_suffix(key, "_cps"); }

// Cost convention: transient-run counts of the characterization build
// ("lut_warm_sims" and friends). Lower is better, so the regression
// predicate is inverted relative to throughput keys.
bool is_cost_key(const std::string& key) { return has_suffix(key, "_sims"); }

// Flattens every numeric gated leaf ("_cps" or "_sims") of a report into
// path -> value. std::map keeps the comparison output in a stable,
// runner-independent order.
void collect_gated(const Json& json, const std::string& prefix,
                   std::map<std::string, double>& out) {
  if (!json.is_object()) return;
  for (const auto& [key, value] : json.members()) {
    const std::string path = prefix.empty() ? key : prefix + "/" + key;
    if (value.is_object())
      collect_gated(value, path, out);
    else if (value.is_number() && (is_throughput_key(key) || is_cost_key(key)))
      out[path] = value.as_double();
  }
}

// Shared comparison core: gates a flattened current-metric map against a
// flattened baseline map (however the baseline was derived — one report or
// a history median).
BenchGateResult compare_gated_maps(const std::map<std::string, double>& base_metrics,
                                   const std::map<std::string, double>& cur_metrics,
                                   double threshold);

}  // namespace

BenchGateResult compare_bench_reports(const Json& baseline, const Json& current,
                                      double threshold) {
  std::map<std::string, double> base_metrics, cur_metrics;
  collect_gated(baseline, "", base_metrics);
  collect_gated(current, "", cur_metrics);
  return compare_gated_maps(base_metrics, cur_metrics, threshold);
}

BenchGateResult compare_bench_history(const std::vector<Json>& history,
                                      const Json& current, double threshold) {
  // Per-metric value series across the window; a metric missing from some
  // entries (scenario added mid-window) is judged on the entries it has.
  std::map<std::string, std::vector<double>> series;
  for (const Json& entry : history) {
    std::map<std::string, double> metrics;
    collect_gated(entry, "", metrics);
    for (const auto& [path, value] : metrics) series[path].push_back(value);
  }
  std::map<std::string, double> base_metrics;
  for (auto& [path, values] : series) {
    std::sort(values.begin(), values.end());
    base_metrics[path] = values[(values.size() - 1) / 2];  // lower median
  }
  std::map<std::string, double> cur_metrics;
  collect_gated(current, "", cur_metrics);
  return compare_gated_maps(base_metrics, cur_metrics, threshold);
}

namespace {

BenchGateResult compare_gated_maps(const std::map<std::string, double>& base_metrics,
                                   const std::map<std::string, double>& cur_metrics,
                                   double threshold) {
  BenchGateResult result;
  result.threshold = threshold;
  for (const auto& [path, base_value] : base_metrics) {
    const auto cur = cur_metrics.find(path);
    if (cur == cur_metrics.end()) {
      result.missing.push_back(path);
      continue;
    }
    // The leaf key decides the convention; the path segments above it are
    // scenario names.
    const std::size_t slash = path.rfind('/');
    const std::string leaf = slash == std::string::npos ? path : path.substr(slash + 1);
    BenchGateFinding finding;
    finding.path = path;
    finding.baseline = base_value;
    finding.current = cur->second;
    finding.ratio = base_value > 0.0 ? cur->second / base_value : 1.0;
    finding.cost = is_cost_key(leaf);
    if (finding.cost) {
      // A zero baseline means a fully warm run (lut_warm_sims): any sim at
      // all is a regression, not a ratio question.
      finding.regression = base_value > 0.0
                               ? cur->second > base_value * (1.0 + threshold)
                               : cur->second > 0.0;
    } else {
      finding.regression =
          base_value > 0.0 && cur->second < base_value * (1.0 - threshold);
    }
    result.compared.push_back(std::move(finding));
  }
  for (const auto& [path, value] : cur_metrics) {
    (void)value;
    if (base_metrics.find(path) == base_metrics.end()) result.added.push_back(path);
  }
  return result;
}

}  // namespace

}  // namespace razorbus::core
