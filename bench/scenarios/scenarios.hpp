// Scenario factories: one per reproduction harness.
//
// Each bench/scenarios/*.cpp builds the Scenario (name, banner, paper
// reference, default cycle budget, run body) that used to live in that
// harness's main(). The standalone binaries and `campaignd run-one` both
// fetch them through scenario_registry.hpp, so a campaign job and the
// legacy binary execute the exact same code path — which is what makes
// their JSON reports byte-identical (enforced by tests/campaign_test.cpp).
#pragma once

#include <string>

#include "bench_common.hpp"
#include "core/scenario_spec.hpp"

namespace razorbus::bench {

Scenario make_fig4_voltage_sweep_scenario();
Scenario make_fig5_pvt_gains_scenario();
Scenario make_fig6_voltage_distribution_scenario();
Scenario make_fig8_dvs_trace_scenario();
Scenario make_fig10_modified_bus_scenario();
Scenario make_table1_dvs_gains_scenario();
Scenario make_ablation_controller_scenario();
Scenario make_ablation_encoding_scenario();
Scenario make_ablation_pvt_sampling_scenario();
Scenario make_ablation_repeater_scenario();
Scenario make_scaling_study_scenario();
Scenario make_width_sweep_scenario();
// perf_microbench's measurement suite (engine / width / executor
// throughput); the google-benchmark layer stays in the binary.
Scenario make_engine_scenario();

// The Scenario one expanded campaign job runs (bench/scenarios/
// declarative.cpp): the registered scenario a "bench" spec names, or the
// declarative closed-loop, multi-bus or static-sweep body the spec
// describes, whose paper_ref names `spec_path`. Throws on an unknown bench
// name or a declarative spec without a cycle budget.
Scenario make_job_scenario(const core::ScenarioSpec& spec, const std::string& spec_path);

}  // namespace razorbus::bench
