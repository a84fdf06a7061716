"""Seeded campaign generators for the benchmark's workloads.

Each generator returns a Workload: the campaign document `campaignd run`
reads, built only from the seed (the same seed always gives the same
jobs), plus what the checks need — the (materialized, streamed) twin job
pairs and the jobs whose inputs do not depend on the seed. At
DEFAULT_SEED `cold_quick` is exactly the repository's quick campaign
(campaigns/quick.json, trace seed 24101).
"""

from dataclasses import dataclass, field

DEFAULT_SEED = 0

STYLES = ["uniform", "random_walk", "fp_like", "pointer_like", "sparse", "worst_case"]
WIDTHS = [16, 32, 64, 128]
WARM_LONG_CYCLES = 4_000_000


@dataclass
class Workload:
    campaign: dict
    warm: bool  # starts from a characterized LUT cache
    twins: list = field(default_factory=list)  # (materialized, streamed) job pairs
    seed_free: set = field(default_factory=set)  # jobs the seed does not change


def _trace_seed(seed, salt):
    # Distinct, reproducible synthetic-trace seeds per (benchmark seed, job).
    return 24101 + 7919 * seed + salt


def _synthetic(seed, salt, style="uniform"):
    return {"source": "synthetic", "style": style, "load_rate": 0.4,
            "seed": _trace_seed(seed, salt)}


def cold_quick(seed):
    trace = _synthetic(seed, 0)
    campaign = {
        "name": "quick",
        "description": "CI smoke campaign: the acceptance scenarios plus a declarative "
                       "cross-product, at budgets that finish in minutes",
        "defaults": {"cycles": 20000},
        "scenarios": [
            {"bench": "fig4_voltage_sweep"},
            {"bench": "fig8_dvs_trace", "flags": {"max_rows": 16}},
            {"bench": "table1_dvs_gains", "cycles": 10000},
            {"name": "uniform_dvs", "experiment": "closed_loop", "trace": trace,
             "widths": [32, 64], "controllers": ["threshold", "fixed_vs"],
             "cycles": 30000},
            {"name": "uniform_dvs_streamed", "experiment": "closed_loop", "trace": trace,
             "cycles": 30000, "stream": True},
            {"name": "sweep_simd_streamed", "experiment": "static_sweep", "trace": trace,
             "cycles": 30000, "engine": "simd", "stream": True},
        ],
    }
    return Workload(campaign, warm=False,
                    twins=[("uniform_dvs_w32_threshold", "uniform_dvs_streamed")],
                    seed_free={"fig4_voltage_sweep", "fig8_dvs_trace", "table1_dvs_gains"})


def warm_long(seed):
    cycles = WARM_LONG_CYCLES
    closed = {"experiment": "closed_loop", "trace": _synthetic(seed, 1),
              "widths": [32, 64], "controllers": ["threshold", "fixed_vs"],
              "cycles": cycles}
    lanes = [{"width": width, "trace": _synthetic(seed, 10 + i, style)}
             for i, (width, style) in enumerate([(32, "uniform"), (64, "fp_like"),
                                                 (128, "pointer_like")])]
    campaign = {
        "name": "warm_long",
        "description": "multi-million-cycle closed loops with streamed twins, a SIMD "
                       "sweep, a mini-CPU suite and a drifting 3-bus system",
        "defaults": {"threads": 1},
        "scenarios": [
            dict(closed, name="closed"),
            dict(closed, name="closed_streamed", stream=True),
            {"name": "sweep_simd", "experiment": "static_sweep",
             "trace": _synthetic(seed, 2), "engine": "simd", "cycles": cycles // 4},
            {"name": "cpu_suite", "experiment": "closed_loop",
             "trace": {"source": "suite"}, "cycles": cycles // 20},
            {"name": "three_bus_drift", "experiment": "multi_bus", "buses": lanes,
             "drift": {"temp_start": 25.0, "temp_end": 100.0,
                       "vth_shift_start": 0.0, "vth_shift_end": 0.05},
             "cycles": cycles * 3 // 8},
        ],
    }
    twins = [(f"closed_w{w}_{c}", f"closed_streamed_w{w}_{c}")
             for w in (32, 64) for c in ("threshold", "fixed_vs")]
    return Workload(campaign, warm=True, twins=twins, seed_free={"cpu_suite"})


def many_small(seed):
    controllers = ["threshold", "fixed_vs", "proportional"]
    scenarios, twins = [], []
    for i, style in enumerate(STYLES):
        closed = {"experiment": "closed_loop", "trace": _synthetic(seed, 100 + i, style),
                  "widths": WIDTHS, "controllers": controllers}
        scenarios.append(dict(closed, name=style))
        scenarios.append(dict(closed, name=style + "_streamed", stream=True))
        scenarios.append({"name": style + "_sweep", "experiment": "static_sweep",
                          "trace": closed["trace"], "widths": WIDTHS,
                          "engine": "simd" if i % 2 else "bit_parallel"})
        twins += [(f"{style}_w{w}_{c}", f"{style}_streamed_w{w}_{c}")
                  for w in WIDTHS for c in controllers]
    campaign = {
        "name": "many_small",
        "description": "168 short jobs, so per-job fixed costs dominate",
        "defaults": {"cycles": 20000, "threads": 1},
        "scenarios": scenarios,
    }
    return Workload(campaign, warm=True, twins=twins)


WORKLOADS = {"cold_quick": cold_quick, "warm_long": warm_long, "many_small": many_small}
