#!/usr/bin/env python3
"""Campaign benchmark: whole `campaignd run` campaigns, end to end.

  python3 perfbench/run.py --workload cold_quick --seed 0 --seconds 20 --trace 0

Run from the repository root. The first run builds the programs from source
into .bench_build/ (Release); every file the benchmark writes stays there.

--trace 0 (timed mode) sets up the workload's start state several times,
then runs its generated campaign through `campaignd run` back to back until
--seconds are spent (at least once), checks every job's report, and prints
the end-to-end metrics. --trace 1 (traced mode) runs the campaign once
untraced and once traced — a logging --runner wrapper counts child runs
from the child side — then runs the layer probe, writes every span to
.bench_build/traces/, and prints the per-layer metrics. The last line of
stdout is always one JSON object: correct, attempted, failed, metrics.
See perfbench/README.md for the metrics, workloads and baseline.
"""

import argparse
import hashlib
import itertools
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout

import checks  # noqa: E402
import workloads  # noqa: E402

BUILD = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
CMAKE_DIR = os.path.join(BUILD, "cmake")
BIN_DIR = os.path.join(CMAKE_DIR, "razorbus")
WORK = os.path.join(BUILD, "work")
REFERENCE_DIR = os.path.join(HERE, "reference")
# Set-up takes milliseconds, so its median needs many samples to hold still.
SETUPS_PER_RUN = 15
# Four claim lanes, as the ROADMAP runs the quick campaign, capped by usable cores.
WORKERS = max(1, min(4, len(os.sched_getaffinity(0))))


class BenchError(Exception):
    """The benchmark cannot run here (no sources, failed build)."""


# ------------------------------------------------------------------ spans

class Tracer:
    """Spans (name, start, end, parent) kept in memory, written at the end."""

    def __init__(self):
        self.spans = []

    def begin(self, name, parent=None):
        self.spans.append({"id": len(self.spans), "name": name,
                           "start": time.monotonic(), "end": None, "parent": parent})
        return len(self.spans) - 1

    def end(self, span_id):
        self.spans[span_id]["end"] = time.monotonic()

    def add(self, name, start, end, parent):
        self.spans.append({"id": len(self.spans), "name": name, "start": start,
                           "end": end, "parent": parent})

    def graft(self, spans, parent):
        """Adds another tracer's spans (ids local to it) under `parent`."""
        base = len(self.spans)
        for s in spans:
            local = s["parent"]
            self.add(s["name"], s["start"], s["end"],
                     parent if local < 0 else base + local)

    def write(self, path):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as f:
            json.dump({"clock": "CLOCK_MONOTONIC seconds", "spans": self.spans}, f)


# ------------------------------------------------------------------ build

def _run_logged(cmd, log, env=None, cwd=ROOT):
    with open(log, "a") as f:
        rc = subprocess.call(cmd, stdout=f, stderr=subprocess.STDOUT, cwd=cwd, env=env)
    if rc != 0:
        with open(log) as f:
            tail = f.read()[-3000:]
        raise BenchError(f"{' '.join(cmd)} failed (exit {rc}):\n{tail}")


def build(targets):
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        raise BenchError("no razorbus sources next to perfbench/ to build")
    os.makedirs(BUILD, exist_ok=True)
    log = os.path.join(BUILD, "build.log")
    env = dict(os.environ, CCACHE_DISABLE="1")  # keep every write in the checkout
    if not os.path.isfile(os.path.join(CMAKE_DIR, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        _run_logged(["cmake", "-S", HERE, "-B", CMAKE_DIR, "-DCMAKE_BUILD_TYPE=Release"]
                    + generator, log, env)
    _run_logged(["cmake", "--build", CMAKE_DIR, "-j", str(WORKERS), "--target"] + targets,
                log, env)


def programs():
    campaignd = os.path.join(BIN_DIR, "campaignd")
    runner = os.path.join(BIN_DIR, "campaign")  # campaignd's default run-one runner
    return campaignd, runner if os.path.isfile(runner) else campaignd


def file_digests(directory):
    out = {}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as f:
            out[name] = hashlib.sha256(f.read()).hexdigest()
    return out


def program_env(lut_dir):
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    return dict(os.environ, RAZORBUS_CACHE_DIR=lut_dir, TMPDIR=tmp)


def warm_lut_stash(campaignd, runner):
    """A characterized LUT cache for the warm workloads' start state.

    Built once per build of the programs (keyed by their bytes) with a
    one-job campaign, then copied into each run's fresh cache directory.
    """
    key = hashlib.sha256()
    for path in (campaignd, runner):
        with open(path, "rb") as f:
            key.update(f.read())
    stash = os.path.join(BUILD, "lut_stash", key.hexdigest()[:16])
    if os.path.isdir(stash):
        return stash
    tmp = stash + ".tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    spec = os.path.join(tmp, "prewarm.json")
    with open(spec, "w") as f:
        json.dump({"name": "prewarm", "scenarios": [
            {"name": "prewarm", "experiment": "closed_loop", "cycles": 1000}]}, f)
    lut = os.path.join(tmp, "lut")
    _run_logged([campaignd, "run", spec, "--out=" + os.path.join(tmp, "out"),
                 "--workers=1"], os.path.join(BUILD, "prewarm.log"), program_env(lut), tmp)
    if not any(n.startswith("lut_") for n in os.listdir(lut)):
        raise BenchError("prewarm campaign left no LUT table")
    os.rename(lut, stash)
    shutil.rmtree(tmp)
    return stash


# ------------------------------------------------------------------ set-up

class Slot:
    """One prepared start state: empty out/result-cache dirs, a LUT cache
    dir (empty, or a copy of the warm stash), the campaign spec file and the
    job list `campaignd hash` expands it to."""

    _numbers = itertools.count()

    def __init__(self, bench):
        self.dir = os.path.join(WORK, f"slot{next(Slot._numbers)}")
        self.lut = os.path.join(self.dir, "lut")
        self.out = os.path.join(self.dir, "out")
        self.cache = os.path.join(self.dir, "cache")
        self.spec = os.path.join(self.dir, "campaign.json")
        os.makedirs(self.dir)
        with open(self.spec, "w") as f:
            json.dump(bench.workload.campaign, f, indent=1)
        if bench.stash:
            shutil.copytree(bench.stash, self.lut)
        else:
            os.makedirs(self.lut)
        listing = subprocess.run([bench.campaignd, "hash", self.spec], cwd=self.dir,
                                 env=program_env(self.lut), capture_output=True,
                                 text=True, check=True).stdout
        self.jobs = [line.split()[1] for line in listing.splitlines()[1:]]
        self.lut_before = file_digests(self.lut)


class Bench:
    """One workload at one seed: its programs, start state and reference,
    plus the tally of checked jobs across every campaign the run makes."""

    def __init__(self, name, seed):
        self.name, self.seed = name, seed
        self.workload = workloads.WORKLOADS[name](seed)
        self.campaignd, self.runner = programs()
        self.stash = (warm_lut_stash(self.campaignd, self.runner)
                      if self.workload.warm else None)
        self.stash_digests = file_digests(self.stash) if self.stash else {}
        self.reference = {}
        path = os.path.join(REFERENCE_DIR, name + ".json")
        if os.path.isfile(path):
            with open(path) as f:
                self.reference = json.load(f)["jobs"]
        self.attempted, self.failed, self.correct = 0, 0, True

    def setup(self, n):
        """n timed set-ups; returns the slots and each set-up's seconds."""
        slots, times = [], []
        for _ in range(n):
            t0 = time.monotonic()
            slot = Slot(self)
            times.append(time.monotonic() - t0)
            if self.workload.warm and slot.lut_before != self.stash_digests:
                raise BenchError("warm start state lacks the characterized table")
            if not self.workload.warm and slot.lut_before:
                raise BenchError("cold start state is not empty")
            slots.append(slot)
        return slots, times

    def run(self, slot, extra_args=(), extra_env=None):
        """Runs `campaignd run` on a slot and checks everything it wrote.

        Returns wall, CPU and peak RSS of the whole process tree (wait4
        rusage: every descendant is waited for) and the simulated cycles.
        """
        env = program_env(slot.lut)
        env.update(extra_env or {})
        cmd = [self.campaignd, "run", slot.spec, "--out=" + slot.out,
               "--cache=" + slot.cache, "--workers=" + str(WORKERS)] + list(extra_args)
        with open(os.path.join(slot.dir, "campaignd.log"), "w") as log:
            t0 = time.monotonic()
            proc = subprocess.Popen(cmd, cwd=slot.dir, env=env, stdout=log,
                                    stderr=subprocess.STDOUT, start_new_session=True)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
                raise
            wall = time.monotonic() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        result = {"wall": wall, "cpu": usage.ru_utime + usage.ru_stime,
                  "rss_mb": usage.ru_maxrss / 1024.0, "exit": proc.returncode}
        self._verify(slot, result)
        return result

    def _verify(self, slot, result):
        errors = []
        after = file_digests(slot.lut)
        if self.workload.warm and after != slot.lut_before:
            errors.append("warm campaign rewrote or added LUT cache files")
        if not self.workload.warm and not any(n.startswith("lut_") for n in after):
            errors.append("cold campaign ended without a LUT table")
        if os.path.exists(os.path.join(slot.dir, ".razorbus_cache")):
            errors.append("a job ignored RAZORBUS_CACHE_DIR")
        strict = (set(slot.jobs) if self.seed == workloads.DEFAULT_SEED
                  else self.workload.seed_free)
        verdicts = checks.check_jobs(slot.out, slot.jobs, self.reference, strict,
                                     self.workload.twins)
        # Exit 1 with every job's final outcome ok and every report correct is
        # the duplicate-claim race (ROADMAP open item 4): a second, concurrent
        # run of a job failed while the first succeeded. The results stand;
        # the failed duplicate is reported here and counted in traced mode.
        if result["exit"] == 1 and not any(verdicts.values()):
            print(f"warning: campaignd exited 1 with every job ok in {slot.out} "
                  "(a duplicate run of a job failed)", file=sys.stderr)
        elif result["exit"] != 0:
            errors.append(f"campaignd exited {result['exit']}")
        try:
            with open(os.path.join(slot.out, "BENCH_campaign.json")) as f:
                aggregate = json.load(f)
            if aggregate.get("jobs") != len(slot.jobs):
                errors.append("aggregate report job count differs from the campaign")
            result["executed"] = aggregate.get("executed")
        except (OSError, ValueError):
            errors.append("no aggregate report")
        result["cycles"] = 0
        for job in slot.jobs:
            try:
                result["cycles"] += checks.load_report(slot.out, job)["cycles"]
            except (OSError, ValueError, KeyError):
                pass  # already a failed job verdict

        for e in errors:
            print("campaign error: " + e, file=sys.stderr)
        for job, why in sorted(verdicts.items()):
            if why:
                print(f"job {job} failed: {why}", file=sys.stderr)
        bad = sum(1 for why in verdicts.values() if why)
        self.attempted += len(slot.jobs)
        self.failed += bad
        self.correct = self.correct and not errors and not bad


# ------------------------------------------------------------------ modes

def timed_mode(bench, seconds):
    slots, setup_times = bench.setup(SETUPS_PER_RUN)
    runs = []
    t_start = time.monotonic()
    while True:
        if not slots:
            slots, more_times = bench.setup(1)
            setup_times += more_times
        slot = slots.pop(0)
        runs.append(bench.run(slot))
        typical = statistics.median(r["wall"] for r in runs)
        if time.monotonic() - t_start + typical > seconds:
            break
    print(f"{bench.name}: {len(runs)} campaign(s) of {len(slot.jobs)} jobs, "
          f"walls {[round(r['wall'], 3) for r in runs]}, runs spawned (service count) "
          f"{[r.get('executed') for r in runs]}", file=sys.stderr)

    def median(key):
        return statistics.median(r[key] for r in runs)

    return {
        "wall_s": (median("wall"), "s"),
        "sim_cycles_per_s": (statistics.median(r["cycles"] / r["wall"] for r in runs),
                             "1/s"),
        "cpu_s": (median("cpu"), "s"),
        "peak_rss_mb": (median("rss_mb"), "MB"),
        "setup_s": (statistics.median(setup_times), "s"),
        "jobs_ok_share": ((bench.attempted - bench.failed) / bench.attempted, "share"),
    }


def traced_mode(bench):
    build(["layer_probe"])
    tracer = Tracer()
    root = tracer.begin("benchmark." + bench.name)
    span = tracer.begin("setup", root)
    (plain_slot, traced_slot), _ = bench.setup(2)
    tracer.end(span)

    span = tracer.begin("campaignd.run.untraced", root)
    plain = bench.run(plain_slot)
    tracer.end(span)

    # Traced campaign: the wrapper runner logs every run-one from the child side.
    wrapper = os.path.join(traced_slot.dir, "runner_log.sh")
    shutil.copy(os.path.join(HERE, "runner_log.sh"), wrapper)
    os.chmod(wrapper, 0o755)
    run_log = os.path.join(traced_slot.dir, "runs.log")
    open(run_log, "w").close()
    clock_offset = time.time() - time.monotonic()
    span = tracer.begin("campaignd.run.traced", root)
    traced = bench.run(traced_slot, ["--runner=" + wrapper],
                       {"PERFBENCH_RUNNER_LOG": run_log,
                        "PERFBENCH_REAL_RUNNER": bench.runner})
    tracer.end(span)
    children = []  # (start, end, job, exit code) per child run
    with open(run_log) as f:
        for line in f:
            _, start, end, rc, spec = line.split(maxsplit=4)
            job = os.path.basename(spec.strip()).replace(".spec.json", "")
            children.append((float(start) - clock_offset, float(end) - clock_offset,
                             job, int(rc)))
    for start, end, job, _ in children:
        tracer.add("run-one " + job, start, end, span)

    span = tracer.begin("layer_probe", root)
    probe_out = os.path.join(WORK, "probe.json")
    subprocess.run([os.path.join(CMAKE_DIR, "layer_probe"),
                    "--campaign=" + traced_slot.spec, "--reports=" + traced_slot.out,
                    "--work=" + os.path.join(WORK, "probe"), "--out=" + probe_out],
                   cwd=WORK, env=program_env(traced_slot.lut), check=True,
                   stdout=sys.stderr)
    tracer.end(span)
    with open(probe_out) as f:
        probe = json.load(f)
    tracer.graft(probe["spans"], span)
    tracer.end(root)
    trace_path = os.path.join(BUILD, "traces", f"{bench.name}-seed{bench.seed}.json")
    tracer.write(trace_path)
    print(f"{bench.name}: {len(tracer.spans)} spans written to {trace_path}",
          file=sys.stderr)

    layer = probe["metrics"]
    supplies = int(layer.pop("sweep.supplies"))
    layer[f"bus.multipoint_w32_p{supplies}_point_cps"] = layer.pop(
        "bus.multipoint_w32_pN_point_cps")
    busy = sum(end - start for start, end, _, _ in children)
    layer.update({
        "svc.child_runs": len(children),
        "svc.duplicate_runs": len(children) - len({job for _, _, job, _ in children}),
        "svc.failed_child_runs": sum(1 for *_, rc in children if rc != 0),
        "svc.useful_run_share": len(traced_slot.jobs) / max(1, len(children)),
        "svc.child_busy_s": busy,
        "svc.lane_idle_s": WORKERS * traced["wall"] - busy,
        "tracing_overhead_s": traced["wall"] - plain["wall"],
    })
    return layer


def record_reference(bench):
    """Writes perfbench/reference/<workload>.json from one default-seed run."""
    if bench.seed != workloads.DEFAULT_SEED:
        raise BenchError("references are recorded at the default seed")
    # Hold the run to every check but the reference it is about to become.
    bench.seed, bench.workload.seed_free = None, set()
    (slot,), _ = bench.setup(1)
    bench.run(slot)
    if not bench.correct:
        raise BenchError("the campaign failed its checks; no reference recorded")
    jobs = {job: checks.normalize(checks.load_report(slot.out, job), slot.out)
            for job in slot.jobs}
    os.makedirs(REFERENCE_DIR, exist_ok=True)
    header = json.dumps({"workload": bench.name, "seed": workloads.DEFAULT_SEED,
                         "rel_tol": checks.REL_TOL})
    lines = [f"{json.dumps(job)}: {json.dumps(jobs[job], sort_keys=True)}"
             for job in sorted(jobs)]  # one job per line keeps diffs readable
    with open(os.path.join(REFERENCE_DIR, bench.name + ".json"), "w") as f:
        f.write(header[:-1] + ', "jobs": {\n' + ",\n".join(lines) + "\n}}\n")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true",
                        help="store this build's default-seed reports as the reference")
    args = parser.parse_args()

    try:
        build(["perfbench_programs"])
        bench = Bench(args.workload, args.seed)
        shutil.rmtree(WORK, ignore_errors=True)  # the previous run's slots
        os.makedirs(WORK)
        if args.record_reference:
            record_reference(bench)
            return 0
        if args.trace:
            values = traced_mode(bench)
            with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
                units = {m["name"]: m["unit"] for m in json.load(f)["per_layer"]}
            missing = set(units) - set(values)
            if missing:
                raise BenchError(f"per-layer metrics not measured: {sorted(missing)}")
            metrics = {k: {"value": values[k], "unit": units[k]} for k in units}
        else:
            metrics = {k: {"value": v, "unit": u}
                       for k, (v, u) in timed_mode(bench, args.seconds).items()}
    except (BenchError, subprocess.CalledProcessError, OSError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    print(json.dumps({"correct": bench.correct, "attempted": bench.attempted,
                      "failed": bench.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
