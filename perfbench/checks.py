"""Correctness checks on the per-job reports of one campaign run.

Every job's final queue outcome must be "ok", and its BENCH_<job>.json
must exist, parse, and hold only finite numbers. On top of that:

* reference check: a job whose inputs do not depend on the seed, and every
  job at the default seed, must match the stored reference report;
* parity check: each materialized job and its streamed twin (same words)
  must agree exactly on every metric both report, on their tables and on
  their cycle count — the streaming pipeline's bit-identity contract.

Reference comparison ignores the host-clock fields and the run-specific
output path. Strings (table cells), integers and integral numbers (counts)
must match exactly; other numbers within REL_TOL relative difference —
loose enough for a 1e-12 change in solver rounding, tight enough that any
modelling change fails.
"""

import json
import math
import os

REL_TOL = 1e-9
HOST_FIELDS = ("wall_seconds", "threads_resolved")


def load_report(out_dir, job):
    with open(os.path.join(out_dir, "BENCH_" + job + ".json")) as f:
        return json.load(f)


def outcome(out_dir, job):
    """The job's final queue outcome record ("status": "ok" | "failed")."""
    with open(os.path.join(out_dir, "queue", "done", job + ".json")) as f:
        return json.load(f)


def normalize(report, out_dir):
    """The report without host-clock fields or the run's output directory."""
    report = {k: v for k, v in report.items() if k not in HOST_FIELDS}
    if isinstance(report.get("paper_ref"), str):
        report["paper_ref"] = report["paper_ref"].replace(out_dir + os.sep, "<out>/")
    return report


def _integral(x):
    return isinstance(x, int) or (isinstance(x, float) and x.is_integer())


def compare(ref, got, path="", rel_tol=REL_TOL):
    """First difference between two normalized reports, or None."""
    if type(ref) is type(got) and ref == got:
        return None
    if any(x is None or isinstance(x, (bool, str)) for x in (ref, got)):
        return f"{path}: {ref!r} != {got!r}"
    if isinstance(ref, (int, float)) and isinstance(got, (int, float)):
        if _integral(ref) and _integral(got):
            ok = ref == got
        else:
            ok = abs(ref - got) <= rel_tol * max(abs(ref), abs(got))
        return None if ok else f"{path}: {ref!r} != {got!r}"
    if isinstance(ref, dict) and isinstance(got, dict):
        if ref.keys() != got.keys():
            return f"{path}: keys differ {sorted(ref.keys() ^ got.keys())}"
        for key in ref:
            diff = compare(ref[key], got[key], f"{path}/{key}", rel_tol)
            if diff:
                return diff
        return None
    if isinstance(ref, list) and isinstance(got, list):
        if len(ref) != len(got):
            return f"{path}: length {len(ref)} != {len(got)}"
        for i, (a, b) in enumerate(zip(ref, got)):
            diff = compare(a, b, f"{path}[{i}]", rel_tol)
            if diff:
                return diff
        return None
    return f"{path}: {type(ref).__name__} != {type(got).__name__}"


def _finite(value):
    if isinstance(value, float):
        return math.isfinite(value)
    if isinstance(value, dict):
        return all(_finite(v) for v in value.values())
    if isinstance(value, list):
        return all(_finite(v) for v in value)
    return True


def _parity(a, b):
    if a.get("cycles") != b.get("cycles"):
        return f"cycles {a.get('cycles')} != {b.get('cycles')}"
    ma, mb = a.get("metrics", {}), b.get("metrics", {})
    for key in sorted(ma.keys() & mb.keys()):
        if ma[key] != mb[key]:
            return f"metric {key}: {ma[key]!r} != {mb[key]!r}"
    if a.get("tables") != b.get("tables"):
        return "tables differ"
    return None


def check_jobs(out_dir, jobs, reference, strict_jobs, twins):
    """Returns {job: None if it passed, else the first failure}.

    `reference` maps job name to its normalized reference report;
    `strict_jobs` are the jobs to hold to it; `twins` lists
    (materialized, streamed) job pairs for the parity check.
    """
    results, reports = {}, {}
    for job in jobs:
        try:
            status = outcome(out_dir, job).get("status")
            report = load_report(out_dir, job)
        except (OSError, ValueError) as e:
            results[job] = f"no readable outcome or report ({e})"
            continue
        if status != "ok":
            results[job] = f"final queue outcome is {status!r}"
            continue
        reports[job] = report
        if not _finite(report):
            results[job] = "non-finite number in report"
        elif not report.get("cycles", 0) > 0:
            results[job] = "report simulated no cycles"
        elif job in strict_jobs:
            if job not in reference:
                results[job] = "no reference report"
            else:
                diff = compare(reference[job], normalize(report, out_dir))
                results[job] = diff and "reference mismatch at " + diff
        else:
            results[job] = None
    for a, b in twins:
        if a in reports and b in reports:
            diff = _parity(reports[a], reports[b])
            if diff:
                for job in (a, b):
                    results[job] = results[job] or f"twin parity ({a} vs {b}): {diff}"
    return results
