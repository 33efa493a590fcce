"""Summaries, the versioned results file, and ``--compare``.

A results file holds, per workload, every metric as its raw samples next to
their median, quartiles and count, plus an environment stamp. Metric units,
directions and regression bounds come from ``BENCHMARK.json`` at the root
of the checkout, the one place they are defined.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
from pathlib import Path

RESULTS_SCHEMA = "icewafl-harness-results/1"
COMPARE_SCHEMA = "icewafl-harness-compare/1"


def load_benchmark(root: Path) -> dict:
    with open(root / "BENCHMARK.json") as f:
        return json.load(f)


def unit_of(name: str, benchmark: dict) -> str:
    """A metric's unit: from ``BENCHMARK.json``, else from its name's suffix."""
    for entry in benchmark["end_to_end"] + benchmark["per_layer"]:
        if entry["name"] == name:
            return entry["unit"]
    for suffix, unit in ((".s", "s"), ("_s", "s"), ("bytes", "bytes"),
                         ("bytes_per_job", "bytes"), ("_mb", "MB"), ("_frac", "fraction")):
        if name.endswith(suffix):
            return unit
    return "count"


def summarize(samples: list[float], unit: str) -> dict:
    """Median, quartiles (``statistics.quantiles(n=4)``) and n of the samples."""
    median = statistics.median(samples)
    q1, q3 = (statistics.quantiles(samples, n=4)[::2] if len(samples) > 1
              else (median, median))
    return {"unit": unit, "median": median, "q1": q1, "q3": q3, "n": len(samples),
            "samples": samples}


def p90(samples: list[float]) -> float:
    """The 90th percentile, interpolated between the samples."""
    if len(samples) == 1:
        return samples[0]
    return statistics.quantiles(samples, n=10, method="inclusive")[-1]


def stamp(root: Path, seed: int, seconds: int) -> dict:
    """Where and on what the results were measured."""
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_head": _git(root, "rev-parse", "HEAD"),
        "git_dirty": (None if (status := _git(root, "status", "--porcelain")) is None
                      else bool(status)),
        "seed": seed,
        "seconds": seconds,
    }


def _git(root: Path, *args: str) -> str | None:
    # The ceiling keeps git from answering for a repository that merely
    # contains this checkout.
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(root.parent)}
    try:
        done = subprocess.run(["git", "-C", str(root), *args], capture_output=True,
                              text=True, env=env, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def results_document(stamp_: dict, workloads: dict) -> dict:
    return {"schema": RESULTS_SCHEMA, "stamp": stamp_, "workloads": workloads}


def print_workload(name: str, entry: dict) -> None:
    print(f"\n== {name}  (attempted {entry['attempted']}, failed {entry['failed']})")
    for section in ("metrics", "layers"):
        for metric, s in entry.get(section, {}).items():
            spread = _rel_iqr(s)
            print(f"  {metric:<34} {_fmt(s['median']):>12} {s['unit']:<9} "
                  f"IQR {_fmt(s['q3'] - s['q1']):>10} ({_pct(spread)})  n={s['n']}")


# ---------------------------------------------------------------------------
# --compare
# ---------------------------------------------------------------------------


def compare(a: dict, b: dict, benchmark: dict) -> dict:
    """One row per (workload, metric) present in both result files.

    End-to-end metrics get a verdict against their bound: ``unresolved``
    when either side's IQR exceeds the bound (relative to its median),
    else ``worse`` / ``better`` when the median moved by more than the
    bound, else ``within-bound``. Per-layer metrics have no bound; their
    rows carry the deltas and the verdict ``info``.
    """
    bounds = {m["name"]: m for m in benchmark["end_to_end"]}
    rows = []
    for workload in sorted(set(a["workloads"]) & set(b["workloads"])):
        wa, wb = a["workloads"][workload], b["workloads"][workload]
        for section in ("metrics", "layers"):
            for metric in sorted(set(wa.get(section, {})) & set(wb.get(section, {}))):
                sa, sb = wa[section][metric], wb[section][metric]
                row = {
                    "workload": workload, "metric": metric, "unit": sa["unit"],
                    "median_a": sa["median"], "median_b": sb["median"],
                    "iqr_a": sa["q3"] - sa["q1"], "iqr_b": sb["q3"] - sb["q1"],
                    "delta": (sb["median"] - sa["median"]) / sa["median"]
                    if sa["median"] else None,
                    "verdict": "info",
                }
                if metric in bounds:
                    row["bound"] = bounds[metric]["bound"]
                    row["verdict"] = _verdict(sa, sb, row["delta"], bounds[metric])
                elif metric == "failed_frac":
                    # Bound +0: any rise in failures is a regression.
                    row["bound"] = 0.0
                    row["verdict"] = ("worse" if sb["median"] > sa["median"] else
                                      "better" if sb["median"] < sa["median"] else
                                      "within-bound")
                rows.append(row)
    return {
        "schema": COMPARE_SCHEMA,
        "a": a.get("stamp"), "b": b.get("stamp"),
        "rows": rows,
        "worse": sum(1 for r in rows if r["verdict"] == "worse"),
    }


def _verdict(sa: dict, sb: dict, delta: float | None, spec: dict) -> str:
    bound = spec["bound"]
    if delta is None or max(_rel_iqr(sa), _rel_iqr(sb)) > bound:
        return "unresolved"
    worsening = delta if spec["better"] == "lower" else -delta
    if worsening > bound:
        return "worse"
    if -worsening > bound:
        return "better"
    return "within-bound"


def print_compare(doc: dict) -> None:
    print(f"{'workload':<26} {'metric':<30} {'median A':>11} {'median B':>11} "
          f"{'IQR A':>9} {'IQR B':>9} {'delta':>8}  verdict")
    for r in doc["rows"]:
        print(f"{r['workload']:<26} {r['metric']:<30} {_fmt(r['median_a']):>11} "
              f"{_fmt(r['median_b']):>11} {_fmt(r['iqr_a']):>9} {_fmt(r['iqr_b']):>9} "
              f"{_pct(r['delta']):>8}  {r['verdict']}")
    print(f"\n{doc['worse']} worse")


def _rel_iqr(s: dict) -> float:
    return (s["q3"] - s["q1"]) / abs(s["median"]) if s["median"] else 0.0


def _fmt(value: float) -> str:
    return f"{value:.4g}"


def _pct(value: float | None) -> str:
    return "n/a" if value is None else f"{100 * value:+.1f}%"
