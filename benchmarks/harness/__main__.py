"""``python -m benchmarks.harness``: run the workloads, or compare two runs.

    python -m benchmarks.harness [--workload NAME ...] [--seed N] [--seconds S]
                                 [--trace {0,1}] [--out PATH]
    python -m benchmarks.harness --compare A.json B.json [--out PATH]

Without ``--trace`` every selected workload gets the untraced pass (the
end-to-end metrics) and then the traced pass (the per-layer metrics);
``--trace 0`` or ``--trace 1`` runs only that pass. Each pass measures
``BENCHMARK.json``'s ``run_seconds``; ``--seconds`` may only restate it.
Results go to ``--out`` (default ``.bench_work/results.json``). With a
single ``--workload`` the last line of stdout is one JSON object,
``{"correct", "attempted", "failed", "metrics"}``, holding that pass's
metrics as ``BENCHMARK.json`` lists them. The exit status is 1 when any
operation failed or a listed metric is missing. ``--compare`` exits 1 when
any end-to-end metric got worse.
"""

from __future__ import annotations

import argparse
import json
import sys

from benchmarks.harness import report
from benchmarks.harness.harness import (
    ROOT,
    WORK_ROOT,
    WORKLOADS,
    HarnessError,
    import_program,
    run_workload,
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.harness", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS),
                        help="run only this workload (repeatable; default all five)")
    parser.add_argument("--seed", type=int, default=1, help="input and pollution seed")
    parser.add_argument("--seconds", type=int, default=None,
                        help="measured seconds per pass; must equal BENCHMARK.json's "
                             "run_seconds, the one place run length is set")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="run only the untraced (0) or the traced (1) pass")
    parser.add_argument("--out", default=None, help="results (or compare) JSON path")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="compare two results files instead of running")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    benchmark = report.load_benchmark(ROOT)
    if args.compare:
        docs = []
        for path in args.compare:
            with open(path) as f:
                docs.append(json.load(f))
        doc = report.compare(docs[0], docs[1], benchmark)
        report.print_compare(doc)
        if args.out:
            with open(args.out, "w") as f:
                json.dump(doc, f, indent=2)
        return 1 if doc["worse"] else 0

    seconds = benchmark["run_seconds"]
    if args.seconds not in (None, seconds):
        print(f"error: --seconds {args.seconds}: BENCHMARK.json sets run_seconds to {seconds}",
              file=sys.stderr)
        return 2
    try:
        import_program()
    except HarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    names = args.workload or list(WORKLOADS)
    passes = {None: ("plain", "traced"), 0: ("plain",), 1: ("traced",)}[args.trace]
    entries = {}
    for name in names:
        entries[name] = run_workload(name, args.seed, seconds, passes, benchmark)
        report.print_workload(name, entries[name])
    out = args.out or str(WORK_ROOT / "results.json")
    WORK_ROOT.mkdir(exist_ok=True)
    with open(out, "w") as f:
        json.dump(report.results_document(report.stamp(ROOT, args.seed, seconds), entries),
                  f, indent=2)
    print(f"\nresults: {out}")
    lines = [contract_line(entry, benchmark, passes) for entry in entries.values()]
    if len(names) == 1:
        print(json.dumps(lines[0]))
    return 0 if all(line["correct"] for line in lines) else 1


def contract_line(entry: dict, benchmark: dict, passes: tuple[str, ...]) -> dict:
    """The one-line result: each listed metric's median, for the passes run."""
    wanted = []
    if "plain" in passes:
        wanted += [(m, "metrics") for m in benchmark["end_to_end"]]
    if "traced" in passes:
        wanted += [(m, "layers") for m in benchmark["per_layer"]]
    metrics = {
        m["name"]: {"value": entry[section][m["name"]]["median"], "unit": m["unit"]}
        for m, section in wanted if m["name"] in entry[section]
    }
    return {
        "correct": entry["failed"] == 0 and len(metrics) == len(wanted),
        "attempted": entry["attempted"],
        "failed": entry["failed"],
        "metrics": metrics,
    }


if __name__ == "__main__":
    sys.exit(main())
