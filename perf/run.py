"""End-to-end benchmark: run workloads, print every metric, check outputs.

Usage (from the root of a checkout)::

    python3 perf/run.py [--workload NAME ...] [--seed N] [--seconds S]
                        [--trace [0|1]] [--smoke] [--json PATH]

Each workload runs in a fresh child interpreter (``perf/child.py``).
Without ``--trace`` a run reports the end-to-end metrics; with it, the
workload's cold regeneration runs once untraced and then the whole
workload runs again with spans on, and the run reports the per-layer
metrics and ``trace_overhead``: the traced cold phase over the untraced
one (the cold regeneration; for serve-mixed, priming the warm set).
Each run is saved to ``perf/out/<workload>-seed<N>[-smoke][-trace].json``; the
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit status is 0 only
when every output checked correct.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

from common import DETAIL_UNITS, E2E_UNITS, OUT, ROOT, WORKLOADS
from tracing import LAYER_UNITS

DEFAULT_SECONDS = 5.0
SMOKE_SECONDS = 0.25
CHILD_TIMEOUT_S = 170.0


def child_env() -> dict:
    """The environment minus every ``REPRO_*`` knob, so the program sees
    only the inputs generated from the seed."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])])
    return env


def run_child(workload: str, args, *flags: str) -> dict:
    OUT.mkdir(parents=True, exist_ok=True)
    out = OUT / f"child-{workload}-{args.seed}.json"
    command = [sys.executable, str(ROOT / "perf" / "child.py"), workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--out", str(out), *flags, *(["--smoke"] if args.smoke else [])]
    try:
        subprocess.run(command, env=child_env(), check=True, timeout=CHILD_TIMEOUT_S)
        with open(out, encoding="utf-8") as stream:
            return json.load(stream)
    finally:
        out.unlink(missing_ok=True)


def measure(workload: str, args) -> dict:
    """One workload's run record (also what ``perf/out`` keeps)."""
    if args.trace:
        baseline = run_child(workload, args, "--cold-only")["details"]["cold_s"]
        run = run_child(workload, args, "--trace")
        metrics = {name: (value, LAYER_UNITS[name])
                   for name, value in run["layers"].items()}
        metrics["trace_overhead"] = (run["details"]["cold_s"] / baseline, "ratio")
        run["details"]["baseline_cold_s"] = baseline
        found = run["details"]
    else:
        run = run_child(workload, args)
        metrics = {name: (run["metrics"][name], unit)
                   for name, unit in E2E_UNITS.items()}
        found = {**run["metrics"], **run["details"]}
    record = {
        "workload": workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "smoke": args.smoke,
        "correct": run["failed"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
        "details": {name: {"value": found[name], "unit": unit}
                    for name, unit in DETAIL_UNITS.items() if name in found},
        "notes": {k: v for k, v in run["details"].items() if k not in DETAIL_UNITS},
        "errors": run["errors"],
    }
    suffix = ("-smoke" if args.smoke else "") + ("-trace" if args.trace else "")
    with open(OUT / f"{workload}-seed{args.seed}{suffix}.json", "w",
              encoding="utf-8") as stream:
        json.dump(record, stream, indent=1)
    return record


def describe(record: dict) -> str:
    mode = "traced" if record["trace"] else "untraced"
    lines = [f"== {record['workload']} (seed {record['seed']}, {mode}) =="]
    for group in ("metrics", "details"):
        for name, metric in record[group].items():
            lines.append(f"  {name:<28} {metric['value']:>14.6g} {metric['unit']}")
    lines.append(f"  operations: {record['attempted']} attempted, "
                 f"{record['failed']} failed")
    lines += [f"  FAILED: {error}" for error in record["errors"]]
    return "\n".join(lines)


def summary(records: list[dict]) -> dict:
    """The result line: one workload's metrics as they are; with several
    workloads, each metric name is prefixed with ``<workload>/``."""
    prefix = len(records) > 1
    return {
        "correct": all(record["correct"] for record in records),
        "attempted": sum(record["attempted"] for record in records),
        "failed": sum(record["failed"] for record in records),
        "metrics": {(f"{record['workload']}/{name}" if prefix else name): metric
                    for record in records
                    for name, metric in record["metrics"].items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="End-to-end benchmark (see perf/README.md).")
    parser.add_argument("--workload", nargs="+", choices=WORKLOADS,
                        default=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=None,
                        help="length of each workload's steady-state phase")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1))
    parser.add_argument("--smoke", action="store_true",
                        help="tiny traces and windows: checks plumbing, not speed")
    parser.add_argument("--json", dest="json_out", default=None,
                        help="also write the run records to this file")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = SMOKE_SECONDS if args.smoke else DEFAULT_SECONDS
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {ROOT / 'src'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2

    records = []
    for workload in args.workload:
        try:
            record = measure(workload, args)
        except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
            print(f"error: workload {workload} failed: {exc}", file=sys.stderr)
            return 1
        print(describe(record), flush=True)
        records.append(record)
    if args.json_out:
        with open(args.json_out, "w", encoding="utf-8") as stream:
            json.dump(records, stream, indent=1)
    result = summary(records)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
