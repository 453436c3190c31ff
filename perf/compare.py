"""Compare two sets of benchmark runs, metric by metric and workload by workload.

Usage::

    python3 perf/compare.py A.json ... -- B.json ...

Each file is a run record from ``perf/out/`` (or a list of records, as
``run.py --json`` writes).  A is the baseline, B the candidate.  For
every metric there is one row per workload with each side's median and
quartiles and a verdict:

* ``REGRESSION`` -- B's median is worse than A's by more than the
  metric's bound in BENCHMARK.json;
* ``unresolved`` -- A's own spread (q3 - q1 over the median) exceeds
  the bound, so the bound cannot be judged, unless every B run beats
  every A run;
* ``gain`` -- B won at least 9 of 10 pairs (ties count for neither) and
  the medians differ by more than A's spread;
* ``ok`` -- none of the above; ``info`` for figures without a bound
  (per-layer metrics and the ungated details).

Runs pair up by seed where both sides have the seed, otherwise in file
order.  The exit status is 1 when any row is a regression.
"""

from __future__ import annotations

import json
import sys

from common import load_benchmark, quartiles

WIN_SHARE = 0.9


def load(paths: list[str]) -> dict[str, list[dict]]:
    """Run records by workload, in the order given."""
    runs: dict[str, list[dict]] = {}
    for path in paths:
        with open(path, encoding="utf-8") as stream:
            data = json.load(stream)
        for record in data if isinstance(data, list) else [data]:
            runs.setdefault(record["workload"], []).append(record)
    return runs


def pairs(a: list[dict], b: list[dict]) -> list[tuple[dict, dict]]:
    by_seed = {record["seed"]: record for record in b}
    matched = [(record, by_seed[record["seed"]]) for record in a
               if record["seed"] in by_seed]
    return matched or list(zip(a, b))


def verdict(a: list[float], b: list[float], won: float, spec: dict | None) -> str:
    if spec is None:
        return "info"
    lower = spec["better"] == "lower"
    q1a, med_a, q3a = quartiles(a)
    _, med_b, _ = quartiles(b)
    worse = (med_b - med_a if lower else med_a - med_b) / med_a
    spread = q3a - q1a
    b_beats_all = max(b) < min(a) if lower else min(b) > max(a)
    if spread / med_a > spec["bound"] and not b_beats_all:
        return "unresolved"
    if worse > spec["bound"]:
        return "REGRESSION"
    if won >= WIN_SHARE and worse < 0 and abs(med_b - med_a) > spread:
        return "gain"
    return "ok"


def compare(a_runs: dict[str, list[dict]], b_runs: dict[str, list[dict]],
            specs: dict[str, dict]) -> tuple[list[str], int]:
    """The report lines and the number of regressions."""
    lines, regressions = [], 0
    workloads = [w for w in a_runs if w in b_runs]
    names = list(dict.fromkeys(
        name for w in workloads for record in a_runs[w] + b_runs[w]
        for name in _figures(record)))
    for name in names:
        spec = specs.get(name)
        lines.append(f"{name}" + (f" (bound {spec['bound']:.0%}, {spec['better']} "
                                  "is better)" if spec else ""))
        for workload in workloads:
            matched = [(_figures(x)[name]["value"], _figures(y)[name]["value"])
                       for x, y in pairs(a_runs[workload], b_runs[workload])
                       if name in _figures(x) and name in _figures(y)]
            if not matched:
                continue
            a = [x for x, _ in matched]
            b = [y for _, y in matched]
            lower = spec is None or spec["better"] == "lower"
            wins = sum((y < x) if lower else (y > x) for x, y in matched)
            row = verdict(a, b, wins / len(matched), spec)
            regressions += row == "REGRESSION"
            unit = next(_figures(r)[name]["unit"] for r in a_runs[workload]
                        if name in _figures(r))
            lines.append(
                f"  {workload:<16} A {_spread(a)}  B {_spread(b)} {unit}  "
                f"wins {wins}/{len(matched)}  {row}")
    return lines, regressions


def _figures(record: dict) -> dict:
    """A record's metrics and its ungated details, by name."""
    return {**record["metrics"], **record.get("details", {})}


def _spread(values: list[float]) -> str:
    q1, median, q3 = quartiles(values)
    return f"{median:.4g} [{q1:.4g}, {q3:.4g}]"


def main(argv: list[str]) -> int:
    if "--" not in argv:
        print(__doc__, file=sys.stderr)
        return 2
    split = argv.index("--")
    a_paths, b_paths = argv[:split], argv[split + 1:]
    if not a_paths or not b_paths:
        print("error: give run records on both sides of --", file=sys.stderr)
        return 2
    specs = {metric["name"]: metric for metric in load_benchmark()["end_to_end"]}
    lines, regressions = compare(load(a_paths), load(b_paths), specs)
    print("\n".join(lines))
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
