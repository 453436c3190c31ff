"""Names, paths and statistics shared by the benchmark's scripts."""

from __future__ import annotations

import json
import statistics
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
"""The checkout the benchmark measures (the parent of ``perf/``)."""

OUT = ROOT / "perf" / "out"

WORKLOADS = ("figs-schemes", "figs-collisions", "tables-profile", "serve-mixed")

#: End-to-end metric -> unit; the names match ``end_to_end`` in
#: BENCHMARK.json.  Every workload reports all of them (see README.md
#: for what each means per workload).
E2E_UNITS = {
    "setup_s": "s",
    "regen_s": "s",
    "peak_rss_mb": "MiB",
}

#: Figures a run reports beside the end-to-end metrics, ungated: on a
#: noisy host their run-to-run spread exceeds any bound worth gating on
#: (README.md, "Bounds").
DETAIL_UNITS = {
    "warm_ms": "ms",
    "warm_tail_ms": "ms",
    "cold_s": "s",
    "baseline_cold_s": "s",
    "svc_hit_rps": "1/s",
    "lateness_p99_ms": "ms",
}


def tail(samples: list[float]) -> float:
    """The highest percentile with at least ten samples beyond it.

    Below 100 samples that percentile falls under the 90th, which says
    little about the tail, so the 90th percentile (nearest rank) is
    reported instead.
    """
    ordered = sorted(samples)
    nearest_p90 = -(-9 * len(ordered) // 10) - 1
    return ordered[max(len(ordered) - 11, nearest_p90)]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def load_benchmark() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as stream:
        return json.load(stream)
