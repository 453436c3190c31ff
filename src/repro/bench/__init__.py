"""Reproducible performance benchmarking (``repro bench``).

The subsystem has three layers:

* :mod:`repro.bench.timing` -- warmup + repeated sampling, summarized
  by median and interquartile range;
* :mod:`repro.bench.cases` -- the suite: reference-versus-fast kernel
  microbenches plus end-to-end experiment-cell benches;
* :mod:`repro.bench.snapshot` -- the versioned ``BENCH_<name>.json``
  artifact and the threshold-based regression compare that CI gates on.

Benchmarks measure the same deterministic simulations the experiments
run, so two snapshots differ only in wall time -- never in what work
was executed -- which is what makes the regression compare meaningful.
"""

from repro.bench.cases import (
    BenchCase,
    collision_cases,
    combined_cases,
    end_to_end_cases,
    kernel_cases,
    run_suite,
    tracked_cases,
)
from repro.bench.snapshot import (
    BenchFormatError,
    BenchResult,
    BenchSnapshot,
    Comparison,
    compare,
    parse_threshold,
    snapshot_filename,
)
from repro.bench.timing import TimingStats, measure

__all__ = [
    "BenchCase",
    "BenchFormatError",
    "BenchResult",
    "BenchSnapshot",
    "Comparison",
    "TimingStats",
    "collision_cases",
    "combined_cases",
    "compare",
    "end_to_end_cases",
    "kernel_cases",
    "measure",
    "parse_threshold",
    "run_suite",
    "snapshot_filename",
    "tracked_cases",
]
