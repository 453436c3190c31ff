"""Trace characterization: the measurements behind Tables 1 and 2.

These functions compute workload statistics directly from a trace:
dynamic branch density (CBRs/KI), per-site execution and taken counts,
and the dynamic fraction of executions coming from highly biased
branches (Table 2's first column).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.profiling.profile import BranchProfile
from repro.utils.tally import tally
from repro.workloads.trace import BranchTrace

__all__ = [
    "SiteStats",
    "TraceCharacterization",
    "characterize",
    "dynamic_highly_biased_fraction",
    "bias_histogram",
]


SiteStats = BranchProfile
"""Execution statistics for one static branch site: the bias profile's
per-branch record, keyed by site index instead of address."""


@dataclass(slots=True)
class TraceCharacterization:
    """Aggregate statistics for a full trace."""

    program_name: str
    input_name: str
    branch_count: int
    instruction_count: int
    static_sites_executed: int
    cbrs_per_ki: float
    taken_rate: float
    site_stats: dict[int, SiteStats]

    def dynamic_highly_biased_fraction(self, cutoff: float = 0.95) -> float:
        """Fraction of *dynamic executions* from branches with bias > cutoff.

        This is the paper's Table 2 quantity: it weights each static
        branch by how often it executes, so one hot 99%-taken branch
        counts for all of its executions.
        """
        if self.branch_count == 0:
            return 0.0
        biased_executions = sum(
            stats.executions
            for stats in self.site_stats.values()
            if stats.bias > cutoff
        )
        return biased_executions / self.branch_count

    def static_highly_biased_fraction(self, cutoff: float = 0.95) -> float:
        """Fraction of *executed static sites* with bias > cutoff."""
        if not self.site_stats:
            return 0.0
        biased_sites = sum(
            1 for stats in self.site_stats.values() if stats.bias > cutoff
        )
        return biased_sites / len(self.site_stats)


def characterize(trace: BranchTrace) -> TraceCharacterization:
    """Compute per-site and aggregate statistics for a trace.

    One :func:`~repro.utils.tally.tally` of the outcomes by site, over
    temporary columns: the trace's memoized :meth:`~BranchTrace.arrays`
    are never built here, so characterizing a trace costs no memory
    that outlives the call.
    """
    import numpy

    sites, executions, (taken,) = tally(
        numpy.asarray(trace.site_indices, dtype=numpy.int64),
        numpy.asarray(trace.outcomes, dtype=numpy.bool_),
    )
    site_stats = {
        site: SiteStats(executions=e, taken=t)
        for site, e, t in zip(sites, executions, taken)
    }
    branch_count = len(trace)
    instruction_count = trace.instruction_count
    return TraceCharacterization(
        program_name=trace.program_name,
        input_name=trace.input_name,
        branch_count=branch_count,
        instruction_count=instruction_count,
        static_sites_executed=len(site_stats),
        cbrs_per_ki=(1000.0 * branch_count / instruction_count)
        if instruction_count
        else 0.0,
        taken_rate=(sum(taken) / branch_count) if branch_count else 0.0,
        site_stats=site_stats,
    )


def dynamic_highly_biased_fraction(trace: BranchTrace, cutoff: float = 0.95) -> float:
    """Convenience wrapper: Table 2's highly-biased fraction for a trace."""
    return characterize(trace).dynamic_highly_biased_fraction(cutoff)


def bias_histogram(trace: BranchTrace, bins: int = 10) -> list[int]:
    """Histogram of per-site bias over [0.5, 1.0], execution-weighted.

    Bin ``i`` covers ``[0.5 + 0.5 * i / bins, 0.5 + 0.5 * (i + 1) / bins)``,
    with the final bin closed at 1.0.  Useful for eyeballing workload
    calibration against the mix specs.
    """
    if bins <= 0:
        raise ValueError(f"bins must be positive, got {bins}")
    characterization = characterize(trace)
    histogram = [0] * bins
    for stats in characterization.site_stats.values():
        fraction = (stats.bias - 0.5) / 0.5
        index = min(int(fraction * bins), bins - 1)
        histogram[index] += stats.executions
    return histogram
