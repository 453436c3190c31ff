"""Interference analysis: which branch pairs destroy each other.

The paper quantifies aliasing with aggregate collision counts; selecting
branches to fix it (the future-work ``static_collision`` scheme) needs
the per-pair view: for every (victim, aggressor) pair sharing counters,
how many destructive and constructive collisions did the pair produce?

``analyze_interference`` replays a trace through a predictor with
per-pair tag accounting and reports the dominant destructive pairs --
useful both for debugging workload models (is aliasing concentrated or
diffuse?) and for explaining why a particular hint assignment worked.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.simulator import replay
from repro.predictors.base import BranchPredictor
from repro.utils.tally import tally
from repro.workloads.trace import BranchTrace

__all__ = ["PairCounts", "InterferenceAnalysis", "analyze_interference"]


@dataclass(slots=True)
class PairCounts:
    """Collision counts for one ordered (victim, aggressor) pair."""

    destructive: int = 0
    constructive: int = 0

    @property
    def total(self) -> int:
        return self.destructive + self.constructive


@dataclass(slots=True)
class InterferenceAnalysis:
    """Full pairwise collision accounting for one run."""

    program_name: str
    predictor_name: str
    pairs: dict[tuple[int, int], PairCounts] = field(default_factory=dict)
    total_collisions: int = 0
    total_destructive: int = 0

    @property
    def destructive_fraction(self) -> float:
        """Overall destructive share -- Young et al.'s observation that
        collisions are "more likely to be destructive than constructive"
        is checkable here."""
        if self.total_collisions == 0:
            return 0.0
        return self.total_destructive / self.total_collisions

    def top_destructive_pairs(self, count: int = 10) -> list[tuple[tuple[int, int], PairCounts]]:
        """The pairs responsible for the most destructive collisions."""
        ranked = sorted(
            self.pairs.items(), key=lambda item: item[1].destructive,
            reverse=True,
        )
        return ranked[:count]

    def concentration(self, fraction: float = 0.5) -> int:
        """How many pairs account for ``fraction`` of destructive events.

        A small number means aliasing is concentrated (a few hint bits
        fix it); a large number means it is diffuse (grow the table).
        """
        if not 0.0 < fraction <= 1.0:
            raise ValueError(f"fraction must be in (0, 1], got {fraction}")
        target = self.total_destructive * fraction
        accumulated = 0
        for count_index, (_pair, counts) in enumerate(
            sorted(self.pairs.items(), key=lambda item: item[1].destructive,
                   reverse=True),
            start=1,
        ):
            accumulated += counts.destructive
            if accumulated >= target:
                return count_index
        return len(self.pairs)


def analyze_interference(
    trace: BranchTrace, predictor: BranchPredictor
) -> InterferenceAnalysis:
    """Replay ``trace`` through ``predictor`` with per-pair accounting.

    The predictor is consumed (trained).  Pair keys are
    ``(victim_address, aggressor_address)`` -- the branch doing the
    lookup and the previous owner of the counter it hit.  One tracked
    :func:`~repro.core.simulator.replay` lists every collision's two
    positions; one :func:`~repro.utils.tally.tally` groups them by pair,
    in order of each pair's first collision.
    """
    import numpy

    result = replay(trace, predictor, track_collisions=True)
    victims, aggressors = result.collisions
    # The scan lists collisions by counter, the tag tracker by lookup
    # and then table; a stable sort by victim gives trace order.
    order = numpy.argsort(victims, kind="stable")
    victims, aggressors = victims[order], aggressors[order]
    destructive = result.predictions[victims] != result.outcomes[victims]
    addresses, _ = trace.arrays()
    sites, ids = numpy.unique(addresses, return_inverse=True)
    width = len(sites)
    sites = sites.tolist()
    keys, totals, (wrong,) = tally(
        ids[victims] * width + ids[aggressors], destructive
    )
    return InterferenceAnalysis(
        program_name=trace.program_name,
        predictor_name=predictor.name,
        pairs={
            (sites[key // width], sites[key % width]):
                PairCounts(destructive=w, constructive=total - w)
            for key, total, w in zip(keys, totals, wrong)
        },
        total_collisions=len(victims),
        total_destructive=sum(wrong),
    )
