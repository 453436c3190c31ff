"""Per-branch collision involvement profiling.

The paper closes its Figures 1-6 discussion with a future-work idea:
"This does, however, suggest another way of selecting branches for
static prediction: we want to predict only those branches statically
that will boost constructive collisions and reduce destructive
collisions.  We plan to explore this idea in the future."

Exploring it needs per-branch collision attribution, which this module
provides.  During a phase-one simulation, every counter lookup is tag
checked (as in the paper's collision instrumentation); on a collision we
know both parties:

* the **victim** -- the branch performing the lookup, and
* the **aggressor** -- the branch whose address the tag held (the last
  previous user of the counter).

When the victim's overall prediction turns out wrong the collision is
destructive and both parties are charged; when right, both are credited
as constructive.  A branch's *destructive involvement rate* (destructive
charges per execution) measures how much aliasing pain statically
predicting it could remove -- the signal the
``select_static_collision`` scheme ranks on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from repro.predictors.base import BranchPredictor
from repro.utils.tally import tally
from repro.workloads.trace import BranchTrace

__all__ = ["CollisionInvolvement", "CollisionProfile", "measure_collision_involvement"]


@dataclass(slots=True)
class CollisionInvolvement:
    """Collision statistics for one branch (as victim or aggressor)."""

    executions: int = 0
    destructive: int = 0
    constructive: int = 0

    @property
    def destructive_rate(self) -> float:
        """Destructive involvements per execution."""
        if self.executions == 0:
            return 0.0
        return self.destructive / self.executions

    @property
    def constructive_rate(self) -> float:
        """Constructive involvements per execution."""
        if self.executions == 0:
            return 0.0
        return self.constructive / self.executions


class CollisionProfile:
    """Per-branch collision involvement over one run."""

    def __init__(
        self,
        program_name: str,
        input_name: str,
        predictor_name: str,
        branches: Mapping[int, CollisionInvolvement] | None = None,
    ):
        self.program_name = program_name
        self.input_name = input_name
        self.predictor_name = predictor_name
        self.branches: dict[int, CollisionInvolvement] = dict(branches or {})

    def __len__(self) -> int:
        return len(self.branches)

    def get(self, address: int) -> CollisionInvolvement | None:
        """Involvement record for an address, or None if never executed."""
        return self.branches.get(address)

    def destructive_rate_of(self, address: int) -> float:
        """Destructive involvement rate; 0.0 for branches never seen."""
        record = self.branches.get(address)
        return record.destructive_rate if record is not None else 0.0

    @property
    def total_destructive(self) -> int:
        """Sum of destructive charges across all branches."""
        return sum(r.destructive for r in self.branches.values())


def measure_collision_involvement(
    trace: BranchTrace, predictor: BranchPredictor, kernel: str = "auto"
) -> CollisionProfile:
    """Simulate ``predictor`` over ``trace``, attributing every collision
    to its victim and aggressor.

    The predictor is consumed (trained) by the measurement; pass a fresh
    instance.

    One tracked :func:`~repro.core.simulator.replay` (the scan kernel's,
    or the reference loop's tag tracker under ``kernel="reference"``,
    for kernel-less families and for the hybrids, whose kernels decline
    tracking) yields each collision's victim and aggressor positions.
    Each collision charges both parties once, on the victim's
    correctness; a victim colliding in several tables is charged once
    per table.  The charges become two per-event columns that one
    :func:`~repro.utils.tally.tally` sums by address, so the profile
    iterates in first-execution order (an aggressor always executed
    before its victim).
    """
    import numpy

    # Imported here: the simulator imports this module.
    from repro.core.simulator import replay

    result = replay(trace, predictor, kernel, track_collisions=True)
    victims, aggressors = result.collisions
    hit = result.predictions[victims] == result.outcomes[victims]
    events = len(trace)

    def charges(mask):
        return (numpy.bincount(victims[mask], minlength=events)
                + numpy.bincount(aggressors[mask], minlength=events))

    addresses, _ = trace.arrays()
    keys, executions, (destructive, constructive) = tally(
        addresses, charges(~hit), charges(hit)
    )
    records = {
        address: CollisionInvolvement(
            executions=e, destructive=d, constructive=c
        )
        for address, e, d, c in zip(keys, executions, destructive,
                                    constructive)
    }
    return CollisionProfile(
        trace.program_name, trace.input_name, predictor.name, records
    )
