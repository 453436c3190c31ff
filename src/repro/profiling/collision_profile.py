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
    trace: BranchTrace, predictor: BranchPredictor
) -> CollisionProfile:
    """Simulate ``predictor`` over ``trace``, attributing every collision
    to its victim and aggressor.

    The predictor is consumed (trained) by the measurement; pass a fresh
    instance.

    Kernel-backed predictor families take a vectorized path: the
    predictions and every collision's victim and aggressor come from
    one :func:`repro.kernels.try_fast_predictions` replay (the previous
    user of each counter falls out of the scan's own sort by counter
    index), and the per-branch charges from bincounts.  Bit-identical
    to the reference loop below, including the profile's
    first-occurrence insertion order.
    """
    records = _fast_collision_records(trace, predictor)
    if records is None:
        return _measure_collision_involvement_scalar(trace, predictor)
    return CollisionProfile(
        trace.program_name, trace.input_name, predictor.name, records
    )


def _fast_collision_records(
    trace: BranchTrace, predictor: BranchPredictor
) -> dict[int, CollisionInvolvement] | None:
    """Vectorized victim/aggressor attribution, or None (no kernel, or
    one that cannot track collisions, as the hybrids' cannot).

    The single-table families access exactly one counter per event, so
    the scalar loop's tag array reduces to "the previous event with my
    counter", which the replay's scan reports as aligned victim and
    aggressor positions.  The victim and that one aggressor are each
    charged once, on the victim's correctness.
    """
    from repro.kernels import try_fast_predictions

    replay = try_fast_predictions(trace, predictor, return_collisions=True)
    if replay is None:
        return None
    import numpy

    predictions, victims, aggressors = replay
    addresses, outcomes = trace.arrays()
    n = addresses.shape[0]
    if n == 0:
        return {}

    # Factorize addresses into ids ranked by first occurrence, so the
    # records dict below iterates in the scalar loop's insertion order
    # (an aggressor always executed before its victim, so first
    # executions are the only insertions).
    saddr = numpy.argsort(addresses)
    sorted_addr = addresses[saddr]
    starts = numpy.flatnonzero(
        numpy.r_[True, sorted_addr[1:] != sorted_addr[:-1]]
    )
    groups = starts.shape[0]
    first = numpy.minimum.reduceat(saddr, starts)
    order = numpy.argsort(first, kind="stable")
    rank = numpy.empty(groups, dtype=numpy.int64)
    rank[order] = numpy.arange(groups)
    group_of_sorted = numpy.cumsum(
        numpy.r_[False, sorted_addr[1:] != sorted_addr[:-1]]
    )
    ids = numpy.empty(n, dtype=numpy.int64)
    ids[saddr] = rank[group_of_sorted]

    executions = numpy.bincount(ids, minlength=groups)
    col_correct = predictions[victims] == outcomes[victims]
    victim_ids = ids[victims]
    aggressor_ids = ids[aggressors]
    constructive = (
        numpy.bincount(victim_ids[col_correct], minlength=groups)
        + numpy.bincount(aggressor_ids[col_correct], minlength=groups)
    )
    destructive = (
        numpy.bincount(victim_ids[~col_correct], minlength=groups)
        + numpy.bincount(aggressor_ids[~col_correct], minlength=groups)
    )
    return {
        address: CollisionInvolvement(
            executions=e, destructive=d, constructive=c
        )
        for address, e, d, c in zip(
            sorted_addr[starts][order].tolist(),
            executions.tolist(),
            destructive.tolist(),
            constructive.tolist(),
        )
    }


def _measure_collision_involvement_scalar(
    trace: BranchTrace, predictor: BranchPredictor
) -> CollisionProfile:
    """Reference loop (kernel-less predictors, and the differential baseline)."""
    records: dict[int, CollisionInvolvement] = {}
    tags: list[list[int]] = [
        [-1] * entries for entries in predictor.table_entry_counts()
    ]
    predict = predictor.predict
    update = predictor.update
    accessed = predictor.accessed
    addresses = trace.addresses
    outcomes = trace.outcomes

    # repro: allow[PERF001] -- the numpy-free fallback and correctness
    # reference; kernel-backed families take the vectorized path above,
    # which is differentially tested against this loop
    for i in range(len(addresses)):
        address = addresses[i]
        taken = outcomes[i]
        predicted = predict(address)
        # Tag check before update (updates may change accessed()).
        aggressors: list[int] = []
        for table_id, index in accessed():
            table_tags = tags[table_id]
            previous = table_tags[index]
            if previous >= 0 and previous != address:
                aggressors.append(previous)
            table_tags[index] = address
        update(address, taken, predicted)

        victim = records.get(address)
        if victim is None:
            victim = CollisionInvolvement()
            records[address] = victim
        victim.executions += 1
        if aggressors:
            if predicted == taken:
                victim.constructive += len(aggressors)
                for aggressor_address in aggressors:
                    aggressor = records.get(aggressor_address)
                    if aggressor is None:
                        aggressor = CollisionInvolvement()
                        records[aggressor_address] = aggressor
                    aggressor.constructive += 1
            else:
                victim.destructive += len(aggressors)
                for aggressor_address in aggressors:
                    aggressor = records.get(aggressor_address)
                    if aggressor is None:
                        aggressor = CollisionInvolvement()
                        records[aggressor_address] = aggressor
                    aggressor.destructive += 1

    return CollisionProfile(
        trace.program_name, trace.input_name, predictor.name, records
    )
