"""Tag-based collision instrumentation (Figures 1-6 of the paper).

Section 5: "The collisions were counted by maintaining a tag for each
counter in the dynamic predictor.  The tag for a counter was used to
store the address of the last branch using that counter.  When we looked
up the table of counters ... if the address of the branch did not match
the tag then we counted the event as a collision.  ...  When we found a
collision, if the overall prediction was correct we considered the
collision as constructive otherwise we considered it destructive."

This is *simulation instrumentation*, not modelled hardware: the tag
arrays exist only in the tracker.  The tracker observes any
:class:`~repro.predictors.base.BranchPredictor` through its ``accessed()``
hook, so the same code instruments a single-table gshare and a four-bank
2bcgskew.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.predictors.base import BranchPredictor

__all__ = ["CollisionCounts", "CollisionTracker"]


@dataclass(slots=True)
class CollisionCounts:
    """Aggregate collision statistics for one simulation run."""

    lookups: int = 0
    """Counter lookups observed (one per table per predicted branch)."""
    collisions: int = 0
    """Lookups whose tag held a different branch's address."""
    constructive: int = 0
    """Collisions on branches whose overall prediction was correct."""
    destructive: int = 0
    """Collisions on branches whose overall prediction was wrong."""

    @property
    def collision_rate(self) -> float:
        """Collisions per lookup."""
        if self.lookups == 0:
            return 0.0
        return self.collisions / self.lookups

    @property
    def destructive_fraction(self) -> float:
        """Fraction of collisions classified destructive."""
        if self.collisions == 0:
            return 0.0
        return self.destructive / self.collisions

    def merge(self, other: "CollisionCounts") -> None:
        """Accumulate another run's counts into this one."""
        self.lookups += other.lookups
        self.collisions += other.collisions
        self.constructive += other.constructive
        self.destructive += other.destructive


class CollisionTracker:
    """Per-counter last-user tags over a predictor's tables.

    Usage by the simulator, per dynamically predicted branch::

        n = tracker.observe_lookup(address)      # after predict()
        tracker.classify(n, prediction_correct)  # after resolution

    Each collision is also recorded as ``(victims[k], aggressors[k])``:
    the colliding lookup and the tag's previous user, as positions in
    the tracker's sequence of lookups (trace positions, when it observes
    every event), once per table that collided.
    """

    def __init__(self, predictor: BranchPredictor):
        self.predictor = predictor
        self.reset()

    def observe_lookup(self, address: int) -> int:
        """Record the predictor's latest lookup; return collisions seen.

        Must be called after ``predictor.predict(address)`` and before
        the corresponding ``update`` (updates may change accessed()).
        """
        collisions = 0
        counts = self.counts
        tags = self.tags
        users = self.users
        position = self._position
        self._position = position + 1
        for table_id, index in self.predictor.accessed():
            counts.lookups += 1
            table_tags = tags[table_id]
            table_users = users[table_id]
            previous = table_tags[index]
            if previous >= 0 and previous != address:
                collisions += 1
                self.victims.append(position)
                self.aggressors.append(table_users[index])
            table_tags[index] = address
            table_users[index] = position
        counts.collisions += collisions
        return collisions

    def classify(self, collisions: int, prediction_correct: bool) -> None:
        """Attribute this branch's collisions as constructive/destructive."""
        if collisions == 0:
            return
        if prediction_correct:
            self.counts.constructive += collisions
        else:
            self.counts.destructive += collisions

    def reset(self) -> None:
        """Clear tags, recorded collisions and counts."""
        # -1 marks "never used"; first use of a counter is not a
        # collision (there is no previous branch to collide with).
        self.tags: list[list[int]] = [
            [-1] * entries for entries in self.predictor.table_entry_counts()
        ]
        # Each counter's last user, as a lookup position.
        self.users: list[list[int]] = [list(tags) for tags in self.tags]
        self.victims: list[int] = []
        self.aggressors: list[int] = []
        self.counts = CollisionCounts()
        self._position = 0
