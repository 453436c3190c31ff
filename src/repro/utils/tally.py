"""One per-key tally: the groupby behind every per-branch profile.

Bias profiles, per-site trace statistics (Tables 1 and 2), dynamic
accuracy (``Static_Acc``'s phase one) and collision charges are the same
count over one trace: group the events by branch, count them, and sum
per-event columns, with the branches in order of first execution (the
order a per-branch loop inserts them, which ``to_json`` and the
selection schemes observe).  It replaces three copies of the groupby
and a per-branch Python loop.
"""

from __future__ import annotations

__all__ = ["tally"]


def tally(keys, *columns) -> tuple[list, list[int], list[list[int]]]:
    """Group the integer array ``keys`` by first occurrence.

    Returns ``(distinct, counts, sums)`` as Python lists: the distinct
    keys in order of first occurrence, each key's event count, and per
    bool or integer column aligned with ``keys``, its sum over each
    key's events.  A plain argsort groups the keys (no stable sort is
    needed: a group's first occurrence is its minimum original index)
    and ``reduceat`` sums the groups.
    """
    import numpy

    n = keys.shape[0]
    if n == 0:
        return [], [], [[] for _ in columns]
    sidx = numpy.argsort(keys)
    sorted_keys = keys[sidx]
    starts = numpy.flatnonzero(
        numpy.r_[True, sorted_keys[1:] != sorted_keys[:-1]]
    )
    order = numpy.argsort(numpy.minimum.reduceat(sidx, starts), kind="stable")
    counts = numpy.diff(numpy.r_[starts, n])
    sums = [
        numpy.add.reduceat(column[sidx], starts, dtype=numpy.int64)[order].tolist()
        for column in columns
    ]
    return sorted_keys[starts][order].tolist(), counts[order].tolist(), sums
