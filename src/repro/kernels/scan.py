"""Exact segmented scan over saturating-counter state machines.

The sequential semantics of an n-bit saturating counter are
``state' = clip(state + (+1 if taken else -1), 0, max_value)``, so each
trace event acts on its counter as a *clamp-add* map
``s -> clip(s + a, lo, hi)``.  Clamp-add maps are closed under
composition::

    (f2 . f1)(s) = clip(s + a1 + a2,
                        clip(lo1 + a2, lo2, hi2),
                        clip(hi1 + a2, lo2, hi2))

which turns the per-counter state evolution into a prefix *scan* over
map composition rather than an inherently sequential loop.  This module
runs that scan for every counter of a table at once: events are stably
sorted by counter index so each counter's events form one contiguous
segment, then a segmented Hillis-Steele doubling pass composes the maps
in ``O(log longest_segment)`` vectorized rounds.

Two exactness-preserving representation tricks keep the rounds cheap:

* A map's shift may be clamped to ``[-(max_value+1), max_value+1]``
  without changing its action on the counter domain ``[0, max_value]``
  (a shift past either barrier already pins every state to that
  barrier's clip bound).  For hardware-width counters the whole scan
  therefore runs in ``int8``, which keeps the working set L2-resident.
* Cross-segment composition is suppressed *arithmetically* instead of
  with ``numpy.where`` (an order of magnitude slower per round): the
  predecessor map is gated to the identity -- shift 0, clip bounds at
  sentinels ``-big``/``+big`` that the subsequent clip provably
  ignores -- by multiplying with the 0/1 same-segment mask.

The construction is exact, not approximate: the predictions it reports
and the final counter states it writes back are bit-identical to the
reference ``predict``/``update`` loop, including warm (non-initial)
starting states.  ``tests/test_kernels.py`` enforces that contract
differentially against randomized traces.

The same stable sort also answers the paper's collision question
(Section 5: a tag per counter holds "the address of the last branch
using that counter").  Within a counter's segment the event before
``i`` *is* the counter's previous user, so the tag check reduces to one
compare of neighbouring sorted addresses -- no second sort, no per-event
tag array.
"""

from __future__ import annotations

__all__ = ["scan_counters"]

_INT8_MAX_VALUE = 31
"""Widest counter the int8 scan holds: values, clamped shifts, and the
gating sentinel (64) must all stay inside ``[-128, 127]``."""


def _sort_key_dtype(numpy, entries: int):
    """Smallest integer dtype holding ``[0, entries)`` index keys.

    numpy's stable sort is a radix sort for 16-bit integers but a
    mergesort above that, an ~8x difference on typical traces; every
    table the paper simulates fits 16-bit keys.
    """
    if entries <= 1 << 15:
        return numpy.int16
    if entries <= 1 << 16:
        return numpy.uint16
    return numpy.int32


def scan_counters(indices, outcomes, base, max_value, threshold,
                  addresses=None):
    """Run every counter of one table through its events, vectorized.

    Parameters
    ----------
    indices:
        Integer array, shape ``(n,)``: the counter index each trace
        event touches, in trace order.  Values must already be masked
        into ``[0, len(base))``.
    outcomes:
        Bool array, shape ``(n,)``: resolved directions (True = taken).
    base:
        ``int32`` array of current counter states; mutated in place to
        the exact post-trace state for every counter that ``indices``
        touches (untouched counters keep their state).
    max_value:
        Saturation ceiling of the table (``2**bits - 1``).
    threshold:
        Counter values ``>= threshold`` predict taken.
    addresses:
        Optional integer array, shape ``(n,)``: each event's full branch
        address.  When given, the scan also runs the collision tag check.

    Returns
    -------
    ``(predictions, collisions)``.  ``predictions`` is a bool array,
    shape ``(n,)``, in trace order: the prediction each event saw,
    exactly as the reference loop would have produced it.
    ``collisions`` is ``None`` without ``addresses``; otherwise it is
    ``(victims, aggressors)``, two aligned arrays of trace positions:
    every event whose counter was last used by a different address, and
    that previous user.
    """
    import numpy

    n = indices.shape[0]
    if n == 0:
        empty = numpy.zeros(0, dtype=numpy.intp)
        collisions = None if addresses is None else (empty, empty)
        return numpy.zeros(0, dtype=numpy.bool_), collisions

    if max_value <= _INT8_MAX_VALUE:
        value_dtype = numpy.int8
        big = 64
    else:
        value_dtype = numpy.int32
        big = 1 << 20
    shift_limit = max_value + 1

    keys = indices.astype(_sort_key_dtype(numpy, base.shape[0]))
    order = numpy.argsort(keys, kind="stable")
    sidx = keys[order]
    staken = outcomes[order]

    # One clamp-add map per event: taken increments, not-taken
    # decrements, both clipped to the counter range.
    a = (staken.view(numpy.int8).astype(value_dtype) << 1) - 1
    lo = numpy.zeros(n, dtype=value_dtype)
    hi = numpy.full(n, max_value, dtype=value_dtype)

    # After the stable sort each distinct counter index owns one
    # contiguous run of events, so sorted keys identify segments.
    seg_start = numpy.empty(n, dtype=numpy.bool_)
    seg_start[0] = True
    numpy.not_equal(sidx[1:], sidx[:-1], out=seg_start[1:])
    bounds = numpy.empty(
        int(numpy.count_nonzero(seg_start)) + 1, dtype=numpy.intp
    )
    bounds[:-1] = numpy.flatnonzero(seg_start)
    bounds[-1] = n
    longest = int(numpy.diff(bounds).max())

    # Segmented Hillis-Steele inclusive scan.  Invariant before the
    # round at distance d: element i's composite covers the most recent
    # min(d, events-before-i-in-segment + 1) events ending at i.
    # Combining with i-d (when still in the same segment) doubles that
    # window; crossing a segment boundary leaves the composite complete.
    d = 1
    while d < longest:
        same = (sidx[d:] == sidx[:-d]).view(numpy.int8)
        ca = a[d:]
        clo = lo[d:]
        chi = hi[d:]
        # Gate the predecessor map to the identity across segment
        # boundaries: shift 0, clip bounds at +-big, which the clip
        # against [clo, chi] then ignores.  Materialize all three
        # composites before writing any of them -- the c* names are
        # views into the arrays being assigned.
        na = numpy.clip(a[:-d] * same + ca, -shift_limit, shift_limit)
        nlo = numpy.minimum(
            numpy.maximum(((lo[:-d] + big) * same - big) + ca, clo), chi
        )
        nhi = numpy.minimum(
            numpy.maximum(((hi[:-d] - big) * same + big) + ca, clo), chi
        )
        a[d:] = na
        lo[d:] = nlo
        hi[d:] = nhi
        d <<= 1

    # Apply each event's prefix composite to its counter's starting
    # state: state *after* event i, then the state the event predicted
    # from (the previous event's after-state, or the base state at the
    # head of the segment).
    sidx_p = sidx.astype(numpy.intp)
    s0 = base.astype(value_dtype)[sidx_p]
    after = numpy.minimum(numpy.maximum(s0 + a, lo), hi)
    before = numpy.empty(n, dtype=value_dtype)
    before[0] = s0[0]
    seg8 = seg_start[1:].view(numpy.int8)
    before[1:] = after[:-1] + (s0[1:] - after[:-1]) * seg8

    predictions = numpy.empty(n, dtype=numpy.bool_)
    predictions[order] = before >= threshold

    ends = bounds[1:] - 1
    base[sidx_p[ends]] = after[ends]
    if addresses is None:
        return predictions, None

    # A segment's head is its counter's first use in this replay, which
    # finds the tag empty (tags start empty every run); every later
    # event collides when its predecessor in the segment -- the
    # counter's previous user -- has a different address.
    saddr = addresses[order]
    collided = saddr[1:] != saddr[:-1]
    collided &= ~seg_start[1:]
    return predictions, (order[1:][collided], order[:-1][collided])
