"""Whole-trace kernels for the hot dynamic predictors.

Each kernel replays one :class:`~repro.workloads.trace.BranchTrace`
through one predictor family -- bare, or wrapped in a
:class:`~repro.core.combined.CombinedPredictor` under any
:class:`~repro.arch.isa.ShiftPolicy` -- without a per-branch Python
loop:

1. a combined predictor's statically hinted events are masked out
   against its hint table and scored with one compare; only the
   remaining (dynamic) events reach the counter table, gathered
   straight from ``trace.arrays()`` (see :func:`_route`);
2. the counter index of every dynamic event is precomputed as one
   vectorized expression.  Trace outcomes are known in advance, so the
   global history register's value before each branch is a pure
   function of the outcomes shifted into it (see
   :func:`_history_windows`): the windows are built over the events
   that shift history and sampled at the dynamic ones;
3. the per-counter state evolution runs through the exact segmented
   scan of :mod:`repro.kernels.scan`, whose stable sort by counter
   index also yields each lookup's previous user -- the tag check of
   the paper's collision instrumentation;
4. the predictor's externally visible state -- counter table, history
   register, ``_PREDICT_STATE`` and the combined predictor's static
   counters -- is written back so the predictor is indistinguishable
   from one trained by the reference loop.

Every kernel is bit-identical to the reference ``predict``/``update``
loop by contract (same mispredictions, same collision counts, same
final state), including warm-started predictors.  Callers go through
:func:`repro.kernels.try_fast_simulate`, which performs the type and
limit checks; numpy is imported lazily so the package stays importable
(and the reference loop fully functional) without it.
"""

from __future__ import annotations

from typing import NamedTuple

from repro.arch.isa import ShiftPolicy
from repro.kernels.scan import scan_counters
from repro.utils.bits import ADDRESS_ALIGN_SHIFT, log2_exact

__all__ = [
    "MAX_COUNTER_BITS",
    "MAX_HISTORY_LENGTH",
    "MAX_TRACE_LENGTH",
    "Replay",
    "predictions_bimodal",
    "predictions_ghist",
    "predictions_gshare",
    "simulate_bimodal",
    "simulate_ghist",
    "simulate_gshare",
]

MAX_TRACE_LENGTH = 1 << 30
"""Scan adds are int32; cumulative deltas must stay far from overflow."""

MAX_COUNTER_BITS = 16
"""Counter states must fit int32 alongside the cumulative deltas."""

MAX_HISTORY_LENGTH = 62
"""History windows are built in int64; bit length-1 must stay below 63."""


def _history_windows(outcomes, length, initial):
    """The history register's value *before* each branch, vectorized.

    Register semantics (:class:`~repro.predictors.history.GlobalHistory`):
    bit 0 is the most recent outcome, so before branch ``i`` the
    register holds ``outcome[i-k]`` at bit ``k-1`` for ``k <= length``,
    with bits beyond the start of the trace supplied by ``initial``
    (the warm-start register contents) shifted left ``i`` times.

    Short registers -- every configuration the paper simulates -- are
    built in int32 to halve the memory traffic of the ``length`` shift
    passes.
    """
    import numpy

    dtype = numpy.int32 if length <= 30 else numpy.int64
    n = outcomes.shape[0]
    windows = numpy.zeros(n, dtype=dtype)
    if length == 0 or n == 0:
        return windows
    bits = outcomes.view(numpy.int8).astype(dtype)
    for k in range(1, length + 1):
        if k >= n:
            break
        windows[k:] |= bits[:-k] << (k - 1)
    if initial:
        mask = (1 << length) - 1
        for i in range(min(length, n)):
            contribution = (initial << i) & mask
            if contribution == 0:
                break
            windows[i] |= contribution
    return windows


def _final_history(outcomes, length, initial):
    """The register value after shifting in every outcome of the trace."""
    if length == 0:
        return 0
    mask = (1 << length) - 1
    n = outcomes.shape[0]
    value = initial & mask
    for i in range(max(0, n - length), n):
        value = ((value << 1) | int(outcomes[i])) & mask
    return value


class Replay(NamedTuple):
    """What one whole-trace replay saw, in trace order.

    ``predictions`` and ``outcomes`` cover the events that looked up the
    counter table: every event for a bare predictor, the dynamically
    predicted ones under a combined predictor.  ``collisions`` is the
    scan's ``(victims, aggressors)`` position pair over those events
    (see :func:`~repro.kernels.scan.scan_counters`) when the replay was
    asked to track collisions, else ``None``.
    """

    predictions: object
    outcomes: object
    static_mispredictions: int
    collisions: tuple | None

    @property
    def mispredictions(self) -> int:
        import numpy

        dynamic = int(numpy.count_nonzero(self.predictions != self.outcomes))
        return dynamic + self.static_mispredictions


def _route(combined, addresses, outcomes):
    """Split a trace the way :class:`CombinedPredictor` routes it.

    Returns ``(dynamic, shifts, static_mispredictions)``: bool masks of
    the events that look up (and train) the wrapped predictor and of the
    events that shift its history register (``None`` = every event),
    plus the statically predicted events' mispredictions.  Advances the
    combined predictor's own counters exactly as its ``predict``/
    ``update`` pair would have.
    """
    import numpy

    hinted = sorted(combined._static_direction)
    n = addresses.shape[0]
    static = numpy.zeros(n, dtype=numpy.bool_)
    wrong = 0
    if hinted:
        keys = numpy.array(hinted, dtype=numpy.int64)
        slot = numpy.minimum(
            numpy.searchsorted(keys, addresses), len(hinted) - 1
        )
        static = keys[slot] == addresses
        direction = numpy.array(
            [combined._static_direction[a] for a in hinted], dtype=numpy.bool_
        )[slot]
        wrong = int(numpy.count_nonzero(static & (direction != outcomes)))
    dynamic = ~static
    policy = combined.shift_policy
    if policy is ShiftPolicy.SHIFT:
        shifts = None
    elif policy is ShiftPolicy.PER_BRANCH and hinted:
        shift_bit = numpy.array(
            [bool(combined._static_shift.get(a)) for a in hinted],
            dtype=numpy.bool_,
        )[slot]
        shifts = dynamic | (static & shift_bit)
    else:
        shifts = dynamic
    combined.static_lookups += int(numpy.count_nonzero(static))
    combined.static_mispredictions += wrong
    if n:
        combined._last_was_static = bool(static[n - 1])
    return dynamic, shifts, wrong


def _replay(trace, predictor, index_of, track_collisions):
    """Replay ``trace`` through ``predictor``, advancing all its state.

    ``predictor`` is a scan family or a combined predictor wrapping one;
    ``index_of(family, addresses, windows)`` computes the family's
    counter indices from the dynamic events' addresses and history
    windows (``None`` for a history-less family).
    """
    import numpy

    from repro.core.combined import CombinedPredictor

    addresses, outcomes = trace.arrays()
    dynamic = shifts = None
    static_mispredictions = 0
    if isinstance(predictor, CombinedPredictor):
        dynamic, shifts, static_mispredictions = _route(
            predictor, addresses, outcomes
        )
        predictor = predictor.dynamic
        addresses = addresses[dynamic]
        taken = outcomes[dynamic]
    else:
        taken = outcomes

    history = getattr(predictor, "history", None)
    windows = None
    if history is not None:
        shifted = outcomes if shifts is None else outcomes[shifts]
        windows = _folded_windows(predictor, shifted)
        # Sample the windows at the dynamic events, unless those are
        # exactly the events that shift (bare, or NO_SHIFT).
        if shifts is not dynamic:
            windows = windows[dynamic if shifts is None else dynamic[shifts]]
        final = _final_history(shifted, history.length, history.value)

    indices = index_of(predictor, addresses, windows)
    table = predictor.table
    base = table.export_array().astype(numpy.int32)
    predictions, collisions = scan_counters(
        indices, taken, base, table.max_value, table.threshold,
        addresses if track_collisions else None,
    )
    table.import_array(base)
    if indices.shape[0]:
        predictor._last_index = int(indices[-1])
    if history is not None:
        history.import_value(final)
    return Replay(predictions, taken, static_mispredictions, collisions)


def _tally(replay, collisions):
    """A replay's misprediction total; with ``collisions`` (a
    :class:`~repro.predictors.collisions.CollisionCounts`), also add the
    counts a :class:`~repro.predictors.collisions.CollisionTracker`
    would have recorded: one lookup per dynamic event, and each
    collision constructive when its victim was predicted correctly."""
    if collisions is not None:
        import numpy

        victims, _ = replay.collisions
        hits = int(numpy.count_nonzero(
            replay.predictions[victims] == replay.outcomes[victims]
        ))
        collisions.lookups += replay.predictions.shape[0]
        collisions.collisions += victims.shape[0]
        collisions.constructive += hits
        collisions.destructive += victims.shape[0] - hits
    return replay.mispredictions


def _folded_windows(predictor, outcomes):
    """Per-branch history windows, folded into the table's index width.

    Every returned window fits the index mask (an unfolded register is
    at most ``width`` bits; a folded one is masked here, matching the
    reference predictors' mask-after-fold), so gshare's XOR with masked
    address bits needs no re-mask.
    """
    history = predictor.history
    width = log2_exact(predictor.table.entries)
    windows = _history_windows(outcomes, history.length, history.value)
    if history.length > width:
        windows ^= windows >> width
        windows &= predictor.table.mask
    return windows


def _bimodal_indices(predictor, addresses, windows):
    return (addresses >> ADDRESS_ALIGN_SHIFT) & predictor.table.mask


def _gshare_indices(predictor, addresses, windows):
    pc = (addresses >> ADDRESS_ALIGN_SHIFT) & predictor.table.mask
    return pc.astype(windows.dtype) ^ windows


def _ghist_indices(predictor, addresses, windows):
    return windows


def predictions_bimodal(trace, predictor, track_collisions=False):
    """:class:`Replay` of a
    :class:`~repro.predictors.bimodal.BimodalPredictor`, state advanced."""
    return _replay(trace, predictor, _bimodal_indices, track_collisions)


def simulate_bimodal(trace, predictor, collisions=None):
    """Fast path for :class:`~repro.predictors.bimodal.BimodalPredictor`."""
    replay = predictions_bimodal(trace, predictor, collisions is not None)
    return _tally(replay, collisions)


def predictions_gshare(trace, predictor, track_collisions=False):
    """:class:`Replay` of a
    :class:`~repro.predictors.gshare.GsharePredictor`, state advanced."""
    return _replay(trace, predictor, _gshare_indices, track_collisions)


def simulate_gshare(trace, predictor, collisions=None):
    """Fast path for :class:`~repro.predictors.gshare.GsharePredictor`."""
    replay = predictions_gshare(trace, predictor, collisions is not None)
    return _tally(replay, collisions)


def predictions_ghist(trace, predictor, track_collisions=False):
    """:class:`Replay` of a
    :class:`~repro.predictors.ghist.GhistPredictor`, state advanced."""
    return _replay(trace, predictor, _ghist_indices, track_collisions)


def simulate_ghist(trace, predictor, collisions=None):
    """Fast path for :class:`~repro.predictors.ghist.GhistPredictor`."""
    replay = predictions_ghist(trace, predictor, collisions is not None)
    return _tally(replay, collisions)
