"""Whole-trace kernels for the dynamic predictors.

Each kernel replays one :class:`~repro.workloads.trace.BranchTrace`
through one predictor family -- bare, or wrapped in a
:class:`~repro.core.combined.CombinedPredictor` under any
:class:`~repro.arch.isa.ShiftPolicy` -- and returns a :class:`Replay`:

1. a combined predictor's statically hinted events are masked out
   against its hint table and scored with one compare; only the
   remaining (dynamic) events reach the counter tables, gathered
   straight from ``trace.arrays()`` (see :func:`_route`);
2. the counter indices of every dynamic event are precomputed as
   vectorized expressions.  Trace outcomes are known in advance, so the
   global history register's value before each branch is a pure
   function of the outcomes shifted into it (see
   :func:`_history_windows`): the windows are built over the events
   that shift history and sampled at the dynamic ones;
3. the counter state evolution runs in one of two ways:

   * the single-table *scan families* (bimodal, gshare, ghist) run
     through the exact segmented scan of :mod:`repro.kernels.scan`,
     whose stable sort by counter index also yields each lookup's
     previous user -- the tag check of the paper's collision
     instrumentation;
   * the *hybrid families* (bimode, 2bcgskew) couple their tables --
     which bank trains, and whether the chooser does, depends on the
     other tables' predictions -- so no per-counter scan can express
     them.  Their index columns are still computed by numpy, one
     :data:`CHUNK` of events at a time, and one tight scalar loop per
     chunk applies the predict/update rules to the predictor's own
     counter lists, in place;

4. the predictor's externally visible state -- counter tables, history
   register, ``_PREDICT_STATE`` and the combined predictor's static
   counters -- is written back so the predictor is indistinguishable
   from one trained by the reference loop.

Every kernel is bit-identical to the reference ``predict``/``update``
loop by contract (same mispredictions, same collision counts, same
final state), including warm-started predictors.  Callers go through
:func:`repro.kernels.try_fast_simulate`, which performs the type and
limit checks; numpy is imported inside the functions, so loading the
module loads no numpy.
"""

from __future__ import annotations

from typing import NamedTuple

from repro.arch.isa import ShiftPolicy
from repro.kernels.scan import scan_counters
from repro.predictors.indexing import skew_h, skew_h_inv
from repro.utils.bits import ADDRESS_ALIGN_SHIFT, log2_exact

__all__ = [
    "CHUNK",
    "MAX_COUNTER_BITS",
    "MAX_HISTORY_LENGTH",
    "MAX_TRACE_LENGTH",
    "Replay",
    "replay_2bcgskew",
    "replay_bimodal",
    "replay_bimode",
    "replay_ghist",
    "replay_gshare",
]

MAX_TRACE_LENGTH = 1 << 30
"""Scan adds are int32; cumulative deltas must stay far from overflow."""

MAX_COUNTER_BITS = 16
"""Scan counter states must fit int32 alongside the cumulative deltas."""

MAX_HISTORY_LENGTH = 62
"""History windows are built in int64; bit length-1 must stay below 63."""

CHUNK = 4096
"""Events per index-column chunk of the hybrid recurrences.  The scalar
loop reads each chunk's columns through memoryviews, one Python int at
a time; whole-trace columns, let alone Python lists of them (tens of
MiB), never exist."""


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

    ``predictions`` and ``outcomes`` are numpy bool arrays over the
    events the replay predicted itself: every event for a bare
    predictor and for the reference loop, the dynamically predicted
    ones under a combined predictor's kernel, which counts the rest in
    ``static_mispredictions``.  ``collisions`` is the
    ``(victims, aggressors)`` pair of position arrays over those events
    (the scan's, see :func:`~repro.kernels.scan.scan_counters`, or the
    :class:`~repro.predictors.collisions.CollisionTracker`'s) when the
    replay tracked collisions, else ``None``.
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

    def add_collisions(self, counts) -> None:
        """Add what a fresh
        :class:`~repro.predictors.collisions.CollisionTracker` would have
        recorded to ``counts``: one lookup per dynamic event, and each
        collision constructive when its victim was predicted correctly."""
        import numpy

        victims, _ = self.collisions
        hits = int(numpy.count_nonzero(
            self.predictions[victims] == self.outcomes[victims]
        ))
        counts.lookups += self.predictions.shape[0]
        counts.collisions += victims.shape[0]
        counts.constructive += hits
        counts.destructive += victims.shape[0] - hits


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


class _Events(NamedTuple):
    """The dynamic events of one replay, ready for a family's rules.

    ``family`` is the predictor whose tables the events train (a
    combined predictor's wrapped one); ``windows`` holds each event's
    history register value (``None`` for a history-less family) and is
    the caller's to mutate.
    """

    family: object
    addresses: object
    taken: object
    windows: object
    static_mispredictions: int


def _dynamic_events(trace, predictor):
    """Route ``trace`` through ``predictor`` up to its counter tables.

    Advances a combined predictor's static counters and the family's
    history register to their post-trace values; the counter tables and
    the predict-time state are the caller's to advance.
    """
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
        windows = _history_windows(shifted, history.length, history.value)
        # Sample the windows at the dynamic events, unless those are
        # exactly the events that shift (bare, or NO_SHIFT).
        if shifts is not dynamic:
            windows = windows[dynamic if shifts is None else dynamic[shifts]]
        history.import_value(
            _final_history(shifted, history.length, history.value)
        )
    return _Events(predictor, addresses, taken, windows,
                   static_mispredictions)


def _fold(windows, length, width, mask):
    """Fold history windows into an index ``width``, in place.

    Matches the reference predictors' fold-then-mask: a register no
    longer than the index is used as is (it already fits the mask), a
    longer one is XOR-folded once and masked.
    """
    if length > width:
        windows ^= windows >> width
        windows &= mask
    return windows


# -- scan families ----------------------------------------------------


def _scan(trace, predictor, index_of, track_collisions):
    """Replay a scan family (bare or combined) through the clamp-add scan.

    ``index_of(family, addresses, windows)`` computes the family's
    counter indices from the dynamic events' addresses and history
    windows (``None`` for a history-less family).
    """
    import numpy

    events = _dynamic_events(trace, predictor)
    family = events.family
    indices = index_of(family, events.addresses, events.windows)
    table = family.table
    base = table.export_array().astype(numpy.int32)
    predictions, collisions = scan_counters(
        indices, events.taken, base, table.max_value, table.threshold,
        events.addresses if track_collisions else None,
    )
    table.import_array(base)
    if indices.shape[0]:
        family._last_index = int(indices[-1])
    return Replay(predictions, events.taken, events.static_mispredictions,
                  collisions)


def _folded_windows(predictor, windows):
    """A gshare/ghist predictor's windows folded into its index width.

    Every returned window fits the index mask, so gshare's XOR with
    masked address bits needs no re-mask.
    """
    table = predictor.table
    return _fold(windows, predictor.history.length,
                 log2_exact(table.entries), table.mask)


def _bimodal_indices(predictor, addresses, windows):
    return (addresses >> ADDRESS_ALIGN_SHIFT) & predictor.table.mask


def _gshare_indices(predictor, addresses, windows):
    windows = _folded_windows(predictor, windows)
    pc = (addresses >> ADDRESS_ALIGN_SHIFT) & predictor.table.mask
    return pc.astype(windows.dtype) ^ windows


def _ghist_indices(predictor, addresses, windows):
    return _folded_windows(predictor, windows)


def replay_bimodal(trace, predictor, track_collisions=False):
    """:class:`Replay` of a
    :class:`~repro.predictors.bimodal.BimodalPredictor`, state advanced."""
    return _scan(trace, predictor, _bimodal_indices, track_collisions)


def replay_gshare(trace, predictor, track_collisions=False):
    """:class:`Replay` of a
    :class:`~repro.predictors.gshare.GsharePredictor`, state advanced."""
    return _scan(trace, predictor, _gshare_indices, track_collisions)


def replay_ghist(trace, predictor, track_collisions=False):
    """:class:`Replay` of a
    :class:`~repro.predictors.ghist.GhistPredictor`, state advanced."""
    return _scan(trace, predictor, _ghist_indices, track_collisions)


# -- hybrid families --------------------------------------------------


def _recurrence(events, index_columns, chunk, *tables):
    """Drive a hybrid family's scalar recurrence over its dynamic events.

    Per :data:`CHUNK` of events, ``index_columns(start, stop)`` returns
    the numpy index columns; memoryviews of them and of the outcomes
    feed ``chunk(*columns, taken, *tables, out)``, which writes each
    event's prediction to ``out`` and returns the last event's
    predict-time state.  Returns ``(predictions, last)``, ``last``
    being ``None`` when no event reached the tables.
    """
    import numpy

    n = events.taken.shape[0]
    predictions = numpy.empty(n, dtype=numpy.bool_)
    out = bytearray(CHUNK)
    last = None
    for start in range(0, n, CHUNK):
        stop = min(start + CHUNK, n)
        last = chunk(*map(memoryview, index_columns(start, stop)),
                     memoryview(events.taken[start:stop]), *tables, out)
        predictions[start:stop] = numpy.frombuffer(
            out, dtype=numpy.bool_, count=stop - start)
    return predictions, last


def _bimode_chunk(directions, choices, taken, banks, choice, threshold,
                  top, out):
    """:class:`~repro.predictors.bimode.BiModePredictor`'s predict and
    update rules over one chunk of events, on its own counter lists.

    Writes each event's prediction to ``out`` and returns the last
    event's ``(direction_index, choice_index, choice_taken,
    direction_pred)``.
    """
    # repro: allow[PERF001] -- the coupled counter recurrence: each
    # event's bank and choice update depend on counters the previous
    # events wrote, so it is scalar by definition; every index it
    # reads was computed by numpy, one bounded chunk at a time
    for i, d, c, t in zip(range(len(taken)), directions, choices, taken):
        cv = choice[c]
        ct = cv >= threshold
        bank = banks[ct]
        v = bank[d]
        p = v >= threshold
        out[i] = p
        # Only the selected bank trains.  The choice trains unless it
        # disagreed with the outcome while that bank was right.
        if t:
            if v < top:
                bank[d] = v + 1
            if cv < top and (ct or not p):
                choice[c] = cv + 1
        else:
            if v:
                bank[d] = v - 1
            if cv and (p or not ct):
                choice[c] = cv - 1
    return d, c, ct, p


def replay_bimode(trace, predictor, track_collisions=False):
    """:class:`Replay` of a
    :class:`~repro.predictors.bimode.BiModePredictor`, state advanced.

    ``None`` when asked to track collisions: the tag check of two
    coupled tables per lookup stays on the reference loop.
    """
    if track_collisions:
        return None
    events = _dynamic_events(trace, predictor)
    bimode = events.family
    windows = _fold(events.windows, bimode.history.length,
                    bimode._direction_width, bimode._direction_mask)

    def index_columns(start, stop):
        pc = events.addresses[start:stop] >> ADDRESS_ALIGN_SHIFT
        return ((pc ^ windows[start:stop]) & bimode._direction_mask,
                pc & bimode._choice_mask)

    banks = (bimode.direction_banks[0].values,
             bimode.direction_banks[1].values)
    predictions, last = _recurrence(
        events, index_columns, _bimode_chunk, banks, bimode.choice.values,
        bimode._threshold, bimode._max_value,
    )
    if last is not None:
        direction_index, choice_index, choice_taken, direction_pred = last
        bimode._last_direction_index = direction_index
        bimode._last_choice_index = choice_index
        bimode._last_bank = 1 if choice_taken else 0
        bimode._last_choice_taken = choice_taken
        bimode._last_direction_pred = direction_pred
    return Replay(predictions, events.taken, events.static_mispredictions,
                  None)


def _gskew_chunk(bims, g0s, g1s, metas, taken, banks, threshold, top, out):
    """:class:`~repro.predictors.gskew.TwoBcGskewPredictor`'s predict
    and update rules over one chunk of events, on its own counter lists.

    Writes each event's prediction to ``out`` and returns the last
    event's indices and component predictions.
    """
    bim, g0, g1, meta = banks
    # repro: allow[PERF001] -- the coupled counter recurrence: which
    # banks train depends on all four banks' predictions, which depend
    # on what earlier events wrote, so it is scalar by definition;
    # every index it reads was computed by numpy, one bounded chunk at
    # a time
    for i, b, x, y, m, t in zip(range(len(taken)), bims, g0s, g1s, metas,
                                taken):
        bv = bim[b]
        xv = g0[x]
        yv = g1[y]
        mv = meta[m]
        bp = bv >= threshold
        xp = xv >= threshold
        yp = yv >= threshold
        gp = (bp + xp + yp) >= 2
        mc = mv >= threshold
        final = gp if mc else bp
        out[i] = final
        # A wrong prediction trains BIM, G0 and G1.  A right one trains
        # the banks that agreed with it: BIM whenever it was right, G0
        # and G1 only when the vote was chosen.
        wrong = final != t
        if t:
            if bv < top and (wrong or bp):
                bim[b] = bv + 1
            if xv < top and (wrong or mc and xp):
                g0[x] = xv + 1
            if yv < top and (wrong or mc and yp):
                g1[y] = yv + 1
        else:
            if bv and (wrong or not bp):
                bim[b] = bv - 1
            if xv and (wrong or mc and not xp):
                g0[x] = xv - 1
            if yv and (wrong or mc and not yp):
                g1[y] = yv - 1
        # META trains only when the components disagree, toward the one
        # that was right.
        if bp != gp:
            if gp == t:
                if mv < top:
                    meta[m] = mv + 1
            elif mv:
                meta[m] = mv - 1
    return b, x, y, m, bp, xp, yp, gp, mc


def replay_2bcgskew(trace, predictor, track_collisions=False):
    """:class:`Replay` of a
    :class:`~repro.predictors.gskew.TwoBcGskewPredictor`, state advanced.

    The skewed G0/G1 indices apply the same ``H``/``H^-1`` functions
    the predictor tabulates, as array shifts and XORs.  ``None`` when
    asked to track collisions: the tag check of four tables per lookup
    stays on the reference loop.
    """
    if track_collisions:
        return None
    events = _dynamic_events(trace, predictor)
    gskew = events.family
    width = gskew._width
    mask = gskew._mask

    def index_columns(start, stop):
        pc = events.addresses[start:stop] >> ADDRESS_ALIGN_SHIFT
        history = events.windows[start:stop]
        c1 = pc & mask
        c2 = (pc >> width) & mask
        # H and H^-1 keep width-bit values width bits wide, so only
        # META, which XORs the whole PC, needs the mask.
        g0 = (skew_h(c1, width) ^ skew_h_inv(c2, width)
              ^ (history & gskew._g0_hist_mask))
        g1 = (skew_h_inv(c1, width) ^ c2
              ^ skew_h(history & gskew._g1_hist_mask, width))
        meta = (pc ^ (history & gskew._meta_hist_mask)) & mask
        return c1, g0, g1, meta

    predictions, last = _recurrence(
        events, index_columns, _gskew_chunk,
        tuple(bank.values for bank in gskew.banks),
        gskew._threshold, gskew._max_value,
    )
    if last is not None:
        gskew._idx[:] = last[:4]
        (gskew._bim_pred, gskew._g0_pred, gskew._g1_pred,
         gskew._gskew_pred, gskew._meta_choice_gskew) = last[4:]
    return Replay(predictions, events.taken, events.static_mispredictions,
                  None)
