"""Array-backed fast simulation kernels.

The reference simulation loop in :mod:`repro.core.simulator` calls
``predict``/``update`` once per branch; CPython method dispatch makes
that the throughput ceiling of every experiment.  This package provides
numpy-vectorized kernels for the hot predictor families that replay a
whole :class:`~repro.workloads.trace.BranchTrace` in a handful of array
passes, under one non-negotiable contract:

**A fast kernel is bit-identical to the reference loop.**  Same
misprediction count, same collision counts, same final counter-table
state, same history register, same ``_PREDICT_STATE``.  Kernels are an
execution detail, never an experiment parameter -- which is why the
runner's result-cache keys deliberately exclude the kernel mode.

Dispatch is by exact predictor type (subclasses may override
``predict``/``update``, so they fall back), through one table,
``_KERNELS``, mapping each kernel-backed family to its replay.  The
single-table families (bimodal, gshare, ghist) replay on an exact
segmented scan; the hybrids (bimode, 2bcgskew) on numpy index columns
feeding one scalar recurrence (see :mod:`repro.kernels.dynamic`).  A
:class:`~repro.core.combined.CombinedPredictor` wrapping a
kernel-backed family replays on that family's kernel under every
:class:`~repro.arch.isa.ShiftPolicy`.  Collision tracking rides on the
scan families' own sort (see :mod:`repro.kernels.scan`); the hybrids
decline tracked runs.  Every replay, like the reference loop, returns
a per-event :class:`Replay`.  The mode is selected by the ``kernel``
knob on :func:`repro.core.simulator.simulate` and on the profiling
views:

``"auto"``
    Use a fast kernel when the predictor has one; otherwise run the
    reference loop.  The default everywhere.  Predictors with no kernel
    (agree, yags, local, tournament, subclasses), combined predictors
    wrapping one, and collision-tracked hybrids use the reference loop.
``"reference"``
    Always run the per-branch loop (the baseline the differential
    tests and `repro bench` compare against).

numpy is imported inside the kernels, never at module level, so loading
this package loads no numpy.
"""

from __future__ import annotations

from repro.errors import ConfigurationError
from repro.kernels import dynamic
from repro.kernels.dynamic import Replay
from repro.predictors.base import BranchPredictor
from repro.predictors.bimodal import BimodalPredictor
from repro.predictors.bimode import BiModePredictor
from repro.predictors.collisions import CollisionCounts
from repro.predictors.ghist import GhistPredictor
from repro.predictors.gshare import GsharePredictor
from repro.predictors.gskew import TwoBcGskewPredictor
from repro.workloads.trace import BranchTrace

__all__ = [
    "KERNEL_MODES",
    "Replay",
    "has_fast_kernel",
    "try_fast_replay",
    "try_fast_simulate",
    "validate_kernel_mode",
]

KERNEL_MODES = ("auto", "reference")

_KERNELS = {
    BimodalPredictor: dynamic.replay_bimodal,
    GsharePredictor: dynamic.replay_gshare,
    GhistPredictor: dynamic.replay_ghist,
    BiModePredictor: dynamic.replay_bimode,
    TwoBcGskewPredictor: dynamic.replay_2bcgskew,
}
"""Exact predictor type -> ``replay(trace, predictor, track_collisions)``,
returning a :class:`~repro.kernels.dynamic.Replay` with the predictor's
state advanced, or ``None`` (state untouched) when the family cannot
track collisions."""


def validate_kernel_mode(kernel: str) -> str:
    """Return ``kernel`` or raise :class:`ConfigurationError`."""
    if kernel not in KERNEL_MODES:
        raise ConfigurationError(
            f"unknown kernel mode {kernel!r}; expected one of "
            + ", ".join(KERNEL_MODES)
        )
    return kernel


def _within_limits(predictor: BranchPredictor, trace: BranchTrace) -> bool:
    """Conservative numeric-headroom guards (see repro.kernels.dynamic).

    The counter-width guard is the scan's; the hybrids' recurrence
    keeps its counters as Python ints.
    """
    if len(trace) >= dynamic.MAX_TRACE_LENGTH:
        return False
    table = getattr(predictor, "table", None)
    if table is not None and table.bits > dynamic.MAX_COUNTER_BITS:
        return False
    history = getattr(predictor, "history", None)
    if history is not None and history.length > dynamic.MAX_HISTORY_LENGTH:
        return False
    return True


def _family(predictor: BranchPredictor) -> BranchPredictor:
    """The predictor whose counter table a kernel replays: the wrapped
    dynamic predictor of a combined predictor, else ``predictor``."""
    # Imported here: repro.core's simulator imports this package.
    from repro.core.combined import CombinedPredictor

    if type(predictor) is CombinedPredictor:
        return predictor.dynamic
    return predictor


def has_fast_kernel(predictor: BranchPredictor) -> bool:
    """True when ``predictor`` is exactly a kernel-backed family, or a
    combined predictor wrapping one."""
    return type(_family(predictor)) in _KERNELS


def _replay(
    trace: BranchTrace,
    predictor: BranchPredictor,
    family: BranchPredictor,
    track_collisions: bool,
) -> Replay | None:
    """``family``'s replay of ``predictor`` over ``trace``, or ``None``
    when no kernel applies (predictor state untouched)."""
    kernel = _KERNELS.get(type(family))
    if kernel is None or not _within_limits(family, trace):
        return None
    return kernel(trace, predictor, track_collisions)


def try_fast_simulate(
    trace: BranchTrace,
    predictor: BranchPredictor,
    collisions: CollisionCounts | None = None,
) -> int | None:
    """Replay ``trace`` through a fast kernel, if one applies.

    Returns the misprediction count with the predictor's state advanced
    exactly as the reference loop would have left it, or ``None`` when
    no kernel applies and the caller should run the reference loop.

    With ``collisions``, the replay also runs the tag-check
    instrumentation of Figures 1-6 and adds exactly what a fresh
    :class:`~repro.predictors.collisions.CollisionTracker` would have
    counted to that record (left untouched when ``None`` is returned,
    as it is for the hybrid families).
    """
    replay = _replay(trace, predictor, _family(predictor),
                     collisions is not None)
    if replay is None:
        return None
    if collisions is not None:
        replay.add_collisions(collisions)
    return replay.mispredictions


def try_fast_replay(
    trace: BranchTrace,
    predictor: BranchPredictor,
    track_collisions: bool = False,
) -> Replay | None:
    """The profiling views' twin of :func:`try_fast_simulate`: the
    whole :class:`Replay` of a bare predictor (so its positions are
    trace positions), or ``None`` when no kernel applies and the caller
    should run the reference loop."""
    return _replay(trace, predictor, predictor, track_collisions)
