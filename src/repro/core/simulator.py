"""Simulation driver: traces through predictors, in the paper's two phases.

* :func:`simulate` -- run one trace through one predictor, producing a
  :class:`~repro.core.metrics.SimulationResult` (optionally with the
  tag-based collision instrumentation of Figures 1-6).
* :func:`replay` -- the same run as a per-event
  :class:`~repro.kernels.Replay`, for the per-branch profiling views.
* :func:`run_selection_phase` -- phase one: profile a trace (and, for the
  accuracy-based schemes, simulate the dynamic predictor over it) and
  produce a :class:`~repro.staticpred.hints.HintAssignment`.
* :func:`run_combined` -- phase two: wrap a fresh dynamic predictor with
  the hints and measure on the measurement trace.

Keeping the phases as separate functions keeps "self-trained" versus
"cross-trained" experiments honest: the caller explicitly chooses which
trace feeds selection and which feeds measurement.
"""

from __future__ import annotations

from typing import Callable

from repro.arch.isa import ShiftPolicy
from repro.core.combined import CombinedPredictor
from repro.core.metrics import SimulationResult
from repro.errors import SelectionError
from repro.kernels import (
    Replay,
    try_fast_replay,
    try_fast_simulate,
    validate_kernel_mode,
)
from repro.predictors.base import BranchPredictor
from repro.predictors.collisions import CollisionCounts, CollisionTracker
from repro.profiling.accuracy import measure_accuracy
from repro.profiling.collision_profile import measure_collision_involvement
from repro.profiling.profile import ProgramProfile
from repro.staticpred.hints import HintAssignment
from repro.staticpred.iterative import select_static_iterative
from repro.staticpred.selection import (
    SELECTION_SCHEMES,
    select_static_95,
    select_static_acc,
    select_static_collision,
    select_static_fac,
)
from repro.workloads.trace import BranchTrace

__all__ = ["replay", "simulate", "run_selection_phase", "run_combined"]


def _reference_loop(
    trace: BranchTrace,
    predictor: BranchPredictor,
    tracker: CollisionTracker | None,
) -> Replay:
    """The per-branch ``predict``/``update`` loop, as a :class:`Replay`.

    This is the semantic definition every fast kernel must match
    bit-for-bit, and the only loop body in the simulator: collision
    instrumentation hangs off the optional ``tracker`` rather than
    duplicating the loop, and the replay carries its collision pairs.
    """
    import numpy

    addresses = trace.addresses
    outcomes = trace.outcomes
    predict = predictor.predict
    update = predictor.update
    observe = tracker.observe_lookup if tracker is not None else None
    classify = tracker.classify if tracker is not None else None
    predictions = bytearray(len(addresses))
    # repro: allow[PERF001] -- this IS the semantic reference the fast
    # kernels must match bit-for-bit; it stays scalar by definition
    for i in range(len(addresses)):
        address = addresses[i]
        taken = outcomes[i]
        predicted = predict(address)
        collisions = observe(address) if observe is not None else None
        update(address, taken, predicted)
        predictions[i] = predicted
        if classify is not None:
            classify(collisions, predicted == taken)
    collided = None
    if tracker is not None:
        collided = (numpy.array(tracker.victims, dtype=numpy.intp),
                    numpy.array(tracker.aggressors, dtype=numpy.intp))
    return Replay(numpy.frombuffer(predictions, dtype=numpy.bool_),
                  trace.arrays()[1], 0, collided)


def replay(
    trace: BranchTrace,
    predictor: BranchPredictor,
    kernel: str = "auto",
    track_collisions: bool = False,
) -> Replay:
    """One replay of a bare ``predictor`` over ``trace`` (trained in
    place), for the per-branch profiling views: the kernel's when one
    applies and ``kernel`` allows it, else the reference loop's, with a
    fresh collision tracker when ``track_collisions``."""
    validate_kernel_mode(kernel)
    result = None
    if kernel != "reference":
        result = try_fast_replay(trace, predictor, track_collisions)
    if result is None:
        tracker = CollisionTracker(predictor) if track_collisions else None
        result = _reference_loop(trace, predictor, tracker)
    return result


def simulate(
    trace: BranchTrace,
    predictor: BranchPredictor,
    scheme: str = "none",
    track_collisions: bool = False,
    kernel: str = "auto",
) -> SimulationResult:
    """Run ``trace`` through ``predictor`` and collect statistics.

    The predictor is trained in place; pass a fresh instance for
    independent measurements.  With ``track_collisions`` every counter
    lookup is tag-checked (slower; used by the Figures 1-6 sweep).

    ``kernel`` selects the execution strategy (see :mod:`repro.kernels`
    for the modes and the bit-identical contract); it never changes a
    result, only how fast it is produced.  Collision tracking runs on
    the fast kernels too: their counts equal the tag tracker's.
    """
    validate_kernel_mode(kernel)
    collision_counts = CollisionCounts() if track_collisions else None

    mispredictions = None
    if kernel != "reference":
        mispredictions = try_fast_simulate(
            trace, predictor, collisions=collision_counts,
        )
    if mispredictions is None:
        tracker = CollisionTracker(predictor) if track_collisions else None
        replayed = _reference_loop(trace, predictor, tracker)
        mispredictions = replayed.mispredictions
        if tracker is not None:
            collision_counts = tracker.counts

    static_branches = 0
    static_mispredictions = 0
    if isinstance(predictor, CombinedPredictor):
        static_branches = predictor.static_lookups
        static_mispredictions = predictor.static_mispredictions

    return SimulationResult(
        program_name=trace.program_name,
        input_name=trace.input_name,
        predictor_name=predictor.name,
        scheme=scheme,
        size_bytes=predictor.size_bytes,
        branches=len(trace),
        instructions=trace.instruction_count,
        mispredictions=mispredictions,
        static_branches=static_branches,
        static_mispredictions=static_mispredictions,
        collisions=collision_counts,
    )


def run_selection_phase(
    profile_trace: BranchTrace,
    scheme: str,
    predictor_factory: Callable[[], BranchPredictor] | None = None,
    profile: ProgramProfile | None = None,
    cutoff: float = 0.95,
    factor: float = 1.05,
    min_executions: int | None = None,
    shift_history: bool = False,
) -> HintAssignment:
    """Phase one: produce the static hint database.

    ``scheme`` is one of
    :data:`~repro.staticpred.selection.SELECTION_SCHEMES`.  The
    accuracy-based schemes simulate a *fresh* predictor from
    ``predictor_factory`` over the profiling trace -- matching the
    paper, where the selection simulation uses the same dynamic
    configuration as the measurement run; ``static_collision`` and
    ``static_iter`` need the factory for the same reason.

    ``profile`` overrides the bias profile (used by cross-training
    experiments that select from a merged/filtered Spike database rather
    than the raw profiling run).
    """
    if profile is None:
        profile = ProgramProfile.from_trace(profile_trace)
    kwargs = {}
    if min_executions is not None:
        kwargs["min_executions"] = min_executions

    if scheme == "none":
        return HintAssignment(profile.program_name, "none")
    if scheme == "static_95":
        return select_static_95(
            profile, cutoff=cutoff, shift_history=shift_history, **kwargs
        )
    if scheme in ("static_acc", "static_fac"):
        if predictor_factory is None:
            raise SelectionError(
                f"scheme {scheme!r} needs a predictor_factory to measure "
                "per-branch dynamic accuracy"
            )
        accuracy = measure_accuracy(profile_trace, predictor_factory())
        if scheme == "static_acc":
            return select_static_acc(
                profile, accuracy, shift_history=shift_history, **kwargs
            )
        return select_static_fac(
            profile, accuracy, factor=factor, shift_history=shift_history, **kwargs
        )
    if scheme == "static_collision":
        if predictor_factory is None:
            raise SelectionError(
                "scheme 'static_collision' needs a predictor_factory to "
                "attribute per-branch collisions"
            )
        collisions = measure_collision_involvement(
            profile_trace, predictor_factory()
        )
        return select_static_collision(
            profile, collisions, shift_history=shift_history, **kwargs
        )
    if scheme == "static_iter":
        if predictor_factory is None:
            raise SelectionError(
                "scheme 'static_iter' needs a predictor_factory to simulate "
                "the combined predictor each round"
            )
        return select_static_iterative(
            profile_trace, predictor_factory, profile=profile,
            shift_history=shift_history, **kwargs
        )
    raise SelectionError(
        f"unknown selection scheme {scheme!r}; expected one of "
        + ", ".join(SELECTION_SCHEMES)
    )


def run_combined(
    measure_trace: BranchTrace,
    dynamic: BranchPredictor,
    hints: HintAssignment,
    shift_policy: ShiftPolicy = ShiftPolicy.NO_SHIFT,
    track_collisions: bool = False,
    kernel: str = "auto",
) -> SimulationResult:
    """Phase two: measure the combined predictor on the measurement trace.

    ``kernel`` is passed through to :func:`simulate`: a combined
    predictor replays on its dynamic predictor's fast kernel when that
    family has one, under every shift policy.
    """
    combined = CombinedPredictor(dynamic, hints, shift_policy=shift_policy)
    scheme = hints.scheme
    if shift_policy is ShiftPolicy.SHIFT:
        scheme += "+shift"
    return simulate(
        measure_trace,
        combined,
        scheme=scheme,
        track_collisions=track_collisions,
        kernel=kernel,
    )
