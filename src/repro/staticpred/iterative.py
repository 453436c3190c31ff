"""Iterative static selection (Lindsay's full scheme).

Section 3 of the paper: "In Lindsay's work the selection of branches to
be predicted statically was with an iterative process involving profiling
and simulations.  One of the static selection schemes we studied
(Static_Fac) is a simpler, single iteration, version of Lindsay's
scheme."

The paper only evaluates the single-iteration simplification; this module
implements the full loop as an extension:

1. start with no static hints;
2. simulate the *combined* predictor (current hints + dynamic predictor)
   over the profiling trace, measuring the dynamic side's per-branch
   accuracy under the current hint set;
3. add hints for branches whose bias exceeds that accuracy;
4. repeat until a fixpoint (no new selections) or a round limit.

Iterating matters because statically predicting one set of branches
*changes* the dynamic predictor's accuracy on the rest: aliasing relief
can make a previously hard branch easy (so it should not be selected
after all... the loop is monotone -- hints are only added -- so instead
the effect appears as the loop converging early), and conversely
previously masked conflicts can surface and justify another round.
"""

from __future__ import annotations

from typing import Callable

from repro.arch.isa import HintBits, ShiftPolicy
from repro.errors import SelectionError
from repro.predictors.base import BranchPredictor
from repro.profiling.profile import ProgramProfile
from repro.staticpred.hints import HintAssignment
from repro.staticpred.selection import DEFAULT_MIN_EXECUTIONS
from repro.workloads.trace import BranchTrace

__all__ = ["select_static_iterative"]


def _combined_dynamic_accuracy(
    trace: BranchTrace,
    predictor_factory: Callable[[], BranchPredictor],
    hints: HintAssignment,
) -> dict[int, tuple[int, int]]:
    """Per-branch (executions, correct) of the *dynamic* side under hints.

    Statically predicted branches are excluded -- their accuracy is their
    bias by construction and they are already selected.
    """
    # Imported here rather than at module level: repro.core imports the
    # staticpred package (for HintAssignment), so a top-level import
    # would be circular.
    from repro.core.combined import CombinedPredictor

    combined = CombinedPredictor(
        predictor_factory(), hints, shift_policy=ShiftPolicy.NO_SHIFT
    )
    counts: dict[int, list[int]] = {}
    predict = combined.predict
    update = combined.update
    addresses = trace.addresses
    outcomes = trace.outcomes
    for i in range(len(addresses)):
        address = addresses[i]
        taken = outcomes[i]
        predicted = predict(address)
        was_static = combined.last_was_static
        update(address, taken, predicted)
        if was_static:
            continue
        entry = counts.get(address)
        if entry is None:
            counts[address] = [1, 1 if predicted == taken else 0]
        else:
            entry[0] += 1
            if predicted == taken:
                entry[1] += 1
    return {a: (c[0], c[1]) for a, c in counts.items()}


def select_static_iterative(
    profile_trace: BranchTrace,
    predictor_factory: Callable[[], BranchPredictor],
    max_rounds: int = 4,
    min_executions: int = DEFAULT_MIN_EXECUTIONS,
    profile: ProgramProfile | None = None,
    shift_history: bool = False,
) -> HintAssignment:
    """Run Lindsay's iterative select-simulate loop to a fixpoint.

    Round one is exactly ``Static_Acc``; later rounds re-simulate with
    the accumulated hints and add branches whose bias still beats the
    dynamic side's (now relieved) accuracy.  Returns the accumulated
    assignment, whose scheme name records the number of rounds run.
    ``shift_history`` sets every selected hint's shift bit, as the
    single-pass selectors do; the rounds simulate under NO_SHIFT, where
    the bit is inert, so it never changes which branches are selected.
    """
    if max_rounds < 1:
        raise SelectionError(f"max_rounds must be >= 1, got {max_rounds}")
    if profile is None:
        profile = ProgramProfile.from_trace(profile_trace)
    predictor_name = predictor_factory().name
    hints = HintAssignment(
        profile.program_name, f"static_iter({predictor_name},r0)"
    )
    rounds_run = 0
    for _round in range(max_rounds):
        accuracy = _combined_dynamic_accuracy(
            profile_trace, predictor_factory, hints
        )
        added = 0
        for address, branch in profile.items():
            if address in hints:
                continue
            if branch.executions < min_executions:
                continue
            record = accuracy.get(address)
            if record is None:
                continue
            executions, correct = record
            if executions == 0:
                continue
            if branch.bias > correct / executions:
                hints.set(address, HintBits.static(
                    branch.majority_taken, shift_history=shift_history))
                added += 1
        rounds_run += 1
        if added == 0:
            break
    hints.scheme = f"static_iter({predictor_name},r{rounds_run})"
    return hints
