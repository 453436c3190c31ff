"""Per-branch dynamic-predictor accuracy profiling.

The ``Static_Acc`` selection scheme needs, for every branch, the
prediction accuracy *a specific dynamic predictor* achieved on it
(Section 4: "for selecting hard to predict branches, we actually
simulated the dynamic predictor in the first phase").  The paper obtains
this with Atom instrumentation or ProfileMe; here we run the trace
through a freshly constructed predictor and count per-branch hits.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Mapping

from repro.errors import ProfileError
from repro.predictors.base import BranchPredictor
from repro.utils.tally import tally
from repro.workloads.trace import BranchTrace

__all__ = ["BranchAccuracy", "AccuracyProfile", "measure_accuracy"]


@dataclass(slots=True)
class BranchAccuracy:
    """Prediction statistics for one branch under one dynamic predictor."""

    executions: int = 0
    correct: int = 0

    def __post_init__(self) -> None:
        if self.executions < 0 or self.correct < 0 or self.correct > self.executions:
            raise ProfileError(
                f"inconsistent accuracy record: correct={self.correct} "
                f"executions={self.executions}"
            )

    @property
    def accuracy(self) -> float:
        """Fraction of executions predicted correctly (0 if never run)."""
        if self.executions == 0:
            return 0.0
        return self.correct / self.executions


class AccuracyProfile:
    """Per-branch accuracy of one predictor over one run."""

    def __init__(
        self,
        program_name: str,
        input_name: str,
        predictor_name: str,
        branches: Mapping[int, BranchAccuracy] | None = None,
    ):
        self.program_name = program_name
        self.input_name = input_name
        self.predictor_name = predictor_name
        self.branches: dict[int, BranchAccuracy] = dict(branches or {})

    def __len__(self) -> int:
        return len(self.branches)

    def __contains__(self, address: int) -> bool:
        return address in self.branches

    def get(self, address: int) -> BranchAccuracy | None:
        """Accuracy record for an address, or None if never executed."""
        return self.branches.get(address)

    def accuracy_of(self, address: int) -> float:
        """Accuracy for an address; 0.0 for branches never seen.

        Returning 0.0 for unseen branches makes ``Static_Acc`` treat them
        as maximally hard, which is conservative: their profile bias will
        also be unknown, and the selection layer refuses to emit hints
        for branches without a bias profile.
        """
        record = self.branches.get(address)
        return record.accuracy if record is not None else 0.0

    @property
    def overall_accuracy(self) -> float:
        """Execution-weighted accuracy over all branches."""
        executions = sum(r.executions for r in self.branches.values())
        if executions == 0:
            return 0.0
        correct = sum(r.correct for r in self.branches.values())
        return correct / executions

    # -- persistence ---------------------------------------------------

    def to_json(self) -> str:
        """Serialize to a JSON string."""
        return json.dumps(
            {
                "program": self.program_name,
                "input": self.input_name,
                "predictor": self.predictor_name,
                "branches": {
                    format(address, "x"): [r.executions, r.correct]
                    for address, r in self.branches.items()
                },
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "AccuracyProfile":
        """Inverse of :meth:`to_json`."""
        try:
            data = json.loads(text)
            branches = {
                int(address, 16): BranchAccuracy(executions=c[0], correct=c[1])
                for address, c in data["branches"].items()
            }
            return cls(data["program"], data["input"], data["predictor"], branches)
        except (KeyError, ValueError, TypeError) as exc:
            raise ProfileError(f"malformed accuracy JSON: {exc}") from exc


def measure_accuracy(
    trace: BranchTrace, predictor: BranchPredictor, kernel: str = "auto"
) -> AccuracyProfile:
    """Simulate ``predictor`` over ``trace``, recording per-branch hits.

    The predictor is consumed (trained) by the measurement; pass a fresh
    instance.  This is the phase-one simulation of the paper's
    ``Static_Acc`` methodology.

    One :func:`~repro.core.simulator.replay` (the kernel's, or the
    reference loop's under ``kernel="reference"`` or when no kernel
    applies) and one :func:`~repro.utils.tally.tally` of its hits by
    address, so the mapping iterates in first-execution order.
    """
    # Imported here: the simulator imports this module.
    from repro.core.simulator import replay

    result = replay(trace, predictor, kernel)
    addresses, _ = trace.arrays()
    keys, executions, (correct,) = tally(
        addresses, result.predictions == result.outcomes
    )
    branches = {
        address: BranchAccuracy(executions=e, correct=c)
        for address, e, c in zip(keys, executions, correct)
    }
    return AccuracyProfile(
        trace.program_name, trace.input_name, predictor.name, branches
    )
