"""Bias profiles: per-branch execution and taken counts.

A :class:`ProgramProfile` is keyed by branch *address* (the stable
identity a binary rewriter like Spike works with), holding one
:class:`BranchProfile` per executed branch.  Profiles support merging
(accumulating runs over multiple inputs, as the Spike database does) and
JSON persistence (the "database" recording the paper's phase-one
selection decisions).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterator, Mapping

from repro.errors import ProfileError
from repro.utils.tally import tally
from repro.workloads.trace import BranchTrace

__all__ = ["BranchProfile", "ProgramProfile"]


@dataclass(slots=True)
class BranchProfile:
    """Execution statistics for one static branch."""

    executions: int = 0
    taken: int = 0

    def __post_init__(self) -> None:
        if self.executions < 0 or self.taken < 0 or self.taken > self.executions:
            raise ProfileError(
                f"inconsistent branch profile: taken={self.taken} "
                f"executions={self.executions}"
            )

    @property
    def taken_rate(self) -> float:
        """Fraction of executions resolved taken (0 if never executed)."""
        if self.executions == 0:
            return 0.0
        return self.taken / self.executions

    @property
    def bias(self) -> float:
        """The paper's bias: ``max(taken-rate, not-taken-rate)``."""
        rate = self.taken_rate
        return max(rate, 1.0 - rate)

    @property
    def majority_taken(self) -> bool:
        """Majority direction; ties count as taken."""
        return self.taken * 2 >= self.executions

    def record(self, taken: bool) -> None:
        """Add one execution."""
        self.executions += 1
        if taken:
            self.taken += 1

    def merged_with(self, other: "BranchProfile") -> "BranchProfile":
        """Sum of two profiles (for database merging)."""
        return BranchProfile(
            executions=self.executions + other.executions,
            taken=self.taken + other.taken,
        )


class ProgramProfile:
    """Bias profiles for every executed branch of one program run.

    Mapping-like by branch address.  ``program_name`` and ``input_name``
    identify the run the profile came from; merged profiles carry
    synthetic input names like ``"train+ref"``.
    """

    def __init__(
        self,
        program_name: str,
        input_name: str,
        branches: Mapping[int, BranchProfile] | None = None,
    ):
        self.program_name = program_name
        self.input_name = input_name
        self.branches: dict[int, BranchProfile] = dict(branches or {})

    @classmethod
    def from_trace(cls, trace: BranchTrace) -> "ProgramProfile":
        """Profile a trace (the Atom instrumentation pass of phase one).

        One :func:`~repro.utils.tally.tally` of the outcomes by address;
        the mapping's insertion order (which ``to_json`` serializes) is
        each branch's first execution, as in :meth:`_from_trace_scalar`.
        """
        addresses, outcomes = trace.arrays()
        keys, executions, (taken,) = tally(addresses, outcomes)
        branches = {
            address: BranchProfile(executions=e, taken=t)
            for address, e, t in zip(keys, executions, taken)
        }
        return cls(trace.program_name, trace.input_name, branches)

    @classmethod
    def _from_trace_scalar(cls, trace: BranchTrace) -> "ProgramProfile":
        """The per-branch loop :meth:`from_trace` must equal: the
        tally's differential-test oracle and the ``profile/reference``
        bench baseline."""
        counts: dict[int, list[int]] = {}
        # repro: allow[PERF001] -- the tally's scalar oracle; the
        # whole-column tally above is the hot path and is differentially
        # tested against this loop
        for address, taken in zip(trace.addresses, trace.outcomes):
            entry = counts.get(address)
            if entry is None:
                counts[address] = [1, 1 if taken else 0]
            else:
                entry[0] += 1
                if taken:
                    entry[1] += 1
        branches = {
            address: BranchProfile(executions=c[0], taken=c[1])
            for address, c in counts.items()
        }
        return cls(trace.program_name, trace.input_name, branches)

    def __len__(self) -> int:
        return len(self.branches)

    def __contains__(self, address: int) -> bool:
        return address in self.branches

    def __getitem__(self, address: int) -> BranchProfile:
        return self.branches[address]

    def get(self, address: int) -> BranchProfile | None:
        """Profile for an address, or None if the branch never executed."""
        return self.branches.get(address)

    def __iter__(self) -> Iterator[int]:
        return iter(self.branches)

    def items(self):
        """(address, BranchProfile) pairs."""
        return self.branches.items()

    @property
    def total_executions(self) -> int:
        """Total dynamic branches covered by the profile."""
        return sum(p.executions for p in self.branches.values())

    def merge(self, other: "ProgramProfile") -> "ProgramProfile":
        """Accumulate another run's counts (the Spike database merge).

        Raises :class:`ProfileError` when the profiles belong to
        different programs.
        """
        if other.program_name != self.program_name:
            raise ProfileError(
                f"cannot merge profiles of {self.program_name!r} and "
                f"{other.program_name!r}"
            )
        merged: dict[int, BranchProfile] = dict(self.branches)
        for address, profile in other.branches.items():
            mine = merged.get(address)
            merged[address] = profile if mine is None else mine.merged_with(profile)
        return ProgramProfile(
            self.program_name,
            f"{self.input_name}+{other.input_name}",
            merged,
        )

    def filtered(self, predicate) -> "ProgramProfile":
        """Profile restricted to addresses satisfying ``predicate(addr, prof)``."""
        return ProgramProfile(
            self.program_name,
            self.input_name,
            {a: p for a, p in self.branches.items() if predicate(a, p)},
        )

    # -- persistence ---------------------------------------------------

    def to_json(self) -> str:
        """Serialize to a JSON string."""
        return json.dumps(
            {
                "program": self.program_name,
                "input": self.input_name,
                "branches": {
                    format(address, "x"): [p.executions, p.taken]
                    for address, p in self.branches.items()
                },
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "ProgramProfile":
        """Inverse of :meth:`to_json`."""
        try:
            data = json.loads(text)
            branches = {
                int(address, 16): BranchProfile(executions=c[0], taken=c[1])
                for address, c in data["branches"].items()
            }
            return cls(data["program"], data["input"], branches)
        except (KeyError, ValueError, TypeError) as exc:
            raise ProfileError(f"malformed profile JSON: {exc}") from exc

    def save(self, path: str) -> None:
        """Write the profile to a JSON file."""
        with open(path, "w", encoding="utf-8") as stream:
            stream.write(self.to_json())

    @classmethod
    def load(cls, path: str) -> "ProgramProfile":
        """Read a profile from a JSON file."""
        with open(path, "r", encoding="utf-8") as stream:
            return cls.from_json(stream.read())
