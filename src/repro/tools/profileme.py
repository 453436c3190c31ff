"""A ProfileMe-style sampling profiler.

Section 4 of the paper, on obtaining per-branch dynamic accuracy for
``Static_Acc``: "This data can be obtained by binary instrumentation or
by on-line performance tools such as ProfileMe."  ProfileMe (Dean et al.,
MICRO 1997) samples in-flight instructions in hardware rather than
instrumenting every one, trading measurement completeness for negligible
overhead — which is what makes always-on profile collection (the Spike
database flow of Section 5.1) practical in production.

This model samples one branch in ``period`` (with a deterministic,
seedable phase) while the full stream still trains the predictor — as in
real ProfileMe, where the processor runs normally and only the sampled
instructions report.  The result is an ordinary
:class:`~repro.profiling.profile.ProgramProfile` /
:class:`~repro.profiling.accuracy.AccuracyProfile` pair built from the
samples, drop-in compatible with every selection scheme, so the effect
of sampling sparsity on selection quality can be studied directly.
"""

from __future__ import annotations

from repro.core.simulator import replay
from repro.errors import ProfileError
from repro.predictors.base import BranchPredictor
from repro.profiling.accuracy import AccuracyProfile, BranchAccuracy
from repro.profiling.profile import BranchProfile, ProgramProfile
from repro.utils.rng import derive_rng
from repro.utils.tally import tally
from repro.workloads.trace import BranchTrace

__all__ = ["ProfileMeSampler"]


class ProfileMeSampler:
    """Sampled bias + accuracy profiling over one run.

    ``period`` is the mean sampling interval (ProfileMe hardware used
    periods in the tens of thousands; useful values here are smaller
    because traces are shorter).  Sampling intervals are randomized
    around the period, as in the real hardware, to avoid synchronizing
    with loop periods.
    """

    def __init__(self, period: int, seed: int = 0):
        if period < 1:
            raise ProfileError(f"sampling period must be >= 1, got {period}")
        self.period = period
        self.seed = seed

    def profile(
        self,
        trace: BranchTrace,
        predictor: BranchPredictor,
    ) -> tuple[ProgramProfile, AccuracyProfile]:
        """Run the trace, sampling ~1 in ``period`` branches.

        The predictor sees (and trains on) *every* branch -- sampling
        affects only what gets recorded, exactly like hardware sampling
        under a running predictor.  Returns the sampled bias profile and
        the sampled accuracy profile: one
        :func:`~repro.utils.tally.tally` of the sampled events of one
        :func:`~repro.core.simulator.replay`.
        """
        import numpy

        rng = derive_rng(self.seed, "profileme", trace.program_name,
                         trace.input_name)
        n = len(trace)
        if self.period == 1:
            samples = numpy.arange(n)
        else:
            positions = []
            position = rng.randrange(self.period)
            while position < n:
                positions.append(position)
                position += 1 + rng.randrange(2 * self.period - 1)
            samples = numpy.array(positions, dtype=numpy.intp)
        result = replay(trace, predictor)
        addresses, outcomes = trace.arrays()
        keys, executions, (taken, correct) = tally(
            addresses[samples], outcomes[samples],
            (result.predictions == result.outcomes)[samples],
        )
        input_name = f"{trace.input_name}|sampled/{self.period}"
        bias_profile = ProgramProfile(trace.program_name, input_name, {
            address: BranchProfile(executions=e, taken=t)
            for address, e, t in zip(keys, executions, taken)
        })
        accuracy_profile = AccuracyProfile(
            trace.program_name, input_name, predictor.name, {
                address: BranchAccuracy(executions=e, correct=c)
                for address, e, c in zip(keys, executions, correct)
            },
        )
        return bias_profile, accuracy_profile
