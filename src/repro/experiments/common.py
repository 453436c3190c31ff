"""Shared experiment configuration and cached simulation context.

Scaling knobs (environment variables, all optional):

``REPRO_TRACE_LENGTH``
    Branches per measurement trace (default 200000).  Experiment wall
    time scales linearly with it.
``REPRO_EXPERIMENT_SITE_SCALE``
    Static-branch scale for experiment workloads (default 0.125).  The
    paper's runs cover billions of branches; scaling the static branch
    count by the same factor as the trace length keeps per-branch
    execution counts -- and therefore predictor warm-up -- realistic.
    Table 1 separately reports the paper's unscaled static counts.
``REPRO_SEED``
    Root seed for every workload and trace (default 42).
``REPRO_KERNEL``
    Simulation kernel mode, ``auto`` (the default) or ``reference`` (see
    :mod:`repro.kernels`); it steers every simulation and the phase-one
    accuracy and collision passes.  Kernels are bit-identical to the
    reference loop by contract, so this knob changes wall time, never
    results -- it is deliberately *not* part of any cache key.
``REPRO_TRACE_SUITE``
    When set, name of a pinned trace suite (see :mod:`repro.traces`):
    every ``ctx.trace()`` loads the suite's content-digested artifact
    instead of regenerating, and the artifact digest is folded into
    result-cache keys.  Unset (the default) keeps the regeneration
    path, whose cache keys are unchanged.
``REPRO_TRACE_DIR``
    Root of the pinned-trace store (default ``.repro-traces``); only
    consulted in replay mode.

The :class:`ExperimentContext` memoizes workloads, traces, bias
profiles, per-predictor accuracy profiles, and hint assignments, because
the figure/table runners share most of their inputs (e.g. every
Figures 7-12 panel reuses the same six ref traces).
"""

from __future__ import annotations

from typing import Callable

from repro.arch.isa import ShiftPolicy
from repro.core.metrics import SimulationResult
from repro.core.simulator import run_combined, simulate
from repro.errors import ExperimentError
from repro.kernels import validate_kernel_mode
from repro.predictors.base import BranchPredictor
from repro.predictors.sizing import make_predictor
from repro.profiling.accuracy import AccuracyProfile, measure_accuracy
from repro.profiling.collision_profile import (
    CollisionProfile,
    measure_collision_involvement,
)
from repro.profiling.profile import ProgramProfile
from repro.staticpred.hints import HintAssignment
from repro.utils.env import env_float, env_int, env_str
from repro.staticpred.iterative import select_static_iterative
from repro.staticpred.selection import (
    select_static_95,
    select_static_acc,
    select_static_collision,
    select_static_fac,
)
from repro.workloads.generator import SyntheticWorkload, build_workload
from repro.workloads.spec95 import PROGRAM_ORDER, get_spec
from repro.workloads.trace import BranchTrace

__all__ = [
    "PROGRAMS",
    "KIB",
    "ENV_KNOBS",
    "default_trace_length",
    "default_site_scale",
    "default_seed",
    "default_trace_suite",
    "ExperimentContext",
    "default_context",
]

PROGRAMS = PROGRAM_ORDER
KIB = 1024

#: The environment-knob contract: name -> (parser kind, default, what it
#: does).  This is the package's complete inventory of environment
#: inputs: every knob read anywhere in :mod:`repro` must be declared
#: here and read through the typed accessors in :mod:`repro.utils.env`.
#: Lint rule ENV001 enforces the contract in both directions -- an
#: accessor call naming an undeclared knob (or disagreeing with the
#: declared parser/default) is a finding, and so is a declared knob no
#: accessor ever reads.  Keeping the inventory machine-checked is what
#: lets KEY001 reason about which knobs can influence cached results.
ENV_KNOBS = {
    "REPRO_TRACE_LENGTH": ("int", 200_000, "branches per measurement trace"),
    "REPRO_EXPERIMENT_SITE_SCALE": ("float", 0.125, "static-branch scale for experiment workloads"),
    "REPRO_SEED": ("int", 42, "root seed for every workload and trace"),
    "REPRO_KERNEL": ("str", "auto", "simulation kernel mode (auto/reference)"),
    "REPRO_TRACE_SUITE": ("str", None, "pinned trace suite name (unset = regenerate)"),
    "REPRO_TRACE_DIR": ("str", ".repro-traces", "root of the pinned-trace store"),
    "REPRO_CACHE_DIR": ("str", None, "persistent result-cache directory (unset = CLI default)"),
    "REPRO_CACHE_MAX_BYTES": ("int", 0, "result-store size budget in bytes (0 = unbounded)"),
    "REPRO_JOBS": ("int", 1, "runner worker count"),
    "REPRO_SITE_SCALE": ("float", 1.0, "global static-site scale for workload construction"),
    "REPRO_SERVICE_HOST": ("str", "127.0.0.1", "predictor-service bind/connect host"),
    "REPRO_SERVICE_PORT": ("int", 8177, "predictor-service TCP port"),
    "REPRO_SERVICE_BATCH_WINDOW_MS": ("float", 5.0, "batching window in milliseconds"),
    "REPRO_SERVICE_MAX_BATCH": ("int", 64, "max cells dispatched per batch"),
    "REPRO_SERVICE_QUEUE_LIMIT": ("int", 1024, "queued+in-flight bound before backpressure"),
    "REPRO_SERVICE_TIMEOUT_S": ("float", 60.0, "per-request service timeout in seconds"),
}


def default_trace_length() -> int:
    """Measurement-trace length in branches."""
    return env_int("REPRO_TRACE_LENGTH", 200_000, error=ExperimentError)


def default_site_scale() -> float:
    """Static-branch scale used by experiment workloads."""
    return env_float("REPRO_EXPERIMENT_SITE_SCALE", 0.125, error=ExperimentError)


def default_seed() -> int:
    """Root seed for experiment workloads."""
    return env_int("REPRO_SEED", 42, error=ExperimentError)


def default_kernel() -> str:
    """Simulation kernel mode (``auto``/``reference``)."""
    kernel = env_str("REPRO_KERNEL", "auto")
    validate_kernel_mode(kernel)
    return kernel


def default_trace_suite() -> str | None:
    """Pinned trace suite name from the environment (None = regenerate)."""
    return env_str("REPRO_TRACE_SUITE")


class ExperimentContext:
    """Cached workloads, traces, profiles, and hint assignments."""

    def __init__(
        self,
        trace_length: int | None = None,
        site_scale: float | None = None,
        seed: int | None = None,
        kernel: str | None = None,
        trace_suite: "str | None" = None,
        trace_dir: str | None = None,
    ):
        self.trace_length = trace_length if trace_length is not None else default_trace_length()
        self.site_scale = site_scale if site_scale is not None else default_site_scale()
        self.seed = seed if seed is not None else default_seed()
        self.kernel = kernel if kernel is not None else default_kernel()
        # ``trace_suite`` accepts a suite name or a TraceSuite instance;
        # None (with REPRO_TRACE_SUITE unset) keeps the regeneration
        # path.  ``trace_dir`` overrides the store root (else
        # REPRO_TRACE_DIR / .repro-traces, resolved by the store).
        self.trace_suite = trace_suite if trace_suite is not None else default_trace_suite()
        self.trace_dir = trace_dir
        if self.trace_length <= 0:
            raise ExperimentError(f"trace_length must be positive, got {self.trace_length}")
        validate_kernel_mode(self.kernel)
        self._workloads: dict[tuple, SyntheticWorkload] = {}
        self._traces: dict[tuple, BranchTrace] = {}
        self._trace_digests: dict[tuple, str] = {}
        self._profiles: dict[tuple, ProgramProfile] = {}
        self._accuracies: dict[tuple, AccuracyProfile] = {}
        self._collision_profiles: dict[tuple, CollisionProfile] = {}
        self._hints: dict[tuple, HintAssignment] = {}

    def __reduce__(self):
        """Pickle as the defining knobs only.

        Everything a context memoizes is a pure function of
        ``(trace_length, site_scale, seed)`` -- plus, in replay mode,
        the pinned suite and store root -- so shipping a context to a
        :mod:`repro.runner` worker process transfers a few values and
        the worker rebuilds (and re-memoizes) traces on demand --
        bit-identical to the parent's, by the determinism contract.
        ``kernel`` rides along so workers honor the requested execution
        strategy; by the bit-identical kernel contract it is an
        execution detail, which is why it stays out of every cache key
        (see :meth:`repro.runner.cells.Cell.key_fields`).
        """
        return (ExperimentContext,
                (self.trace_length, self.site_scale, self.seed, self.kernel,
                 self.trace_suite, self.trace_dir))

    # -- workloads and traces -------------------------------------------

    def workload(self, program: str, input_name: str) -> SyntheticWorkload:
        """The (cached) workload for one program and input."""
        key = (program, input_name)
        workload = self._workloads.get(key)
        if workload is None:
            workload = build_workload(
                get_spec(program), input_name,
                root_seed=self.seed, site_scale=self.site_scale,
            )
            self._workloads[key] = workload
        return workload

    def trace(self, program: str, input_name: str = "ref",
              length: int | None = None) -> BranchTrace:
        """The (cached) trace for one program and input.

        In replay mode (``trace_suite`` set) the trace loads from the
        pinned store artifact instead of regenerating; a context knob
        combination the suite does not pin is an error, never a silent
        fallback to regeneration -- mixing pinned and regenerated
        streams inside one run would defeat the point of pinning.
        """
        if length is None:
            length = self.trace_length
        key = (program, input_name, length)
        trace = self._traces.get(key)
        if trace is None:
            if self.trace_suite is not None:
                trace = self._load_pinned(program, input_name, length)
            else:
                trace = self.workload(program, input_name).execute(length, run_seed=1)
            self._traces[key] = trace
        return trace

    # -- pinned replay (see repro.traces) --------------------------------

    def _pinned_spec(self, program: str, input_name: str, length: int):
        """Resolve context knobs to the suite's spec; error if unpinned."""
        from repro.traces import get_suite

        suite = get_suite(self.trace_suite)
        spec = suite.lookup(program, input_name, length, self.seed, self.site_scale)
        if spec is None:
            raise ExperimentError(
                f"trace suite {suite.name!r} pins no trace for "
                f"program={program!r} input={input_name!r} length={length} "
                f"seed={self.seed} site_scale={self.site_scale}; add a "
                "TraceSpec to the suite or unset REPRO_TRACE_SUITE"
            )
        return spec

    def _store(self):
        from repro.traces import TraceStore

        return TraceStore(self.trace_dir)

    def _load_pinned(self, program: str, input_name: str,
                     length: int) -> BranchTrace:
        spec = self._pinned_spec(program, input_name, length)
        store = self._store()
        trace = store.load(spec)
        self._trace_digests[(program, input_name, length)] = (
            store.content_digest(spec)
        )
        return trace

    def trace_digest(self, program: str, input_name: str = "ref",
                     length: int | None = None) -> str | None:
        """Content digest of the pinned trace, or None when regenerating.

        This is what :meth:`repro.runner.cells.Cell.key_fields` folds
        into the result-cache key in replay mode; reading it does not
        load the trace (the digest comes from the artifact manifest).
        """
        if self.trace_suite is None:
            return None
        if length is None:
            length = self.trace_length
        key = (program, input_name, length)
        digest = self._trace_digests.get(key)
        if digest is None:
            digest = self._store().content_digest(
                self._pinned_spec(program, input_name, length)
            )
            self._trace_digests[key] = digest
        return digest

    # -- profiles --------------------------------------------------------

    def profile(self, program: str, input_name: str = "ref") -> ProgramProfile:
        """Bias profile of the (cached) trace."""
        key = (program, input_name, self.trace_length)
        profile = self._profiles.get(key)
        if profile is None:
            profile = ProgramProfile.from_trace(self.trace(program, input_name))
            self._profiles[key] = profile
        return profile

    def accuracy(
        self,
        program: str,
        predictor_name: str,
        size_bytes: int,
        input_name: str = "ref",
        predictor_kwargs: dict | None = None,
    ) -> AccuracyProfile:
        """Per-branch accuracy of a fresh predictor over the cached trace."""
        return self._view(self._accuracies, measure_accuracy, program,
                          predictor_name, size_bytes, input_name,
                          predictor_kwargs)

    def collision_profile(
        self,
        program: str,
        predictor_name: str,
        size_bytes: int,
        input_name: str = "ref",
        predictor_kwargs: dict | None = None,
    ) -> CollisionProfile:
        """Per-branch collision involvement of a fresh predictor."""
        return self._view(self._collision_profiles,
                          measure_collision_involvement, program,
                          predictor_name, size_bytes, input_name,
                          predictor_kwargs)

    def _view(self, memo: dict, view, program: str, predictor_name: str,
              size_bytes: int, input_name: str,
              predictor_kwargs: dict | None):
        """``view(trace, predictor, kernel=...)`` of a fresh predictor
        over the cached trace, memoized in ``memo``; the replay under it
        follows the context's ``kernel``."""
        kwargs = predictor_kwargs or {}
        key = (program, input_name, self.trace_length, predictor_name,
               size_bytes, tuple(sorted(kwargs.items())))
        profile = memo.get(key)
        if profile is None:
            profile = view(self.trace(program, input_name),
                           make_predictor(predictor_name, size_bytes, **kwargs),
                           kernel=self.kernel)
            memo[key] = profile
        return profile

    # -- hint selection ---------------------------------------------------

    def hints(
        self,
        program: str,
        scheme: str,
        predictor_name: str | None = None,
        size_bytes: int | None = None,
        profile_input: str = "ref",
        cutoff: float = 0.95,
        factor: float = 1.05,
        predictor_kwargs: dict | None = None,
    ) -> HintAssignment:
        """Phase-one selection, memoized.

        ``profile_input`` names the profiling input: ``"ref"`` for the
        paper's self-trained setup, ``"train"`` for cross-training.
        """
        key = (program, scheme, predictor_name, size_bytes, profile_input,
               cutoff, factor, self.trace_length,
               tuple(sorted((predictor_kwargs or {}).items())))
        hints = self._hints.get(key)
        if hints is not None:
            return hints
        profile = self.profile(program, profile_input)
        if scheme == "none":
            hints = HintAssignment(program, "none")
        elif scheme == "static_95":
            hints = select_static_95(profile, cutoff=cutoff)
        elif scheme in ("static_acc", "static_fac"):
            if predictor_name is None or size_bytes is None:
                raise ExperimentError(
                    f"scheme {scheme!r} needs predictor_name and size_bytes"
                )
            accuracy = self.accuracy(
                program, predictor_name, size_bytes,
                input_name=profile_input, predictor_kwargs=predictor_kwargs,
            )
            if scheme == "static_acc":
                hints = select_static_acc(profile, accuracy)
            else:
                hints = select_static_fac(profile, accuracy, factor=factor)
        elif scheme == "static_collision":
            if predictor_name is None or size_bytes is None:
                raise ExperimentError(
                    "scheme 'static_collision' needs predictor_name and "
                    "size_bytes"
                )
            collisions = self.collision_profile(
                program, predictor_name, size_bytes,
                input_name=profile_input, predictor_kwargs=predictor_kwargs,
            )
            hints = select_static_collision(profile, collisions)
        elif scheme == "static_iter":
            if predictor_name is None or size_bytes is None:
                raise ExperimentError(
                    "scheme 'static_iter' needs predictor_name and size_bytes"
                )
            hints = select_static_iterative(
                self.trace(program, profile_input),
                self.predictor_factory(
                    predictor_name, size_bytes, **(predictor_kwargs or {})
                ),
                profile=profile,
            )
        else:
            raise ExperimentError(f"unknown scheme {scheme!r}")
        self._hints[key] = hints
        return hints

    # -- measurement -------------------------------------------------------

    def run(
        self,
        program: str,
        predictor_name: str,
        size_bytes: int,
        scheme: str = "none",
        shift_policy: ShiftPolicy = ShiftPolicy.NO_SHIFT,
        measure_input: str = "ref",
        profile_input: str = "ref",
        track_collisions: bool = False,
        cutoff: float = 0.95,
        factor: float = 1.05,
        predictor_kwargs: dict | None = None,
        hints: HintAssignment | None = None,
    ) -> SimulationResult:
        """One full configuration: (cached) selection + fresh measurement.

        Measurement results are deliberately *not* cached: predictors are
        stateful and cheap to rebuild, and the collision-tracking flag
        changes what a run records.
        """
        kwargs = predictor_kwargs or {}
        predictor = make_predictor(predictor_name, size_bytes, **kwargs)
        measure_trace = self.trace(program, measure_input)
        if scheme == "none" and hints is None:
            return simulate(
                measure_trace, predictor, scheme="none",
                track_collisions=track_collisions, kernel=self.kernel,
            )
        if hints is None:
            hints = self.hints(
                program, scheme,
                predictor_name=predictor_name, size_bytes=size_bytes,
                profile_input=profile_input, cutoff=cutoff, factor=factor,
                predictor_kwargs=predictor_kwargs,
            )
        return run_combined(
            measure_trace, predictor, hints,
            shift_policy=shift_policy, track_collisions=track_collisions,
            kernel=self.kernel,
        )

    def predictor_factory(
        self, predictor_name: str, size_bytes: int, **kwargs
    ) -> Callable[[], BranchPredictor]:
        """A factory closure for APIs that build predictors lazily."""
        return lambda: make_predictor(predictor_name, size_bytes, **kwargs)


_DEFAULT_CONTEXT: ExperimentContext | None = None


def default_context() -> ExperimentContext:
    """A process-wide shared context (used by benchmarks and the CLI)."""
    global _DEFAULT_CONTEXT
    if _DEFAULT_CONTEXT is None:
        _DEFAULT_CONTEXT = ExperimentContext()
    return _DEFAULT_CONTEXT
