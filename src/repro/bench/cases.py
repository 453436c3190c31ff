"""The benchmark suite: which cases ``repro bench`` runs.

Two tiers:

* **Kernel microbenches** (always run): each kernel-backed predictor
  family -- the scan families and the bimode/2bcgskew hybrids --
  simulated over the same gcc/ref trace with ``kernel="reference"``
  (the ``/reference`` row) versus ``kernel="auto"`` (the ``/fast``
  row).  The pairing is the point -- the ratio of the two rows is the
  speedup the fast kernels buy, and the fast rows are what the CI
  regression gate protects.  The ``combined/`` pair
  replays a ``static_acc`` combined gshare (hints selected outside the
  timed region) and the ``tracked/`` pair a collision-tracked gshare:
  the two kernel paths the figure sweeps spend their time in.
* **End-to-end benches** (skipped by ``--quick``): a full two-phase
  ``ExperimentContext.run`` configuration, measuring what an experiment
  cell actually costs, combined-predictor overhead and all.
* **Replay benches** (always run): pure simulation over a pinned trace
  artifact from the :mod:`repro.traces` store -- the trace is generated
  (once) and digest-verified *outside* the timed region, so the number
  is simulation throughput with zero generation noise, which is what
  the fast-path-gap work (ROADMAP item 1) needs to watch.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.bench.snapshot import BenchResult, BenchSnapshot
from repro.bench.timing import measure
from repro.core.simulator import run_combined, simulate
from repro.experiments.common import KIB, ExperimentContext
from repro.predictors.sizing import make_predictor

__all__ = [
    "BenchCase",
    "DEFAULT_REPEATS",
    "DEFAULT_TRACE_LENGTH",
    "QUICK_REPEATS",
    "QUICK_TRACE_LENGTH",
    "WARMUP",
    "collision_cases",
    "combined_cases",
    "end_to_end_cases",
    "kernel_cases",
    "profiling_cases",
    "replay_cases",
    "run_suite",
    "service_cases",
    "tracked_cases",
]

DEFAULT_TRACE_LENGTH = 200_000
QUICK_TRACE_LENGTH = 50_000
DEFAULT_REPEATS = 5
QUICK_REPEATS = 3
WARMUP = 1

_PROGRAM = "gcc"
_INPUT = "ref"
_SIZE_BYTES = 4 * KIB
_FAMILIES = ("bimodal", "gshare", "ghist", "bimode", "2bcgskew")


@dataclass(frozen=True, slots=True)
class BenchCase:
    """One named measurement: a predictor configuration and kernel mode."""

    name: str
    predictor: str
    size_bytes: int
    kernel: str
    scheme: str = "none"

    @property
    def end_to_end(self) -> bool:
        """Whether the case runs the full two-phase experiment flow."""
        return self.name.startswith("e2e/")


def _pairs(prefix: str, predictor: str,
           scheme: str = "none") -> tuple[BenchCase, ...]:
    """A ``<prefix>/reference`` case on the reference loop and a
    ``<prefix>/fast`` case on ``kernel="auto"``."""
    return tuple(
        BenchCase(f"{prefix}/{name}", predictor, _SIZE_BYTES, kernel,
                  scheme=scheme)
        for name, kernel in (("reference", "reference"), ("fast", "auto"))
    )


def kernel_cases() -> tuple[BenchCase, ...]:
    """The reference/fast microbench pairs, in report order."""
    return tuple(
        case for family in _FAMILIES for case in _pairs(family, family)
    )


def profiling_cases() -> tuple[BenchCase, ...]:
    """The profile-tally pair: scalar loop versus vectorized column pass.

    Mirrors the kernel pairs: ``profile/reference`` runs the scalar
    oracle loop, ``profile/fast`` the whole-column
    :meth:`~repro.profiling.profile.ProgramProfile.from_trace` tally,
    and the ratio is the phase-one speedup.
    """
    return _pairs("profile", "bimodal")


def collision_cases() -> tuple[BenchCase, ...]:
    """The collision-attribution pair:
    :func:`~repro.profiling.collision_profile.measure_collision_involvement`
    on the reference loop's tag tracker versus on the scan kernel's
    victim/aggressor pairs; the ratio is the collision-phase speedup of
    the static_collision selection flow."""
    return _pairs("collision", "gshare")


def combined_cases() -> tuple[BenchCase, ...]:
    """The combined-predictor pair: a ``static_acc`` gshare (NO_SHIFT)
    on the reference loop versus its fast kernel replay."""
    return _pairs("combined", "gshare", scheme="static_acc")


def tracked_cases() -> tuple[BenchCase, ...]:
    """The collision-tracked pair: ``track_collisions=True`` gshare on
    the reference loop's tag tracker versus the scan's tag check."""
    return _pairs("tracked", "gshare")


def replay_cases() -> tuple[BenchCase, ...]:
    """Pure-simulation benches over a pinned trace-store artifact.

    One case per suite tier: gshare over the store-ensured gcc/ref
    artifact at the bench context's knobs, with ``kernel="auto"``.
    Loading and digest-verifying the artifact happens in the runner
    factory, outside the timed closure.
    """
    return (BenchCase("replay/gshare", "gshare", _SIZE_BYTES, "auto"),)


def service_cases() -> tuple[BenchCase, ...]:
    """The service-path round-trip bench (always run; CI-gated).

    One in-process :class:`~repro.service.server.PredictorService` on an
    OS-assigned port, one pipelined client, one *cached* cell: the timed
    region is protocol encode -> TCP -> scheduler memo hit -> response,
    i.e. the whole serving overhead with zero simulation inside it.
    Setup (server start, connect, the priming submit that warms the
    memo) happens in the runner factory; teardown in its cleanup hook.
    The result's ``branches`` count is 1, so the reported
    "branches/s" column reads directly as requests/s, and the CI 2x
    gate trips on service-path latency regressions.
    """
    return (BenchCase("service/roundtrip", "gshare", _SIZE_BYTES, "auto"),)


def end_to_end_cases() -> tuple[BenchCase, ...]:
    """The full-flow benches (static_95 selection + combined measure)."""
    return (
        BenchCase("e2e/gshare/static_95", "gshare", _SIZE_BYTES,
                  "auto", scheme="static_95"),
    )


def _service_runner(case: BenchCase, ctx: ExperimentContext):
    """The service round-trip closure (see :func:`service_cases`).

    The server, client, and priming submit live in this factory; the
    returned closure times one cached submit.  ``run.cleanup`` tears the
    stack down -- :func:`run_suite` calls it after ``measure``.
    """
    import asyncio

    from repro.service.client import ServiceClient
    from repro.service.config import ServiceConfig
    from repro.service.server import PredictorService

    loop = asyncio.new_event_loop()
    config = ServiceConfig(port=0, window_s=0.0)
    service = PredictorService(ctx, config, jobs=1, cache=None)
    loop.run_until_complete(service.start())
    client = loop.run_until_complete(
        ServiceClient.connect(config.host, service.port))
    cell = {"program": _PROGRAM, "predictor": case.predictor,
            "size_bytes": case.size_bytes}
    # Prime the scheduler memo: the timed region below is then the pure
    # serving overhead (encode -> TCP -> memo hit -> response).
    loop.run_until_complete(client.submit_result(cell))

    def run() -> None:
        loop.run_until_complete(client.submit_result(cell))

    def cleanup() -> None:
        loop.run_until_complete(client.close())
        loop.run_until_complete(service.stop())
        loop.close()

    run.cleanup = cleanup
    return run


def _case_runner(case: BenchCase, ctx: ExperimentContext):
    """A zero-argument closure running one case once.

    A fresh predictor is built inside the closure on every call:
    simulation trains in place, and a warm table would change both the
    work done and the result.
    """
    if case.end_to_end:
        def run() -> None:
            ctx.run(_PROGRAM, case.predictor, case.size_bytes,
                    scheme=case.scheme, measure_input=_INPUT)
        return run
    if case.name.startswith("service/"):
        return _service_runner(case, ctx)
    if case.name.startswith("replay/"):
        from repro.traces import TraceSpec, TraceStore

        spec = TraceSpec(
            name=f"bench-{_PROGRAM}-{_INPUT}-{ctx.trace_length}",
            program=_PROGRAM, input_name=_INPUT,
            length=ctx.trace_length, seed=ctx.seed,
            site_scale=ctx.site_scale,
        )
        pinned = TraceStore().ensure(spec)

        def run() -> None:
            predictor = make_predictor(case.predictor, case.size_bytes)
            simulate(pinned, predictor, kernel=case.kernel)
        return run
    trace = ctx.trace(_PROGRAM, _INPUT)
    if case.name.startswith("combined/"):
        hints = ctx.hints(_PROGRAM, case.scheme, predictor_name=case.predictor,
                          size_bytes=case.size_bytes, profile_input=_INPUT)

        def run() -> None:
            predictor = make_predictor(case.predictor, case.size_bytes)
            run_combined(trace, predictor, hints, kernel=case.kernel)
        return run
    if case.name.startswith("collision/"):
        from repro.profiling.collision_profile import (
            measure_collision_involvement,
        )

        def run() -> None:
            measure_collision_involvement(
                trace, make_predictor(case.predictor, case.size_bytes),
                kernel=case.kernel)
        return run
    if case.name.startswith("profile/"):
        from repro.profiling.profile import ProgramProfile

        profile = (ProgramProfile._from_trace_scalar
                   if case.kernel == "reference" else ProgramProfile.from_trace)

        def run() -> None:
            profile(trace)
        return run

    def run() -> None:
        predictor = make_predictor(case.predictor, case.size_bytes)
        simulate(trace, predictor, kernel=case.kernel,
                 track_collisions=case.name.startswith("tracked/"))
    return run


def run_suite(
    name: str = "kernels",
    quick: bool = False,
    trace_length: int | None = None,
    repeats: int | None = None,
) -> BenchSnapshot:
    """Run the suite and return the snapshot (not yet written to disk)."""
    if trace_length is None:
        trace_length = QUICK_TRACE_LENGTH if quick else DEFAULT_TRACE_LENGTH
    if repeats is None:
        repeats = QUICK_REPEATS if quick else DEFAULT_REPEATS
    ctx = ExperimentContext(trace_length=trace_length, kernel="auto")
    cases = (kernel_cases() + combined_cases() + tracked_cases()
             + profiling_cases() + collision_cases()
             + replay_cases() + service_cases())
    if not quick:
        cases = cases + end_to_end_cases()
    results = []
    for case in cases:
        runner = _case_runner(case, ctx)
        try:
            stats = measure(runner, repeats=repeats, warmup=WARMUP)
        finally:
            cleanup = getattr(runner, "cleanup", None)
            if cleanup is not None:
                cleanup()
        results.append(BenchResult(
            case=case.name,
            # Service cases time one request, so their "branches/s"
            # column reads directly as requests/s.
            branches=(1 if case.name.startswith("service/")
                      else trace_length),
            median_s=stats.median_s,
            iqr_s=stats.iqr_s,
        ))
    return BenchSnapshot(
        name=name,
        trace_length=trace_length,
        repeats=repeats,
        warmup=WARMUP,
        results=tuple(results),
    )
