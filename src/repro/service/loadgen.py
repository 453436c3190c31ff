"""Load generator: measured traffic against a running service.

Two driving modes, the classic pair:

* **closed loop** -- ``concurrency`` workers, each holding one
  pipelined connection, each issuing its next request the moment the
  previous one completes.  Throughput is whatever the server sustains;
  latency excludes queueing at the client.
* **open loop** -- request ``i`` is *scheduled* at its absolute due
  time ``start + i / rate``, issued over round-robin connections
  regardless of how fast responses come back, and timed from that due
  time.  This is the honest overload probe: a server that cannot keep
  up accumulates latency (or sheds load via ``rejected``) instead of
  quietly slowing the generator down, and a late timer wake-up shows
  up as latency instead of as a lower request rate.

Every request is timed; the :class:`LatencyReport` aggregates p50/p90/
p99, requests/s, the *service-side* hit-rate (scheduler counters
sampled before and after the run, so executor-internal cache traffic
does not pollute it), and error/rejection counts.  The report renders
as a human table and as JSON written through the atomic seam -- CI
parses the JSON to gate on warm hit-rate 1.0 and zero errors.

All clock reads here are observability (latency *is* the observable);
none of them can reach a simulated result, hence the DET002 allow on
``_clock``, the one seam every read goes through (tests replace it,
and ``_sleep``, with a fake clock).
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
import time

from repro.errors import ServiceError
from repro.experiments.common import KIB
from repro.service.client import ServiceClient, wait_healthy
from repro.utils.io import atomic_write_json

__all__ = [
    "LatencyReport",
    "default_mix",
    "percentile",
    "run_loadgen",
]

_MIX_PREDICTORS = ("bimodal", "gshare", "ghist")
_MIX_SIZES = (1 * KIB, 2 * KIB, 4 * KIB)

_LEAD_S = 0.05
"""The open loop's first due time, after the schedule starts: every
send, the first included, then waits for its due time the same way."""

_clock = time.perf_counter  # repro: allow[DET002] -- observability only, latency is the measurement
_sleep = asyncio.sleep


def default_mix(size: int = 4, program: str = "gcc") -> list[dict]:
    """``size`` distinct wire-format cells, deterministically ordered.

    The mix walks the predictor x table-size grid the paper's sweeps
    walk, so a "warm" service run is exactly the memoized steady state
    a real sweep would reach.
    """
    if size < 1:
        raise ServiceError(f"mix size must be >= 1, got {size}")
    grid = [
        {"program": program, "predictor": predictor, "size_bytes": size_bytes}
        for size_bytes in _MIX_SIZES
        for predictor in _MIX_PREDICTORS
    ]
    if size > len(grid):
        raise ServiceError(
            f"mix size {size} exceeds the {len(grid)}-cell grid"
        )
    return grid[:size]


def percentile(samples: list[float], q: float) -> float:
    """Linear-interpolated quantile (``q`` in [0, 1]) of ``samples``."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = (len(ordered) - 1) * q
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    fraction = rank - low
    return ordered[low] + (ordered[high] - ordered[low]) * fraction


@dataclass(frozen=True, slots=True)
class LatencyReport:
    """One load-generation run, aggregated."""

    mode: str
    requests: int
    concurrency: int
    rate: float | None
    duration_s: float
    completed: int
    errors: int
    rejected: int
    hit_rate: float | None
    p50_ms: float
    p90_ms: float
    p99_ms: float

    @property
    def requests_per_second(self) -> float:
        if self.duration_s <= 0:
            return 0.0
        return self.completed / self.duration_s

    @property
    def error_rate(self) -> float:
        if self.requests == 0:
            return 0.0
        return self.errors / self.requests

    def to_dict(self) -> dict:
        return {
            "mode": self.mode,
            "requests": self.requests,
            "concurrency": self.concurrency,
            "rate": self.rate,
            "duration_s": self.duration_s,
            "completed": self.completed,
            "errors": self.errors,
            "rejected": self.rejected,
            "hit_rate": self.hit_rate,
            "error_rate": self.error_rate,
            "requests_per_second": self.requests_per_second,
            "p50_ms": self.p50_ms,
            "p90_ms": self.p90_ms,
            "p99_ms": self.p99_ms,
        }

    def write_json(self, path: str) -> None:
        atomic_write_json(path, self.to_dict(), indent=2)

    def describe(self) -> str:
        """The human table."""
        hit = "n/a" if self.hit_rate is None else f"{self.hit_rate:.1%}"
        rate = "-" if self.rate is None else f"{self.rate:,.0f}/s"
        rows = [
            ("mode", f"{self.mode} (target {rate})" if self.rate is not None
             else self.mode),
            ("requests", f"{self.requests} over {self.concurrency} conn(s)"),
            ("completed", f"{self.completed} "
             f"({self.errors} errors, {self.rejected} rejected)"),
            ("duration", f"{self.duration_s:.3f}s"),
            ("throughput", f"{self.requests_per_second:,.0f} requests/s"),
            ("hit-rate", hit),
            ("p50 / p90 / p99", f"{self.p50_ms:.3f} / {self.p90_ms:.3f} / "
             f"{self.p99_ms:.3f} ms"),
        ]
        width = max(len(label) for label, _ in rows)
        return "\n".join(f"{label:<{width}}  {value}"
                         for label, value in rows)


async def run_loadgen(
    host: str,
    port: int,
    requests: int = 200,
    concurrency: int = 8,
    mode: str = "closed",
    rate: float | None = None,
    mix: list[dict] | None = None,
    wait_health_s: float | None = None,
) -> LatencyReport:
    """Drive one measured run (see module docstring for the modes)."""
    if requests < 1:
        raise ServiceError(f"requests must be >= 1, got {requests}")
    if concurrency < 1:
        raise ServiceError(f"concurrency must be >= 1, got {concurrency}")
    if mode not in ("closed", "open"):
        raise ServiceError(f"mode must be 'closed' or 'open', got {mode!r}")
    if mode == "open" and (rate is None or rate <= 0):
        raise ServiceError("open-loop mode needs a positive --rate")
    cells = mix if mix is not None else default_mix()

    if wait_health_s is not None:
        await wait_healthy(host, port, timeout_s=wait_health_s)

    clients = [
        await ServiceClient.connect(host, port) for _ in range(concurrency)
    ]
    latencies_ms: list[float] = []
    outcomes = {"result": 0, "rejected": 0, "error": 0}

    async def one(client: ServiceClient, index: int,
                  start: float | None = None) -> None:
        cell = cells[index % len(cells)]
        if start is None:
            start = _clock()
        try:
            message = await client.submit(cell)
        except ServiceError:
            outcomes["error"] += 1
            return
        elapsed = _clock() - start
        kind = message["type"]
        outcomes[kind if kind in outcomes else "error"] += 1
        if kind == "result":
            latencies_ms.append(elapsed * 1000.0)

    stats_before = await clients[0].stats()
    if mode == "closed":
        run_start = _clock()
        pending = iter(range(requests))

        async def worker(client: ServiceClient) -> None:
            for index in pending:
                await one(client, index)

        await asyncio.gather(*(worker(client) for client in clients))
    else:
        # Each send waits for its absolute due time, so a late wake-up
        # delays one request instead of every request after it.
        run_start = _clock() + _LEAD_S
        tasks = []
        for index in range(requests):
            due = run_start + index / rate
            delay = due - _clock()
            if delay > 0:
                await _sleep(delay)
            tasks.append(asyncio.ensure_future(
                one(clients[index % concurrency], index, due)
            ))
        await asyncio.gather(*tasks)
    duration = _clock() - run_start
    stats_after = await clients[0].stats()

    for client in clients:
        await client.close()

    return LatencyReport(
        mode=mode,
        requests=requests,
        concurrency=concurrency,
        rate=rate,
        duration_s=duration,
        completed=outcomes["result"],
        errors=outcomes["error"],
        rejected=outcomes["rejected"],
        hit_rate=_hit_rate_delta(stats_before, stats_after),
        p50_ms=percentile(latencies_ms, 0.50),
        p90_ms=percentile(latencies_ms, 0.90),
        p99_ms=percentile(latencies_ms, 0.99),
    )


def _hit_rate_delta(before: dict, after: dict) -> float | None:
    """Scheduler-level hit-rate across the run, from stats snapshots.

    Inline cache hits over completed submissions -- the executor's own
    counters would double-count store lookups made *inside* a batch, so
    they are deliberately not used here.
    """
    try:
        hits = (after["scheduler"]["cache_hits"]
                - before["scheduler"]["cache_hits"])
        completed = (after["scheduler"]["completed"]
                     - before["scheduler"]["completed"])
    except (KeyError, TypeError):
        return None
    if completed <= 0:
        return None
    return hits / completed
