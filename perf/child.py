"""One workload of the end-to-end benchmark, in a fresh interpreter.

Usage (``perf/run.py`` runs this; see README.md)::

    python perf/child.py WORKLOAD --seed N --seconds S --out PATH
        [--trace] [--cold-only] [--smoke]

Writes one JSON object to ``PATH``: the end-to-end metrics, the
correctness verdict and, with ``--trace``, the per-layer metrics from a
run with spans on.  ``--cold-only`` measures the cold regeneration and
nothing else: the untraced baseline that tracing overhead is computed
against.  Every input is generated from ``--seed``.
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import json
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from common import OUT, ROOT, tail

BATCH = {
    "figs-schemes": tuple(f"figure{i}" for i in range(7, 13)),
    "figs-collisions": tuple(f"figure{i}" for i in range(1, 7)),
    "tables-profile": ("table1", "table5"),
}

DEFAULT_LENGTH = 200_000
"""The experiments' default trace length; goldens are pinned at it."""

GOLDEN_SEED = 42
REFERENCE_SAMPLES = 3
SERVICE_CHECKS = 10
WARM_SET = 32
CONNECTIONS = 2
WINDOWS = 5
MISS_SHARE = 20  # one request in 20 is a never-seen cell
LATENCY_LIMIT_MS = 250.0

SERVICE_PREDICTORS = ("bimodal", "ghist", "gshare", "bimode", "2bcgskew")
SERVICE_SCHEMES = ("none", "static_95", "static_acc")
SERVICE_SIZES = tuple(512 << i for i in range(8))  # 512 B .. 64 KiB

PROBE = (
    "import sys\n"
    "import repro.runner, repro.experiments.registry\n"
    "from repro.experiments.common import ExperimentContext\n"
    "ExperimentContext(seed=int(sys.argv[1]))\n"
    "print('ready', flush=True)\n"
)
"""What a batch workload does before its first cell: load the runner and
registry, build the context."""


@dataclass(frozen=True)
class Sizes:
    length: int
    serve_length: int
    launches: int
    min_passes: int
    requests: int
    rate: float


FULL = Sizes(length=DEFAULT_LENGTH, serve_length=50_000, launches=5,
             min_passes=11, requests=2_000, rate=100.0)
SMOKE = Sizes(length=2_000, serve_length=2_000, launches=2,
              min_passes=3, requests=200, rate=400.0)


class Outcome:
    """Operations attempted, the ids of those that failed, and why."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed: set[str] = set()
        self.errors: list[str] = []

    def fail(self, ops, why: str) -> None:
        self.failed.update(ops)
        if len(self.errors) < 20:
            self.errors.append(why)


# -- batch workloads ----------------------------------------------------------

def setup_seconds(seed: int, launches: int) -> float:
    """Median, over fresh launches, of spawn until the runner, registry
    and context are ready."""
    samples = []
    for _ in range(launches):
        start = time.perf_counter()
        with subprocess.Popen([sys.executable, "-c", PROBE, str(seed)],
                              stdout=subprocess.PIPE) as proc:
            line = proc.stdout.readline()
            samples.append(time.perf_counter() - start)
            proc.communicate()
        if line.strip() != b"ready" or proc.returncode != 0:
            raise RuntimeError("setup probe did not become ready")
    return statistics.median(samples)


def run_batch(name: str, args, sizes: Sizes, work: Path) -> dict:
    from repro.experiments.common import ExperimentContext
    from repro.experiments.registry import get_cells
    from repro.runner import ResultCache, execute_cell, run_experiments
    import tracing

    ids = BATCH[name]
    seed, length = args.seed, sizes.length
    metrics: dict[str, float] = {}
    if not args.cold_only and not args.trace:
        metrics["setup_s"] = setup_seconds(seed, sizes.launches)
    store = str(work / "store")

    def regenerate(ctx):
        reports, _ = run_experiments(list(ids), ctx, jobs=1, cache=ResultCache(store))
        return {i: (report.render(), report.data) for i, report in reports.items()}

    tracer = patch = None
    if args.trace:
        tracer = tracing.Tracer()
        patch = tracing.instrument(tracer, tracing.TARGETS)
    cold_ctx = ExperimentContext(seed=seed, trace_length=length)
    start = time.perf_counter()
    cold = regenerate(cold_ctx)
    metrics["regen_s"] = time.perf_counter() - start
    if args.cold_only:
        return {"metrics": metrics, "details": {"cold_s": metrics["regen_s"]}}

    outcome = Outcome()
    declared = {i: get_cells(i)(cold_ctx) if get_cells(i) else None for i in ids}
    cells = list(dict.fromkeys(c for i in ids for c in declared[i] or ()))
    # Simulation-shaped ids are judged per cell; the profiling tables,
    # which declare no cells, per experiment.
    ops = {i: [tracing.cell_id(c) for c in declared[i]] if declared[i] else [i]
           for i in ids}
    outcome.attempted = sum(len(v) for v in ops.values())

    # A warm pass over cell-shaped experiments reads the filled store
    # through a fresh context and cache; the profiling tables have no
    # cells to cache, so their warm pass reuses the memoized traces.
    samples = []
    deadline = time.perf_counter() + args.seconds
    while len(samples) < sizes.min_passes or time.perf_counter() < deadline:
        ctx = ExperimentContext(seed=seed, trace_length=length) if cells else cold_ctx
        start = time.perf_counter()
        warm = regenerate(ctx)
        samples.append(time.perf_counter() - start)
        for i in ids:
            if warm[i] != cold[i]:
                outcome.fail(ops[i], f"{i}: warm pass differs from the cold run")
    metrics["warm_ms"] = statistics.median(samples) * 1000.0
    metrics["warm_tail_ms"] = tail(samples) * 1000.0
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    layers = None
    if tracer is not None:
        patch.undo()
        layers = tracing.layer_metrics(tracer.spans, tracer.counts)
        write_trace(args, tracer.dump())

    # -- correctness, untimed ------------------------------------------------
    check_ctx = ExperimentContext(seed=seed, trace_length=length)
    cache = ResultCache(store)
    results = {cell: cache.get_result(check_ctx, cell) for cell in cells}
    for cell, result in results.items():
        if (result is None or result.branches != length
                or not 0 <= result.mispredictions <= result.branches):
            outcome.fail([tracing.cell_id(cell)],
                         f"{tracing.cell_id(cell)}: missing or impossible result")
    if cells:
        reference = ExperimentContext(seed=seed, trace_length=length, kernel="reference")
        for cell in random.Random(seed).sample(cells, REFERENCE_SAMPLES):
            expected = results[cell].to_dict() if results[cell] else None
            if execute_cell(reference, cell).to_dict() != expected:
                outcome.fail([tracing.cell_id(cell)],
                             f"{tracing.cell_id(cell)}: differs from the reference kernel")
    if "table1" in ids:
        for program, data in cold["table1"][1].items():
            if {data["train"].branch_count, data["ref"].branch_count} != {length}:
                outcome.fail(["table1"], f"table1: {program} trace length is wrong")
    golden = seed == GOLDEN_SEED and length == DEFAULT_LENGTH
    if golden:
        for i in ids:
            path = ROOT / "benchmarks" / "results" / f"{i}.txt"
            if not path.is_file() or path.read_text(encoding="utf-8") != cold[i][0]:
                outcome.fail(ops[i], f"{i}: report differs from {path.relative_to(ROOT)}")
    return {"metrics": metrics, "layers": layers, "outcome": outcome,
            "details": {"cold_s": metrics["regen_s"], "warm_passes": len(samples),
                        "golden_checked": golden}}


# -- serve-mixed -----------------------------------------------------------

def service_cells(seed: int, misses: int) -> tuple[list[dict], list[dict]]:
    """The warm set and the never-seen cells, from the 6 programs x 5
    predictors x 8 sizes x 3 schemes grid.

    Both are spread evenly over programs and predictor/scheme pairs, so
    a seed changes which sizes and programs meet which predictor, not
    how much work the traffic carries.
    """
    from repro.workloads.spec95 import PROGRAM_ORDER

    rng = random.Random(seed)
    pairs = [(p, s) for p in SERVICE_PREDICTORS for s in SERVICE_SCHEMES]
    rng.shuffle(pairs)

    def cell(program, pair, size):
        return {"program": program, "predictor": pair[0],
                "size_bytes": size, "scheme": pair[1]}

    warm, taken = [], set()
    while len(warm) < WARM_SET:
        i = len(warm)
        candidate = cell(PROGRAM_ORDER[i % len(PROGRAM_ORDER)],
                         pairs[i % len(pairs)], rng.choice(SERVICE_SIZES))
        if _key(candidate) not in taken:
            warm.append(candidate)
            taken.add(_key(candidate))
    groups = []
    for pair in pairs:
        group = [cell(program, pair, size) for program in PROGRAM_ORDER
                 for size in SERVICE_SIZES]
        rng.shuffle(group)
        groups.append([c for c in group if _key(c) not in taken])
    fresh = [group[i] for i in range(max(map(len, groups)))
             for group in groups if i < len(group)]
    return warm, fresh[:misses]


def open_schedule(seed: int, warm: list[dict], fresh: list[dict],
                  requests: int) -> list[tuple[str, dict]]:
    """One miss at a seeded slot in every block of ``MISS_SHARE``
    requests, hits on seeded warm cells elsewhere.  Misses never bunch
    up by more than two, so the tail measures the service, not how a
    seed happened to cluster its misses."""
    rng = random.Random(seed + 1)
    miss_at = {block + rng.randrange(MISS_SHARE)
               for block in range(0, requests, MISS_SHARE)}
    misses = iter(fresh)
    return [("miss", next(misses)) if i in miss_at
            else ("hit", warm[rng.randrange(len(warm))]) for i in range(requests)]


class Server:
    """``perf/serve.py`` in a child process, and one client to steer it."""

    def __init__(self, proc, client, port: int, out: Path, setup_s: float):
        self.proc, self.client, self.port = proc, client, port
        self.out, self.setup_s = out, setup_s

    @classmethod
    async def start(cls, serve_args: list[str], out: Path, trace: bool) -> "Server":
        from repro.service.client import ServiceClient

        start = time.perf_counter()
        proc = await asyncio.create_subprocess_exec(
            sys.executable, str(ROOT / "perf" / "serve.py"), "--out", str(out),
            *(["--trace"] if trace else []), "--", *serve_args,
            stdout=asyncio.subprocess.PIPE)
        try:
            line = (await proc.stdout.readline()).decode()
            if not line.startswith("serving on "):
                raise RuntimeError(f"server did not start: {line!r}")
            port = int(line.split()[2].rpartition(":")[2])
            client = await ServiceClient.connect("127.0.0.1", port)
            health = await client.health()
            setup_s = time.perf_counter() - start
            if health.get("status") != "ok":
                raise RuntimeError(f"server is not healthy: {health}")
        except BaseException:
            proc.kill()
            await proc.wait()
            raise
        return cls(proc, client, port, out, setup_s)

    async def stop(self) -> dict:
        """Drain the server and return what it wrote on exit."""
        try:
            await self.client.shutdown()
            await self.client.close()
            await asyncio.wait_for(self.proc.communicate(), 60.0)
        finally:
            if self.proc.returncode is None:
                self.proc.kill()
                await self.proc.wait()
        with open(self.out, encoding="utf-8") as stream:
            return json.load(stream)


async def serve_mixed(args, sizes: Sizes, work: Path) -> dict:
    from repro.service.client import ServiceClient
    from tracing import Span, layer_metrics
    import traffic

    seed, length = args.seed, sizes.serve_length
    serve_args = ["--host", "127.0.0.1", "--port", "0", "--jobs", "1",
                  "--no-cache", "--length", str(length), "--seed", str(seed)]
    metrics: dict[str, float] = {}
    if not args.cold_only and not args.trace:
        launches = []
        for i in range(sizes.launches):
            probe = await Server.start(serve_args, work / f"probe{i}.json", False)
            launches.append(probe.setup_s)
            await probe.stop()
        metrics["setup_s"] = statistics.median(launches)

    warm, fresh = service_cells(seed, sizes.requests // MISS_SHARE)
    outcome = Outcome()
    cold: dict[str, dict | None] = {}

    def check(replies) -> None:
        outcome.attempted += len(replies)
        for reply in replies:
            op = f"{reply.kind}-{reply.index}"
            if reply.error is not None:
                outcome.fail([op], f"{op}: {reply.error}")
            elif not (reply.message["result"]["branches"] == length
                      and 0 <= reply.message["result"]["mispredictions"] <= length):
                outcome.fail([op], f"{op}: impossible result")
            elif (reply.kind in ("hit", "closed")
                  and reply.message["result"] != cold[_key(reply.cell)]):
                outcome.fail([op], f"{op}: warm reply differs from the cold one")

    server = await Server.start(serve_args, work / "server.json", args.trace)
    clients = [server.client]
    try:
        for _ in range(CONNECTIONS - 1):
            clients.append(await ServiceClient.connect("127.0.0.1", server.port))
        prime_s, primed = await traffic.send_all(clients, warm)
        if not args.cold_only:
            cold.update((_key(r.cell), r.message and r.message["result"]) for r in primed)
            check(primed)
            window_rps, closed = await traffic.closed_loop(
                clients, warm, WINDOWS, args.seconds / WINDOWS)
            check(closed)
            # Tens of thousands of closed-loop replies would make the
            # collector pause the open-loop generator.
            del closed
            gc.collect()
            replies = await traffic.open_loop(
                clients, open_schedule(seed, warm, fresh, sizes.requests), sizes.rate)
            stats = await server.client.stats()
    finally:
        for client in clients[1:]:
            await client.close()
        exit_report = await server.stop()
    if args.cold_only:
        return {"metrics": metrics, "details": {"cold_s": prime_s}}

    latencies = [reply.latency_ms for reply in replies]
    lateness = sorted(reply.lateness_ms for reply in replies)
    lateness_p99 = lateness[int(0.99 * (len(lateness) - 1))]
    miss_ms = [reply.latency_ms for reply in replies if reply.kind == "miss"]
    metrics["regen_s"] = statistics.median(miss_ms) / 1000.0
    metrics["warm_ms"] = statistics.median(latencies)
    metrics["warm_tail_ms"] = tail(latencies)
    metrics["peak_rss_mb"] = exit_report["peak_rss_mb"]

    check(replies)
    if lateness_p99 > traffic.MAX_LATENESS_MS:
        outcome.fail(["open-loop"], f"invalid run: generator p99 lateness "
                                    f"{lateness_p99:.2f} ms exceeds {traffic.MAX_LATENESS_MS} ms")
    check_misses(seed, length, replies, outcome)

    layers = None
    if args.trace:
        trace = exit_report["trace"]
        spans = [Span(**span) for span in trace["spans"]]
        layers = layer_metrics(spans, trace["counts"], scheduler=stats["scheduler"])
        write_trace(args, trace)
    return {"metrics": metrics, "layers": layers, "outcome": outcome,
            "details": {"cold_s": prime_s,
                        "svc_hit_rps": statistics.median(window_rps),
                        "lateness_p99_ms": lateness_p99,
                        "latency_limit_met": metrics["warm_tail_ms"] <= LATENCY_LIMIT_MS,
                        "scheduler": stats["scheduler"]}}


def _key(cell: dict) -> str:
    return json.dumps(cell, sort_keys=True)


def check_misses(seed: int, length: int, replies, outcome: Outcome) -> None:
    """Sampled misses must equal an in-process run at the server's knobs."""
    from repro.experiments.common import ExperimentContext
    from repro.runner import execute_cell
    from repro.service.protocol import cell_from_wire

    ctx = ExperimentContext(seed=seed, trace_length=length)
    misses = [reply for reply in replies if reply.kind == "miss" and reply.error is None]
    for reply in random.Random(seed).sample(misses, min(SERVICE_CHECKS, len(misses))):
        expected = execute_cell(ctx, cell_from_wire(reply.cell)).to_dict()
        if reply.message["result"] != expected:
            op = f"miss-{reply.index}"
            outcome.fail([op], f"{op}: differs from an in-process run")


# -- entry point -------------------------------------------------------------

def write_trace(args, trace: dict) -> None:
    suffix = "-smoke" if args.smoke else ""
    with open(OUT / f"trace-{args.workload}{suffix}.json", "w",
              encoding="utf-8") as stream:
        json.dump(trace, stream, separators=(",", ":"))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=(*BATCH, "serve-mixed"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--cold-only", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    sizes = SMOKE if args.smoke else FULL

    OUT.mkdir(parents=True, exist_ok=True)
    work = OUT / f"work-{args.workload}-{args.seed}-{int(args.trace)}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    try:
        if args.workload == "serve-mixed":
            run = asyncio.run(serve_mixed(args, sizes, work))
        else:
            run = run_batch(args.workload, args, sizes, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    outcome = run.get("outcome") or Outcome()
    payload = {
        "workload": args.workload,
        "seed": args.seed,
        "metrics": run["metrics"],
        "layers": run.get("layers"),
        "details": run.get("details", {}),
        "attempted": outcome.attempted,
        "failed": len(outcome.failed),
        "errors": outcome.errors,
    }
    with open(args.out, "w", encoding="utf-8") as stream:
        json.dump(payload, stream)
    return 0


if __name__ == "__main__":
    sys.exit(main())
