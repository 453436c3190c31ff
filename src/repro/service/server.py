"""The asyncio TCP server: connections, routing, request registry.

One connection may pipeline any number of requests: each incoming line
is handled in its own task, responses are serialized through a
per-connection write lock, and the client correlates by echoed ``tag``.
Everything protocol-shaped is decided here; everything scheduling-shaped
is the :class:`~repro.service.batching.BatchingScheduler`'s.

Async submissions (``submit`` with ``wait=false``) are registered in a
server-side table keyed by a counter-assigned ``request_id`` -- counters,
not UUIDs, deliberately: request ids never leave the process's lifetime,
and the determinism lint (DET002) bans entropy sources that could leak
into anything result-shaped.  Finished entries are evicted when polled
with ``result`` (or when the table passes its bound, oldest first).

Graceful shutdown drains: the listener closes (new connections refused),
the scheduler runs its queue dry, the worker pool shuts down, every
open connection is closed once its pending replies are sent, and the
final stats payload -- the same one the ``stats`` message serves -- is
persisted through the atomic-write seam so a supervisor can read the
run's counters after the process is gone.
"""

from __future__ import annotations

import asyncio
import itertools
import json

from repro.errors import ServiceError
from repro.experiments.common import ExperimentContext
from repro.predictors.sizing import PREDICTOR_NAMES
from repro.runner.cache import ResultCache
from repro.runner.engine import CellExecutor
from repro.service.batching import (
    BatchingScheduler,
    DrainingError,
    QueueFullError,
    RequestTimeoutError,
)
from repro.service.config import ServiceConfig
from repro.service.protocol import (
    MAX_LINE_BYTES,
    PROTOCOL_VERSION,
    REQUEST_TYPES,
    ProtocolError,
    cell_from_wire,
    decode,
    encode,
    response,
)
from repro.utils.io import atomic_write_json
from repro.workloads.spec95 import PROGRAM_ORDER

__all__ = ["PredictorService"]

#: Bound on the async-submission table; past it the oldest *finished*
#: entries are evicted (pending ones are already bounded by the
#: scheduler's queue limit).
REGISTRY_LIMIT = 4096


def _salvage_tag(line: bytes) -> str | None:
    """Best-effort ``tag`` recovery from a line that may fail to decode,
    so even a protocol error (bad version, unknown type) is routed back
    to the pipelined client's matching waiter instead of being orphaned.
    """
    try:
        message = json.loads(line)
    except (ValueError, UnicodeDecodeError):
        return None
    if isinstance(message, dict):
        tag = message.get("tag")
        if isinstance(tag, str):
            return tag
    return None


class PredictorService:
    """The server object: lifecycle plus per-message handlers."""

    def __init__(
        self,
        ctx: ExperimentContext,
        config: ServiceConfig,
        jobs: int = 1,
        cache: ResultCache | None = None,
    ):
        self.config = config
        self.executor = CellExecutor(
            ctx, jobs=jobs, cache=cache, persistent=True
        )
        self.scheduler = BatchingScheduler(
            self.executor,
            window_s=config.window_s,
            max_batch=config.max_batch,
            queue_limit=config.queue_limit,
            timeout_s=config.timeout_s,
        )
        self.port: int | None = None
        self.connections = 0
        self._server: asyncio.AbstractServer | None = None
        self._ids = itertools.count(1)
        self._registry: dict[int, asyncio.Task] = {}
        # Live connection handlers -> (writer, in-flight message tasks).
        self._handlers: dict[
            asyncio.Task, tuple[asyncio.StreamWriter, set[asyncio.Task]]
        ] = {}
        self._shutdown = asyncio.Event()

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> None:
        """Bind the listener and start the scheduler.

        ``self.port`` is the *bound* port afterwards -- with
        ``config.port == 0`` the OS picks one, which is what the tests
        and the in-process bench use to avoid clashing with a real
        deployment.
        """
        await self.scheduler.start()
        try:
            self._server = await asyncio.start_server(
                self._handle, self.config.host, self.config.port,
                limit=MAX_LINE_BYTES + 1024,
            )
        except OSError as exc:
            await self.scheduler.stop()
            raise ServiceError(
                f"cannot bind {self.config.host}:{self.config.port}: {exc}"
            ) from exc
        self.port = self._server.sockets[0].getsockname()[1]

    async def stop(self, stats_path: str | None = None) -> None:
        """Graceful drain (see module docstring)."""
        if self._server is not None:
            self._server.close()
        for task in list(self._registry.values()):
            if not task.done():
                await asyncio.wait({task})
        await self.scheduler.stop()
        await self._close_connections()
        if self._server is not None:
            try:
                # 3.12 makes wait_closed also wait for open client
                # connections; they are closed above, but the wait stays
                # bounded so nothing can wedge the drain.
                await asyncio.wait_for(self._server.wait_closed(), 5.0)
            except asyncio.TimeoutError:
                pass
            self._server = None
        if stats_path is not None:
            atomic_write_json(stats_path, self.stats_payload(), indent=2)

    async def run(self, stats_path: str | None = None) -> None:
        """Serve until a ``shutdown`` request (or cancellation), then drain."""
        await self.start()
        try:
            await self._shutdown.wait()
        finally:
            await self.stop(stats_path=stats_path)

    def request_shutdown(self) -> None:
        self._shutdown.set()

    async def wait_shutdown(self) -> None:
        """Block until a ``shutdown`` request (or :meth:`request_shutdown`)."""
        await self._shutdown.wait()

    # -- connection handling -----------------------------------------------

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self.connections += 1
        lock = asyncio.Lock()
        tasks: set[asyncio.Task] = set()
        handler = asyncio.current_task()
        self._handlers[handler] = (writer, tasks)
        try:
            while True:
                try:
                    line = await reader.readline()
                except (ConnectionResetError, ValueError):
                    # ValueError is how StreamReader reports a line past
                    # its buffer limit; either way the framing is gone.
                    break
                if not line:
                    break
                if len(line) > MAX_LINE_BYTES:
                    await self._send(writer, lock, response(
                        "error", error="message exceeds the line limit"))
                    break
                task = asyncio.ensure_future(
                    self._serve_message(line, writer, lock)
                )
                tasks.add(task)
                task.add_done_callback(tasks.discard)
        finally:
            if tasks:
                await asyncio.wait(set(tasks))
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass
            self._handlers.pop(handler, None)

    async def _close_connections(self) -> None:
        """Finish every connection handler, pending replies first.

        A handler still waiting in ``readline()`` when the event loop
        shuts down gets cancelled, and Python 3.11's stream callback
        then logs the ``CancelledError`` as a traceback.  Closing each
        connection once its in-flight replies are written ends the read
        with EOF, so every handler returns normally.
        """
        for writer, tasks in list(self._handlers.values()):
            if tasks:
                await asyncio.wait(set(tasks))
            writer.close()
        if self._handlers:
            await asyncio.wait(set(self._handlers), timeout=5.0)

    async def _send(
        self,
        writer: asyncio.StreamWriter,
        lock: asyncio.Lock,
        message: dict,
    ) -> None:
        payload = encode(message)
        async with lock:
            writer.write(payload)
            try:
                await writer.drain()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _serve_message(
        self,
        line: bytes,
        writer: asyncio.StreamWriter,
        lock: asyncio.Lock,
    ) -> None:
        tag = _salvage_tag(line)
        try:
            message = decode(line, kinds=REQUEST_TYPES)
            reply = await self._route(message, writer, lock)
        except ProtocolError as exc:
            reply = response("error", tag, error=str(exc), v=PROTOCOL_VERSION)
        except ServiceError as exc:
            reply = response("error", tag, error=str(exc))
        if reply is not None:
            await self._send(writer, lock, reply)

    async def _route(
        self,
        message: dict,
        writer: asyncio.StreamWriter,
        lock: asyncio.Lock,
    ) -> dict | None:
        kind = message["type"]
        tag = message.get("tag")
        if kind == "submit":
            return await self._submit(message)
        if kind == "stream":
            await self._stream(message, writer, lock)
            return None
        if kind == "status":
            return self._status(message, with_result=False)
        if kind == "result":
            return self._status(message, with_result=True)
        if kind == "health":
            return self._health(tag)
        if kind == "stats":
            return response("stats", tag, **self.stats_payload())
        # kind == "shutdown" (decode() already rejected everything else)
        self.request_shutdown()
        return response("ok", tag, draining=True)

    # -- handlers ----------------------------------------------------------

    async def _submit(self, message: dict) -> dict:
        tag = message.get("tag")
        cell = cell_from_wire(message.get("cell"))
        wait = message.get("wait", True)
        if wait is not True and wait is not False:
            raise ProtocolError("'wait' must be a boolean when present")
        if not wait:
            request_id = next(self._ids)
            self._evict_registry()
            self._registry[request_id] = asyncio.ensure_future(
                self.scheduler.submit(cell)
            )
            return response("accepted", tag, request_id=request_id)
        before = self.scheduler.stats.cache_hits
        try:
            result = await self.scheduler.submit(cell)
        except QueueFullError as exc:
            return response("rejected", tag, retry_after=exc.retry_after)
        except (RequestTimeoutError, DrainingError) as exc:
            return response("error", tag, error=str(exc))
        return response(
            "result", tag,
            result=result.to_dict(),
            cached=self.scheduler.stats.cache_hits > before,
        )

    async def _stream(
        self,
        message: dict,
        writer: asyncio.StreamWriter,
        lock: asyncio.Lock,
    ) -> None:
        """One ``result`` line per cell, in completion order, then the end
        marker; a bad cell fails the whole stream up front (before any
        work is queued) rather than half way through."""
        tag = message.get("tag")
        payloads = message.get("cells")
        if not isinstance(payloads, list) or not payloads:
            raise ProtocolError("'cells' must be a non-empty list")
        cells = [cell_from_wire(payload) for payload in payloads]

        async def one(index: int, cell) -> dict:
            try:
                result = await self.scheduler.submit(cell)
            except QueueFullError as exc:
                return response("rejected", tag, index=index,
                                retry_after=exc.retry_after)
            except ServiceError as exc:
                return response("error", tag, index=index, error=str(exc))
            return response("result", tag, index=index,
                            result=result.to_dict())

        pending = {
            asyncio.ensure_future(one(index, cell))
            for index, cell in enumerate(cells)
        }
        while pending:
            done, pending = await asyncio.wait(
                pending, return_when=asyncio.FIRST_COMPLETED
            )
            for task in done:
                await self._send(writer, lock, task.result())
        await self._send(writer, lock,
                         response("stream-end", tag, count=len(cells)))

    def _status(self, message: dict, with_result: bool) -> dict:
        tag = message.get("tag")
        request_id = message.get("request_id")
        if not isinstance(request_id, int):
            raise ProtocolError("'request_id' must be an integer")
        task = self._registry.get(request_id)
        if task is None:
            return response("error", tag, request_id=request_id,
                            error=f"unknown request_id {request_id}")
        if not task.done():
            return response("status", tag, request_id=request_id,
                            state="pending")
        if not with_result:
            state = "failed" if task.exception() is not None else "done"
            return response("status", tag, request_id=request_id, state=state)
        del self._registry[request_id]
        error = task.exception()
        if error is not None:
            return response("error", tag, request_id=request_id,
                            error=str(error))
        return response("result", tag, request_id=request_id,
                        result=task.result().to_dict())

    def _health(self, tag: str | None) -> dict:
        return response(
            "health", tag,
            v=PROTOCOL_VERSION,
            status="draining" if self.scheduler.draining else "ok",
            programs=len(PROGRAM_ORDER),
            predictors=len(PREDICTOR_NAMES),
            queue_depth=self.scheduler.depth,
        )

    def _evict_registry(self) -> None:
        if len(self._registry) < REGISTRY_LIMIT:
            return
        for request_id in list(self._registry):
            task = self._registry[request_id]
            if task.done():
                del self._registry[request_id]
                if len(self._registry) < REGISTRY_LIMIT:
                    return

    # -- observability -----------------------------------------------------

    def stats_payload(self) -> dict:
        """The counters the ``stats`` message serves (and drain persists)."""
        summary = self.executor.summary
        payload = {
            "scheduler": self.scheduler.stats.to_dict(),
            "executor": {
                "jobs": summary.jobs,
                "cells": summary.cells,
                "batches": summary.batches,
                "simulated": summary.simulated,
                "branches_simulated": summary.branches_simulated,
            },
            "connections": self.connections,
        }
        cache = self.executor.cache
        if cache is not None:
            payload["store"] = {
                "hits": cache.hits,
                "misses": cache.misses,
                "evictions": cache.evictions,
                "bytes": cache.store_bytes(),
            }
        return payload
