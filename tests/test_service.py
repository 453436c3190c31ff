"""Tests for the predictor service: protocol, batching, serving, load.

The load-bearing guarantees:

* protocol -- messages round-trip exactly, version skew and malformed
  cells fail loudly at the boundary (never inside a batch);
* batching -- N concurrent compatible submissions coalesce into one
  executor batch, and a warm cache resolves inline with *zero*
  simulations (the property the CI service job gates on);
* backpressure -- a full queue sheds load with ``rejected`` +
  ``retry_after`` instead of buffering without bound;
* shutdown -- draining completes queued work, then refuses new work;
* loadgen -- the report's shape and hit-rate accounting are what the
  CI gate parses.

Socket-using tests skip cleanly where loopback TCP is unavailable
(sandboxed runners); the scheduler tests run everywhere, since the
batching guarantees do not need a socket to be exercised.
"""

from __future__ import annotations

import asyncio
import json
import logging
import socket

import pytest

from repro.core.metrics import SimulationResult
from repro.errors import ServiceError
from repro.runner import Cell, CellExecutor, ResultCache
from repro.service import (
    BatchingScheduler,
    PredictorService,
    ProtocolError,
    QueueFullError,
    RequestTimeoutError,
    ServiceConfig,
)
from repro.service import protocol
from repro.service.batching import DrainingError
from repro.service.client import ServiceClient, wait_healthy
from repro.service import loadgen
from repro.service.loadgen import default_mix, percentile, run_loadgen


def _loopback_available() -> bool:
    try:
        probe = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            probe.bind(("127.0.0.1", 0))
        finally:
            probe.close()
        return True
    except OSError:
        return False


needs_loopback = pytest.mark.skipif(
    not _loopback_available(),
    reason="loopback TCP unavailable (sandboxed runner)",
)

WIRE_CELL = {"program": "gcc", "predictor": "gshare", "size_bytes": 1024}


class TestProtocol:
    def test_request_round_trips_exactly(self):
        message = protocol.request("health", tag="7")
        decoded = protocol.decode(
            protocol.encode(message), kinds=protocol.REQUEST_TYPES
        )
        assert decoded == message

    def test_response_round_trips_exactly(self):
        message = protocol.response("result", "42", result={"x": 1})
        decoded = protocol.decode(
            protocol.encode(message), kinds=protocol.RESPONSE_TYPES
        )
        assert decoded == message

    def test_version_enforced_on_requests_only(self):
        message = protocol.request("health")
        message["v"] = 99
        line = protocol.encode(message)
        with pytest.raises(ProtocolError, match="version"):
            protocol.decode(line, kinds=protocol.REQUEST_TYPES)
        # Without the request-kinds restriction the version is opaque.
        assert protocol.decode(line)["v"] == 99

    def test_unknown_type_rejected(self):
        line = protocol.encode({"type": "bogus", "v": 1})
        with pytest.raises(ProtocolError, match="unknown message type"):
            protocol.decode(line, kinds=protocol.REQUEST_TYPES)

    @pytest.mark.parametrize("line", [
        b"not json\n",
        b"[1, 2]\n",
        b'{"no": "type"}\n',
        b'{"type": 5}\n',
        b'{"type": "health", "v": 1, "tag": 3}\n',
        b"\xff\xfe\n",
    ])
    def test_malformed_lines_rejected(self, line):
        with pytest.raises(ProtocolError):
            protocol.decode(line, kinds=protocol.REQUEST_TYPES)

    def test_oversized_message_rejected_both_ways(self):
        blob = "x" * protocol.MAX_LINE_BYTES
        with pytest.raises(ProtocolError, match="caps lines"):
            protocol.encode({"type": "submit", "v": 1, "blob": blob})
        with pytest.raises(ProtocolError, match="caps lines"):
            protocol.decode(b"x" * (protocol.MAX_LINE_BYTES + 1))

    def test_cell_round_trips_through_wire_format(self):
        cell = Cell.make(
            "gcc", "gshare", 2048, scheme="static_95",
            measure_input="train", cutoff=0.9, factor=1.1,
            track_collisions=True,
        )
        assert protocol.cell_from_wire(protocol.cell_to_wire(cell)) == cell

    def test_cell_defaults_match_cell_make_defaults(self):
        assert protocol.cell_from_wire(dict(WIRE_CELL)) \
            == Cell.make("gcc", "gshare", 1024)

    @pytest.mark.parametrize("payload", [
        "not a dict",
        {**WIRE_CELL, "program": "doom"},
        {**WIRE_CELL, "predictor": "oracle"},
        {**WIRE_CELL, "size_bytes": True},
        {**WIRE_CELL, "size_bytes": -4},
        {**WIRE_CELL, "scheme": "psychic"},
        {**WIRE_CELL, "measure_input": "test"},
        {**WIRE_CELL, "cutoff": "high"},
        {**WIRE_CELL, "track_collisions": 1},
        {**WIRE_CELL, "predictor_kwargs": {"bad": [1, 2]}},
        {**WIRE_CELL, "surprise": 1},
    ])
    def test_invalid_cells_rejected_at_the_boundary(self, payload):
        with pytest.raises(ProtocolError):
            protocol.cell_from_wire(payload)


class TestBatchingScheduler:
    def test_concurrent_submissions_coalesce_into_one_batch(self, tiny_ctx):
        cells = [Cell.make("gcc", "gshare", 1 << (9 + i)) for i in range(4)]

        async def main():
            executor = CellExecutor(tiny_ctx, jobs=1, persistent=True)
            scheduler = BatchingScheduler(executor, window_s=0.2)
            await scheduler.start()
            results = await asyncio.gather(
                *(scheduler.submit(cell) for cell in cells)
            )
            await scheduler.stop()
            return executor, scheduler, results

        executor, scheduler, results = asyncio.run(main())
        assert all(isinstance(r, SimulationResult) for r in results)
        assert executor.summary.batches == 1
        assert executor.summary.simulated == len(cells)
        assert scheduler.stats.batches == 1
        assert scheduler.stats.batched_cells == len(cells)
        assert scheduler.stats.completed == len(cells)
        assert scheduler.stats.cache_hits == 0

    def test_identical_cells_in_one_batch_simulate_once(self, tiny_ctx):
        cell = Cell.make("gcc", "bimodal", 1024)

        async def main():
            executor = CellExecutor(tiny_ctx, jobs=1, persistent=True)
            scheduler = BatchingScheduler(executor, window_s=0.2)
            await scheduler.start()
            first, second = await asyncio.gather(
                scheduler.submit(cell), scheduler.submit(cell)
            )
            await scheduler.stop()
            return executor, scheduler, first, second

        executor, scheduler, first, second = asyncio.run(main())
        assert first == second
        assert executor.summary.simulated == 1
        assert scheduler.stats.batches == 1
        assert scheduler.stats.batched_cells == 2

    def test_warm_cache_resolves_inline_with_zero_simulations(
        self, tiny_ctx, tmp_path
    ):
        cache = ResultCache(str(tmp_path / "cache"))
        cell = Cell.make("gcc", "gshare", 1024)
        # Warm the persistent store the way any prior run would.
        baseline = CellExecutor(tiny_ctx, jobs=1, cache=cache)
        expected = baseline.execute([cell])[cell]

        async def main():
            executor = CellExecutor(
                tiny_ctx, jobs=1, cache=cache, persistent=True
            )
            scheduler = BatchingScheduler(executor, window_s=0.0)
            await scheduler.start()
            first = await scheduler.submit(cell)
            second = await scheduler.submit(cell)
            await scheduler.stop()
            return executor, scheduler, first, second

        executor, scheduler, first, second = asyncio.run(main())
        assert first == expected and second == expected
        assert executor.summary.simulated == 0
        assert scheduler.stats.cache_hits == 2
        assert scheduler.stats.batches == 0

    def test_full_queue_rejects_with_retry_after(self, tiny_ctx):
        async def main():
            executor = CellExecutor(tiny_ctx, jobs=1, persistent=True)
            scheduler = BatchingScheduler(
                executor, window_s=0.2, queue_limit=1
            )
            await scheduler.start()
            first = asyncio.ensure_future(
                scheduler.submit(Cell.make("gcc", "gshare", 512))
            )
            await asyncio.sleep(0)  # let the first submission enqueue
            with pytest.raises(QueueFullError) as info:
                await scheduler.submit(Cell.make("gcc", "gshare", 1024))
            assert info.value.retry_after > 0
            await first
            await scheduler.stop()
            return scheduler

        scheduler = asyncio.run(main())
        assert scheduler.stats.rejected == 1
        assert scheduler.stats.completed == 1

    def test_request_timeout_surfaces_but_batch_still_completes(
        self, tiny_ctx
    ):
        async def main():
            executor = CellExecutor(tiny_ctx, jobs=1, persistent=True)
            scheduler = BatchingScheduler(
                executor, window_s=0.2, timeout_s=0.01
            )
            await scheduler.start()
            with pytest.raises(RequestTimeoutError):
                await scheduler.submit(Cell.make("gcc", "bimodal", 512))
            await scheduler.stop()
            return executor, scheduler

        executor, scheduler = asyncio.run(main())
        assert scheduler.stats.timeouts == 1
        # The drain still ran the batch the timed-out cell rode in.
        assert executor.summary.simulated == 1

    def test_graceful_drain_completes_queued_work_then_refuses(
        self, tiny_ctx
    ):
        cells = [Cell.make("gcc", "gshare", 1 << (9 + i)) for i in range(3)]

        async def main():
            executor = CellExecutor(tiny_ctx, jobs=1, persistent=True)
            scheduler = BatchingScheduler(executor, window_s=0.2)
            await scheduler.start()
            tasks = [
                asyncio.ensure_future(scheduler.submit(cell))
                for cell in cells
            ]
            await asyncio.sleep(0)  # all three enqueue before the drain
            await scheduler.stop()
            results = await asyncio.gather(*tasks)
            with pytest.raises(DrainingError):
                await scheduler.submit(Cell.make("gcc", "bimodal", 512))
            return scheduler, results

        scheduler, results = asyncio.run(main())
        assert all(isinstance(r, SimulationResult) for r in results)
        assert scheduler.stats.completed == len(cells)
        assert scheduler.stats.failures == 0


@needs_loopback
class TestPredictorService:
    def test_end_to_end_round_trip_and_drained_stats(
        self, tiny_ctx, tmp_path
    ):
        stats_file = tmp_path / "stats.json"

        async def main():
            service = PredictorService(
                tiny_ctx,
                ServiceConfig(port=0, window_s=0.0),
                cache=ResultCache(str(tmp_path / "cache")),
            )
            await service.start()
            client = await ServiceClient.connect("127.0.0.1", service.port)
            async with client:
                health = await client.health()
                assert health["status"] == "ok"
                assert health["v"] == protocol.PROTOCOL_VERSION

                cold = await client.submit(dict(WIRE_CELL))
                assert cold["type"] == "result"
                assert cold["cached"] is False
                warm = await client.submit(dict(WIRE_CELL))
                assert warm["cached"] is True
                assert warm["result"] == cold["result"]

                other = {"program": "gcc", "predictor": "bimodal",
                         "size_bytes": 1024}
                messages = await client.stream([dict(WIRE_CELL), other])
                assert {m["type"] for m in messages} == {"result"}
                assert sorted(m["index"] for m in messages) == [0, 1]

                stats = await client.stats()
                assert stats["scheduler"]["submitted"] == 4
            await service.stop(stats_path=str(stats_file))

        asyncio.run(main())
        with open(stats_file, encoding="utf-8") as stream:
            payload = json.load(stream)
        assert payload["scheduler"]["completed"] == 4
        assert payload["scheduler"]["cache_hits"] == 2
        assert payload["executor"]["simulated"] == 2
        assert payload["store"]["misses"] >= 2

    def test_async_submit_poll_and_eviction(self, tiny_ctx):
        async def main():
            service = PredictorService(
                tiny_ctx, ServiceConfig(port=0, window_s=0.0)
            )
            await service.start()
            client = await ServiceClient.connect("127.0.0.1", service.port)
            async with client:
                accepted = await client.submit(dict(WIRE_CELL), wait=False)
                assert accepted["type"] == "accepted"
                request_id = accepted["request_id"]
                for _ in range(500):
                    status = await client.call(
                        "status", request_id=request_id
                    )
                    if status.get("state") == "done":
                        break
                    await asyncio.sleep(0.01)
                else:
                    raise AssertionError("async submission never finished")
                result = await client.call("result", request_id=request_id)
                assert result["type"] == "result"
                assert "mispredict_rate" in result["result"] \
                    or result["result"]
                # Polling the result evicts the registry entry.
                gone = await client.call("result", request_id=request_id)
                assert gone["type"] == "error"
                unknown = await client.call("status", request_id=10_000)
                assert unknown["type"] == "error"
            await service.stop()

        asyncio.run(main())

    def test_malformed_and_version_skewed_lines_get_error_replies(
        self, tiny_ctx
    ):
        async def main():
            service = PredictorService(
                tiny_ctx, ServiceConfig(port=0, window_s=0.0)
            )
            await service.start()
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", service.port
            )
            writer.write(b"not json\n")
            await writer.drain()
            reply = json.loads(await reader.readline())
            assert reply["type"] == "error"
            assert reply["v"] == protocol.PROTOCOL_VERSION

            writer.write(b'{"type": "health", "v": 99, "tag": "t"}\n')
            await writer.drain()
            reply = json.loads(await reader.readline())
            assert reply["type"] == "error"
            assert "version" in reply["error"]
            assert reply["tag"] == "t"

            bad_cell = {"program": "doom", "predictor": "gshare",
                        "size_bytes": 64}
            writer.write(protocol.encode(
                protocol.request("submit", tag="c", cell=bad_cell)
            ))
            await writer.drain()
            reply = json.loads(await reader.readline())
            assert reply["type"] == "error"
            assert "program" in reply["error"]
            writer.close()
            await writer.wait_closed()
            await service.stop()

        asyncio.run(main())

    def test_shutdown_request_drains_and_persists_stats(
        self, tiny_ctx, tmp_path
    ):
        stats_file = tmp_path / "drained.json"

        async def main():
            service = PredictorService(
                tiny_ctx, ServiceConfig(port=0, window_s=0.0)
            )
            await service.start()
            server = asyncio.ensure_future(
                service.run(stats_path=str(stats_file))
            )
            await wait_healthy("127.0.0.1", service.port,
                               timeout_s=10.0, interval_s=0.05)
            client = await ServiceClient.connect("127.0.0.1", service.port)
            async with client:
                await client.submit(dict(WIRE_CELL))
                reply = await client.shutdown()
                assert reply["type"] == "ok"
                assert reply["draining"] is True
            await server

        asyncio.run(main())
        with open(stats_file, encoding="utf-8") as stream:
            payload = json.load(stream)
        assert payload["scheduler"]["completed"] == 1
        assert payload["connections"] >= 1

    def test_drain_with_idle_clients_logs_no_traceback(self, tiny_ctx,
                                                       caplog):
        """The drain finishes every connection handler before the loop
        closes: clients still connected see EOF, and no handler is left
        parked in readline() for the loop's shutdown to cancel (which
        Python 3.11 logs as a CancelledError traceback)."""
        async def main():
            service = PredictorService(
                tiny_ctx, ServiceConfig(port=0, window_s=0.0)
            )
            await service.start()
            clients = [
                await asyncio.open_connection("127.0.0.1", service.port)
                for _ in range(2)
            ]
            await asyncio.sleep(0.05)  # both handlers wait in readline()
            await service.stop()
            ends = [await asyncio.wait_for(reader.read(), 5.0)
                    for reader, _ in clients]
            for _, writer in clients:
                writer.close()
                await writer.wait_closed()
            return ends

        with caplog.at_level(logging.ERROR, logger="asyncio"):
            ends = asyncio.run(main())
        assert ends == [b"", b""]
        assert [record.getMessage() for record in caplog.records
                if record.levelno >= logging.ERROR] == []

    def test_drain_sends_pending_replies_before_closing(self, tiny_ctx):
        """A reply the drain resolves still reaches its connection before
        the server closes it."""
        async def main():
            service = PredictorService(
                tiny_ctx, ServiceConfig(port=0, window_s=0.5)
            )
            await service.start()
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", service.port
            )
            writer.write(protocol.encode(protocol.request(
                "submit", tag="late", cell=dict(WIRE_CELL))))
            await writer.drain()
            await asyncio.sleep(0.05)  # queued, batch window still open
            await service.stop()
            reply = json.loads(await asyncio.wait_for(reader.readline(), 5.0))
            end = await asyncio.wait_for(reader.read(), 5.0)
            writer.close()
            await writer.wait_closed()
            return reply, end

        reply, end = asyncio.run(main())
        assert reply["type"] == "result" and reply["tag"] == "late"
        assert end == b""

    def test_wait_healthy_fails_cleanly_when_nothing_listens(self):
        probe = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        with pytest.raises(ServiceError, match="did not become healthy"):
            asyncio.run(wait_healthy("127.0.0.1", port,
                                     timeout_s=0.2, interval_s=0.05))


class TestLoadgenReportMath:
    def test_percentile_interpolates(self):
        samples = [1.0, 2.0, 3.0, 4.0]
        assert percentile(samples, 0.0) == 1.0
        assert percentile(samples, 1.0) == 4.0
        assert percentile(samples, 0.5) == pytest.approx(2.5)
        assert percentile([], 0.5) == 0.0

    def test_default_mix_is_deterministic_and_bounded(self):
        mix = default_mix(size=4)
        assert mix == default_mix(size=4)
        assert len(mix) == 4
        assert len({json.dumps(c, sort_keys=True) for c in mix}) == 4
        with pytest.raises(ServiceError):
            default_mix(size=0)
        with pytest.raises(ServiceError):
            default_mix(size=100)

    @pytest.mark.parametrize("kwargs", [
        dict(requests=0),
        dict(concurrency=0),
        dict(mode="sideways"),
        dict(mode="open"),  # open loop needs a positive rate
        dict(mode="open", rate=-1.0),
    ])
    def test_loadgen_validates_before_connecting(self, kwargs):
        with pytest.raises(ServiceError):
            asyncio.run(run_loadgen("127.0.0.1", 1, **kwargs))


class TestOpenLoopSchedule:
    """The open loop against a fake clock: every timer wakes ``LATE``
    seconds after its deadline, as a real one does, and every request
    takes ``SERVICE`` seconds to answer."""

    RATE = 100.0
    REQUESTS = 25
    LATE = 0.004
    SERVICE = 0.002

    def run(self, monkeypatch):
        now = [1000.0]
        sends = []

        class FakeClient:
            async def submit(self, cell):
                sends.append(now[0])
                now[0] += TestOpenLoopSchedule.SERVICE
                return {"type": "result"}

            async def stats(self):
                return {"scheduler": {"cache_hits": 0, "completed": 0}}

            async def close(self):
                pass

        async def connect(host, port):
            return FakeClient()

        async def sleep(delay):
            deadline = now[0] + delay
            await asyncio.sleep(0)  # the sent requests run meanwhile
            now[0] = max(now[0], deadline) + self.LATE

        monkeypatch.setattr(loadgen, "_clock", lambda: now[0])
        monkeypatch.setattr(loadgen, "_sleep", sleep)
        monkeypatch.setattr(loadgen.ServiceClient, "connect",
                            staticmethod(connect))
        report = asyncio.run(run_loadgen(
            "127.0.0.1", 1, requests=self.REQUESTS, concurrency=2,
            mode="open", rate=self.RATE))
        return report, sends

    def test_sends_keep_the_schedule_despite_late_timers(self, monkeypatch):
        report, sends = self.run(monkeypatch)
        assert len(sends) == self.REQUESTS
        assert sends[-1] - sends[0] == pytest.approx(
            (self.REQUESTS - 1) / self.RATE)
        gaps = [b - a for a, b in zip(sends, sends[1:])]
        assert gaps == pytest.approx([1 / self.RATE] * len(gaps))
        assert report.requests_per_second == pytest.approx(
            self.REQUESTS / ((self.REQUESTS - 1) / self.RATE
                             + self.LATE + self.SERVICE))

    def test_latency_starts_at_the_due_time(self, monkeypatch):
        report, _ = self.run(monkeypatch)
        # Each send left LATE after its due time; the latency shows it.
        expected_ms = (self.LATE + self.SERVICE) * 1000.0
        assert report.p50_ms == pytest.approx(expected_ms)
        assert report.p99_ms == pytest.approx(expected_ms)


@needs_loopback
class TestLoadgenAgainstService:
    def test_cold_then_warm_runs_and_report_shape(self, tiny_ctx, tmp_path):
        mix = default_mix(size=2)

        async def main():
            service = PredictorService(
                tiny_ctx, ServiceConfig(port=0, window_s=0.0)
            )
            await service.start()
            cold = await run_loadgen("127.0.0.1", service.port,
                                     requests=8, concurrency=2, mix=mix)
            warm = await run_loadgen("127.0.0.1", service.port,
                                     requests=12, concurrency=3, mix=mix)
            await service.stop()
            return cold, warm

        cold, warm = asyncio.run(main())
        assert cold.completed == 8 and cold.errors == 0
        # Two distinct cells simulate once each; the rest hit the memo.
        assert cold.hit_rate == pytest.approx(6 / 8)
        assert warm.completed == 12
        assert warm.errors == 0 and warm.rejected == 0
        assert warm.hit_rate == 1.0
        assert warm.error_rate == 0.0
        assert warm.requests_per_second > 0
        assert warm.p50_ms <= warm.p90_ms <= warm.p99_ms

        payload = warm.to_dict()
        for key in ("mode", "requests", "concurrency", "rate", "duration_s",
                    "completed", "errors", "rejected", "hit_rate",
                    "error_rate", "requests_per_second", "p50_ms", "p90_ms",
                    "p99_ms"):
            assert key in payload
        report_path = tmp_path / "latency-report.json"
        warm.write_json(str(report_path))
        with open(report_path, encoding="utf-8") as stream:
            assert json.load(stream)["hit_rate"] == 1.0
        assert "requests/s" in warm.describe()

    def test_open_loop_mode_completes_all_requests(self, tiny_ctx):
        async def main():
            service = PredictorService(
                tiny_ctx, ServiceConfig(port=0, window_s=0.0)
            )
            await service.start()
            report = await run_loadgen(
                "127.0.0.1", service.port, requests=10, concurrency=2,
                mode="open", rate=500.0, mix=default_mix(size=1),
                wait_health_s=10.0,
            )
            await service.stop()
            return report

        report = asyncio.run(main())
        assert report.mode == "open"
        assert report.rate == 500.0
        assert report.completed == 10
        assert report.errors == 0
