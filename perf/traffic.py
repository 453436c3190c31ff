"""Closed- and open-loop traffic over ``repro.service.client.ServiceClient``.

The open loop sends request ``i`` at its absolute due time
``start + i / rate``, whatever the replies are doing, and times each
request from its due time: a stall in the server or in this generator
shows up as latency on every request due during it, instead of quietly
slowing the generator down.  How late the generator itself ran is
reported as lateness (send time minus due time); a run whose p99
lateness exceeds :data:`MAX_LATENESS_MS` measured the generator, not
the service, and is invalid.

The closed loop keeps one request outstanding per connection, so its
throughput is what the server sustains on the hit path.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass

from repro.errors import ServiceError

__all__ = ["MAX_LATENESS_MS", "Reply", "closed_loop", "open_loop", "send_all"]

MAX_LATENESS_MS = 5.0
_LEAD_S = 0.05  # the first due time, after the schedule is built


@dataclass(slots=True)
class Reply:
    """One request: what was sent, when, and what came back."""

    index: int
    kind: str
    cell: dict
    due: float
    sent: float
    done: float
    message: dict | None
    error: str | None

    @property
    def latency_ms(self) -> float:
        return (self.done - self.due) * 1000.0

    @property
    def lateness_ms(self) -> float:
        return (self.sent - self.due) * 1000.0


async def _request(client, index: int, kind: str, cell: dict, due: float) -> Reply:
    sent = time.perf_counter()
    message = error = None
    try:
        message = await client.submit(cell)
    except ServiceError as exc:
        error = str(exc)
    else:
        if message["type"] != "result":
            error = message.get("error", message["type"])
    return Reply(index, kind, cell, due, sent, time.perf_counter(), message, error)


async def send_all(clients, cells: list[dict]) -> tuple[float, list[Reply]]:
    """Send every cell at once, round-robin over ``clients``; returns the
    seconds until the last reply and the replies in send order."""
    start = time.perf_counter()
    replies = await asyncio.gather(*(
        _request(clients[i % len(clients)], i, "prime", cell, start)
        for i, cell in enumerate(cells)))
    return time.perf_counter() - start, list(replies)


async def open_loop(clients, schedule: list[tuple[str, dict]],
                    rate: float) -> list[Reply]:
    """Send ``schedule`` (``(kind, cell)`` pairs) at ``rate`` requests/s."""
    start = time.perf_counter() + _LEAD_S
    tasks = []
    for index, (kind, cell) in enumerate(schedule):
        due = start + index / rate
        delay = due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        tasks.append(asyncio.ensure_future(
            _request(clients[index % len(clients)], index, kind, cell, due)))
    return list(await asyncio.gather(*tasks))


async def closed_loop(clients, cells: list[dict], windows: int,
                      window_s: float) -> tuple[list[float], list[Reply]]:
    """Each client sends the next cell as soon as its previous reply
    arrives, for ``windows`` windows; returns requests/s per window and
    every reply."""
    start = time.perf_counter()
    end = start + windows * window_s
    done = [0] * windows
    replies: list[Reply] = []

    async def worker(offset: int, client) -> None:
        index = offset
        while True:
            now = time.perf_counter()
            if now >= end:
                return
            reply = await _request(client, index, "closed",
                                   cells[index % len(cells)], now)
            replies.append(reply)
            window = int((reply.done - start) / window_s)
            if window < windows:
                done[window] += 1
            index += len(clients)

    await asyncio.gather(*(worker(i, client) for i, client in enumerate(clients)))
    return [count / window_s for count in done], replies
