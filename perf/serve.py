"""Run ``repro serve`` for the benchmark, optionally with spans on.

Usage::

    python perf/serve.py --out PATH [--trace] -- <repro serve arguments>

Runs the service in this process until a ``shutdown`` request drains it,
then writes ``{"status", "peak_rss_mb"[, "trace"]}`` to ``PATH``.  With
``--trace`` the repro layers are wrapped before the server starts and
the spans recorded while serving are written out after the drain.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("serve_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    serve_args = args.serve_args
    if serve_args[:1] == ["--"]:
        serve_args = serve_args[1:]

    tracer = None
    if args.trace:
        from tracing import TARGETS, Tracer, instrument

        tracer = Tracer()
        instrument(tracer, TARGETS)
    from repro.cli import main as repro_main

    status = repro_main(["serve", *serve_args])
    payload = {
        "status": status,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        payload["trace"] = tracer.dump()
    with open(args.out, "w", encoding="utf-8") as stream:
        json.dump(payload, stream)
    return status


if __name__ == "__main__":
    sys.exit(main())
