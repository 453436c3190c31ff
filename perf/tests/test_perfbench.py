"""Tests of the end-to-end benchmark itself (run: python -m pytest perf/tests -q)."""

from __future__ import annotations

import inspect
import json
import shutil
import subprocess
import sys
import time

import compare
from common import E2E_UNITS, ROOT, WORKLOADS, load_benchmark, tail
from tracing import (LAYER_UNITS, TARGETS, Span, Target, Tracer, instrument,
                     self_times)

RUN = [sys.executable, str(ROOT / "perf" / "run.py")]


def _result(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def test_benchmark_json_names_the_metrics_the_code_reports():
    spec = load_benchmark()
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == E2E_UNITS
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert per_layer == {**LAYER_UNITS, "trace_overhead": "ratio"}
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_smoke_runs_every_workload_and_emits_every_metric():
    spec = load_benchmark()
    start = time.perf_counter()
    plain = subprocess.run(RUN + ["--smoke", "--seed", "7"], capture_output=True,
                           text=True, timeout=120)
    traced = subprocess.run(RUN + ["--smoke", "--seed", "7", "--trace", "1"],
                            capture_output=True, text=True, timeout=120)
    elapsed = time.perf_counter() - start
    assert plain.returncode == 0, plain.stderr
    assert traced.returncode == 0, traced.stderr
    assert elapsed < 60.0
    for proc, group in ((plain, "end_to_end"), (traced, "per_layer")):
        result = _result(proc.stdout)
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] > 0
        expected = {f"{w}/{m['name']}" for w in WORKLOADS for m in spec[group]}
        assert set(result["metrics"]) == expected
        for name, metric in result["metrics"].items():
            assert metric["unit"] == next(
                m["unit"] for m in spec[group] if name.endswith("/" + m["name"]))
            if group == "end_to_end":
                assert metric["value"] > 0, name


def test_without_sources_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perf", tmp_path / "perf",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perf/run.py", "--workload", "figs-schemes",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_self_time_subtracts_the_union_of_children_clipped_to_the_span():
    spans = [
        Span(1, "parent", 0.0, 10.0, None, None),
        Span(2, "a", 1.0, 3.0, 1, None),
        Span(3, "b", 2.0, 5.0, 1, None),    # overlaps a: union is 1..5
        Span(4, "c", 8.0, 12.0, 1, None),   # clipped to 8..10
        Span(5, "grandchild", 1.5, 2.5, 2, None),
    ]
    own = self_times(spans)
    assert own[1] == 10.0 - 4.0 - 2.0
    assert own[2] == 2.0 - 1.0
    assert own[3] == 3.0
    assert own[5] == 1.0


def test_spans_nest_and_carry_the_request_id():
    tracer = Tracer()
    with tracer.span("outer", rid="cell-1") as outer:
        with tracer.span("inner") as inner:
            pass
    with tracer.span("after"):
        pass
    assert inner.parent == outer.id and inner.rid == "cell-1"
    assert tracer.spans[-1].parent is None and tracer.spans[-1].rid is None


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    assert tail(list(range(2000))) == 1989
    assert tail(list(range(200))) == 189
    assert tail(list(range(20))) == 17  # under 100 samples: p90


def test_patching_reaches_by_name_bindings_and_undoes():
    import repro.core.simulator
    import repro.experiments.common
    from repro.service.batching import BatchingScheduler

    original = repro.core.simulator.simulate
    submit = BatchingScheduler.submit
    tracer = Tracer()
    patch = instrument(tracer, [
        Target("repro.core.simulator", "simulate", "core.simulate"),
        Target("repro.service.batching", "BatchingScheduler.submit", "service.submit"),
    ])
    try:
        wrapped = repro.experiments.common.simulate
        assert wrapped is not original
        assert repro.core.simulator.simulate is wrapped
        assert inspect.iscoroutinefunction(BatchingScheduler.submit)
        ctx = repro.experiments.common.ExperimentContext(seed=3, trace_length=500)
        ctx.run("gcc", "gshare", 1024)
        assert [span.name for span in tracer.spans] == ["core.simulate"]
    finally:
        patch.undo()
    assert repro.experiments.common.simulate is original
    assert repro.core.simulator.simulate is original
    assert BatchingScheduler.submit is submit


def test_traced_cell_results_are_bit_identical_to_untraced():
    import repro.runner.cells
    from repro.experiments.common import ExperimentContext
    from repro.experiments.figures_gshare import cells_program as gshare_cells
    from repro.experiments.figures_schemes import cells_program as scheme_cells

    def results():
        # Looked up at call time: a name bound in this test module before
        # instrument() ran would bypass the wrapper.
        ctx = ExperimentContext(seed=11, trace_length=3000)
        cells = gshare_cells(ctx, "go")[:4] + scheme_cells(ctx, "gcc")
        return [repro.runner.cells.execute_cell(ctx, cell).to_dict() for cell in cells]

    untraced = results()
    tracer = Tracer()
    patch = instrument(tracer, TARGETS)
    try:
        traced = results()
    finally:
        patch.undo()
    assert traced == untraced
    names = {span.name for span in tracer.spans}
    assert {"runner.cell", "workloads.execute", "core.loop_combined",
            "core.loop_tracked", "kernels.fast", "profiling.accuracy"} <= names


def _record(workload: str, seed: int, value: float) -> dict:
    return {"workload": workload, "seed": seed,
            "metrics": {"regen_s": {"value": value, "unit": "s"}}}


def test_compare_flags_regressions_gains_and_unresolved_spreads():
    specs = {"regen_s": {"name": "regen_s", "better": "lower", "bound": 0.1}}
    steady = {"w": [_record("w", s, 10.0 + 0.01 * s) for s in range(10)]}
    slower = {"w": [_record("w", s, 12.0 + 0.01 * s) for s in range(10)]}
    faster = {"w": [_record("w", s, 8.0 + 0.01 * s) for s in range(10)]}
    noisy = {"w": [_record("w", s, 10.0 * (1 + s % 2)) for s in range(10)]}
    lines, regressions = compare.compare(steady, slower, specs)
    assert regressions == 1 and lines[-1].endswith("REGRESSION")
    lines, regressions = compare.compare(steady, faster, specs)
    assert regressions == 0 and "wins 10/10" in lines[-1] and lines[-1].endswith("gain")
    lines, _ = compare.compare(noisy, steady, specs)
    assert lines[-1].endswith("unresolved")
