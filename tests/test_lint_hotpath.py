"""Tests for hot-region inference and the PERF rule family.

The hot region is what keeps PERF rules quiet on cold code: a scalar
loop only fires when the function is provably reachable from a
simulation entry point, the kernels dispatch table, a profiling pass,
or an ``@hot_path`` annotation.  These fixtures pin each discovery
mode, the loop-scale classifier, and each PERF001-PERF004 shape.
"""

from __future__ import annotations

import textwrap
from pathlib import Path

from repro.lint import run_lint
from repro.lint.hotpath import hot_region, load_project, render_hot_report
from repro.lint.rules.perf import (
    HotListAppendRule,
    NumpyAntiPatternRule,
    TraceScaleLoopRule,
    UnregisteredKernelRule,
)


def write_tree(tmp_path: Path, files: dict[str, str]) -> Path:
    root = tmp_path / "tree"
    for rel, source in files.items():
        target = root / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(textwrap.dedent(source), encoding="utf-8")
    return root


# ---------------------------------------------------------------------------
# Hot-region inference


class TestHotRegionInference:
    def test_kernels_table_indirect_dispatch_roots_the_region(self, tmp_path):
        root = write_tree(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/kernels/__init__.py": """
                from pkg.kernels import dynamic

                _KERNELS = {
                    "bimodal": dynamic.replay_bimodal,
                }
            """,
            "pkg/kernels/dynamic.py": """
                def _tally(outcomes):
                    total = 0
                    for value in outcomes:
                        total += value
                    return total

                def replay_bimodal(trace, predictor):
                    addresses, outcomes = trace.arrays()
                    return _tally(outcomes)
            """,
        })
        region = hot_region(load_project([root]))
        assert "pkg.kernels.dynamic.replay_bimodal" in region
        # The helper is pulled in through the call edge, not by name.
        assert "pkg.kernels.dynamic._tally" in region
        reason = region.functions[
            "pkg.kernels.dynamic.replay_bimodal"].reason
        assert "_KERNELS" in reason

    def test_hot_path_decorator_roots_function_and_callees(self, tmp_path):
        root = write_tree(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/encode.py": """
                from pkg.util import hot_path

                def _helper(values):
                    return sum(values)

                @hot_path
                def encode(values):
                    return _helper(values)

                def cold(values):
                    return max(values)
            """,
        })
        region = hot_region(load_project([root]))
        assert "pkg.encode.encode" in region
        assert "pkg.encode._helper" in region
        assert "pkg.encode.cold" not in region
        assert region.functions["pkg.encode.encode"].reason == "@hot_path"

    def test_cold_caller_of_hot_entry_stays_cold(self, tmp_path):
        # Reachability flows from roots downward; a report formatter
        # that *calls* simulate() is not itself on the per-branch path.
        root = write_tree(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/core/__init__.py": "",
            "pkg/core/simulator.py": """
                def simulate(trace):
                    total = 0
                    for address in trace.addresses:
                        total += address
                    return total
            """,
            "pkg/report.py": """
                from pkg.core.simulator import simulate

                def summarize(trace):
                    return simulate(trace)
            """,
        })
        region = hot_region(load_project([root]))
        assert "pkg.core.simulator.simulate" in region
        assert "pkg.report.summarize" not in region

    def test_profiling_pass_names_root_only_under_profiling_dir(self, tmp_path):
        root = write_tree(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/profiling/__init__.py": "",
            "pkg/profiling/accuracy.py": """
                def measure_accuracy(trace, predictor):
                    return 0
            """,
            "pkg/report.py": """
                def measure_column_width(rows):
                    return max(len(r) for r in rows)
            """,
        })
        region = hot_region(load_project([root]))
        assert "pkg.profiling.accuracy.measure_accuracy" in region
        assert "pkg.report.measure_column_width" not in region

    def test_loop_scale_classification(self, tmp_path):
        root = write_tree(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/core/__init__.py": "",
            "pkg/core/simulator.py": """
                def simulate(trace, n_branches):
                    total = 0
                    for address in trace.addresses:
                        total += address
                    for i in range(1 << 10):
                        total += i
                    count = 0
                    while count < n_branches:
                        count += 1
                        total += count
                    return total
            """,
        })
        region = hot_region(load_project([root]))
        fn = region.functions["pkg.core.simulator.simulate"]
        scales = {loop.line: loop.scale for loop in fn.loops}
        assert scales[4] == "trace"      # for ... in trace.addresses
        assert scales[6] == "bounded"    # range(1 << 10): table-sized
        assert scales[9] == "trace"      # while count < n_branches
        assert len(fn.trace_loops()) == 2

    def test_hot_report_is_deterministic(self, tmp_path):
        files = {
            "pkg/__init__.py": "",
            "pkg/core/__init__.py": "",
            "pkg/core/simulator.py": """
                def _inner(trace):
                    total = 0
                    for address in trace.addresses:
                        total += address
                    return total

                def simulate(trace):
                    return _inner(trace)
            """,
        }
        root = write_tree(tmp_path, files)
        first = render_hot_report(hot_region(load_project([root])))
        second = render_hot_report(hot_region(load_project([root])))
        assert first == second
        assert "hot region:" in first
        assert "_inner" in first


# ---------------------------------------------------------------------------
# PERF001: trace-scale scalar loops


class TestPerf001:
    def test_trace_loop_flagged_with_array_sibling_hint(self, tmp_path):
        root = write_tree(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/core/__init__.py": "",
            "pkg/core/simulator.py": """
                def measure(trace):
                    total = 0
                    for address in trace.addresses:
                        total += address
                    return total

                def measure_array(trace):
                    return 0

                def simulate(trace):
                    return measure(trace)
            """,
        })
        findings = run_lint([root], [TraceScaleLoopRule()])
        assert [f.rule for f in findings] == ["PERF001"]
        assert "trace column 'trace.addresses'" in findings[0].message
        assert "measure_array" in findings[0].message

    def test_bounded_and_cold_loops_not_flagged(self, tmp_path):
        root = write_tree(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/core/__init__.py": "",
            "pkg/core/simulator.py": """
                def simulate(trace):
                    total = 0
                    for i in range(1 << 12):
                        total += i
                    return total

                def formatter(rows):
                    lines = []
                    for row in rows:
                        lines.append(str(row))
                    return lines
            """,
        })
        assert run_lint([root], [TraceScaleLoopRule()]) == []


# ---------------------------------------------------------------------------
# PERF002: append accumulation


class TestPerf002:
    def test_direct_and_aliased_append_flagged_scratch_list_not(self, tmp_path):
        root = write_tree(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/core/__init__.py": "",
            "pkg/core/simulator.py": """
                def simulate(trace, n_branches):
                    outcomes = []
                    push = outcomes.append
                    gaps = []
                    count = 0
                    while count < n_branches:
                        scratch = []
                        scratch.append(count)
                        gaps.append(count)
                        push(count)
                        count += 1
                    return outcomes, gaps
            """,
        })
        findings = run_lint([root], [HotListAppendRule()])
        assert [f.rule for f in findings] == ["PERF002", "PERF002"]
        named = {m.split("'")[1] for m in (f.message for f in findings)}
        assert named == {"outcomes", "gaps"}

    def test_append_outside_trace_loop_not_flagged(self, tmp_path):
        root = write_tree(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/core/__init__.py": "",
            "pkg/core/simulator.py": """
                def simulate(trace):
                    rows = []
                    for size in (512, 1024, 2048):
                        rows.append(size)
                    return rows
            """,
        })
        assert run_lint([root], [HotListAppendRule()]) == []


# ---------------------------------------------------------------------------
# PERF003: numpy anti-patterns


class TestPerf003:
    def test_all_three_shapes_flagged(self, tmp_path):
        root = write_tree(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/core/__init__.py": "",
            "pkg/core/simulator.py": """
                import math

                import numpy as np

                def simulate(trace, n_branches):
                    totals = np.zeros(4, dtype=np.int32)
                    count = 0
                    while count < n_branches:
                        totals = np.append(totals, count)
                        value = math.log(count + 1)
                        count += 1
                    scaled = totals / 2
                    return scaled, value
            """,
        })
        findings = run_lint([root], [NumpyAntiPatternRule()])
        assert [f.rule for f in findings] == ["PERF003"] * 3
        text = "\n".join(f.message for f in findings)
        assert "np.append" in text
        assert "math.log" in text
        assert "int32" in text and "float" in text

    def test_clean_vectorized_code_passes(self, tmp_path):
        root = write_tree(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/core/__init__.py": "",
            "pkg/core/simulator.py": """
                import numpy as np

                def simulate(trace):
                    addresses, outcomes = trace.arrays()
                    taken = np.bincount(addresses[outcomes])
                    return int(taken.sum())
            """,
        })
        assert run_lint([root], [NumpyAntiPatternRule()]) == []


# ---------------------------------------------------------------------------
# PERF004: unregistered kernels


class TestPerf004:
    FILES = {
        "pkg/__init__.py": "",
        "pkg/kernels/dynamic.py": """
            def replay_bimodal(trace, predictor):
                return 0

            def replay_orphan(trace, predictor):
                return 0
        """,
    }

    def test_orphan_kernel_flagged(self, tmp_path):
        files = dict(self.FILES)
        files["pkg/kernels/__init__.py"] = """
            from pkg.kernels import dynamic

            _KERNELS = {"bimodal": dynamic.replay_bimodal}
        """
        findings = run_lint([write_tree(tmp_path, files)],
                            [UnregisteredKernelRule()])
        assert [f.rule for f in findings] == ["PERF004"]
        assert "replay_orphan" in findings[0].message
        assert "_KERNELS" in findings[0].message

    def test_registered_kernels_pass(self, tmp_path):
        files = dict(self.FILES)
        files["pkg/kernels/__init__.py"] = """
            from pkg.kernels import dynamic

            _KERNELS = {
                "bimodal": dynamic.replay_bimodal,
                "orphan": dynamic.replay_orphan,
            }
        """
        assert run_lint([write_tree(tmp_path, files)],
                        [UnregisteredKernelRule()]) == []
