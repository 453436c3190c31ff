"""PERF001-PERF004: scalar code on trace-scale hot paths.

BENCH_kernels.json puts the fast kernels at ~10M branches/s and the
end-to-end experiments at ~1M: per-branch Python around the kernels is
the bottleneck.  These rules make that gap a machine-checked worklist.
All four run on the hot region inferred by :mod:`repro.lint.hotpath` —
code reachable from the simulator entry points, the kernels dispatch
table, the profiling passes, and ``@hot_path`` annotations — so a
scalar loop in a cold report formatter never fires.

* **PERF001** — a per-element Python loop whose trip count is provably
  trace-scale.  When an array-backed sibling (``<name>_array``/
  ``<name>_fast`` or a registered kernel) exists, the finding says so.
* **PERF002** — ``list.append`` accumulation (direct or via a bound-
  method alias) inside a trace-scale loop where the accumulator starts
  as an empty list: the final length is the trace length, so a
  preallocated ndarray is provable.
* **PERF003** — numpy anti-patterns in hot code: ``np.append``/
  ``np.concatenate`` (O(n) reallocation) inside any loop, per-element
  ``math.*`` calls inside a trace-scale loop, and binary operations
  that upcast an integer-dtype array (the declared widths of
  :mod:`repro.lint.rules.widths`) to float.
* **PERF004** — a ``replay_*`` kernel defined under ``kernels/`` that
  the ``_KERNELS`` dispatch table never selects: a fast sibling hot
  callers silently cannot reach.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.dataflow import ReachingDefinitions
from repro.lint.findings import Finding, Severity
from repro.lint.hotpath import (
    KERNEL_PREFIX,
    KERNEL_TABLE_NAME,
    KERNELS_SUFFIX,
    HotFunction,
    HotRegion,
    _resolve_function_ref,
    hot_region,
)
from repro.lint.rules import ProjectRule, register
from repro.lint.rules.widths import _NUMPY_DTYPES

__all__ = [
    "TraceScaleLoopRule",
    "HotListAppendRule",
    "NumpyAntiPatternRule",
    "UnregisteredKernelRule",
]

#: The anchor: PERF rules run whenever the simulator driver is linted.
SIMULATOR_SUFFIX = "core/simulator.py"

_INT_DTYPES = frozenset(
    name for name in _NUMPY_DTYPES if name.startswith(("int", "uint"))
)

#: numpy calls that reallocate the whole array per call.
_REALLOC_CALLS = ("append", "concatenate", "hstack", "vstack")


class _HotRegionRule(ProjectRule):
    """Shared plumbing: anchor gating and region construction.

    ``anchor`` and ``extra_roots`` are constructor arguments so tests
    can aim a rule at fixture trees with synthetic entry points.
    """

    def __init__(self, anchor: str = SIMULATOR_SUFFIX,
                 extra_roots: tuple[str, ...] = ()):
        self.anchor = anchor
        self._extra_roots = extra_roots

    def check_project(self, anchor_ctx, project) -> Iterator[Finding]:
        region = hot_region(project, self._extra_roots)
        for fn in region.members():
            yield from self._check_hot_function(region, fn)

    def _check_hot_function(self, region: HotRegion,
                            fn: HotFunction) -> Iterator[Finding]:
        raise NotImplementedError


def _numpy_aliases(module) -> frozenset[str]:
    """Local names bound to the numpy module (``import numpy as np``)."""
    if module is None:
        return frozenset()
    return frozenset(
        local for local, target in module.imports.items()
        if target == "numpy" or target.startswith("numpy.")
    )


def _walk_own(node: ast.AST) -> Iterator[ast.AST]:
    """Walk a subtree without descending into nested function scopes."""
    stack: list[ast.AST] = list(ast.iter_child_nodes(node))
    while stack:
        child = stack.pop()
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                              ast.Lambda)):
            continue
        yield child
        stack.extend(ast.iter_child_nodes(child))


def _is_empty_list_expr(expr: ast.expr | None) -> bool:
    if isinstance(expr, ast.List) and not expr.elts:
        return True
    return (isinstance(expr, ast.Call) and not expr.args
            and isinstance(expr.func, ast.Name) and expr.func.id == "list")


@register
class TraceScaleLoopRule(_HotRegionRule):
    """PERF001: no per-element Python loop over trace-scale data.

    A loop that provably iterates once per branch record costs
    interpreter dispatch per branch — the exact overhead the array
    kernels exist to remove.  Replace it with a whole-column numpy pass,
    or route through the kernels dispatch when a fast sibling already
    exists.  Loops over table-sized or unproven data are not flagged.
    """

    rule_id = "PERF001"
    severity = Severity.ERROR
    summary = "no per-element Python loops over trace-scale data on hot paths"
    example_bad = (
        "for i in range(len(trace.addresses)):   # once per branch\n"
        "    counts[trace.addresses[i]] += 1"
    )
    example_good = (
        "addresses, _ = trace.arrays()\n"
        "uniq, counts = numpy.unique(addresses, return_counts=True)"
    )

    def _check_hot_function(self, region, fn) -> Iterator[Finding]:
        sibling = self._array_sibling(region, fn)
        for loop in fn.trace_loops():
            message = (
                f"{fn.qualname} runs a per-element Python loop over "
                f"trace-scale data ({loop.reason}); hoist it into a "
                "whole-column array pass"
            )
            if sibling is not None:
                message += f" (array-backed sibling exists: {sibling})"
            yield self.finding(fn.info.ctx, loop.node, message)

    @staticmethod
    def _array_sibling(region: HotRegion, fn: HotFunction) -> str | None:
        base = fn.info.name.lstrip("_")
        for candidate in (f"{base}_array", f"{base}_fast",
                          f"simulate_{base}"):
            named = region.graph.functions_named(candidate)
            if named:
                return named[0].qualname
        return None


@register
class HotListAppendRule(_HotRegionRule):
    """PERF002: no list.append accumulation on a trace-scale hot path.

    An accumulator that starts as ``[]`` and gains one element per
    branch ends at trace length — a length known before the loop runs,
    so a preallocated ndarray (filled by index, or produced by a
    vectorized expression) is provable.  ``list.append`` pays interpreter
    dispatch and amortized reallocation per branch instead.  Both the
    direct ``xs.append(v)`` shape and the bound-method alias
    (``push = xs.append; push(v)``) are caught; one finding is emitted
    per accumulator per function.
    """

    rule_id = "PERF002"
    severity = Severity.ERROR
    summary = "hot-path accumulators preallocate arrays instead of append"
    example_bad = (
        "outcomes = []\n"
        "while count < n_branches:\n"
        "    outcomes.append(behavior.outcome())"
    )
    example_good = (
        "outcomes = numpy.empty(n_branches, dtype=numpy.bool_)\n"
        "outcomes[:] = behavior.outcomes(n_branches)"
    )

    def _check_hot_function(self, region, fn) -> Iterator[Finding]:
        loops = fn.trace_loops()
        if not loops:
            return
        defs = ReachingDefinitions(fn.info.node)
        seen: set[str] = set()
        for loop in loops:
            for node in _walk_own(loop.node):
                if not isinstance(node, ast.Call):
                    continue
                accumulator = self._append_receiver(node, defs,
                                                    loop.node.lineno)
                if accumulator is None or accumulator in seen:
                    continue
                seen.add(accumulator)
                yield self.finding(
                    fn.info.ctx, node,
                    f"{fn.qualname} grows list {accumulator!r} once per "
                    "branch; the final length is the trace length, so "
                    "preallocate an ndarray (or emit the column with a "
                    "vectorized expression) instead of append",
                )

    def _append_receiver(self, call: ast.Call, defs: ReachingDefinitions,
                         loop_line: int) -> str | None:
        """The empty-list accumulator a call appends to, if provable.

        The accumulator must be bound to ``[]`` *before* the loop
        header: a scratch list reset inside the loop body never reaches
        trace length, so it is not an accumulation.
        """
        func = call.func
        if (isinstance(func, ast.Attribute) and func.attr == "append"
                and isinstance(func.value, ast.Name)):
            if self._is_empty_list_local(func.value.id, defs, loop_line):
                return func.value.id
            return None
        if isinstance(func, ast.Name):
            # A bound-method alias: push = xs.append
            for definition in defs.definitions(func.id, call.lineno):
                value = definition.value
                if (value is not None and isinstance(value, ast.Attribute)
                        and value.attr == "append"
                        and isinstance(value.value, ast.Name)
                        and self._is_empty_list_local(
                            value.value.id, defs, loop_line)):
                    return value.value.id
        return None

    @staticmethod
    def _is_empty_list_local(name: str, defs: ReachingDefinitions,
                             loop_line: int) -> bool:
        """Whether ``name`` is bound to an empty list before the loop."""
        if not defs.is_local(name):
            return False
        bindings = [d for d in defs.definitions(name, loop_line)
                    if d.line < loop_line]
        direct = [d for d in bindings if not d.indirect]
        return bool(direct) and all(
            _is_empty_list_expr(d.value) for d in direct
        )


@register
class NumpyAntiPatternRule(_HotRegionRule):
    """PERF003: no quadratic or upcasting numpy use in hot code.

    Three shapes, all of which silently turn an O(n) pass into O(n^2)
    work or double its memory traffic:

    * ``np.append``/``np.concatenate``/``np.hstack``/``np.vstack``
      inside *any* loop — each call copies the whole array, so growing
      one element at a time is quadratic; collect and concatenate once.
    * a ``math.*`` call inside a trace-scale loop — ``math.log`` on one
      float per branch is interpreter dispatch; ``numpy.log`` over the
      whole column is one vectorized pass.
    * a binary operation combining an array created with a declared
      integer dtype (the ``_WIDTHS`` model) with a float — the result
      upcasts to float64, doubling memory traffic and breaking the
      declared-width contract downstream.
    """

    rule_id = "PERF003"
    severity = Severity.ERROR
    summary = "no array-reallocating, upcasting, or scalar-math numpy use"
    example_bad = (
        "for chunk in chunks:\n"
        "    totals = np.append(totals, chunk)   # copies totals each time"
    )
    example_good = "totals = np.concatenate(list(chunks))   # one copy"

    def _check_hot_function(self, region, fn) -> Iterator[Finding]:
        module = region.graph.table.modules.get(fn.info.module)
        numpy_names = _numpy_aliases(module)
        defs = ReachingDefinitions(fn.info.node)
        yield from self._check_realloc_in_loops(fn, numpy_names)
        yield from self._check_scalar_math(fn, defs)
        yield from self._check_upcasts(fn, defs, numpy_names)

    # -- np.append / np.concatenate inside a loop ------------------------

    def _check_realloc_in_loops(self, fn: HotFunction,
                                numpy_names: frozenset[str]
                                ) -> Iterator[Finding]:
        for loop in fn.loops:
            for node in _walk_own(loop.node):
                if (isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Attribute)
                        and node.func.attr in _REALLOC_CALLS
                        and isinstance(node.func.value, ast.Name)
                        and node.func.value.id in numpy_names):
                    yield self.finding(
                        fn.info.ctx, node,
                        f"{fn.qualname} calls "
                        f"{node.func.value.id}.{node.func.attr} inside a "
                        "loop; every call copies the whole array, making "
                        "the loop quadratic — accumulate in a list and "
                        "concatenate once, or preallocate",
                    )

    # -- math.* per element ----------------------------------------------

    def _check_scalar_math(self, fn: HotFunction,
                           defs: ReachingDefinitions) -> Iterator[Finding]:
        seen: set[str] = set()
        for loop in fn.trace_loops():
            for node in _walk_own(loop.node):
                if not isinstance(node, ast.Call):
                    continue
                dotted = self._math_callee(node, defs)
                if dotted is None or dotted in seen:
                    continue
                seen.add(dotted)
                yield self.finding(
                    fn.info.ctx, node,
                    f"{fn.qualname} calls {dotted} once per branch; "
                    f"apply numpy.{dotted.split('.')[-1]} to the whole "
                    "column in one vectorized pass instead",
                )

    @staticmethod
    def _math_callee(call: ast.Call,
                     defs: ReachingDefinitions) -> str | None:
        func = call.func
        if (isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name)
                and func.value.id == "math"):
            return f"math.{func.attr}"
        if isinstance(func, ast.Name) and defs.is_local(func.id):
            # An alias hoisted for speed: log = math.log
            for definition in defs.definitions(func.id, call.lineno):
                value = definition.value
                if (value is not None and isinstance(value, ast.Attribute)
                        and isinstance(value.value, ast.Name)
                        and value.value.id == "math"):
                    return f"math.{value.attr}"
        return None

    # -- integer-array upcasts -------------------------------------------

    def _check_upcasts(self, fn: HotFunction, defs: ReachingDefinitions,
                       numpy_names: frozenset[str]) -> Iterator[Finding]:
        for node in _walk_own(fn.info.node):
            if not isinstance(node, ast.BinOp):
                continue
            for array_side, other in ((node.left, node.right),
                                      (node.right, node.left)):
                dtype = self._declared_int_dtype(array_side, defs)
                if dtype is None:
                    continue
                if isinstance(node.op, ast.Div):
                    why = "true division always produces float64"
                elif (isinstance(other, ast.Constant)
                      and isinstance(other.value, float)):
                    why = f"mixing with float literal {other.value!r}"
                else:
                    continue
                yield self.finding(
                    fn.info.ctx, node,
                    f"{fn.qualname} upcasts a declared {dtype} array to "
                    f"float ({why}); keep hot-path arrays at their "
                    "declared width (use // or an integer operand, or "
                    "convert once outside the hot path)",
                )
                break

    @staticmethod
    def _declared_int_dtype(expr: ast.expr,
                            defs: ReachingDefinitions) -> str | None:
        """The declared integer dtype of a name bound to a numpy array."""
        if not (isinstance(expr, ast.Name) and defs.is_local(expr.id)):
            return None
        for definition in defs.definitions(expr.id, expr.lineno):
            value = definition.value
            if not isinstance(value, ast.Call):
                continue
            for keyword in value.keywords:
                if keyword.arg != "dtype":
                    continue
                dtype = keyword.value
                name = (dtype.attr if isinstance(dtype, ast.Attribute)
                        else dtype.id if isinstance(dtype, ast.Name)
                        else None)
                if name in _INT_DTYPES:
                    return name
        return None


@register
class UnregisteredKernelRule(ProjectRule):
    """PERF004: every public kernel is selectable from the dispatch table.

    The kernels package promises ``simulate(..., kernel="auto")`` uses
    the fastest registered implementation.  A ``replay_*`` function
    defined under ``kernels/`` that the ``_KERNELS`` table neither maps
    to nor reaches is a fast sibling hot callers silently cannot use —
    they fall back to the reference loop and the bench gap reopens.
    """

    rule_id = "PERF004"
    severity = Severity.ERROR
    summary = "kernels/ replay_* functions are reachable from _KERNELS"
    anchor = KERNELS_SUFFIX
    example_bad = (
        "# kernels/local.py defines replay_local, but kernels/__init__\n"
        "_KERNELS = {BimodalPredictor: dynamic.replay_bimodal}"
    )
    example_good = (
        "_KERNELS = {BimodalPredictor: dynamic.replay_bimodal,\n"
        "            LocalPredictor: local.replay_local}"
    )

    def __init__(self, anchor: str = KERNELS_SUFFIX,
                 table_name: str = KERNEL_TABLE_NAME):
        self.anchor = anchor
        self._table_name = table_name

    def check_project(self, anchor_ctx, project) -> Iterator[Finding]:
        from repro.lint.graph import CallGraph

        graph = CallGraph.build(project)
        registered = self._registered(graph, anchor_ctx)
        reachable = {fn.qualname for fn in graph.reachable_from(registered)}
        kernels_dir = anchor_ctx.path.as_posix().rsplit("/", 1)[0] + "/"
        for qualname in sorted(graph.functions):
            fn = graph.functions[qualname]
            if (fn.name.startswith(KERNEL_PREFIX) and fn.cls is None
                    and fn.ctx.path.as_posix().startswith(kernels_dir)
                    and "<locals>" not in qualname
                    and qualname not in reachable):
                yield self.finding(
                    fn.ctx, fn.node,
                    f"fast kernel {qualname} is not selectable from the "
                    f"{self._table_name} dispatch table in "
                    f"{anchor_ctx.display}; hot callers fall back to the "
                    "reference loop — register it (or rename it if it is "
                    "not a kernel entry point)",
                )

    def _registered(self, graph, anchor_ctx) -> list[str]:
        for module in graph.table.modules.values():
            if module.ctx is anchor_ctx:
                value = module.assigns.get(self._table_name)
                if isinstance(value, ast.Dict):
                    return sorted(
                        fn.qualname for fn in (
                            _resolve_function_ref(graph.table, module, entry)
                            for entry in value.values
                        ) if fn is not None
                    )
        return []
