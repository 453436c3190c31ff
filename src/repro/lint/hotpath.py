"""Hot-region inference: which code runs once per simulated branch.

The fourth analysis layer (after syntax, dataflow, and abstract
interpretation).  The end-to-end throughput gap — fast kernels at
~10M branches/s, experiments at ~1M — lives in the Python code *around*
the kernels, and the PERF rule family needs to know exactly which
functions that is.  This module answers two questions statically:

**Which functions are hot?**  Starting from the per-branch entry points
— ``simulate``/``run_combined``, the kernels ``_KERNELS`` dispatch
table's registered kernel functions, ``from_trace``/``measure_*``/
``profile_*`` profiling passes, and anything decorated ``@hot_path`` —
take everything reachable in the project call graph
(:class:`~repro.lint.graph.CallGraph`).  Roots are reachability
*sources*: a cold driver that merely calls ``simulate`` is not itself
hot.

**Which of their loops are trace-scale?**  A loop that walks a
predictor table is fine; a loop that walks the trace is the bug.  The
trip count's provenance decides: the loop subject (a ``for``'s iterable,
a ``while``'s condition) is sliced back through reaching definitions
(:mod:`repro.lint.dataflow`); if any leaf atom is a trace column
(``site_indices``/``addresses``/``outcomes``/``gaps``), a trace-like
parameter (``trace``, ``n_branches``, ``stream``, ...), the slice is
trace-scale.  Otherwise, if the subject's value range
(:mod:`repro.lint.intervals`) is provably bounded — a table size, a
history width — it is table-scale.  Anything unproven stays
``unknown`` and is *not* flagged: the PERF family requires positive
evidence of trace scale, so kernels helper loops over history windows
never false-positive.

The same region powers ``repro lint --hot-report``: a deterministic
ranked worklist (function, estimated per-branch ops, callers) that
vectorization PRs burn down — ROADMAP's "close the e2e gap" item as a
machine-checked list instead of tribal knowledge.
"""

from __future__ import annotations

import ast
import dataclasses
from typing import TYPE_CHECKING, Iterable, Iterator

from repro.lint.dataflow import Atom, ReachingDefinitions, provenance_atoms
from repro.lint.graph import CallGraph, FunctionInfo, ModuleInfo, ModuleTable
from repro.lint.intervals import definition_range

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.lint.engine import ProjectContext

__all__ = [
    "LoopInfo",
    "HotFunction",
    "HotRegion",
    "hot_region",
    "load_project",
    "render_hot_report",
]

_FUNC_NODES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
_LOOP_NODES = (ast.For, ast.AsyncFor, ast.While)

#: Path suffix of the kernels dispatch module, its table name, and the
#: name prefix of the kernel entry points the table maps to.
KERNELS_SUFFIX = "kernels/__init__.py"
KERNEL_TABLE_NAME = "_KERNELS"
KERNEL_PREFIX = "replay_"

#: The decorator marking a function as per-branch by declaration.
HOT_DECORATOR = "hot_path"

#: Functions with these bare names are per-branch entry points wherever
#: they are defined (the simulator driver API).
ENTRY_POINT_NAMES = ("run_combined", "simulate")

#: Bare-name shapes that make a function under ``profiling/`` an entry
#: point: ``from_trace`` and ``measure_*``/``profile_*`` passes.
PROFILING_NAMES = ("from_trace",)
PROFILING_PREFIXES = ("measure_", "profile_")
PROFILING_FRAGMENT = "profiling/"

#: Parameter names whose value is the trace (or its length).  Narrow on
#: purpose: ``length``, ``outcomes``, ``addresses`` as *parameters* are
#: table/window sizes in kernels helpers and must not match.
TRACE_PARAMS = frozenset({
    "trace", "profile_trace", "measure_trace", "n_branches", "stream",
})

#: Trace column names: an attribute/subscript slice leaf ending in one
#: of these (``trace.addresses``, ``self.gaps``) is trace-sized.
TRACE_COLUMNS = frozenset({
    "site_indices", "addresses", "outcomes", "gaps",
})

#: AST node types counted as one "op" for the per-branch cost estimate.
_OP_NODES = (ast.BinOp, ast.BoolOp, ast.UnaryOp, ast.Compare, ast.Call,
             ast.Subscript, ast.Attribute)


@dataclasses.dataclass(frozen=True)
class LoopInfo:
    """One loop of a hot function, classified by trip-count provenance.

    ``scale`` is ``"trace"`` (iterates once per branch record),
    ``"bounded"`` (trip count provably bounded by table-sized/constant
    data), or ``"unknown"`` (no proof either way; never flagged).
    ``reason`` names the deciding evidence — the trace atom's text, or
    the proven interval.
    """

    node: ast.stmt = dataclasses.field(compare=False)
    scale: str = "unknown"
    reason: str = ""

    @property
    def line(self) -> int:
        return self.node.lineno


@dataclasses.dataclass(frozen=True)
class HotFunction:
    """One function of the hot region, with its classified loops."""

    info: FunctionInfo = dataclasses.field(compare=False)
    reason: str = ""
    loops: tuple[LoopInfo, ...] = ()
    #: Estimated per-branch operations: op-ish AST nodes inside
    #: trace-scale loop bodies (0 when the function is loop-free or all
    #: its loops are table-scale).
    per_branch_ops: int = 0

    @property
    def qualname(self) -> str:
        return self.info.qualname

    def trace_loops(self) -> tuple[LoopInfo, ...]:
        return tuple(l for l in self.loops if l.scale == "trace")


class HotRegion:
    """The per-branch region: hot functions, their callers, the roots."""

    def __init__(self, graph: CallGraph, functions: dict[str, HotFunction],
                 roots: dict[str, str]):
        self.graph = graph
        #: qualname -> HotFunction, for every function in the region.
        self.functions = functions
        #: qualname -> why it is a root (entry point, dispatch, ...).
        self.roots = roots
        #: qualname -> sorted in-region callers (reverse call edges).
        self.callers: dict[str, tuple[str, ...]] = self._reverse_edges()

    def _reverse_edges(self) -> dict[str, tuple[str, ...]]:
        incoming: dict[str, set[str]] = {q: set() for q in self.functions}
        for caller in self.functions:
            for callee in self.graph.edges.get(caller, ()):
                if callee in incoming and callee != caller:
                    incoming[callee].add(caller)
        return {q: tuple(sorted(callers))
                for q, callers in incoming.items()}

    def __contains__(self, qualname: str) -> bool:
        return qualname in self.functions

    def __len__(self) -> int:
        return len(self.functions)

    def members(self) -> list[HotFunction]:
        """Region functions in qualname order (deterministic)."""
        return [self.functions[q] for q in sorted(self.functions)]

    def worklist(self) -> list[HotFunction]:
        """Functions with trace-scale loops, costliest first.

        The ranking is the vectorization worklist: estimated per-branch
        ops descending, qualname ascending as the tie-break, so the
        report is stable across runs and machines.
        """
        hot = [fn for fn in self.members() if fn.trace_loops()]
        return sorted(hot, key=lambda fn: (-fn.per_branch_ops, fn.qualname))


# ---------------------------------------------------------------------------
# Root discovery


def _has_hot_decorator(node: ast.AST) -> bool:
    for decorator in getattr(node, "decorator_list", []):
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        if isinstance(target, ast.Name) and target.id == HOT_DECORATOR:
            return True
        if isinstance(target, ast.Attribute) and target.attr == HOT_DECORATOR:
            return True
    return False


def _resolve_function_ref(table: ModuleTable, module: ModuleInfo,
                          expr: ast.expr) -> FunctionInfo | None:
    """Resolve a value expression referencing a function, if possible.

    Covers the shapes the kernels table uses: a bare ``Name`` (local or
    ``from mod import f``) and a ``module.attr`` chain (``import
    dynamic`` style).
    """
    if isinstance(expr, ast.Name):
        local = module.functions.get(expr.id)
        if local is not None:
            return local
        origin = module.import_froms.get(expr.id)
        if origin is not None:
            target = table.resolve_module(origin[0], module)
            if target is not None:
                return target.functions.get(origin[1])
        return None
    if isinstance(expr, ast.Attribute):
        parts: list[str] = []
        node: ast.AST = expr
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        parts.append(node.id)
        parts.reverse()
        head, attr = ".".join(parts[:-1]), parts[-1]
        target = table._resolve_value_module(head, module)
        if target is not None:
            return target.functions.get(attr)
    return None


def _kernel_table_roots(graph: CallGraph,
                        table_name: str) -> Iterator[tuple[str, str]]:
    """(qualname, reason) for every function the kernels table selects."""
    for module in graph.table.modules.values():
        if not module.ctx.matches(KERNELS_SUFFIX):
            continue
        value = module.assigns.get(table_name)
        if not isinstance(value, ast.Dict):
            continue
        for entry in value.values:
            fn = _resolve_function_ref(graph.table, module, entry)
            if fn is not None:
                yield fn.qualname, f"{table_name} kernels dispatch"


def _discover_roots(graph: CallGraph,
                    extra_roots: tuple[str, ...]) -> dict[str, str]:
    roots: dict[str, str] = {}

    def add(qualname: str, reason: str) -> None:
        roots.setdefault(qualname, reason)

    for name in ENTRY_POINT_NAMES:
        for fn in graph.functions_named(name):
            add(fn.qualname, f"entry point {name}()")
    for qualname, reason in sorted(_kernel_table_roots(graph,
                                                       KERNEL_TABLE_NAME)):
        add(qualname, reason)
    for qualname in sorted(graph.functions):
        fn = graph.functions[qualname]
        if PROFILING_FRAGMENT in fn.ctx.path.as_posix() and (
                fn.name in PROFILING_NAMES
                or fn.name.startswith(PROFILING_PREFIXES)):
            add(qualname, "profiling pass")
        if _has_hot_decorator(fn.node):
            add(qualname, f"@{HOT_DECORATOR}")
    for qualname in extra_roots:
        add(qualname, "extra root")
    return roots


# ---------------------------------------------------------------------------
# Loop classification


def _own_loops(fn_node: ast.AST) -> Iterator[ast.stmt]:
    """Loop statements of one function body, excluding nested defs.

    Nested functions are their own call-graph nodes (``<locals>``
    qualnames), so their loops are classified under the nested function,
    not double-counted here.
    """
    stack: list[ast.AST] = list(ast.iter_child_nodes(fn_node))
    while stack:
        node = stack.pop()
        if isinstance(node, _FUNC_NODES):
            continue
        if isinstance(node, _LOOP_NODES):
            yield node
        stack.extend(ast.iter_child_nodes(node))


def _slice_subjects(node: ast.stmt) -> list[ast.expr]:
    """The expressions whose provenance decides a loop's trip count."""
    if isinstance(node, (ast.For, ast.AsyncFor)):
        iterator = node.iter
        # ``for i in range(stop)``: the trip count is the argument, so
        # slice through the range() call — provenance descends into it
        # anyway, but the interval analysis treats calls as opaque.
        if (isinstance(iterator, ast.Call)
                and isinstance(iterator.func, ast.Name)
                and iterator.func.id == "range" and iterator.args):
            return list(iterator.args)
        return [iterator]
    subjects: list[ast.expr] = []
    test = node.test
    # provenance_atoms does not descend into comparisons; a while
    # condition is almost always one, so slice its operands directly.
    if isinstance(test, ast.Compare):
        subjects.append(test.left)
        subjects.extend(test.comparators)
    else:
        subjects.append(test)
    return subjects


def _trace_atom(atom: Atom) -> str | None:
    """The evidence string if ``atom`` is trace-sized, else None."""
    if atom.kind == "parameter" and atom.text in TRACE_PARAMS:
        return f"parameter {atom.text!r}"
    if atom.kind in ("attribute", "subscript") and atom.text:
        if atom.text.split(".")[-1] in TRACE_COLUMNS:
            return f"trace column {atom.text!r}"
    return None


def _classify_loop(node: ast.stmt, defs: ReachingDefinitions,
                   module_assigns: dict[str, ast.expr]) -> LoopInfo:
    subjects = _slice_subjects(node)
    for subject in subjects:
        for atom in provenance_atoms(subject, defs, module_assigns,
                                     use_line=node.lineno):
            evidence = _trace_atom(atom)
            if evidence is not None:
                return LoopInfo(node=node, scale="trace", reason=evidence)
    for subject in subjects:
        interval = definition_range(subject, defs, module_assigns)
        if interval.hi is not None:
            return LoopInfo(node=node, scale="bounded",
                            reason=f"value range {interval.render()}")
    return LoopInfo(node=node)


def _estimate_ops(loops: Iterable[LoopInfo]) -> int:
    """Op-ish AST nodes inside trace-scale loop bodies (nested defs skipped)."""
    total = 0
    for loop in loops:
        if loop.scale != "trace":
            continue
        stack: list[ast.AST] = list(ast.iter_child_nodes(loop.node))
        while stack:
            node = stack.pop()
            if isinstance(node, _FUNC_NODES):
                continue
            if isinstance(node, _OP_NODES):
                total += 1
            stack.extend(ast.iter_child_nodes(node))
    return total


def _analyze_function(graph: CallGraph, fn: FunctionInfo,
                      reason: str) -> HotFunction:
    module = graph.table.modules.get(fn.module)
    module_assigns = module.assigns if module is not None else {}
    defs = ReachingDefinitions(fn.node)
    loops = tuple(
        _classify_loop(node, defs, module_assigns)
        for node in sorted(_own_loops(fn.node), key=lambda n: n.lineno)
    )
    return HotFunction(info=fn, reason=reason, loops=loops,
                       per_branch_ops=_estimate_ops(loops))


# ---------------------------------------------------------------------------
# Region construction


def hot_region(project: "ProjectContext",
               extra_roots: tuple[str, ...] = ()) -> HotRegion:
    """Infer the per-branch hot region of a linted project.

    Memoized on the project context (keyed by ``extra_roots``): the
    PERF rules and the hot report all share one call-graph build per
    lint run.
    """
    cache: dict[tuple[str, ...], HotRegion] = getattr(
        project, "_hot_region_cache", None) or {}
    cached = cache.get(extra_roots)
    if cached is not None:
        return cached

    graph = CallGraph.build(project)
    roots = _discover_roots(graph, extra_roots)
    functions: dict[str, HotFunction] = {}
    for fn in graph.reachable_from(roots):
        reason = roots.get(fn.qualname, "reachable from the hot region")
        functions[fn.qualname] = _analyze_function(graph, fn, reason)
    region = HotRegion(graph, functions, roots)
    cache[extra_roots] = region
    project._hot_region_cache = cache
    return region


def load_project(paths: Iterable) -> "ProjectContext":
    """Parse ``paths`` into a :class:`ProjectContext` (for ``--hot-report``).

    Files that do not parse are skipped — the lint engine proper reports
    those as LINT001; the hot report only ranks what it can analyze.
    """
    # Imported here, not at module level: repro.lint.engine imports the
    # rule registry, which imports rules.perf, which imports this module.
    from repro.lint.engine import (
        FileContext,
        LintEngine,
        ProjectContext,
        collect_files,
    )

    contexts = []
    for path in collect_files(paths):
        source = path.read_text(encoding="utf-8")
        try:
            tree = ast.parse(source, filename=str(path))
        except SyntaxError:
            continue
        contexts.append(
            FileContext(path, LintEngine._display(path), source, tree)
        )
    return ProjectContext(contexts)


# ---------------------------------------------------------------------------
# The ranked worklist report


def render_hot_report(region: HotRegion) -> str:
    """The ``--hot-report`` text: ranked trace-scale functions.

    Deterministic by construction: every collection underneath is
    sorted, and ranking ties break on qualname.
    """
    from repro.utils.tables import render_table

    worklist = region.worklist()
    lines = [
        f"hot region: {len(region)} function(s) from "
        f"{len(region.roots)} root(s)",
    ]
    if not worklist:
        lines.append("no trace-scale scalar loops in the hot region")
        return "\n".join(lines)
    rows = []
    for fn in worklist:
        callers = ", ".join(
            q.rsplit(".", 1)[-1] for q in region.callers.get(fn.qualname, ())
        ) or "(root)"
        rows.append([
            fn.qualname,
            fn.per_branch_ops,
            len(fn.trace_loops()),
            callers,
        ])
    lines.append(render_table(
        ["function", "est. ops/branch", "trace loops", "callers"],
        rows, title="vectorization worklist (costliest first)",
    ))
    return "\n".join(lines)
