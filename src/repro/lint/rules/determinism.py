"""DET001/DET002/DET003: every run must be a pure function of its seed.

The reproduction's headline property — rerunning an experiment with the
same root seed replays the exact same branch trace and misprediction
counts — holds only while *all* randomness flows through the named
streams of :mod:`repro.utils.rng` and nothing reads clocks or OS
entropy.  A single stray ``random.random()`` or ``time.time()`` does not
crash anything; it silently decouples MISP/KI numbers from the seed,
which is the worst possible failure mode for a paper reproduction.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.dataflow import ReachingDefinitions, provenance_atoms
from repro.lint.findings import Finding, Severity
from repro.lint.rules import FileRule, register

__all__ = ["RandomStreamRule", "WallClockRule", "SeedProvenanceRule"]

RNG_MODULE_SUFFIX = "utils/rng.py"
"""The one module allowed to touch :mod:`random` directly."""


def _dotted_name(node: ast.AST) -> str | None:
    """Flatten a ``Name``/``Attribute`` chain to ``a.b.c`` (else None)."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


@register
class RandomStreamRule(FileRule):
    """DET001: all randomness must derive from ``derive_rng`` streams.

    Direct ``random.Random()``, ``random.seed()``, or module-level
    ``random.*`` draws bypass the named-stream derivation, so adding or
    reordering any consumer of randomness would perturb every other
    stream and change published numbers.  Importing :mod:`random` at all
    is flagged: outside ``utils/rng.py`` there is no legitimate draw.
    """

    rule_id = "DET001"
    severity = Severity.ERROR
    summary = "randomness must flow through utils.rng.derive_rng"
    example_bad = "rng = random.Random(42)"
    example_good = (
        "from repro.utils.rng import derive_rng\n"
        'rng = derive_rng(master_seed, "trace", program)'
    )

    def applies(self, ctx) -> bool:
        return not ctx.matches(RNG_MODULE_SUFFIX)

    def check(self, ctx) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "random" or alias.name.startswith("random."):
                        yield self.finding(
                            ctx, node,
                            "import of 'random' outside utils/rng.py; use "
                            "repro.utils.rng.derive_rng for a named stream",
                        )
            elif isinstance(node, ast.ImportFrom):
                if node.module == "random" and node.level == 0:
                    # Importing the Random *type* for annotations is
                    # harmless; instantiating it is what DET001 bans.
                    names = [a.name for a in node.names if a.name != "Random"]
                    if names:
                        yield self.finding(
                            ctx, node,
                            f"'from random import {', '.join(names)}' outside "
                            "utils/rng.py; use repro.utils.rng.derive_rng "
                            "for a named stream",
                        )
            elif isinstance(node, ast.Call):
                dotted = _dotted_name(node.func)
                if dotted is not None and dotted.startswith("random."):
                    yield self.finding(
                        ctx, node,
                        f"direct call to {dotted}(); derive a seeded stream "
                        "via repro.utils.rng.derive_rng instead",
                    )
                elif dotted == "Random":
                    yield self.finding(
                        ctx, node,
                        "direct Random(...) construction; use "
                        "repro.utils.rng.derive_rng (or rng_from_seed for "
                        "an already-derived seed) so every stream stays "
                        "named and independent",
                    )


#: ``module.attr`` call tails that read wall clocks or OS entropy.  The
#: match is on the last two components of the dotted call, so both
#: ``time.time()`` and ``datetime.datetime.now()`` are caught.
_BANNED_CALL_TAILS: dict[tuple[str, str], str] = {
    ("time", "time"): "wall clock",
    ("time", "time_ns"): "wall clock",
    ("time", "monotonic"): "clock",
    ("time", "monotonic_ns"): "clock",
    ("time", "perf_counter"): "clock",
    ("time", "perf_counter_ns"): "clock",
    ("time", "process_time"): "clock",
    ("time", "process_time_ns"): "clock",
    ("datetime", "now"): "wall clock",
    ("datetime", "utcnow"): "wall clock",
    ("datetime", "today"): "wall clock",
    ("date", "today"): "wall clock",
    ("os", "urandom"): "OS entropy",
    ("os", "getrandom"): "OS entropy",
    ("uuid", "uuid1"): "clock/MAC-derived id",
    ("uuid", "uuid4"): "OS entropy",
}

#: ``from <module> import <name>`` pairs that smuggle the same calls in
#: under bare names the call check above cannot see.
_BANNED_IMPORTS: set[tuple[str, str]] = {
    (module, name) for (module, name) in _BANNED_CALL_TAILS
    if module in ("time", "os", "uuid")
}


def _import_aliases(tree: ast.AST) -> dict[str, str]:
    """Local name -> dotted origin for every ``import a as b`` and every
    ``from a import b as c`` that is not itself a banned import (those
    are flagged where they are imported)."""
    aliases: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname is not None:
                    aliases[alias.asname] = alias.name
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            for alias in node.names:
                if (alias.asname is not None
                        and (node.module, alias.name) not in _BANNED_IMPORTS):
                    aliases[alias.asname] = f"{node.module}.{alias.name}"
    return aliases


def _banned_source(node: ast.AST,
                   aliases: dict[str, str]) -> tuple[str, str] | None:
    """``(name, what it reads)`` when ``node`` names a banned function,
    module aliases resolved."""
    dotted = _dotted_name(node)
    if dotted is None:
        return None
    head, _, rest = dotted.partition(".")
    dotted = aliases.get(head, head) + (f".{rest}" if rest else "")
    parts = dotted.split(".")
    if parts[0] == "secrets":
        return dotted, "OS entropy"
    why = _BANNED_CALL_TAILS.get(tuple(parts[-2:]))
    return None if why is None else (dotted, why)


@register
class WallClockRule(FileRule):
    """DET002: no wall-clock, OS-entropy, or set-order nondeterminism.

    Clock reads and ``os.urandom`` make output depend on when/where a
    run happens; iterating a set feeds hash-order (which varies across
    processes for str keys under hash randomization) into whatever the
    loop builds.  Either way two "identical" runs stop agreeing.

    Module aliases are resolved (``import time as t; t.time()``), and a
    banned function referenced without being called
    (``_clock = time.perf_counter``, ``default_factory=time.monotonic``)
    is flagged where it is referenced: every later call through the
    reference reads the same source, and no call check can see it.
    """

    rule_id = "DET002"
    severity = Severity.ERROR
    summary = "no wall clocks, OS entropy, or unordered-set iteration"
    example_bad = "for site in set(sites):   # hash order varies per process"
    example_good = "for site in sorted(set(sites)):"

    def check(self, ctx) -> Iterator[Finding]:
        aliases = _import_aliases(ctx.tree)
        callees: set[int] = set()
        # ast.walk visits a Call before its func, so every callee is
        # known before the reference check could see it.
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call):
                callees.add(id(node.func))
                yield from self._check_source(ctx, node, node.func, aliases,
                                              "{}() reads {}")
            elif isinstance(node, ast.Attribute) and id(node) not in callees:
                yield from self._check_source(
                    ctx, node, node, aliases, "{} is referenced, not "
                    "called: every call through the reference reads {}")
            elif isinstance(node, ast.ImportFrom):
                yield from self._check_import(ctx, node)
            elif isinstance(node, (ast.For, ast.AsyncFor)):
                yield from self._check_iteration(ctx, node.iter)
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                                   ast.GeneratorExp)):
                for generator in node.generators:
                    yield from self._check_iteration(ctx, generator.iter)

    def _check_source(self, ctx, node: ast.AST, function: ast.AST,
                      aliases: dict[str, str],
                      template: str) -> Iterator[Finding]:
        banned = _banned_source(function, aliases)
        if banned is not None:
            yield self.finding(
                ctx, node,
                template.format(*banned) + "; output must depend only on "
                "the root seed, not on when or where a run happens",
            )

    def _check_import(self, ctx, node: ast.ImportFrom) -> Iterator[Finding]:
        if node.level != 0:
            return
        if node.module == "secrets":
            yield self.finding(
                ctx, node, "'secrets' draws OS entropy; use "
                "repro.utils.rng.derive_rng for seeded randomness",
            )
            return
        for alias in node.names:
            if (node.module, alias.name) in _BANNED_IMPORTS:
                yield self.finding(
                    ctx, node,
                    f"'from {node.module} import {alias.name}' imports a "
                    "nondeterministic source; seeded runs must not read it",
                )

    def _check_iteration(self, ctx, iter_node: ast.AST) -> Iterator[Finding]:
        if isinstance(iter_node, ast.Set):
            yield self.finding(
                ctx, iter_node,
                "iterating a set literal: set order is arbitrary and feeds "
                "nondeterminism into whatever this loop builds; use a tuple "
                "or sorted(...)",
            )
        elif (isinstance(iter_node, ast.Call)
                and isinstance(iter_node.func, ast.Name)
                and iter_node.func.id in ("set", "frozenset")):
            yield self.finding(
                ctx, iter_node,
                f"iterating {iter_node.func.id}(...) directly: hash order "
                "varies across processes; wrap in sorted(...) to fix the "
                "iteration order",
            )


#: Callee prefixes/names whose result (or any value derived from it)
#: must never become a seed: clocks, OS entropy, environment state, and
#: the module-level ``random`` streams DET001 already bans directly.
_TAINTED_CALL_HEADS = ("time.", "datetime.", "random.", "uuid.", "secrets.")
_TAINTED_CALL_EXACT = frozenset({
    "os.getenv", "os.urandom", "os.getrandom", "os.getpid", "id",
    "os.environ.get", "environ.get", "getenv", "urandom",
})
_TAINTED_SUBSCRIPT_BASES = frozenset({"os.environ", "environ"})


@register
class SeedProvenanceRule(FileRule):
    """DET003: every ``rng_from_seed`` argument has seeded provenance.

    ``rng_from_seed`` is DET001's escape hatch — it rebuilds a stream
    from an *already-derived* seed, so it is exactly where a laundered
    nondeterministic value would slip back into the simulation.  The
    rule backward-slices the argument through the enclosing function's
    reaching definitions (module-level constants included): a seed must
    bottom out in literals, parameters, carried-object fields
    (``self.behavior_seed``, ``ctx.seed``), or ``derive_seed`` results.
    Any clock, ``os.environ``, ``os.getpid``, or ``random`` read in the
    slice — however many arithmetic or ``int(...)`` wrappers deep — is
    a finding.
    """

    rule_id = "DET003"
    severity = Severity.ERROR
    summary = "rng_from_seed arguments trace to fields/literals, never env"
    example_bad = 'rng = rng_from_seed(int(os.environ["SEED"]))'
    example_good = "rng = rng_from_seed(self.behavior_seed)"

    def applies(self, ctx) -> bool:
        return not ctx.matches(RNG_MODULE_SUFFIX)

    def check(self, ctx) -> Iterator[Finding]:
        module_assigns = {
            target.id: stmt.value
            for stmt in ctx.tree.body if isinstance(stmt, ast.Assign)
            for target in stmt.targets if isinstance(target, ast.Name)
        }
        yield from self._check_scope(ctx, ctx.tree, module_assigns)

    def _check_scope(self, ctx, scope: ast.AST,
                     module_assigns: dict) -> Iterator[Finding]:
        defs = ReachingDefinitions(scope)
        stack = list(ast.iter_child_nodes(scope))
        while stack:
            node = stack.pop(0)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from self._check_scope(ctx, node, module_assigns)
                continue  # the nested scope owns its bindings
            if isinstance(node, ast.Call) and self._is_rng_from_seed(node):
                yield from self._check_call(ctx, node, defs, module_assigns)
            stack.extend(ast.iter_child_nodes(node))

    @staticmethod
    def _is_rng_from_seed(call: ast.Call) -> bool:
        dotted = _dotted_name(call.func)
        return dotted is not None and (
            dotted == "rng_from_seed" or dotted.endswith(".rng_from_seed")
        )

    def _check_call(self, ctx, call: ast.Call, defs: ReachingDefinitions,
                    module_assigns: dict) -> Iterator[Finding]:
        if not call.args:
            return
        for atom in provenance_atoms(call.args[0], defs, module_assigns,
                                     use_line=call.lineno):
            why = self._taint(atom)
            if why is not None:
                yield self.finding(
                    ctx, call,
                    f"rng_from_seed argument derives from {why}; a seed "
                    "must trace back to a Cell/ExperimentContext field, a "
                    "parameter, or a literal so reruns replay bit-identical "
                    "streams",
                )
                return  # one finding per call, on the first tainted atom

    @staticmethod
    def _taint(atom) -> str | None:
        if atom.kind == "call":
            dotted = atom.text
            if (dotted in _TAINTED_CALL_EXACT
                    or any(dotted.startswith(head) or f".{head}" in f".{dotted}"
                           for head in _TAINTED_CALL_HEADS)):
                return f"{dotted}()"
        elif atom.kind == "subscript":
            if (atom.text in _TAINTED_SUBSCRIPT_BASES
                    or atom.text.endswith(".environ")):
                return f"{atom.text}[...]"
        elif atom.kind == "attribute":
            if atom.text.endswith(".environ") or atom.text == "environ":
                return atom.text
        return None
