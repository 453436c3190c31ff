"""Tests for the ``repro.lint`` static-analysis subsystem.

Each rule gets fixture snippets that trigger it and a suppression (or
exemption) path that silences it; the JSON reporter's schema is pinned;
and the whole of ``src/repro`` is asserted lint-clean, so the invariants
the paper's numbers depend on stay machine-checked.
"""

from __future__ import annotations

import json
import textwrap
from pathlib import Path

import pytest

import repro
from repro.errors import LintError
from repro.lint import (
    Finding,
    LintEngine,
    Severity,
    SuppressionIndex,
    render_json,
    render_text,
    rule_ids,
    run_lint,
    select_rules,
)
from repro.lint.rules import RULES
from repro.lint.rules.experiments import ExperimentGoldenRule

SRC_REPRO = Path(repro.__file__).parent


def lint_snippet(tmp_path: Path, source: str, name: str = "snippet.py",
                 rules=None) -> list[Finding]:
    """Write one fixture module and lint it."""
    target = tmp_path / name
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(textwrap.dedent(source), encoding="utf-8")
    return run_lint([target], rules)


def rules_hit(findings: list[Finding]) -> set[str]:
    return {finding.rule for finding in findings}


# ---------------------------------------------------------------------------
# DET001: randomness through derive_rng only


class TestDet001:
    def test_module_import_and_calls_trigger(self, tmp_path):
        findings = lint_snippet(tmp_path, """
            import random

            def draw():
                return random.random() + random.randint(0, 3)

            random.seed(0)
        """)
        det = [f for f in findings if f.rule == "DET001"]
        assert len(det) == 4  # the import plus three calls
        assert all(f.severity is Severity.ERROR for f in det)

    def test_from_import_and_bare_construction_trigger(self, tmp_path):
        findings = lint_snippet(tmp_path, """
            from random import Random, shuffle

            def make():
                return Random(42)
        """)
        messages = [f.message for f in findings if f.rule == "DET001"]
        assert len(messages) == 2
        assert any("shuffle" in m for m in messages)
        assert any("Random(...)" in m for m in messages)

    def test_typing_only_random_import_is_allowed(self, tmp_path):
        findings = lint_snippet(tmp_path, """
            from random import Random

            def use(rng: Random) -> float:
                return rng.random()
        """)
        # ``rng.random()`` is a method on an injected stream, not the
        # module; only module-level draws are banned.
        assert "DET001" not in rules_hit(findings)

    def test_rng_module_itself_is_exempt(self, tmp_path):
        findings = lint_snippet(tmp_path, """
            import random

            def derive(seed):
                return random.Random(seed)
        """, name="utils/rng.py")
        assert "DET001" not in rules_hit(findings)


# ---------------------------------------------------------------------------
# DET002: no clocks, OS entropy, or set-order nondeterminism


class TestDet002:
    def test_clock_and_entropy_calls_trigger(self, tmp_path):
        findings = lint_snippet(tmp_path, """
            import os
            import time
            import datetime

            def stamp():
                return (time.time(), datetime.datetime.now(), os.urandom(8))
        """)
        det = [f for f in findings if f.rule == "DET002"]
        assert len(det) == 3

    def test_smuggled_imports_trigger(self, tmp_path):
        findings = lint_snippet(tmp_path, """
            from time import perf_counter
            from os import urandom
            import secrets

            def token():
                return secrets.token_hex(4)
        """)
        det = [f for f in findings if f.rule == "DET002"]
        assert len(det) == 3  # two from-imports plus the secrets call

    def test_set_iteration_triggers(self, tmp_path):
        findings = lint_snippet(tmp_path, """
            def emit(addresses):
                for a in set(addresses):
                    print(a)
                return [b for b in {1, 2, 3}]
        """)
        det = [f for f in findings if f.rule == "DET002"]
        assert len(det) == 2

    def test_clock_alias_assignment_triggers(self, tmp_path):
        # The reference hides every later read: ``_clock()`` is a bare
        # name call the call check cannot resolve.
        findings = lint_snippet(tmp_path, """
            import time

            _clock = time.perf_counter

            def elapsed(start):
                return _clock() - start
        """)
        det = [f for f in findings if f.rule == "DET002"]
        assert [f.line for f in det] == [4]  # the assignment's line
        assert "referenced, not called" in det[0].message

    def test_clock_as_default_factory_triggers(self, tmp_path):
        findings = lint_snippet(tmp_path, """
            import time
            from dataclasses import dataclass, field

            @dataclass
            class Stamp:
                at: float = field(default_factory=time.monotonic)
        """)
        det = [f for f in findings if f.rule == "DET002"]
        assert [f.line for f in det] == [7]

    def test_module_alias_call_triggers(self, tmp_path):
        findings = lint_snippet(tmp_path, """
            import time as t
            from datetime import datetime as dt

            def stamp():
                return t.time(), dt.now()
        """)
        det = [f for f in findings if f.rule == "DET002"]
        assert len(det) == 2
        assert any("time.time()" in f.message for f in det)
        assert any("datetime.datetime.now()" in f.message for f in det)

    def test_non_clock_references_are_clean(self, tmp_path):
        findings = lint_snippet(tmp_path, """
            import time as t

            _sleep = t.sleep

            def pause(seconds):
                _sleep(seconds)
        """)
        assert "DET002" not in rules_hit(findings)

    def test_sorted_set_iteration_is_clean(self, tmp_path):
        findings = lint_snippet(tmp_path, """
            def emit(addresses):
                for a in sorted(set(addresses)):
                    print(a)
        """)
        assert "DET002" not in rules_hit(findings)


# ---------------------------------------------------------------------------
# PRED001: the BranchPredictor contract


class TestPred001:
    def test_missing_members_trigger(self, tmp_path):
        findings = lint_snippet(tmp_path, """
            from repro.predictors.base import BranchPredictor

            class BrokenPredictor(BranchPredictor):
                def predict(self, address):
                    return True
        """)
        messages = [f.message for f in findings if f.rule == "PRED001"]
        assert len(messages) == 3  # no name, no update, no size_bytes
        assert any("'name'" in m for m in messages)
        assert any("'update'" in m for m in messages)
        assert any("'size_bytes'" in m for m in messages)

    def test_wrong_update_signature_triggers(self, tmp_path):
        findings = lint_snippet(tmp_path, """
            from repro.predictors.base import BranchPredictor

            class SloppyPredictor(BranchPredictor):
                name = "sloppy"

                def predict(self, address):
                    return True

                def update(self, address, outcome):
                    pass

                @property
                def size_bytes(self):
                    return 0.0
        """)
        messages = [f.message for f in findings if f.rule == "PRED001"]
        assert len(messages) == 1
        assert "update(self, address, outcome)" in messages[0]

    def test_instance_level_name_is_accepted(self, tmp_path):
        findings = lint_snippet(tmp_path, """
            from repro.predictors.base import BranchPredictor

            class WrapperPredictor(BranchPredictor):
                def __init__(self, inner):
                    self.name = f"wrapped-{inner.name}"

                def predict(self, address):
                    return True

                def update(self, address, taken, predicted):
                    pass

                @property
                def size_bytes(self):
                    return 0.0
        """)
        assert "PRED001" not in rules_hit(findings)

    def test_unrelated_class_is_ignored(self, tmp_path):
        findings = lint_snippet(tmp_path, """
            class NotAPredictor:
                def update(self, key, value):
                    pass
        """)
        assert "PRED001" not in rules_hit(findings)


# ---------------------------------------------------------------------------
# PRED002: registration tables agree


def write_tree(tmp_path: Path, files: dict[str, str]) -> Path:
    for rel, source in files.items():
        target = tmp_path / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(textwrap.dedent(source), encoding="utf-8")
    return tmp_path


class TestPred002:
    SIZING_MISMATCH = """
        PREDICTOR_NAMES = ("gshare", "phantom")

        _FACTORIES = {
            "gshare": None,
            "hidden": None,
        }
    """

    def test_name_factory_mismatch_triggers(self, tmp_path):
        tree = write_tree(tmp_path, {"predictors/sizing.py": self.SIZING_MISMATCH})
        findings = run_lint([tree])
        messages = [f.message for f in findings if f.rule == "PRED002"]
        assert any("'phantom'" in m and "no _FACTORIES entry" in m
                   for m in messages)
        assert any("'hidden'" in m and "not in" in m for m in messages)

    def test_handwritten_cli_choices_trigger(self, tmp_path):
        tree = write_tree(tmp_path, {
            "predictors/sizing.py": """
                PREDICTOR_NAMES = ("gshare",)
                _FACTORIES = {"gshare": None}
            """,
            "cli.py": """
                def build(sub):
                    run = sub.add_parser("run")
                    run.add_argument("--predictor", choices=["gshare"])
            """,
        })
        findings = run_lint([tree])
        messages = [f.message for f in findings if f.rule == "PRED002"]
        assert any("choices=PREDICTOR_NAMES" in m for m in messages)

    def test_unregistered_name_without_class_triggers(self, tmp_path):
        tree = write_tree(tmp_path, {
            "predictors/sizing.py": """
                PREDICTOR_NAMES = ("gshare", "vapor")
                _FACTORIES = {"gshare": None, "vapor": None}
            """,
            "predictors/gshare.py": """
                from repro.predictors.base import BranchPredictor

                class GsharePredictor(BranchPredictor):
                    name = "gshare"

                    def predict(self, address):
                        return True

                    def update(self, address, taken, predicted):
                        pass

                    @property
                    def size_bytes(self):
                        return 0.0
            """,
        })
        findings = run_lint([tree])
        messages = [f.message for f in findings if f.rule == "PRED002"]
        assert any("'vapor'" in m and "no BranchPredictor subclass" in m
                   for m in messages)

    def test_consistent_tree_is_clean(self, tmp_path):
        tree = write_tree(tmp_path, {
            "predictors/sizing.py": """
                PREDICTOR_NAMES = ("gshare",)
                _FACTORIES = {"gshare": None}
            """,
        })
        assert "PRED002" not in rules_hit(run_lint([tree]))


# ---------------------------------------------------------------------------
# PRED003: predict-time state consumed by update is declared


PRED003_BODY = """
    from repro.predictors.base import BranchPredictor

    class CachingPredictor(BranchPredictor):
        name = "caching"
        {declaration}

        def predict(self, address):
            self._last_index = address & 7
            return True

        def update(self, address, taken, predicted):
            index = self._last_index
            self.table[index] = taken

        @property
        def size_bytes(self):
            return 0.0

        def table_entry_counts(self):
            return []

        def accessed(self):
            return []
"""


class TestPred003:
    def test_undeclared_predict_state_triggers(self, tmp_path):
        findings = lint_snippet(
            tmp_path, PRED003_BODY.format(declaration="")
        )
        messages = [f.message for f in findings if f.rule == "PRED003"]
        assert len(messages) == 1
        assert "'_last_index'" in messages[0]
        assert "_PREDICT_STATE" in messages[0]

    def test_declared_predict_state_is_clean(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            PRED003_BODY.format(
                declaration='_PREDICT_STATE = ("_last_index",)'
            ),
        )
        assert "PRED003" not in rules_hit(findings)

    def test_stale_declaration_triggers(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            PRED003_BODY.format(
                declaration='_PREDICT_STATE = ("_last_index", "_gone")'
            ),
        )
        messages = [f.message for f in findings if f.rule == "PRED003"]
        assert len(messages) == 1
        assert "'_gone'" in messages[0]
        assert "stale" in messages[0]

    def test_counter_bumps_do_not_trigger(self, tmp_path):
        # predict's `self.lookups += 1` and update's `self.misses += 1`
        # are statistics, not cached lookup context.
        findings = lint_snippet(tmp_path, """
            from repro.predictors.base import BranchPredictor

            class CountingPredictor(BranchPredictor):
                name = "counting"

                def predict(self, address):
                    self.lookups += 1
                    return True

                def update(self, address, taken, predicted):
                    if not taken:
                        self.misses += 1

                @property
                def size_bytes(self):
                    return 0.0

                def table_entry_counts(self):
                    return []

                def accessed(self):
                    return []
        """)
        assert "PRED003" not in rules_hit(findings)

    def test_state_read_only_elsewhere_is_clean(self, tmp_path):
        # predict-assigned state read by accessed() (not update) is the
        # documented collision-tracker protocol, not hidden coupling.
        findings = lint_snippet(tmp_path, """
            from repro.predictors.base import BranchPredictor

            class PeekPredictor(BranchPredictor):
                name = "peek"

                def predict(self, address):
                    self._last_index = address & 7
                    return True

                def update(self, address, taken, predicted):
                    pass

                @property
                def size_bytes(self):
                    return 0.0

                def table_entry_counts(self):
                    return []

                def accessed(self):
                    return [(0, self._last_index)]
        """)
        assert "PRED003" not in rules_hit(findings)


# ---------------------------------------------------------------------------
# REG001: experiment registry vs. golden files


class TestReg001:
    REGISTRY_SOURCE = "EXPERIMENT_IDS = ()\n"

    def run_rule(self, tmp_path, ids, grouped, goldens) -> list[Finding]:
        tree = write_tree(
            tmp_path, {"experiments/registry.py": self.REGISTRY_SOURCE}
        )
        results = tree / "benchmarks" / "results"
        results.mkdir(parents=True)
        for golden in goldens:
            (results / f"{golden}.txt").write_text("golden\n", encoding="utf-8")
        rule = ExperimentGoldenRule(
            experiment_ids=ids, grouped_ids=grouped, results_dir=results
        )
        return LintEngine([rule]).run([tree])

    def test_missing_golden_triggers(self, tmp_path):
        findings = self.run_rule(tmp_path, ids=("table1", "table2"),
                                 grouped=(), goldens=("table1",))
        messages = [f.message for f in findings if f.rule == "REG001"]
        assert len(messages) == 1
        assert "'table2'" in messages[0] and "no golden" in messages[0]

    def test_stale_golden_triggers(self, tmp_path):
        findings = self.run_rule(tmp_path, ids=("table1",), grouped=(),
                                 goldens=("table1", "table9"))
        messages = [f.message for f in findings if f.rule == "REG001"]
        assert len(messages) == 1
        assert "table9.txt" in messages[0]

    def test_grouped_ids_need_no_golden(self, tmp_path):
        findings = self.run_rule(tmp_path, ids=("table1", "summary"),
                                 grouped=("summary",), goldens=("table1",))
        assert "REG001" not in rules_hit(findings)

    def test_unknown_grouped_id_triggers(self, tmp_path):
        findings = self.run_rule(tmp_path, ids=("table1",),
                                 grouped=("mystery",), goldens=("table1",))
        messages = [f.message for f in findings if f.rule == "REG001"]
        assert any("'mystery'" in m for m in messages)

    def test_foreign_registry_is_skipped_by_default_rule(self, tmp_path):
        # The registered REG001 instance imports the real registry; on a
        # fixture tree whose registry.py is not that module it must stay
        # silent rather than compare the wrong id set.
        tree = write_tree(
            tmp_path, {"experiments/registry.py": self.REGISTRY_SOURCE}
        )
        findings = run_lint([tree])
        assert "REG001" not in rules_hit(findings)


# ---------------------------------------------------------------------------
# BIT001: hand-rolled masks


class TestBit001:
    def test_mask_expressions_trigger(self, tmp_path):
        findings = lint_snippet(tmp_path, """
            def index(address, width):
                a = address & (2**10 - 1)
                b = address & ((1 << width) - 1)
                c = address % 4096
                d = address % (1 << width)
                return a + b + c + d
        """)
        bit = [f for f in findings if f.rule == "BIT001"]
        assert len(bit) == 4
        assert all(f.severity is Severity.WARNING for f in bit)

    def test_non_power_of_two_modulo_is_clean(self, tmp_path):
        findings = lint_snippet(tmp_path, """
            def wrap(position, pattern):
                return (position + 1) % len(pattern) + position % 3
        """)
        assert "BIT001" not in rules_hit(findings)

    def test_bits_module_is_exempt(self, tmp_path):
        findings = lint_snippet(tmp_path, """
            def bit_mask(width):
                return (1 << width) - 1

            def fold(value, width):
                return value & ((1 << width) - 1)
        """, name="utils/bits.py")
        assert "BIT001" not in rules_hit(findings)


# ---------------------------------------------------------------------------
# Suppressions


class TestSuppressions:
    def test_trailing_suppression_silences(self, tmp_path):
        findings = lint_snippet(tmp_path, """
            import time

            def stamp():
                return time.time()  # repro: allow[DET002] -- wall time is the payload
        """)
        assert "DET002" not in rules_hit(findings)

    def test_preceding_comment_suppression_silences(self, tmp_path):
        findings = lint_snippet(tmp_path, """
            import time

            def stamp():
                # repro: allow[DET002] -- wall time is the payload
                return time.time()
        """)
        assert "DET002" not in rules_hit(findings)

    def test_multi_rule_marker(self, tmp_path):
        findings = lint_snippet(tmp_path, """
            def index(address):
                # repro: allow[BIT001, DET002] -- exercising the marker
                return [a for a in {address & (2**4 - 1)}]
        """)
        assert rules_hit(findings) == set()

    def test_suppression_is_rule_specific(self, tmp_path):
        findings = lint_snippet(tmp_path, """
            import time

            def stamp():
                return time.time()  # repro: allow[DET001] -- wrong rule id
        """)
        assert "DET002" in rules_hit(findings)

    def test_index_parsing(self):
        index = SuppressionIndex.from_source(
            "x = 1  # repro: allow[A1]\n"
            "# repro: allow[B2, C3] -- reason\n"
            "y = 2\n"
        )
        assert index.is_suppressed("A1", 1)
        assert index.is_suppressed("B2", 3) and index.is_suppressed("C3", 3)
        assert not index.is_suppressed("A1", 3)

    def test_standalone_marker_skips_blank_and_comment_lines(self):
        index = SuppressionIndex.from_source(
            "# repro: allow[A1] -- reaches past the gap\n"
            "\n"
            "# an unrelated comment\n"
            "\n"
            "x = 1\n"
        )
        assert index.is_suppressed("A1", 5)

    def test_stacked_markers_annotate_the_same_statement(self):
        index = SuppressionIndex.from_source(
            "# repro: allow[A1] -- first\n"
            "# repro: allow[B2] -- second\n"
            "x = 1\n"
        )
        assert index.is_suppressed("A1", 3)
        assert index.is_suppressed("B2", 3)

    def test_marker_covers_the_whole_multiline_statement(self):
        source = (
            "x = compute(\n"
            "    alpha,\n"
            "    beta,\n"
            ")  # repro: allow[A1] -- the call spans four lines\n"
        )
        index = SuppressionIndex.from_source(source)
        for line in (1, 2, 3, 4):
            assert index.is_suppressed("A1", line)
        assert not index.is_suppressed("A1", 5)

    def test_standalone_marker_before_multiline_statement(self):
        source = (
            "# repro: allow[A1] -- annotates the whole statement below\n"
            "x = compute(\n"
            "    alpha,\n"
            ")\n"
        )
        index = SuppressionIndex.from_source(source)
        for line in (2, 3, 4):
            assert index.is_suppressed("A1", line)

    def test_marker_inside_a_string_literal_is_inert(self):
        index = SuppressionIndex.from_source(
            'text = "# repro: allow[A1] -- not a comment"\n'
            "y = 2\n"
        )
        assert len(index) == 0
        assert not index.is_suppressed("A1", 1)
        assert not index.is_suppressed("A1", 2)

    def test_string_marker_does_not_suppress_findings(self, tmp_path):
        findings = lint_snippet(tmp_path, """
            import time

            def stamp():
                note = "# repro: allow[DET002] -- inside a string"
                return note, time.time()
        """)
        assert "DET002" in rules_hit(findings)

    def test_trailing_marker_inside_parens_suppresses(self, tmp_path):
        findings = lint_snippet(tmp_path, """
            import time

            def stamp():
                return max(
                    time.time(),  # repro: allow[DET002] -- wall time wanted
                    0.0,
                )
        """)
        assert "DET002" not in rules_hit(findings)

    def test_unparseable_source_falls_back_to_line_scan(self):
        index = SuppressionIndex.from_source(
            "# repro: allow[A1] -- before broken code\n"
            "def broken(:\n"
        )
        assert index.is_suppressed("A1", 1)
        assert index.is_suppressed("A1", 2)


# ---------------------------------------------------------------------------
# Engine and reporters


class TestEngineAndReport:
    def test_syntax_error_is_reported_not_raised(self, tmp_path):
        findings = lint_snippet(tmp_path, "def broken(:\n")
        assert rules_hit(findings) == {"LINT001"}

    def test_missing_path_raises_lint_error(self):
        with pytest.raises(LintError):
            run_lint(["/nonexistent/lint/target"])

    def test_select_rules_by_prefix(self):
        assert [r.rule_id for r in select_rules(["DET"])] == [
            "DET001", "DET002", "DET003",
        ]
        assert [r.rule_id for r in select_rules(["PRED001"])] == ["PRED001"]

    def test_select_unknown_rule_raises(self):
        with pytest.raises(LintError):
            select_rules(["NOPE999"])

    def test_rule_ids_cover_the_documented_battery(self):
        assert set(rule_ids()) == {
            "DET001", "DET002", "DET003", "PRED001", "PRED002", "PRED003",
            "REG001", "EXP002", "PAR001", "PAR002", "BIT001", "LINT001",
            "WID001", "WID002", "WID003", "WID004",
            "PERF001", "PERF002", "PERF003", "PERF004",
            "KEY001", "KEY002", "ENV001", "ATM001", "ATM002",
            "CONC001", "CONC002", "CONC003", "CONC004",
        }
        assert all(RULES[r].summary for r in RULES)

    def test_findings_sort_by_location(self, tmp_path):
        findings = lint_snippet(tmp_path, """
            import random

            def late():
                return random.random()
        """)
        lines = [f.line for f in findings]
        assert lines == sorted(lines)

    def test_json_schema(self, tmp_path):
        findings = lint_snippet(tmp_path, "import random\n")
        payload = json.loads(render_json(findings))
        assert payload["version"] == 1
        assert payload["count"] == len(findings) == 1
        assert payload["rules"] == list(rule_ids())
        entry = payload["findings"][0]
        assert set(entry) == {"rule", "severity", "path", "line", "col",
                              "message"}
        assert entry["rule"] == "DET001"
        assert entry["severity"] == "error"
        assert entry["line"] == 1

    def test_text_report_mentions_counts(self, tmp_path):
        findings = lint_snippet(tmp_path, "import random\n")
        text = render_text(findings)
        assert "1 finding(s)" in text and "1 error(s)" in text
        assert render_text([]) == "clean: no lint findings"

    def test_json_rules_reflect_a_selected_subset(self, tmp_path):
        # A --select-narrowed run must not advertise rules it skipped:
        # consumers read "rules" as "these ran and found what is listed".
        rules = select_rules(["DET"])
        engine = LintEngine(rules)
        findings = engine.run([])
        payload = json.loads(render_json(findings, rules=engine.executed_rule_ids))
        assert payload["rules"] == ["DET001", "DET002", "DET003", "LINT001"]

    def test_executed_rule_ids_always_include_the_parse_rule(self):
        engine = LintEngine(select_rules(["BIT001"]))
        assert engine.executed_rule_ids == ["BIT001", "LINT001"]

    def test_findings_independent_of_path_argument_order(self, tmp_path):
        tree = write_tree(tmp_path, {
            "a/first.py": "import random\n",
            "b/second.py": "import time\ntime.time()\n",
        })
        forward = run_lint([tree / "a", tree / "b"])
        reverse = run_lint([tree / "b", tree / "a"])
        assert forward == reverse
        assert [f.rule for f in forward] == ["DET001", "DET002"]


# ---------------------------------------------------------------------------
# Self-hosting: the repro package obeys its own invariants


class TestSelfHost:
    def test_src_repro_is_lint_clean_outside_perf(self, src_repro_findings):
        # PERF carries deliberate baselined debt (the vectorization
        # worklist); every other family must be spotless.
        findings = src_repro_findings()
        non_perf = [f for f in findings if not f.rule.startswith("PERF")]
        assert non_perf == [], "\n".join(f.render() for f in non_perf)

    def test_src_repro_perf_debt_is_fully_baselined(self, src_repro_findings):
        from repro.lint.baseline import DEFAULT_BASELINE_PATH, Baseline

        findings = src_repro_findings()
        baseline = Baseline.load(Path(DEFAULT_BASELINE_PATH))
        new, _baselined = baseline.filter_new(findings)
        assert new == [], "\n".join(f.render() for f in new)
        # The ratchet only means something while the worklist is real:
        # the committed baseline must hold actual PERF sites.
        perf = [f for f in findings if f.rule.startswith("PERF")]
        assert len(perf) >= 5

    def test_kernels_and_runner_are_perf_clean(self, src_repro_findings):
        findings = src_repro_findings("PERF")
        hot_dirs = [f for f in findings
                    if "/kernels/" in f.path or "/runner/" in f.path]
        assert hot_dirs == [], "\n".join(f.render() for f in hot_dirs)

    def test_real_registry_rule_actually_ran(self):
        # Guard against the self-host pass going green because REG001
        # skipped: the default rule must resolve the real registry.
        from repro.experiments import registry

        rule = ExperimentGoldenRule()
        engine = LintEngine([rule])
        findings = engine.run([SRC_REPRO / "experiments" / "registry.py"])
        assert findings == []
        assert registry.GROUPED_EXPERIMENT_IDS < set(registry.EXPERIMENT_IDS)
