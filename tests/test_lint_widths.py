"""Tests for the abstract-interpretation width checker (WID001-WID004).

Three layers of coverage:

* property-style tests that the interval domain in
  ``repro.lint.intervals`` *over-approximates* concrete integer
  arithmetic — randomized expression trees are evaluated both
  abstractly and concretely, and the concrete result must always fall
  inside the abstract interval;
* targeted unit tests for the symbolic power-of-two bounds, the
  interval algebra corners the WID rules lean on, and the baseline's
  scope-aware update/prune semantics;
* acceptance fixtures: deliberately broken predictors (unmasked gshare
  index, non-saturating counter, unbounded history shift-in, provable
  power-of-two modulus) must each produce the expected WID finding,
  and a faithfully saturating/masked predictor must produce none.
"""

from __future__ import annotations

import textwrap
from pathlib import Path

from repro.lint import Finding, Severity, run_lint, select_rules
from repro.lint.baseline import Baseline
from repro.lint.intervals import (
    BOOL,
    TOP,
    ZERO,
    Bound,
    Interval,
    Pow2Sym,
    binop,
    bound_le,
    is_exact_pow2,
    iv_max,
    iv_min,
    unop,
)
from repro.lint.report import render_explain
from repro.lint.rules import all_rules
from repro.utils.rng import derive_rng

WID_RULES = select_rules(["WID"])


def lint_tree(tmp_path: Path, modules: dict[str, str]) -> list[Finding]:
    """Write a fixture tree and lint it with the WID rules only."""
    for rel, source in modules.items():
        target = tmp_path / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(textwrap.dedent(source), encoding="utf-8")
    return run_lint([tmp_path], WID_RULES)


def rules_hit(findings: list[Finding]) -> set[str]:
    return {finding.rule for finding in findings}


ANCHOR = {"predictors/base.py": """
    class BranchPredictor:
        pass
"""}


# ---------------------------------------------------------------------------
# Property: abstract evaluation over-approximates concrete evaluation.


_CONCRETE = {
    "&": lambda a, b: a & b,
    "|": lambda a, b: a | b,
    "^": lambda a, b: a ^ b,
    "<<": lambda a, b: a << b,
    ">>": lambda a, b: a >> b,
    "%": lambda a, b: a % b,
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
}

_OPS = tuple(_CONCRETE)


def _leaf(rng) -> tuple[Interval, int]:
    """A random interval together with a concrete member of it."""
    lo = rng.randint(-40, 40)
    hi = lo + rng.randint(0, 80)
    value = rng.randint(lo, hi)
    shape = rng.random()
    if shape < 0.10:
        return Interval(None, Bound(hi)), value
    if shape < 0.20:
        return Interval(Bound(lo), None), value
    if shape < 0.25:
        return TOP, value
    return Interval.range(lo, hi), value


def _tree(rng, depth: int) -> tuple[Interval, int]:
    """A random expression tree evaluated abstractly and concretely.

    Shift amounts and moduli are kept as small singleton constants so
    the concrete evaluation never raises and never explodes; every
    other operand position recurses freely.
    """
    if depth == 0 or rng.random() < 0.3:
        return _leaf(rng)
    op = _OPS[rng.randrange(len(_OPS))]
    left_iv, left_value = _tree(rng, depth - 1)
    if op in ("<<", ">>"):
        amount = rng.randint(0, 8)
        right_iv, right_value = Interval.const(amount), amount
    elif op == "%":
        modulus = rng.randint(1, 64)
        right_iv, right_value = Interval.const(modulus), modulus
    else:
        right_iv, right_value = _tree(rng, depth - 1)
    return (binop(op, left_iv, right_iv),
            _CONCRETE[op](left_value, right_value))


class TestOverApproximation:
    def test_binop_contains_concrete_result_on_random_trees(self):
        rng = derive_rng(0, "lint", "widths", "binop-soundness")
        for trial in range(600):
            interval, value = _tree(rng, depth=4)
            assert interval.contains(value), (
                f"trial {trial}: concrete {value} escapes abstract "
                f"{interval.render()}"
            )

    def test_unop_contains_concrete_result(self):
        rng = derive_rng(0, "lint", "widths", "unop-soundness")
        concrete = {"+": lambda a: +a, "-": lambda a: -a,
                    "~": lambda a: ~a, "not": lambda a: int(not a)}
        for _ in range(200):
            interval, value = _leaf(rng)
            op = ("+", "-", "~", "not")[rng.randrange(4)]
            assert unop(op, interval).contains(concrete[op](value))

    def test_join_contains_both_sides(self):
        rng = derive_rng(0, "lint", "widths", "join-soundness")
        for _ in range(200):
            a_iv, a_value = _leaf(rng)
            b_iv, b_value = _leaf(rng)
            joined = a_iv.join(b_iv)
            assert joined.contains(a_value)
            assert joined.contains(b_value)

    def test_iv_min_max_contain_concrete_extrema(self):
        rng = derive_rng(0, "lint", "widths", "minmax-soundness")
        for _ in range(200):
            a_iv, a_value = _leaf(rng)
            b_iv, b_value = _leaf(rng)
            assert iv_min(a_iv, b_iv).contains(min(a_value, b_value))
            assert iv_max(a_iv, b_iv).contains(max(a_value, b_value))

    def test_bound_le_implies_concrete_ordering(self):
        """Whenever ``bound_le`` claims a <= b, sampling agrees."""
        rng = derive_rng(0, "lint", "widths", "bound-le-soundness")
        for trial in range(300):
            min_exp = rng.randint(0, 5)
            sym = Pow2Sym(("test-le", trial), "size", min_exp=min_exp)

            def bound() -> Bound:
                off = rng.randint(-10, 10)
                if rng.random() < 0.5:
                    return Bound(off)
                return Bound(off, sym, rng.randint(-min_exp, 3))

            a, b = bound(), bound()
            if not bound_le(a, b):
                continue
            for _ in range(8):
                exponents = {sym.key: min_exp + rng.randint(0, 6)}
                assert a.value(exponents) <= b.value(exponents), (
                    f"trial {trial}: bound_le({a.render()}, {b.render()}) "
                    f"violated at {exponents}"
                )


# ---------------------------------------------------------------------------
# Symbolic power-of-two bounds.


class TestSymbolicBounds:
    def test_masked_index_interval_tracks_the_table_size(self):
        rng = derive_rng(0, "lint", "widths", "masked-index")
        sym = Pow2Sym(("test-size",), "entries", min_exp=0)
        index = Interval(ZERO, Bound(-1, sym, 0))  # [0, entries-1]
        for _ in range(50):
            exponent = rng.randint(0, 12)
            exponents = {sym.key: exponent}
            size = 1 << exponent
            assert index.contains(rng.randint(0, size - 1), exponents)
            assert not index.contains(size, exponents)
            assert not index.contains(-1, exponents)

    def test_require_min_exp_only_grows(self):
        sym = Pow2Sym(("test-grow",), "n", min_exp=1)
        sym.require_min_exp(3)
        assert sym.min_exp == 3
        sym.require_min_exp(2)
        assert sym.min_exp == 3

    def test_is_exact_pow2_constants(self):
        assert is_exact_pow2(Interval.const(2))
        assert is_exact_pow2(Interval.const(64))
        assert not is_exact_pow2(Interval.const(3))
        # A modulus of 1 is degenerate: rewriting ``x % 1`` as ``x & 0``
        # would be "correct" but the finding would be noise, so the
        # constant branch starts at 2.
        assert not is_exact_pow2(Interval.const(1))
        assert not is_exact_pow2(Interval.range(2, 4))
        assert not is_exact_pow2(TOP)

    def test_is_exact_pow2_symbolic(self):
        sym = Pow2Sym(("test-pow2",), "size", min_exp=0)
        exact = Interval(Bound(0, sym, 0), Bound(0, sym, 0))
        assert is_exact_pow2(exact)
        # Effective exponent could be -1: 2**k / 2 is fractional for
        # k == 0, so the proof must be refused.
        halved = Interval(Bound(0, sym, -1), Bound(0, sym, -1))
        assert not is_exact_pow2(halved)
        grown = Pow2Sym(("test-pow2-grown",), "size", min_exp=1)
        halved_grown = Interval(Bound(0, grown, -1), Bound(0, grown, -1))
        assert is_exact_pow2(halved_grown)
        shifted = Interval(Bound(1, sym, 0), Bound(1, sym, 0))
        assert not is_exact_pow2(shifted)  # 2**k + 1 is not a power of two

    def test_mask_rescues_an_unbounded_operand(self):
        masked = binop("&", TOP, Interval.range(0, 255))
        assert masked.contains(0) and masked.contains(255)
        assert not masked.contains(256)
        assert not masked.contains(-1)

    def test_modulo_by_positive_bound_is_bounded(self):
        reduced = binop("%", TOP, Interval.const(8))
        assert reduced.contains(7)
        assert not reduced.contains(8)
        assert binop("%", TOP, Interval.range(-4, 8)) == TOP

    def test_bool_and_shift_in_stay_in_declared_width(self):
        sym = Pow2Sym(("test-hist",), "2**length", min_exp=0)
        mask = Interval(ZERO, Bound(-1, sym, 0))
        value = Interval(ZERO, Bound(-1, sym, 0))
        shifted = binop("|", binop("<<", value, Interval.const(1)), BOOL)
        assert binop("&", shifted, mask).hi == Bound(-1, sym, 0)


# ---------------------------------------------------------------------------
# Acceptance fixtures: each deliberate defect produces its WID finding.


class TestBrokenPredictorFixtures:
    def test_unmasked_gshare_index_is_wid001(self, tmp_path):
        findings = lint_tree(tmp_path, {**ANCHOR, "predictors/broken.py": """
            from repro.predictors.base import BranchPredictor
            from repro.predictors.counters import CounterTable
            from repro.predictors.history import GlobalHistory


            class UnmaskedGshare(BranchPredictor):
                _WIDTHS = {"history": "history_length",
                           "table": "counter_bits"}

                def __init__(self, entries, history_length, counter_bits=2):
                    self.table = CounterTable(entries, bits=counter_bits)
                    self.history = GlobalHistory(history_length)

                def predict(self, address):
                    index = (address >> 2) ^ self.history.value
                    return self.table.predict(index)
        """})
        assert rules_hit(findings) == {"WID001"}
        (finding,) = findings
        assert "index" in finding.message
        assert finding.severity is Severity.ERROR

    def test_non_saturating_counter_update_is_wid002(self, tmp_path):
        findings = lint_tree(tmp_path, {**ANCHOR, "predictors/broken.py": """
            from repro.predictors.base import BranchPredictor
            from repro.predictors.counters import CounterTable
            from repro.utils.bits import is_power_of_two


            class LazyCounter(BranchPredictor):
                _WIDTHS = {"table": "counter_bits"}

                def __init__(self, entries, counter_bits=2):
                    if not is_power_of_two(entries):
                        raise ValueError("entries must be a power of two")
                    self.table = CounterTable(entries, bits=counter_bits)
                    self._index_mask = entries - 1

                def update(self, address, taken):
                    index = address & self._index_mask
                    value = self.table.values[index]
                    self.table.values[index] = (
                        value + 1 if taken else value - 1
                    )
        """})
        assert rules_hit(findings) == {"WID002"}

    def test_unbounded_history_shift_in_is_wid003(self, tmp_path):
        findings = lint_tree(tmp_path, {**ANCHOR, "predictors/broken.py": """
            from repro.predictors.base import BranchPredictor
            from repro.predictors.history import GlobalHistory


            class LeakyHistory(BranchPredictor):
                _WIDTHS = {"history": "history_length"}

                def __init__(self, history_length):
                    self.history = GlobalHistory(history_length)

                def update(self, address, taken):
                    h = self.history
                    h.value = (h.value << 1) | taken
        """})
        assert rules_hit(findings) == {"WID003"}

    def test_all_three_defects_fire_together(self, tmp_path):
        """The original smoke fixture: one class, three distinct defects."""
        findings = lint_tree(tmp_path, {**ANCHOR, "predictors/broken.py": """
            from repro.predictors.base import BranchPredictor
            from repro.predictors.counters import CounterTable
            from repro.predictors.history import GlobalHistory


            class BrokenGshare(BranchPredictor):
                _WIDTHS = {"history": "history_length",
                           "table": "counter_bits"}

                def __init__(self, entries, history_length, counter_bits=2):
                    self.table = CounterTable(entries, bits=counter_bits)
                    self.history = GlobalHistory(history_length)
                    self._last_index = 0

                def predict(self, address):
                    index = (address >> 2) ^ self.history.value
                    self._last_index = index
                    return self.table.predict(index)

                def update(self, address, taken):
                    value = self.table.values[self._last_index]
                    self.table.values[self._last_index] = (
                        value + 1 if taken else value - 1
                    )
                    h = self.history
                    h.value = (h.value << 1) | taken
        """})
        by_rule = {rule: sum(1 for f in findings if f.rule == rule)
                   for rule in rules_hit(findings)}
        # predict's subscript plus the two update subscripts all reach
        # the table through the never-masked index.
        assert by_rule == {"WID001": 3, "WID002": 1, "WID003": 1}

    def test_saturating_masked_predictor_is_clean(self, tmp_path):
        findings = lint_tree(tmp_path, {**ANCHOR, "predictors/good.py": """
            from repro.predictors.base import BranchPredictor
            from repro.predictors.counters import CounterTable
            from repro.predictors.history import GlobalHistory
            from repro.utils.bits import is_power_of_two


            class CleanGshare(BranchPredictor):
                _WIDTHS = {"history": "history_length",
                           "table": "counter_bits"}

                def __init__(self, entries, history_length, counter_bits=2):
                    if not is_power_of_two(entries):
                        raise ValueError("entries must be a power of two")
                    self.table = CounterTable(entries, bits=counter_bits)
                    self.history = GlobalHistory(history_length)
                    self._index_mask = entries - 1
                    self._max_value = self.table.max_value
                    self._last_index = 0

                def predict(self, address):
                    index = ((address >> 2) ^ self.history.value) \\
                        & self._index_mask
                    self._last_index = index
                    return self.table.predict(index)

                def update(self, address, taken):
                    index = self._last_index
                    values = self.table.values
                    value = values[index]
                    if taken:
                        if value < self._max_value:
                            values[index] = value + 1
                    elif value > 0:
                        values[index] = value - 1
                    history = self.history
                    history.value = (
                        (history.value << 1) | taken
                    ) & history.mask
        """})
        assert findings == []

    def test_undeclared_table_and_stale_entry_are_reported(self, tmp_path):
        findings = lint_tree(tmp_path, {**ANCHOR, "predictors/decl.py": """
            from repro.predictors.base import BranchPredictor
            from repro.predictors.counters import CounterTable


            class Undeclared(BranchPredictor):
                _WIDTHS = {"ghost": "counter_bits"}

                def __init__(self, entries, counter_bits=2):
                    self.table = CounterTable(entries, bits=counter_bits)
        """})
        messages = sorted(f.message for f in findings)
        assert any("does not declare" in m for m in messages)
        assert any("stale" in m for m in messages)
        assert rules_hit(findings) == {"WID002"}


class TestWid004:
    def test_provable_power_of_two_modulus_is_flagged(self, tmp_path):
        findings = lint_tree(tmp_path, {"sizes.py": """
            def slot_for(entries, value):
                size = 1 << entries
                return value % size
        """})
        assert rules_hit(findings) == {"WID004"}

    def test_bit_mask_derived_modulus_is_flagged(self, tmp_path):
        findings = lint_tree(tmp_path, {"sizes.py": """
            from repro.utils.bits import bit_mask


            def slot_for(width, value):
                size = bit_mask(width) + 1
                return value % size
        """})
        assert rules_hit(findings) == {"WID004"}

    def test_literal_modulus_is_bit001_territory_not_wid004(self, tmp_path):
        findings = lint_tree(tmp_path, {"sizes.py": """
            def slot_for(value):
                return value % 8  # repro: allow[BIT001]
        """})
        assert findings == []

    def test_non_power_of_two_modulus_is_silent(self, tmp_path):
        findings = lint_tree(tmp_path, {"sizes.py": """
            def slot_for(entries, value):
                denominator = (1 << entries) + 1
                return value % denominator
        """})
        assert findings == []


# ---------------------------------------------------------------------------
# numpy policy: an integer dtype is a width declaration.


class TestNumpyPolicy:
    def test_masked_ndarray_adoption_is_clean(self, tmp_path):
        """The ``import_array`` idiom: mask, then adopt via tolist()."""
        findings = lint_tree(tmp_path, {**ANCHOR, "predictors/arrays.py": """
            import numpy


            class ArrayTable:
                _WIDTHS = {"values": "bits"}

                def __init__(self, entries, bits=2):
                    self.bits = bits
                    self.max_value = (1 << bits) - 1
                    self.values = [0] * entries

                def import_array(self, array):
                    masked = numpy.asarray(array) & self.max_value
                    self.values = masked.tolist()
        """})
        assert findings == []

    def test_unmasked_ndarray_adoption_is_flagged(self, tmp_path):
        """Adopting a raw ndarray skips the saturation proof entirely."""
        findings = lint_tree(tmp_path, {**ANCHOR, "predictors/arrays.py": """
            import numpy


            class LeakyArrayTable:
                _WIDTHS = {"values": "bits"}

                def __init__(self, entries, bits=2):
                    self.bits = bits
                    self.max_value = (1 << bits) - 1
                    self.values = [0] * entries

                def import_array(self, array):
                    self.values = numpy.asarray(array).tolist()
        """})
        assert rules_hit(findings) == {"WID002"}

    def test_integer_dtype_is_a_width_declaration(self, tmp_path):
        """A uint8 cast provably bounds every element in [0, 255]."""
        findings = lint_tree(tmp_path, {**ANCHOR, "predictors/arrays.py": """
            import numpy


            class ByteTable:
                _WIDTHS = {"values": "8"}

                def __init__(self, entries):
                    self.values = [0] * entries

                def import_array(self, array):
                    bytes_ = numpy.asarray(array, dtype=numpy.uint8)
                    self.values = bytes_.tolist()
        """})
        assert findings == []

    def test_astype_narrows_like_a_mask(self, tmp_path):
        findings = lint_tree(tmp_path, {**ANCHOR, "predictors/arrays.py": """
            import numpy


            class CastTable:
                _WIDTHS = {"values": "8"}

                def __init__(self, entries):
                    self.values = [0] * entries

                def import_array(self, array):
                    wide = numpy.asarray(array, dtype=numpy.int64)
                    self.values = wide.astype(numpy.uint8).tolist()
        """})
        assert findings == []

    def test_wide_dtype_does_not_satisfy_narrow_declaration(self, tmp_path):
        """int64 is a width declaration too -- just not a narrow one."""
        findings = lint_tree(tmp_path, {**ANCHOR, "predictors/arrays.py": """
            import numpy


            class WideTable:
                _WIDTHS = {"values": "8"}

                def __init__(self, entries):
                    self.values = [0] * entries

                def import_array(self, array):
                    wide = numpy.asarray(array, dtype=numpy.int64)
                    self.values = wide.tolist()
        """})
        assert rules_hit(findings) == {"WID002"}

    def test_explain_documents_the_dtype_policy(self):
        text = render_explain(select_rules(["WID002"]))
        assert "dtype" in text
        assert "width declaration" in text


# ---------------------------------------------------------------------------
# Self-hosting and explainability.


class TestSelfHostAndExplain:
    def test_src_repro_is_wid_clean(self, src_repro_findings):
        assert src_repro_findings("WID") == []

    def test_every_registered_rule_is_explainable(self):
        rules = all_rules()
        assert rules, "rule registry is empty"
        text = render_explain(rules)
        for rule in rules:
            assert rule.rule_id in text
            assert (type(rule).__doc__ or "").strip(), (
                f"{rule.rule_id} has no docstring to explain"
            )
            assert getattr(rule, "example_bad", ""), (
                f"{rule.rule_id} has no bad example"
            )
            assert getattr(rule, "example_good", ""), (
                f"{rule.rule_id} has no good example"
            )
        assert "bad:" in text
        assert "good:" in text


# ---------------------------------------------------------------------------
# Baseline lifecycle: scope-aware update and dead-entry pruning.


def _finding(path: str, rule: str = "WID001", message: str = "m") -> Finding:
    return Finding(path=path, line=1, col=0, rule=rule,
                   severity=Severity.ERROR, message=message)


class TestBaselineLifecycle:
    def test_updated_prunes_fingerprints_that_stopped_firing(self):
        stale = Baseline.from_findings(
            [_finding("a.py"), _finding("a.py", message="gone")]
        )
        refreshed = stale.updated([_finding("a.py")], ["a.py"])
        assert refreshed.counts == {("a.py", "WID001", "m"): 1}

    def test_updated_keeps_out_of_scope_debt(self):
        stale = Baseline.from_findings([_finding("a.py"), _finding("b.py")])
        refreshed = stale.updated([], ["a.py"])
        assert refreshed.counts == {("b.py", "WID001", "m"): 1}

    def test_dead_entries_reports_the_excess_count(self):
        baseline = Baseline({("a.py", "WID001", "m"): 3})
        dead = baseline.dead_entries([_finding("a.py")], ["a.py"])
        assert dead == [("a.py", "WID001", "m", 2)]

    def test_dead_entries_ignores_paths_outside_the_linted_scope(self):
        baseline = Baseline({("b.py", "WID001", "m"): 1})
        assert baseline.dead_entries([], ["a.py"]) == []

    def test_live_baseline_has_no_dead_entries(self):
        findings = [_finding("a.py"), _finding("a.py", message="other")]
        baseline = Baseline.from_findings(findings)
        assert baseline.dead_entries(findings, ["a.py"]) == []
