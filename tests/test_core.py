"""Tests for the combined predictor, simulator, metrics, and sweeps."""

import math

import pytest

from repro.arch.isa import HintBits, ShiftPolicy
from repro.core.combined import CombinedPredictor
from repro.core.metrics import SimulationResult, improvement
from repro.core.simulator import run_combined, run_selection_phase, simulate
from repro.core.sweep import run_configuration, size_sweep
from repro.errors import SelectionError
from repro.experiments.common import ExperimentContext
from repro.predictors.bimodal import BimodalPredictor
from repro.predictors.ghist import GhistPredictor
from repro.predictors.gshare import GsharePredictor
from repro.staticpred.hints import HintAssignment
from repro.staticpred.selection import SELECTION_SCHEMES
from repro.workloads.trace import BranchTrace


def make_trace(records, program="demo"):
    trace = BranchTrace(program_name=program, input_name="ref")
    for address, taken in records:
        trace.site_indices.append(0)
        trace.addresses.append(address)
        trace.outcomes.append(taken)
        trace.gaps.append(10)
    return trace


def hints_for(pairs, scheme="static_95", program="demo"):
    hints = HintAssignment(program, scheme)
    for address, direction in pairs:
        hints.set(address, HintBits.static(direction))
    return hints


class TestCombinedPredictor:
    def test_static_branch_bypasses_dynamic(self):
        dynamic = BimodalPredictor(64)
        combined = CombinedPredictor(dynamic, hints_for([(0x1000, True)]))
        before = list(dynamic.table.values)
        for _ in range(10):
            predicted = combined.predict(0x1000)
            assert predicted is True
            combined.update(0x1000, False, predicted)
        # Dynamic predictor untouched: no lookups, no training.
        assert dynamic.table.values == before
        assert combined.static_lookups == 10
        assert combined.static_mispredictions == 10

    def test_dynamic_branch_flows_through(self):
        dynamic = BimodalPredictor(64)
        combined = CombinedPredictor(dynamic, hints_for([(0x1000, True)]))
        predicted = combined.predict(0x2000)
        combined.update(0x2000, True, predicted)
        index = (0x2000 >> 2) & 63
        assert dynamic.table.values[index] == 2  # trained toward taken

    def test_no_shift_policy_keeps_history(self):
        dynamic = GhistPredictor(64)
        combined = CombinedPredictor(
            dynamic, hints_for([(0x1000, True)]),
            shift_policy=ShiftPolicy.NO_SHIFT,
        )
        predicted = combined.predict(0x1000)
        combined.update(0x1000, True, predicted)
        assert dynamic.history.value == 0

    def test_shift_policy_updates_history(self):
        dynamic = GhistPredictor(64)
        combined = CombinedPredictor(
            dynamic, hints_for([(0x1000, True)]),
            shift_policy=ShiftPolicy.SHIFT,
        )
        predicted = combined.predict(0x1000)
        combined.update(0x1000, True, predicted)
        assert dynamic.history.value == 1

    def test_per_branch_policy_respects_hint_bit(self):
        dynamic = GhistPredictor(64)
        hints = HintAssignment("demo", "s")
        hints.set(0x1000, HintBits.static(True, shift_history=True))
        hints.set(0x2000, HintBits.static(True, shift_history=False))
        combined = CombinedPredictor(dynamic, hints,
                                     shift_policy=ShiftPolicy.PER_BRANCH)
        combined.predict(0x1000)
        combined.update(0x1000, True, True)
        assert dynamic.history.value == 1
        combined.predict(0x2000)
        combined.update(0x2000, True, True)
        assert dynamic.history.value == 1  # unchanged

    def test_accessed_empty_for_static(self):
        dynamic = BimodalPredictor(64)
        combined = CombinedPredictor(dynamic, hints_for([(0x1000, True)]))
        combined.predict(0x1000)
        assert combined.accessed() == []
        combined.predict(0x2000)
        assert combined.accessed() == dynamic.accessed()

    def test_update_ignores_stale_predict_state(self):
        # update() must resolve static-vs-dynamic from the updated
        # address, not from whichever branch predict() saw last:
        # interleaved predicts (wrong-path speculation, reordered
        # commits) otherwise misroute the update.
        dynamic = BimodalPredictor(64)
        combined = CombinedPredictor(dynamic, hints_for([(0x1000, True)]))
        before = list(dynamic.table.values)
        combined.predict(0x2000)     # dynamic branch predicted last...
        combined.update(0x1000, False, True)   # ...static branch updated
        # The static branch's update must not train the dynamic table.
        assert dynamic.table.values == before
        assert combined.static_mispredictions == 1
        combined.predict(0x1000)     # static branch predicted last...
        combined.update(0x2000, True, True)    # ...dynamic branch updated
        index = (0x2000 >> 2) & 63
        assert dynamic.table.values[index] != before[index]

    def test_update_without_predict_routes_by_hints(self):
        dynamic = BimodalPredictor(64)
        combined = CombinedPredictor(dynamic, hints_for([(0x1000, True)]))
        combined.update(0x1000, False, True)
        assert combined.static_mispredictions == 1
        combined.update(0x1000, True, True)
        assert combined.static_mispredictions == 1

    def test_size_is_dynamic_only(self):
        dynamic = BimodalPredictor(64)
        combined = CombinedPredictor(dynamic, hints_for([(0x1000, True)]))
        assert combined.size_bytes == dynamic.size_bytes

    def test_reset(self):
        dynamic = BimodalPredictor(64)
        combined = CombinedPredictor(dynamic, hints_for([(0x1000, True)]))
        combined.predict(0x1000)
        combined.update(0x1000, False, True)
        combined.reset()
        assert combined.static_lookups == 0
        assert combined.static_mispredictions == 0


class TestSimulate:
    def test_counts_exactly(self):
        # Deterministic check of the misprediction count: bimodal on an
        # all-taken branch starting weakly-not-taken mispredicts once.
        trace = make_trace([(0x1000, True)] * 10)
        result = simulate(trace, BimodalPredictor(64))
        assert result.mispredictions == 1
        assert result.branches == 10
        assert result.instructions == 100
        assert result.misp_per_ki == pytest.approx(10.0)
        assert result.accuracy == pytest.approx(0.9)

    def test_collision_tracking_attached(self):
        trace = make_trace([(0x1000, True), (0x1000 + 256 * 4, True)] * 20)
        result = simulate(trace, BimodalPredictor(256), track_collisions=True)
        assert result.collisions is not None
        assert result.collisions.collisions > 0

    def test_no_collision_tracking_by_default(self):
        trace = make_trace([(0x1000, True)] * 5)
        result = simulate(trace, BimodalPredictor(64))
        assert result.collisions is None

    def test_static_stats_populated(self):
        trace = make_trace([(0x1000, True), (0x2000, False)] * 10)
        combined = CombinedPredictor(
            BimodalPredictor(64), hints_for([(0x1000, True)])
        )
        result = simulate(trace, combined, scheme="static_95")
        assert result.static_branches == 10
        assert result.static_fraction == pytest.approx(0.5)
        assert result.static_mispredictions == 0
        assert result.static_accuracy == 1.0


class TestRunSelectionPhase:
    def test_none_scheme_empty(self):
        trace = make_trace([(0x1000, True)] * 10)
        hints = run_selection_phase(trace, "none")
        assert hints.static_count() == 0

    def test_static_95_selects(self):
        trace = make_trace([(0x1000, True)] * 50 + [(0x2000, True)] * 25
                           + [(0x2000, False)] * 25)
        hints = run_selection_phase(trace, "static_95")
        assert hints.static_addresses() == [0x1000]

    def test_static_acc_needs_factory(self):
        trace = make_trace([(0x1000, True)] * 10)
        with pytest.raises(SelectionError):
            run_selection_phase(trace, "static_acc")

    def test_static_acc_selects_hard_branches(self):
        # Alternating branch: bimodal accuracy ~0, bias 0.5 -> bias > acc
        # so it gets selected; the all-taken branch has acc ~ bias and
        # does not (bias .99 < acc 0.98? close -- use counts that decide).
        records = [(0x1000, i % 2 == 0) for i in range(100)]
        trace = make_trace(records)
        hints = run_selection_phase(
            trace, "static_acc", predictor_factory=lambda: BimodalPredictor(64)
        )
        assert 0x1000 in hints

    def test_static_fac_subset_of_acc(self):
        records = [(0x1000, i % 2 == 0) for i in range(100)]
        records += [(0x2000, True)] * 60 + [(0x2000, False)] * 40
        trace = make_trace(records)
        factory = lambda: BimodalPredictor(64)
        acc = run_selection_phase(trace, "static_acc", predictor_factory=factory)
        fac = run_selection_phase(trace, "static_fac", predictor_factory=factory,
                                  factor=1.5)
        assert set(fac.static_addresses()) <= set(acc.static_addresses())

    def test_unknown_scheme(self):
        trace = make_trace([(0x1000, True)])
        with pytest.raises(SelectionError):
            run_selection_phase(trace, "static_magic")

    @pytest.mark.parametrize("scheme", SELECTION_SCHEMES)
    def test_every_advertised_scheme_is_accepted(self, scheme):
        records = [(0x1000, True), (0x1000, False)] * 50
        records += [(0x2000, True)] * 60
        hints = run_selection_phase(
            make_trace(records), scheme,
            predictor_factory=lambda: BimodalPredictor(64),
        )
        assert isinstance(hints, HintAssignment)

    def test_static_iter_matches_experiment_context(self):
        ctx = ExperimentContext(trace_length=4000, site_scale=0.02, seed=3)
        trace = ctx.trace("gcc", "ref")
        hints = run_selection_phase(
            trace, "static_iter",
            predictor_factory=ctx.predictor_factory("gshare", 1024),
        )
        expected = ctx.hints("gcc", "static_iter", predictor_name="gshare",
                             size_bytes=1024)
        assert hints.static_count() > 0
        assert hints.scheme == expected.scheme
        assert hints.to_json() == expected.to_json()

    def test_static_iter_needs_factory(self):
        with pytest.raises(SelectionError, match="predictor_factory"):
            run_selection_phase(make_trace([(0x1000, True)]), "static_iter")

    def test_static_iter_stamps_shift_bit(self):
        ctx = ExperimentContext(trace_length=4000, site_scale=0.02, seed=3)
        hints = run_selection_phase(
            ctx.trace("gcc", "ref"), "static_iter",
            predictor_factory=ctx.predictor_factory("gshare", 1024),
            shift_history=True,
        )
        assert hints.static_count() > 0
        assert all(hint.shift_history for hint in hints.hints.values())

    def test_profile_override(self):
        from repro.profiling.profile import BranchProfile, ProgramProfile

        trace = make_trace([(0x1000, False)] * 20)
        override = ProgramProfile("demo", "ext", {
            0x2000: BranchProfile(100, 100),
        })
        hints = run_selection_phase(trace, "static_95", profile=override)
        assert hints.static_addresses() == [0x2000]


class TestRunCombined:
    def test_scheme_label_includes_shift(self):
        trace = make_trace([(0x1000, True)] * 10)
        hints = hints_for([(0x1000, True)])
        result = run_combined(trace, GhistPredictor(64), hints,
                              shift_policy=ShiftPolicy.SHIFT)
        assert result.scheme.endswith("+shift")

    def test_static_hints_help_on_hostile_branch(self):
        # A branch that alternates defeats bimodal; a static majority
        # hint caps its damage at ~50%.
        records = [(0x1000, i % 3 != 0) for i in range(300)]
        trace = make_trace(records)
        base = simulate(trace, BimodalPredictor(64))
        hints = hints_for([(0x1000, True)])
        combined = run_combined(trace, BimodalPredictor(64), hints)
        assert combined.mispredictions <= base.mispredictions


class TestMetrics:
    def test_misp_per_ki(self):
        result = SimulationResult(
            program_name="p", input_name="ref", predictor_name="x",
            scheme="none", size_bytes=1024, branches=100,
            instructions=10_000, mispredictions=25,
        )
        assert result.misp_per_ki == pytest.approx(2.5)
        assert result.cbrs_per_ki == pytest.approx(10.0)
        assert result.accuracy == pytest.approx(0.75)
        assert result.dynamic_branches == 100

    def test_improvement_sign(self):
        base = SimulationResult("p", "ref", "x", "none", 1024, 100, 10_000, 40)
        better = SimulationResult("p", "ref", "x", "s", 1024, 100, 10_000, 30)
        worse = SimulationResult("p", "ref", "x", "s", 1024, 100, 10_000, 50)
        assert improvement(base, better) == pytest.approx(0.25)
        assert improvement(base, worse) == pytest.approx(-0.25)

    def test_improvement_zero_base(self):
        # A 0-MISP baseline cannot be improved upon: degradation must
        # surface as -inf (a signed sentinel), never a neutral 0.0.
        base = SimulationResult("p", "ref", "x", "none", 1024, 100, 10_000, 0)
        other = SimulationResult("p", "ref", "x", "s", 1024, 100, 10_000, 5)
        assert improvement(base, other) == -math.inf
        same = SimulationResult("p", "ref", "x", "s", 1024, 100, 10_000, 0)
        assert improvement(base, same) == 0.0

    def test_accuracy_of_empty_run_is_perfect(self):
        # Zero branches means zero mispredictions: vacuous success, not
        # 0% accuracy (which call sites read as "predictor is broken").
        empty = SimulationResult("p", "ref", "x", "none", 1024, 0, 0, 0)
        assert empty.accuracy == 1.0
        assert empty.static_accuracy == 1.0

    def test_static_accuracy_with_no_static_branches(self):
        result = SimulationResult("p", "ref", "x", "static_95", 1024,
                                  100, 10_000, 10)
        assert result.static_branches == 0
        assert result.static_accuracy == 1.0

    def test_describe_mentions_key_fields(self):
        result = SimulationResult("gcc", "ref", "gshare", "static_95",
                                  8192, 100, 10_000, 10)
        text = result.describe()
        assert "gcc" in text and "gshare" in text and "MISP/KI" in text


class TestSweep:
    def test_run_configuration_none(self, gcc_trace):
        result = run_configuration(gcc_trace, gcc_trace, "gshare", 1024, "none")
        assert result.scheme == "none"
        assert result.branches == len(gcc_trace)

    def test_run_configuration_static(self, gcc_trace):
        result = run_configuration(
            gcc_trace, gcc_trace, "gshare", 1024, "static_95"
        )
        assert result.static_branches > 0

    def test_run_configuration_static_iter(self):
        ctx = ExperimentContext(trace_length=4000, site_scale=0.02, seed=3)
        trace = ctx.trace("gcc", "ref")
        result = run_configuration(trace, trace, "gshare", 1024,
                                   "static_iter")
        expected = ctx.run("gcc", "gshare", 1024, scheme="static_iter")
        assert result.static_branches > 0
        assert result.to_dict() == expected.to_dict()

    def test_size_sweep_shape(self, gcc_trace):
        results = size_sweep(
            gcc_trace, gcc_trace, "bimodal", sizes=(256, 1024),
            schemes=("none", "static_95"),
        )
        assert set(results) == {"none", "static_95"}
        assert len(results["none"]) == 2
        assert results["none"][0].size_bytes == 256
        assert results["none"][1].size_bytes == 1024

    def test_bigger_predictor_not_much_worse(self, gcc_trace):
        results = size_sweep(gcc_trace, gcc_trace, "gshare",
                             sizes=(512, 8192))
        small, large = results["none"]
        assert large.mispredictions <= small.mispredictions * 1.05
