"""Differential tests for the fast simulation kernels.

The contract of :mod:`repro.kernels` is bit-identity with the
reference ``predict``/``update`` loop: same misprediction count, same
collision counts, same final counter tables, same history register,
same ``_PREDICT_STATE`` (and, for a combined predictor, the same static
counters).  These tests enforce it differentially — every assertion
runs the same randomized trace through both paths and compares the
complete observable state, across the five kernel-backed predictor
families bare and under a :class:`CombinedPredictor` with every
:class:`ShiftPolicy`, cold and warm starts, and the degenerate trace
lengths and hint tables; the three scan families also with collision
tracking, which the two hybrid families decline.  The per-branch
profiling views (accuracy, collision involvement) and the per-event
replay under them are held to the same contract: ``kernel="auto"``
with the reference loop disabled equals ``kernel="reference"``.
"""

from __future__ import annotations

import numpy
import pytest

from repro.arch.isa import HintBits, ShiftPolicy
from repro.core.combined import CombinedPredictor
from repro.core.simulator import replay, simulate
from repro.errors import ConfigurationError
from repro.experiments.common import ExperimentContext
from repro.kernels import (
    KERNEL_MODES,
    has_fast_kernel,
    try_fast_replay,
    try_fast_simulate,
    validate_kernel_mode,
)
from repro.profiling.accuracy import measure_accuracy
from repro.profiling.collision_profile import measure_collision_involvement
from repro.predictors.bimodal import BimodalPredictor
from repro.predictors.bimode import BiModePredictor
from repro.predictors.collisions import CollisionCounts
from repro.predictors.ghist import GhistPredictor
from repro.predictors.gshare import GsharePredictor
from repro.predictors.gskew import TwoBcGskewPredictor
from repro.predictors.sizing import make_predictor
from repro.staticpred.hints import HintAssignment
from repro.utils.rng import derive_seed, rng_from_seed
from repro.workloads.trace import BranchTrace


def random_trace(seed: int, length: int, sites: int = 37) -> BranchTrace:
    """A word-aligned random trace over a small, aliasing-prone window."""
    rng = rng_from_seed(seed)
    trace = BranchTrace(program_name="diff", input_name="ref")
    for _ in range(length):
        site = rng.randrange(sites)
        trace.site_indices.append(site)
        trace.addresses.append(0x4000 + site * 4)
        trace.outcomes.append(rng.random() < 0.6)
        trace.gaps.append(3)
    return trace


HINT_KINDS = ("no-static", "all-static", "mixed")


def random_hints(seed: int, kind: str, sites: int = 37) -> HintAssignment:
    """Hints over :func:`random_trace`'s addresses.

    ``no-static`` hints nothing; ``all-static`` hints every site, so no
    event reaches the dynamic predictor; ``mixed`` hints a random subset
    with random directions and per-branch shift bits, marks a few sites
    explicitly dynamic, and adds addresses the trace never executes
    (below, inside and above its address window).
    """
    rng = rng_from_seed(seed)
    hints = HintAssignment("diff", kind)
    if kind == "no-static":
        return hints
    for site in range(sites):
        roll = rng.random()
        if kind == "all-static" or roll < 0.45:
            hints.set(0x4000 + site * 4, HintBits.static(
                rng.random() < 0.5, shift_history=rng.random() < 0.5))
        elif roll < 0.55:
            hints.set(0x4000 + site * 4, HintBits.dynamic())
    if kind == "mixed":
        for absent in (0x10, 0x4002, 0x4000 + (sites + 3) * 4, 0x9000):
            hints.set(absent, HintBits.static(True, shift_history=True))
    return hints


def warm_up(predictor, seed: int, length: int = 200) -> None:
    """Drive a predictor into a non-initial state via the reference loop."""
    simulate(random_trace(seed, length), predictor, kernel="reference")


TABLE_ATTRIBUTES = ("table", "choice", "direction_banks", "banks")
"""Where the kernel-backed families keep their counter tables."""


def observable_state(predictor) -> dict:
    """Everything the bit-identity contract covers, as plain data:
    every counter table, the history register, every ``_PREDICT_STATE``
    attribute (``_last_index``, bimode's last indices, bank and
    predictions, 2bcgskew's component predictions) and 2bcgskew's
    ``_idx``."""
    if isinstance(predictor, CombinedPredictor):
        return {
            **observable_state(predictor.dynamic),
            "static_lookups": predictor.static_lookups,
            "static_mispredictions": predictor.static_mispredictions,
            "last_was_static": predictor._last_was_static,
        }
    state = {}
    for name in TABLE_ATTRIBUTES:
        tables = getattr(predictor, name, None)
        if tables is not None:
            tables = tables if isinstance(tables, tuple) else (tables,)
            state[name] = [list(table.values) for table in tables]
    for name in predictor._PREDICT_STATE:
        state[name] = getattr(predictor, name)
    if isinstance(predictor, TwoBcGskewPredictor):
        state["_idx"] = list(predictor._idx)
    history = getattr(predictor, "history", None)
    if history is not None:
        state["history"] = history.value
    return state


def without_reference_loop(monkeypatch, run, *args, **kwargs):
    """``run(*args, kernel="auto", **kwargs)`` with the reference loop
    disabled, so a silent fallback fails the test instead of passing
    it."""
    def forbidden(*args):
        raise AssertionError("the reference loop ran; no fast path taken")

    with monkeypatch.context() as patch:
        patch.setattr("repro.core.simulator._reference_loop", forbidden)
        return run(*args, kernel="auto", **kwargs)


def fast_simulate(monkeypatch, trace, predictor, **kwargs):
    """``simulate(kernel="auto")`` with the reference loop disabled."""
    return without_reference_loop(monkeypatch, simulate, trace, predictor,
                                  **kwargs)


def assert_bit_identical(factory, trace, warm_seed=None):
    """Run ``trace`` through both paths; compare counts and final state."""
    reference = factory()
    fast = factory()
    if warm_seed is not None:
        warm_up(reference, warm_seed)
        warm_up(fast, warm_seed)
    result_ref = simulate(trace, reference, kernel="reference")
    mispredictions = try_fast_simulate(trace, fast)
    assert mispredictions is not None, "fast kernel unexpectedly missing"
    assert mispredictions == result_ref.mispredictions
    assert observable_state(fast) == observable_state(reference)


SCAN_FAMILIES = [
    pytest.param(lambda: BimodalPredictor(256), id="bimodal-256x2"),
    pytest.param(lambda: BimodalPredictor(64, counter_bits=1),
                 id="bimodal-64x1"),
    pytest.param(lambda: BimodalPredictor(16, counter_bits=5),
                 id="bimodal-16x5"),
    pytest.param(lambda: BimodalPredictor(32, counter_bits=12),
                 id="bimodal-32x12"),
    pytest.param(lambda: GsharePredictor(256), id="gshare-256"),
    pytest.param(lambda: GsharePredictor(256, history_length=16),
                 id="gshare-256-folded"),
    pytest.param(lambda: GsharePredictor(16, history_length=1),
                 id="gshare-16-h1"),
    pytest.param(lambda: GhistPredictor(128), id="ghist-128"),
    pytest.param(lambda: GhistPredictor(64, history_length=12),
                 id="ghist-64-folded"),
]

HYBRID_FAMILIES = [
    # History equal to the direction index width (the paper's choice),
    # folded history longer than it, a 1-bit register, and counter
    # widths either side of the paper's 2 bits.
    pytest.param(lambda: BiModePredictor(64, 32), id="bimode-64"),
    pytest.param(lambda: BiModePredictor(64, 64, history_length=10),
                 id="bimode-64-folded"),
    pytest.param(lambda: BiModePredictor(16, 8, history_length=1),
                 id="bimode-16-h1"),
    pytest.param(lambda: BiModePredictor(32, 16, counter_bits=1),
                 id="bimode-32x1"),
    pytest.param(lambda: BiModePredictor(32, 16, counter_bits=3),
                 id="bimode-32x3"),
    # Default bank histories, custom ones including empty histories,
    # the minimum 4-entry banks, and counter widths 1 and 3.
    pytest.param(lambda: TwoBcGskewPredictor(64), id="2bcgskew-64"),
    pytest.param(lambda: TwoBcGskewPredictor(64, g0_history=0,
                                             g1_history=6, meta_history=2),
                 id="2bcgskew-64-g0-0"),
    pytest.param(lambda: TwoBcGskewPredictor(256, g0_history=5,
                                             g1_history=0, meta_history=0),
                 id="2bcgskew-256-g1-0-meta-0"),
    pytest.param(lambda: TwoBcGskewPredictor(4), id="2bcgskew-4"),
    pytest.param(lambda: TwoBcGskewPredictor(16, counter_bits=1),
                 id="2bcgskew-16x1"),
    pytest.param(lambda: TwoBcGskewPredictor(16, counter_bits=3),
                 id="2bcgskew-16x3"),
]

HYBRIDS = (BiModePredictor, TwoBcGskewPredictor)
"""The families whose kernels decline collision-tracked runs."""

FAMILIES = SCAN_FAMILIES + HYBRID_FAMILIES

HYBRID_NAMES = ("bimode", "2bcgskew")

LENGTHS = [0, 1, 2, 3, 17, 500, 4096]


class TestBitIdentity:
    @pytest.mark.parametrize("factory", FAMILIES)
    @pytest.mark.parametrize("length", LENGTHS)
    def test_cold_start(self, factory, length):
        seed = derive_seed(1234, "kernels", length)
        assert_bit_identical(factory, random_trace(seed, length))

    @pytest.mark.parametrize("factory", FAMILIES)
    def test_warm_start(self, factory):
        seed = derive_seed(1234, "kernels", "warm")
        trace = random_trace(seed, 600)
        assert_bit_identical(factory, trace, warm_seed=seed + 1)

    def test_repeated_kernel_runs_chain_state(self):
        """Back-to-back fast runs match back-to-back reference runs."""
        seeds = [derive_seed(99, "chain", i) for i in range(3)]
        reference = GsharePredictor(128, history_length=9)
        fast = GsharePredictor(128, history_length=9)
        for seed in seeds:
            trace = random_trace(seed, 300)
            result = simulate(trace, reference, kernel="reference")
            assert try_fast_simulate(trace, fast) == result.mispredictions
        assert observable_state(fast) == observable_state(reference)

    @pytest.mark.parametrize("factory", HYBRID_FAMILIES)
    def test_repeated_hybrid_runs_chain_state(self, factory):
        """Back-to-back fast runs of a hybrid family match back-to-back
        reference runs, across chunk boundaries within each run."""
        reference, fast = factory(), factory()
        for seed in (derive_seed(99, "hybrid-chain", i) for i in range(3)):
            trace = random_trace(seed, 5000)
            result = simulate(trace, reference, kernel="reference")
            assert try_fast_simulate(trace, fast) == result.mispredictions
            assert observable_state(fast) == observable_state(reference)

    def test_simulate_fast_equals_reference_result(self, gcc_trace):
        for name in ("bimodal", "gshare", "ghist", "bimode", "2bcgskew"):
            fast = simulate(gcc_trace, make_predictor(name, 2048),
                            kernel="auto")
            reference = simulate(gcc_trace, make_predictor(name, 2048),
                                 kernel="reference")
            assert fast == reference


class TestTrackedBitIdentity:
    """Bare scan families with collision tracking: fast equals reference
    on the whole result record (collision counts included) and state."""

    @pytest.mark.parametrize("factory", SCAN_FAMILIES)
    @pytest.mark.parametrize("length", LENGTHS)
    @pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
    def test_tracked(self, factory, length, warm, monkeypatch):
        seed = derive_seed(1234, "tracked", length)
        trace = random_trace(seed, length)
        reference, fast = factory(), factory()
        if warm:
            warm_up(reference, seed + 1)
            warm_up(fast, seed + 1)
        expected = simulate(trace, reference, kernel="reference",
                            track_collisions=True)
        result = fast_simulate(monkeypatch, trace, fast,
                               track_collisions=True)
        assert result.to_dict() == expected.to_dict()
        assert observable_state(fast) == observable_state(reference)


class TestCombinedBitIdentity:
    """CombinedPredictor over every kernel family: fast equals reference
    under every shift policy, tracked or not, cold or warm, for every
    shape of hint table.  A tracked hybrid declines the kernel, so its
    tracked result must equal the reference by way of the loop."""

    @staticmethod
    def check(monkeypatch, factory, trace, hints, policy, track, warm_seed):
        reference = CombinedPredictor(factory(), hints, shift_policy=policy)
        fast = CombinedPredictor(factory(), hints, shift_policy=policy)
        if warm_seed is not None:
            warm_up(reference, warm_seed)
            warm_up(fast, warm_seed)
        expected = simulate(trace, reference, kernel="reference",
                            track_collisions=track)
        if track and isinstance(fast.dynamic, HYBRIDS):
            result = simulate(trace, fast, kernel="auto",
                              track_collisions=True)
        else:
            result = fast_simulate(monkeypatch, trace, fast,
                                   track_collisions=track)
        assert result.to_dict() == expected.to_dict()
        assert observable_state(fast) == observable_state(reference)
        return result

    @pytest.mark.parametrize("factory", FAMILIES)
    @pytest.mark.parametrize("policy", list(ShiftPolicy),
                             ids=[p.value for p in ShiftPolicy])
    @pytest.mark.parametrize("track", [False, True],
                             ids=["plain", "tracked"])
    @pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
    @pytest.mark.parametrize("kind", HINT_KINDS)
    def test_combined(self, factory, policy, track, warm, kind,
                      monkeypatch):
        seed = derive_seed(1234, "combined", kind)
        result = self.check(
            monkeypatch, factory, random_trace(seed, 600),
            random_hints(seed, kind), policy, track,
            seed + 1 if warm else None,
        )
        if warm:
            return  # the static counters include the warm-up run
        if kind == "all-static":
            assert result.static_branches == result.branches
        if kind == "no-static":
            assert result.static_branches == 0

    @pytest.mark.parametrize("policy", list(ShiftPolicy),
                             ids=[p.value for p in ShiftPolicy])
    @pytest.mark.parametrize("length", [0, 1, 2, 3, 17])
    def test_degenerate_lengths(self, policy, length, monkeypatch):
        seed = derive_seed(1234, "combined", length)
        for factory in (lambda: GsharePredictor(16, history_length=6),
                        lambda: GhistPredictor(16, history_length=6)):
            self.check(monkeypatch, factory, random_trace(seed, length),
                       random_hints(seed, "mixed"), policy, True, seed + 1)

    @pytest.mark.parametrize("policy", list(ShiftPolicy),
                             ids=[p.value for p in ShiftPolicy])
    @pytest.mark.parametrize("length", [0, 1, 2, 3, 17])
    def test_degenerate_lengths_hybrids(self, policy, length, monkeypatch):
        seed = derive_seed(1234, "combined", length)
        for factory in (lambda: BiModePredictor(16, 16, history_length=6),
                        lambda: TwoBcGskewPredictor(16)):
            self.check(monkeypatch, factory, random_trace(seed, length),
                       random_hints(seed, "mixed"), policy, False, seed + 1)

    @pytest.mark.parametrize("factory", HYBRID_FAMILIES)
    @pytest.mark.parametrize("policy", list(ShiftPolicy),
                             ids=[p.value for p in ShiftPolicy])
    def test_repeated_hybrid_runs_chain_state(self, factory, policy,
                                              monkeypatch):
        hints = random_hints(78, "mixed")
        reference = CombinedPredictor(factory(), hints, shift_policy=policy)
        fast = CombinedPredictor(factory(), hints, shift_policy=policy)
        for seed in (derive_seed(78, "chain", i) for i in range(3)):
            trace = random_trace(seed, 5000)
            expected = simulate(trace, reference, kernel="reference")
            assert fast_simulate(monkeypatch, trace, fast) == expected
            assert observable_state(fast) == observable_state(reference)

    def test_repeated_runs_chain_state(self, monkeypatch):
        """Back-to-back combined runs accumulate the static counters and
        carry the history exactly as the reference loop does."""
        hints = random_hints(77, "mixed")
        reference = CombinedPredictor(GsharePredictor(128), hints,
                                      shift_policy=ShiftPolicy.PER_BRANCH)
        fast = CombinedPredictor(GsharePredictor(128), hints,
                                 shift_policy=ShiftPolicy.PER_BRANCH)
        for seed in (derive_seed(77, "chain", i) for i in range(3)):
            trace = random_trace(seed, 300)
            expected = simulate(trace, reference, kernel="reference")
            assert fast_simulate(monkeypatch, trace, fast) == expected
        assert observable_state(fast) == observable_state(reference)

    @pytest.mark.parametrize("policy", list(ShiftPolicy),
                             ids=[p.value for p in ShiftPolicy])
    def test_gcc_static_acc_cells(self, gcc_trace, policy, monkeypatch):
        """The Figures 1-12 shape: a selected hint set on a real trace."""
        ctx = ExperimentContext(trace_length=4000, site_scale=0.02, seed=3)
        hints = ctx.hints("gcc", "static_acc", predictor_name="gshare",
                          size_bytes=1024)
        assert hints.static_count() > 0
        for name in ("bimodal", "gshare", "ghist", "bimode", "2bcgskew"):
            self.check(monkeypatch, lambda: make_predictor(name, 1024),
                       gcc_trace, hints, policy, name not in HYBRID_NAMES,
                       None)


def views_match(monkeypatch, view, factory, trace, warm_seed=None,
                plain=lambda profile: profile.to_json()):
    """``view(trace, predictor, kernel=...)`` under ``kernel="auto"``
    with the reference loop disabled against ``kernel="reference"``:
    the same profile (``plain`` must keep the mapping's order) and the
    same trained predictor state.  Returns the reference profile."""
    fast, reference = factory(), factory()
    if warm_seed is not None:
        warm_up(fast, warm_seed)
        warm_up(reference, warm_seed)
    got = without_reference_loop(monkeypatch, view, trace, fast)
    expected = view(trace, reference, kernel="reference")
    assert plain(got) == plain(expected)
    assert list(got.branches) == list(expected.branches)
    assert observable_state(fast) == observable_state(reference)
    return expected


class TestReplay:
    """The replay under every view: the kernel's per-event predictions
    (and, tracked, its collision pairs) equal the reference loop's."""

    @pytest.mark.parametrize("factory", FAMILIES)
    @pytest.mark.parametrize("length", LENGTHS)
    @pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
    def test_predictions_match(self, factory, length, warm, monkeypatch):
        seed = derive_seed(4321, "replay", length)
        trace = random_trace(seed, length)
        fast, reference = factory(), factory()
        if warm:
            warm_up(fast, seed + 1)
            warm_up(reference, seed + 1)
        got = without_reference_loop(monkeypatch, replay, trace, fast)
        expected = replay(trace, reference, kernel="reference")
        assert got.predictions.tolist() == expected.predictions.tolist()
        assert got.outcomes.tolist() == expected.outcomes.tolist()
        assert got.mispredictions == expected.mispredictions
        assert observable_state(fast) == observable_state(reference)

    @pytest.mark.parametrize("factory", SCAN_FAMILIES)
    @pytest.mark.parametrize("length", LENGTHS)
    @pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
    def test_tracked_collisions_match(self, factory, length, warm,
                                      monkeypatch):
        seed = derive_seed(4321, "tracked-replay", length)
        trace = random_trace(seed, length)
        fast, reference = factory(), factory()
        if warm:
            warm_up(fast, seed + 1)
            warm_up(reference, seed + 1)
        got = without_reference_loop(monkeypatch, replay, trace, fast,
                                     track_collisions=True)
        expected = replay(trace, reference, kernel="reference",
                          track_collisions=True)
        assert got.predictions.tolist() == expected.predictions.tolist()

        def pairs(result):
            return sorted(zip(*(column.tolist()
                                for column in result.collisions)))

        # The scan reports collisions in counter order, the tracker in
        # trace order; a single-table lookup has one aggressor at most.
        assert pairs(got) == pairs(expected)
        assert observable_state(fast) == observable_state(reference)


class TestAccuracyBitIdentity:
    """measure_accuracy on a kernel's replay against the reference loop."""

    @pytest.mark.parametrize("factory", FAMILIES)
    @pytest.mark.parametrize("length", LENGTHS)
    def test_accuracy_profiles_match(self, factory, length, monkeypatch):
        # Identical per-branch counts AND first-occurrence insertion
        # order (to_json serializes the mapping order), plus the same
        # trained predictor state.
        seed = derive_seed(4321, "accuracy", length)
        views_match(monkeypatch, measure_accuracy, factory,
                    random_trace(seed, length))

    @pytest.mark.parametrize("factory", FAMILIES)
    @pytest.mark.parametrize("length", LENGTHS)
    def test_warm_accuracy_profiles_match(self, factory, length,
                                          monkeypatch):
        seed = derive_seed(4321, "accuracy-warm", length)
        views_match(monkeypatch, measure_accuracy, factory,
                    random_trace(seed, length), warm_seed=seed + 1)

    @pytest.mark.parametrize("factory", FAMILIES)
    def test_predictions_agree_with_simulate_counts(self, factory):
        seed = derive_seed(4321, "accuracy", "counts")
        trace = random_trace(seed, 700)
        result = try_fast_replay(trace, factory())
        assert result is not None
        _, outcomes = trace.arrays()
        mispredicted = int(numpy.count_nonzero(result.predictions != outcomes))
        reference = simulate(trace, factory(), kernel="reference")
        assert mispredicted == result.mispredictions \
            == reference.mispredictions

    def test_kernel_less_predictor_falls_back_to_the_loop(self):
        predictor = make_predictor("yags", 4096)
        assert try_fast_replay(random_trace(7, 50), predictor) is None
        trace = random_trace(8, 400)
        fast = measure_accuracy(trace, make_predictor("yags", 4096))
        reference = measure_accuracy(trace, make_predictor("yags", 4096),
                                     kernel="reference")
        assert fast.to_json() == reference.to_json()

    def test_gcc_hybrid_profiles_match(self, gcc_trace, monkeypatch):
        for name in HYBRID_NAMES:
            views_match(monkeypatch, measure_accuracy,
                        lambda: make_predictor(name, 1024), gcc_trace)


class TestDispatch:
    def test_kernel_modes_validate(self):
        assert KERNEL_MODES == ("auto", "reference")
        for mode in KERNEL_MODES:
            assert validate_kernel_mode(mode) == mode
        for retired in ("vectorized", "fast"):
            with pytest.raises(ConfigurationError):
                validate_kernel_mode(retired)

    def test_unknown_mode_rejected_by_simulate(self):
        with pytest.raises(ConfigurationError):
            simulate(random_trace(5, 10), BimodalPredictor(64),
                     kernel="turbo")

    def test_unsupported_predictor_falls_back(self):
        trace = random_trace(7, 400)
        predictor = make_predictor("yags", 2048)
        assert not has_fast_kernel(predictor)
        assert try_fast_simulate(trace, predictor) is None
        # kernel="auto" runs it on the reference loop.
        fast = simulate(trace, make_predictor("yags", 2048),
                        kernel="auto")
        reference = simulate(trace, make_predictor("yags", 2048),
                             kernel="reference")
        assert fast == reference

    def test_limits_fall_back_to_reference(self):
        trace = random_trace(11, 50)
        wide = BimodalPredictor(16, counter_bits=17)  # beyond MAX_COUNTER_BITS
        assert try_fast_simulate(trace, wide) is None
        result = simulate(trace, wide, kernel="auto")
        assert result.branches == 50

    def test_collision_tracking_takes_the_fast_path(self, monkeypatch):
        """Tracked runs replay on the kernels, with the tag tracker's
        exact counts, and tracking never changes the mispredictions."""
        trace = random_trace(13, 1200)
        tracked = fast_simulate(monkeypatch, trace, GsharePredictor(128),
                                track_collisions=True)
        reference = simulate(trace, GsharePredictor(128),
                             kernel="reference", track_collisions=True)
        plain = simulate(trace, GsharePredictor(128), kernel="auto")
        assert tracked.to_dict() == reference.to_dict()
        assert tracked.collisions.collisions > 0
        assert tracked.mispredictions == plain.mispredictions
        assert plain.collisions is None

    def test_combined_kernel_less_family_falls_back(self):
        trace = random_trace(14, 400)
        hints = random_hints(14, "mixed")

        def combined():
            return CombinedPredictor(make_predictor("tournament", 2048),
                                     hints)

        predictor = combined()
        assert not has_fast_kernel(predictor)
        counts = CollisionCounts()
        assert try_fast_simulate(trace, predictor, collisions=counts) is None
        assert counts == CollisionCounts()
        fast = simulate(trace, combined(), kernel="auto",
                        track_collisions=True)
        reference = simulate(trace, combined(), kernel="reference",
                             track_collisions=True)
        assert fast.to_dict() == reference.to_dict()

    @pytest.mark.parametrize("factory", HYBRID_FAMILIES)
    @pytest.mark.parametrize("policy", [None, *ShiftPolicy],
                             ids=["bare", *(p.value for p in ShiftPolicy)])
    def test_tracked_hybrid_declines(self, factory, policy):
        """A hybrid kernel declines a tracked run before touching any
        state; simulate then tracks on the reference loop."""
        trace = random_trace(16, 400)
        hints = random_hints(16, "mixed")

        def build():
            if policy is None:
                return factory()
            return CombinedPredictor(factory(), hints, shift_policy=policy)

        predictor = build()
        assert has_fast_kernel(predictor)
        counts = CollisionCounts()
        assert try_fast_simulate(trace, predictor, collisions=counts) is None
        assert counts == CollisionCounts()
        assert observable_state(predictor) == observable_state(build())
        if policy is None:
            assert try_fast_replay(trace, predictor,
                                   track_collisions=True) is None
            assert observable_state(predictor) == observable_state(build())
        fast = simulate(trace, predictor, kernel="auto",
                        track_collisions=True)
        reference = simulate(trace, build(), kernel="reference",
                             track_collisions=True)
        assert fast.to_dict() == reference.to_dict()
        assert fast.collisions.lookups > 0

    def test_combined_subclass_falls_back(self):
        class Custom(CombinedPredictor):
            pass

        predictor = Custom(GsharePredictor(64), random_hints(15, "mixed"))
        assert not has_fast_kernel(predictor)
        assert try_fast_simulate(random_trace(15, 50), predictor) is None


class TestExperimentContext:
    def test_cells_identical_under_fast_and_reference(self):
        """The figure-1 style flow is kernel-invariant end to end."""
        results = {}
        for kernel in KERNEL_MODES:
            ctx = ExperimentContext(trace_length=4000, site_scale=0.02,
                                    seed=3, kernel=kernel)
            results[kernel] = [
                ctx.run("gcc", "gshare", 1024),
                ctx.run("gcc", "bimodal", 1024, scheme="static_95"),
            ]
        assert results["auto"] == results["reference"]

    def test_kernel_knob_pickles(self):
        import pickle

        ctx = ExperimentContext(trace_length=1000, site_scale=0.02,
                                seed=3, kernel="reference")
        clone = pickle.loads(pickle.dumps(ctx))
        assert clone.kernel == "reference"
        assert (clone.trace_length, clone.site_scale, clone.seed) \
            == (ctx.trace_length, ctx.site_scale, ctx.seed)

    def test_invalid_kernel_rejected(self):
        with pytest.raises(ConfigurationError):
            ExperimentContext(trace_length=1000, kernel="warp")

    def test_reference_context_selects_on_the_reference_loop(
            self, monkeypatch):
        """``kernel="reference"`` reaches phase one: with every kernel
        replay disabled, the accuracy and collision views behind a
        ``static_acc`` and a ``static_collision`` cell still run, on the
        reference loop, and the cells equal their ``auto`` results."""
        from repro.kernels import _KERNELS
        from repro.runner.cells import Cell, execute_cell

        cells = [Cell.make("gcc", "gshare", 1024, scheme=scheme)
                 for scheme in ("static_acc", "static_collision")]
        knobs = dict(trace_length=3000, site_scale=0.02, seed=5)
        auto = ExperimentContext(kernel="auto", **knobs)
        expected = [execute_cell(auto, cell).to_dict() for cell in cells]

        def forbidden(*args):
            raise AssertionError("a kernel replay ran under kernel='reference'")

        for family in list(_KERNELS):
            monkeypatch.setitem(_KERNELS, family, forbidden)
        reference = ExperimentContext(kernel="reference", **knobs)
        assert [execute_cell(reference, cell).to_dict()
                for cell in cells] == expected


class TestCollisionVectorization:
    """measure_collision_involvement on the scan's collision pairs
    against the reference loop's tag tracker — same per-branch charges
    AND the same dict insertion order (selection schemes iterate
    profiles in order)."""

    FAMILIES = [
        lambda: BimodalPredictor(64),
        lambda: GsharePredictor(64, history_length=5),
        lambda: GhistPredictor(64, history_length=6),
    ]

    @staticmethod
    def as_plain(profile):
        return [
            (addr, rec.executions, rec.destructive, rec.constructive)
            for addr, rec in profile.branches.items()
        ]

    def check(self, monkeypatch, factory, trace, warm_seed=None):
        expected = views_match(monkeypatch, measure_collision_involvement,
                               factory, trace, warm_seed, self.as_plain)
        assert (expected.program_name, expected.input_name) \
            == (trace.program_name, trace.input_name)
        return expected

    @pytest.mark.parametrize("factory", FAMILIES)
    @pytest.mark.parametrize("length", [0, 1, 2, 500, 3000])
    def test_fast_matches_scalar(self, factory, length, monkeypatch):
        trace = random_trace(derive_seed(99, "collisions", length), length)
        self.check(monkeypatch, factory, trace)

    @pytest.mark.parametrize("factory", SCAN_FAMILIES)
    @pytest.mark.parametrize("length", LENGTHS)
    @pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
    def test_scan_families_match(self, factory, length, warm, monkeypatch):
        seed = derive_seed(99, "collisions-scan", length)
        self.check(monkeypatch, factory, random_trace(seed, length),
                   seed + 1 if warm else None)

    @pytest.mark.parametrize("factory", FAMILIES)
    def test_fast_path_is_taken(self, factory):
        trace = random_trace(derive_seed(99, "collisions", "taken"), 400)
        result = try_fast_replay(trace, factory(), track_collisions=True)
        assert result is not None and result.collisions is not None

    def test_kernel_less_predictor_falls_back(self):
        # yags has no kernel; 2bcgskew's kernel declines to track.
        trace = random_trace(derive_seed(99, "collisions", "fallback"), 300)
        for name in ("yags", "2bcgskew"):
            predictor = make_predictor(name, 2048)
            assert try_fast_replay(trace, predictor,
                                   track_collisions=True) is None
            profile = measure_collision_involvement(trace, predictor)
            reference = measure_collision_involvement(
                trace, make_predictor(name, 2048), kernel="reference")
            assert self.as_plain(profile) == self.as_plain(reference)
            assert profile.total_destructive > 0

    def test_out_of_limits_predictor_falls_back(self):
        # Counter widths past the kernels' int32 headroom guard must
        # fall back to the reference loop, not crash or diverge.
        trace = random_trace(derive_seed(99, "collisions", "large"), 100)
        wide = lambda: BimodalPredictor(64, counter_bits=17)  # noqa: E731
        assert try_fast_replay(trace, wide(), track_collisions=True) is None
        profile = measure_collision_involvement(trace, wide())
        reference = measure_collision_involvement(trace, wide(),
                                                  kernel="reference")
        assert self.as_plain(profile) == self.as_plain(reference)

    def test_gcc_trace_end_to_end(self, gcc_trace, monkeypatch):
        expected = self.check(monkeypatch, lambda: GsharePredictor(256),
                              gcc_trace)
        assert expected.total_destructive > 0

    @pytest.mark.parametrize("kernel", KERNEL_MODES)
    def test_charging_rule_by_hand(self, kernel):
        """A collision charges its victim AND its aggressor, once each,
        destructive when the victim was mispredicted.

        A 4-entry bimodal table starts weakly not-taken (1 of 0..3).
        A and B share counter 0; C has counter 1 to itself.
          A taken:     counter 1 -> predict not-taken (miss), no tag yet
          B taken:     counter 2 -> taken (hit), tag A: constructive
          A not-taken: counter 3 -> taken (miss), tag B: destructive
          C not-taken: counter 1 -> not-taken (hit), no tag yet
        """
        a, b, c = 0x1000, 0x1000 + 4 * 4, 0x1004
        trace = BranchTrace(program_name="hand", input_name="ref")
        for address, taken in ((a, True), (b, True), (a, False),
                               (c, False)):
            trace.site_indices.append(0)
            trace.addresses.append(address)
            trace.outcomes.append(taken)
            trace.gaps.append(1)
        profile = measure_collision_involvement(
            trace, BimodalPredictor(4), kernel=kernel)
        # (address, executions, destructive, constructive), in order of
        # first execution.
        assert self.as_plain(profile) == [
            (a, 2, 1, 1),
            (b, 1, 1, 1),
            (c, 1, 0, 0),
        ]
