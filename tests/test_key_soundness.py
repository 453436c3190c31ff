"""Runtime twin of the KEY001/ENV001 static proofs.

The lint layer proves *syntactically* that every result-influencing
input flows into the cache key; these tests prove it *operationally*:
perturbing any one Cell field or any keyed context knob must change the
result-cache key, and perturbing the audited ``_KEY_EXEMPT`` knobs must
not.  A key that failed the first family would alias two different
experiments to one cache entry (the destructive-aliasing failure mode
the cache exists to prevent); a key that failed the second would make
kernel mode an accidental experiment parameter.

The env-accessor tests pin the :mod:`repro.utils.env` seam semantics
the ``ENV_KNOBS`` contract relies on: empty string means unset, parse
failures raise the caller's error domain, and silent float truncation
is refused.
"""

from __future__ import annotations

import dataclasses
import json
import os

import pytest

from repro.arch.isa import ShiftPolicy
from repro.errors import ConfigurationError, ExperimentError
from repro.experiments.common import ENV_KNOBS, ExperimentContext
from repro.kernels import KERNEL_MODES
from repro.runner.cache import ResultCache
from repro.runner.cells import _KEY_EXEMPT, Cell
from repro.utils.env import env_float, env_int, env_str
from repro.utils.io import atomic_write_json, atomic_write_text

BASE_CTX = dict(trace_length=1000, site_scale=0.1, seed=1)

FIELD_PERTURBATIONS = {
    "program": "gcc",
    "predictor": "bimodal",
    "size_bytes": 2048,
    "scheme": "static_95",
    "shift_policy": ShiftPolicy.SHIFT,
    "measure_input": "train",
    "profile_input": "train",
    "cutoff": 0.90,
    "factor": 1.10,
    "track_collisions": True,
    "predictor_kwargs": (("history_length", 8),),
}


def base_cell() -> Cell:
    return Cell("compress", "gshare", 1024)


def key_of(cache: ResultCache, ctx: ExperimentContext) -> str:
    return cache.result_key(ctx, base_cell())


class TestCacheKeySoundness:
    def test_perturbation_table_covers_every_cell_field(self):
        assert set(FIELD_PERTURBATIONS) == {
            f.name for f in dataclasses.fields(Cell)
        }

    @pytest.mark.parametrize("field", sorted(FIELD_PERTURBATIONS))
    def test_each_cell_field_changes_the_key(self, tmp_path, field):
        cache = ResultCache(str(tmp_path))
        ctx = ExperimentContext(**BASE_CTX)
        cell = base_cell()
        mutated = dataclasses.replace(
            cell, **{field: FIELD_PERTURBATIONS[field]}
        )
        assert getattr(mutated, field) != getattr(cell, field)
        assert cache.result_key(ctx, mutated) != cache.result_key(ctx, cell)

    @pytest.mark.parametrize("knob,value", [
        ("seed", 2),
        ("trace_length", 2000),
        ("site_scale", 0.2),
    ])
    def test_each_keyed_context_knob_changes_the_key(self, tmp_path, knob, value):
        cache = ResultCache(str(tmp_path))
        base = key_of(cache, ExperimentContext(**BASE_CTX))
        mutated = key_of(
            cache, ExperimentContext(**{**BASE_CTX, knob: value})
        )
        assert mutated != base

    def test_exempt_knobs_leave_the_key_unchanged(self, tmp_path):
        # The operational proof behind each _KEY_EXEMPT entry: a cache
        # entry written under one kernel mode (or trace-store root) must
        # be readable under every other.
        cache = ResultCache(str(tmp_path))
        base = key_of(cache, ExperimentContext(**BASE_CTX))
        for kernel in KERNEL_MODES:
            assert key_of(
                cache, ExperimentContext(**BASE_CTX, kernel=kernel)
            ) == base
        assert key_of(
            cache, ExperimentContext(**BASE_CTX, trace_dir=str(tmp_path))
        ) == base

    def test_exempt_declarations_match_the_context(self):
        # Every exemption names a real ExperimentContext knob, so the
        # declaration cannot drift from the class it audits.
        ctx = ExperimentContext(**BASE_CTX)
        for name in _KEY_EXEMPT:
            assert hasattr(ctx, name)


class TestEnvKnobRegistry:
    def test_every_knob_declares_parser_default_and_description(self):
        for name, (parser, _default, description) in ENV_KNOBS.items():
            assert name.startswith("REPRO_")
            assert parser in ("str", "int", "float")
            assert description

    def test_registry_defaults_are_live(self, monkeypatch):
        # The context's env-driven defaults agree with the declared
        # contract (the runtime half of ENV001's default check).
        for knob in ("REPRO_TRACE_LENGTH", "REPRO_SEED", "REPRO_KERNEL"):
            monkeypatch.delenv(knob, raising=False)
        ctx = ExperimentContext(site_scale=0.1)
        assert ctx.trace_length == ENV_KNOBS["REPRO_TRACE_LENGTH"][1]
        assert ctx.seed == ENV_KNOBS["REPRO_SEED"][1]
        assert ctx.kernel == ENV_KNOBS["REPRO_KERNEL"][1]


class TestEnvAccessors:
    def test_unset_and_empty_mean_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_TEST_KNOB", raising=False)
        assert env_str("REPRO_TEST_KNOB", "fallback") == "fallback"
        monkeypatch.setenv("REPRO_TEST_KNOB", "")
        assert env_str("REPRO_TEST_KNOB", "fallback") == "fallback"
        assert env_int("REPRO_TEST_KNOB", 3) == 3
        assert env_float("REPRO_TEST_KNOB", 0.5) == 0.5

    def test_numeric_parsing(self, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_KNOB", "250")
        assert env_int("REPRO_TEST_KNOB", 1) == 250
        monkeypatch.setenv("REPRO_TEST_KNOB", "0.25")
        assert env_float("REPRO_TEST_KNOB", 1.0) == 0.25

    def test_non_numeric_raises_the_callers_domain(self, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_KNOB", "banana")
        with pytest.raises(ConfigurationError, match="must be numeric"):
            env_int("REPRO_TEST_KNOB", 1)
        with pytest.raises(ExperimentError, match="must be numeric"):
            env_float("REPRO_TEST_KNOB", 1.0, error=ExperimentError)

    def test_fractional_int_refuses_silent_truncation(self, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_KNOB", "2.5")
        with pytest.raises(ConfigurationError, match="would silently truncate"):
            env_int("REPRO_TEST_KNOB", 1)
        # A whole-valued float spelling is accepted exactly.
        monkeypatch.setenv("REPRO_TEST_KNOB", "2.0")
        assert env_int("REPRO_TEST_KNOB", 1) == 2


class TestAtomicWriteSeam:
    def test_atomic_write_text_commits_and_leaves_no_temp(self, tmp_path):
        path = tmp_path / "artifact.txt"
        atomic_write_text(str(path), "first")
        atomic_write_text(str(path), "second")
        assert path.read_text(encoding="utf-8") == "second"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["artifact.txt"]

    def test_atomic_write_json_is_canonical(self, tmp_path):
        path = tmp_path / "payload.json"
        atomic_write_json(str(path), {"b": 2, "a": 1})
        assert json.loads(path.read_text(encoding="utf-8")) == {"a": 1, "b": 2}
        # sort_keys=True by default: two writers of the same mapping
        # produce identical bytes.
        text = path.read_text(encoding="utf-8")
        assert text.index('"a"') < text.index('"b"')

    def test_failed_write_leaves_target_untouched(self, tmp_path):
        target = tmp_path / "missing-dir" / "artifact.txt"
        with pytest.raises(OSError):
            atomic_write_text(str(target), "payload")
        assert not target.exists()
        assert not os.path.exists(target.parent)
