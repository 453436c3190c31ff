"""Tests for the provenance rule family (KEY/ENV/ATM, analysis layer 5).

Each fixture tree is a miniature of the real package layout -- the
``runner/cells.py`` / ``runner/cache.py`` / ``experiments/common.py``
anchors plus the ``utils/env.py`` / ``utils/io.py`` seams -- so the
path-suffix anchoring, import resolution, and class lookup all exercise
the same machinery they use on ``src/repro``.  The seeded-bug cases
(a knob dropped from the key, a bare write-mode ``open`` in a store, an
inline ``os.environ`` read) are the ISSUE's acceptance fixtures: each
must be caught by its rule.
"""

from __future__ import annotations

import textwrap
from pathlib import Path

import pytest

from repro.lint import run_lint
from repro.lint.rules import select_rules

SRC_REPRO = Path(__file__).resolve().parent.parent / "src" / "repro"


def write_tree(tmp_path: Path, files: dict[str, str]) -> Path:
    root = tmp_path / "tree"
    for rel, source in files.items():
        target = root / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(textwrap.dedent(source), encoding="utf-8")
    return root


BASE_FILES = {
    "pkg/utils/env.py": """
        import os

        def env_str(name, default=None):
            return os.environ.get(name) or default

        def env_int(name, default=None):
            raw = os.environ.get(name) or None
            return default if raw is None else int(raw)

        def env_float(name, default=None):
            raw = os.environ.get(name) or None
            return default if raw is None else float(raw)
    """,
    "pkg/utils/io.py": """
        import os
        import tempfile

        def atomic_write_text(path, text):
            fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path) or ".")
            with os.fdopen(fd, "w") as stream:
                stream.write(text)
            os.replace(tmp, path)
    """,
    "pkg/experiments/common.py": """
        from pkg.utils.env import env_float, env_int, env_str

        ENV_KNOBS = {
            "REPRO_SEED": ("int", 42, "root seed"),
            "REPRO_SCALE": ("float", 1.0, "site scale"),
            "REPRO_KERNEL": ("str", "auto", "kernel mode"),
        }

        def default_seed():
            return env_int("REPRO_SEED", 42)

        def default_scale():
            return env_float("REPRO_SCALE", 1.0)

        def default_kernel():
            return env_str("REPRO_KERNEL", "auto")

        class ExperimentContext:
            def __init__(self, seed=None, scale=None, kernel=None):
                self.seed = default_seed() if seed is None else seed
                self.scale = default_scale() if scale is None else scale
                self.kernel = default_kernel() if kernel is None else kernel

            def run(self, program):
                if self.kernel == "fast":
                    return self.seed * 31
                return self.seed * 31 + int(self.scale * 8)
    """,
    "pkg/runner/cells.py": """
        from pkg.experiments.common import ExperimentContext

        _KEY_EXEMPT = {
            "kernel": "kernels are bit-identical by contract",
        }

        class Cell:
            program: str
            size: int
            cutoff: float

            def key_fields(self, ctx: ExperimentContext):
                return {
                    "seed": ctx.seed,
                    "scale": ctx.scale,
                    "program": self.program,
                    "size": self.size,
                    "cutoff": self._extra(),
                }

            def _extra(self):
                return self.cutoff

        def execute_cell(ctx: ExperimentContext, cell: Cell):
            return ctx.run(cell.program) + cell.size + cell.cutoff
    """,
    "pkg/runner/cache.py": """
        import hashlib
        import json
        import os

        from pkg.utils.io import atomic_write_text

        def _canonical_key(kind, fields):
            payload = {"kind": kind}
            payload.update(fields)
            text = json.dumps(payload, sort_keys=True)
            return hashlib.sha256(text.encode("utf-8")).hexdigest()

        class ResultStore:
            def __init__(self, root):
                self.root = root

            def put(self, key, text):
                os.makedirs(self.root, exist_ok=True)
                atomic_write_text(os.path.join(self.root, key), text)
    """,
    "pkg/traces/spec.py": """
        class TraceSpec:
            name: str
            length: int
            seed: int
            pinned_digest: str

            def identity(self):
                return {"name": self.name, "length": self.length,
                        "seed": self.seed}
    """,
}


def base_tree(tmp_path: Path, **overrides: str) -> Path:
    files = dict(BASE_FILES)
    files.update(overrides)
    return write_tree(tmp_path, files)


def lint_select(root: Path, *selectors: str):
    return run_lint([root], select_rules(list(selectors)))


# ---------------------------------------------------------------------------
# KEY001: cache-key completeness


class TestKey001:
    def test_clean_tree_is_quiet(self, tmp_path):
        assert lint_select(base_tree(tmp_path), "KEY", "ENV", "ATM") == []

    @pytest.mark.parametrize("entry,name", [
        ('"seed": ctx.seed,', "seed"),
        ('"scale": ctx.scale,', "scale"),
        ('"program": self.program,', "program"),
        ('"size": self.size,', "size"),
        ('"cutoff": self._extra(),', "cutoff"),
    ])
    def test_dropping_any_key_entry_fires(self, tmp_path, entry, name):
        # The ISSUE's acceptance property: removing any single Cell
        # field or influencing knob from the key function fires KEY001.
        source = BASE_FILES["pkg/runner/cells.py"].replace(entry, "")
        assert entry not in source
        root = base_tree(tmp_path, **{"pkg/runner/cells.py": source})
        findings = lint_select(root, "KEY001")
        assert [f.rule for f in findings] == ["KEY001"]
        assert f"{name!r}" in findings[0].message

    def test_exempt_unkeyed_field_is_quiet(self, tmp_path):
        source = BASE_FILES["pkg/runner/cells.py"].replace(
            '"size": self.size,', ""
        ).replace(
            '"kernel": "kernels are bit-identical by contract",',
            '"kernel": "kernels are bit-identical by contract",\n'
            '            "size": "fixture: size is claimed result-neutral",',
        )
        root = base_tree(tmp_path, **{"pkg/runner/cells.py": source})
        assert lint_select(root, "KEY001") == []

    def test_stale_exemption_fires(self, tmp_path):
        source = BASE_FILES["pkg/runner/cells.py"].replace(
            '"kernel": "kernels are bit-identical by contract",',
            '"kernel": "kernels are bit-identical by contract",\n'
            '            "seed": "stale: seed is in the key",',
        )
        root = base_tree(tmp_path, **{"pkg/runner/cells.py": source})
        findings = lint_select(root, "KEY001")
        assert len(findings) == 1
        assert "stale exemption" in findings[0].message

    def test_unknown_exemption_fires(self, tmp_path):
        source = BASE_FILES["pkg/runner/cells.py"].replace(
            '"kernel": "kernels are bit-identical by contract",',
            '"kernel": "kernels are bit-identical by contract",\n'
            '            "ghost": "no such knob exists",',
        )
        root = base_tree(tmp_path, **{"pkg/runner/cells.py": source})
        findings = lint_select(root, "KEY001")
        assert len(findings) == 1
        assert "unknown name 'ghost'" in findings[0].message

    def test_uninfluential_knob_needs_no_key_or_exemption(self, tmp_path):
        # A knob assigned in __init__ but never read by anything
        # reachable from execute_cell cannot change results; KEY001 must
        # not demand it be keyed.
        source = BASE_FILES["pkg/experiments/common.py"].replace(
            "self.kernel = default_kernel() if kernel is None else kernel",
            "self.kernel = default_kernel() if kernel is None else kernel\n"
            "                self.notes = \"\"",
        )
        root = base_tree(tmp_path, **{"pkg/experiments/common.py": source})
        assert lint_select(root, "KEY001") == []

    def test_missing_exemption_for_influencing_knob_fires(self, tmp_path):
        source = BASE_FILES["pkg/runner/cells.py"].replace(
            '    "kernel": "kernels are bit-identical by contract",\n', ""
        )
        root = base_tree(tmp_path, **{"pkg/runner/cells.py": source})
        findings = lint_select(root, "KEY001")
        assert len(findings) == 1
        assert "'kernel'" in findings[0].message
        # The message names the execution-region reader, for triage.
        assert "ExperimentContext.run" in findings[0].message

    def test_spec_identity_dropping_a_field_fires(self, tmp_path):
        source = BASE_FILES["pkg/traces/spec.py"].replace(
            '\n                        "seed": self.seed', ""
        )
        assert "self.seed" not in source
        root = base_tree(tmp_path, **{"pkg/traces/spec.py": source})
        findings = lint_select(root, "KEY001")
        assert len(findings) == 1
        assert "TraceSpec field 'seed'" in findings[0].message

    def test_spec_pinned_digest_is_exempt_by_design(self, tmp_path):
        # pinned_digest is an expectation about the artifact, not part
        # of the recipe; the base tree leaves it out of identity() and
        # stays quiet.
        assert lint_select(base_tree(tmp_path), "KEY001") == []


# ---------------------------------------------------------------------------
# KEY002: canonical serialization


class TestKey002:
    def test_hasher_without_sort_keys_fires(self, tmp_path):
        source = BASE_FILES["pkg/runner/cache.py"].replace(
            "json.dumps(payload, sort_keys=True)", "json.dumps(payload)"
        )
        root = base_tree(tmp_path, **{"pkg/runner/cache.py": source})
        findings = lint_select(root, "KEY002")
        assert len(findings) == 1
        assert "sort_keys=True" in findings[0].message

    def test_set_in_key_builder_fires_and_sorted_set_is_quiet(self, tmp_path):
        source = BASE_FILES["pkg/runner/cells.py"].replace(
            '"program": self.program,',
            '"program": sorted(set(self.program)),\n'
            '            "tags": set(self.program),',
        )
        root = base_tree(tmp_path, **{"pkg/runner/cells.py": source})
        findings = lint_select(root, "KEY002")
        assert len(findings) == 1  # the bare set(); not the sorted one
        assert "set()" in findings[0].message

    def test_repr_in_key_builder_fires(self, tmp_path):
        source = BASE_FILES["pkg/runner/cells.py"].replace(
            '"cutoff": self._extra(),', '"cutoff": repr(self._extra()),'
        )
        root = base_tree(tmp_path, **{"pkg/runner/cells.py": source})
        findings = lint_select(root, "KEY002")
        assert len(findings) == 1
        assert "repr()" in findings[0].message

    def test_host_dependent_value_in_key_builder_fires(self, tmp_path):
        source = BASE_FILES["pkg/runner/cells.py"].replace(
            "from pkg.experiments.common import ExperimentContext",
            "import os\n\n"
            "        from pkg.experiments.common import ExperimentContext",
        ).replace(
            '"program": self.program,',
            '"program": self.program,\n'
            '                    "root": os.getcwd(),',
        )
        root = base_tree(tmp_path, **{"pkg/runner/cells.py": source})
        findings = lint_select(root, "KEY002")
        assert len(findings) == 1
        assert "os.getcwd" in findings[0].message


# ---------------------------------------------------------------------------
# ENV001: the env-knob contract


class TestEnv001:
    def test_inline_environ_read_fires(self, tmp_path):
        # Seeded bug (c) of the ISSUE: an inline os.environ.get.
        source = BASE_FILES["pkg/runner/cells.py"].replace(
            "from pkg.experiments.common import ExperimentContext",
            "import os\n\n"
            "        from pkg.experiments.common import ExperimentContext",
        ).replace(
            "return ctx.run(cell.program) + cell.size + cell.cutoff",
            "limit = int(os.environ.get(\"REPRO_LIMIT\", \"1\"))\n"
            "            return ctx.run(cell.program) + cell.size + limit",
        )
        root = base_tree(tmp_path, **{"pkg/runner/cells.py": source})
        findings = lint_select(root, "ENV001")
        assert len(findings) == 1
        assert "inline os.environ read" in findings[0].message

    def test_seam_module_may_read_environ(self, tmp_path):
        # utils/env.py is full of os.environ reads; the base tree is
        # quiet because the seam is exempt.
        assert lint_select(base_tree(tmp_path), "ENV001") == []

    def test_undeclared_knob_fires(self, tmp_path):
        source = BASE_FILES["pkg/experiments/common.py"].replace(
            'return env_int("REPRO_SEED", 42)',
            'return env_int("REPRO_UNDECLARED", 42)',
        )
        root = base_tree(tmp_path, **{"pkg/experiments/common.py": source})
        findings = lint_select(root, "ENV001")
        assert any("undeclared env knob 'REPRO_UNDECLARED'" in f.message
                   for f in findings)

    def test_parser_kind_mismatch_fires(self, tmp_path):
        source = BASE_FILES["pkg/experiments/common.py"].replace(
            'return env_float("REPRO_SCALE", 1.0)',
            'return env_int("REPRO_SCALE", 1.0)',
        )
        root = base_tree(tmp_path, **{"pkg/experiments/common.py": source})
        findings = lint_select(root, "ENV001")
        assert len(findings) == 1
        assert "declared with parser 'float' but read as 'int'" in findings[0].message

    def test_default_disagreement_fires(self, tmp_path):
        source = BASE_FILES["pkg/experiments/common.py"].replace(
            'return env_int("REPRO_SEED", 42)',
            'return env_int("REPRO_SEED", 7)',
        )
        root = base_tree(tmp_path, **{"pkg/experiments/common.py": source})
        findings = lint_select(root, "ENV001")
        assert len(findings) == 1
        assert "default 42 but read with default 7" in findings[0].message

    def test_stale_declaration_fires_with_outside_consumers(self, tmp_path):
        # The stale check arms only when the linted set has accessor
        # calls outside the anchor module (a partial-scope lint of the
        # registry alone must not call the whole registry stale).
        common = BASE_FILES["pkg/experiments/common.py"].replace(
            '"REPRO_KERNEL": ("str", "auto", "kernel mode"),',
            '"REPRO_KERNEL": ("str", "auto", "kernel mode"),\n'
            '            "REPRO_NEVER_READ": ("int", 9, "stale declaration"),',
        )
        consumer = """
            from pkg.utils.env import env_str

            def suite_name():
                return env_str("REPRO_KERNEL", "auto")
        """
        root = base_tree(tmp_path, **{
            "pkg/experiments/common.py": common,
            "pkg/runner/api.py": consumer,
        })
        findings = lint_select(root, "ENV001")
        assert len(findings) == 1
        assert "'REPRO_NEVER_READ'" in findings[0].message
        assert "stale" in findings[0].message

    def test_knob_name_via_module_constant_resolves(self, tmp_path):
        # The real api.py reads ENV_CACHE_DIR imported from cache.py;
        # the resolver must follow the import instead of flagging an
        # unresolvable name.
        cache = BASE_FILES["pkg/runner/cache.py"] + (
            '\n        ENV_KERNEL = "REPRO_KERNEL"\n'
        )
        consumer = """
            from pkg.runner.cache import ENV_KERNEL
            from pkg.utils.env import env_str

            def kernel_mode():
                return env_str(ENV_KERNEL, "auto")
        """
        root = base_tree(tmp_path, **{
            "pkg/runner/cache.py": cache,
            "pkg/runner/api.py": consumer,
        })
        assert lint_select(root, "ENV001") == []


# ---------------------------------------------------------------------------
# ATM001/ATM002: atomic-write discipline


class TestAtmRules:
    def test_bare_write_open_in_store_fires(self, tmp_path):
        # Seeded bug (b) of the ISSUE: a bare open(..., "w") in a store.
        source = BASE_FILES["pkg/runner/cache.py"].replace(
            "atomic_write_text(os.path.join(self.root, key), text)",
            'with open(os.path.join(self.root, key), "w") as stream:\n'
            "                    stream.write(text)",
        )
        root = base_tree(tmp_path, **{"pkg/runner/cache.py": source})
        findings = lint_select(root, "ATM001")
        assert len(findings) == 1
        assert "open(...)" in findings[0].message

    def test_path_write_text_in_store_fires(self, tmp_path):
        root = base_tree(tmp_path, **{"pkg/traces/store.py": """
            from pathlib import Path

            def save_manifest(path, text):
                Path(path).write_text(text)
        """})
        findings = lint_select(root, "ATM001")
        assert len(findings) == 1
        assert "write_text" in findings[0].message

    def test_write_outside_store_layers_is_not_flagged(self, tmp_path):
        root = base_tree(tmp_path, **{"pkg/reports/render.py": """
            def save(path, text):
                with open(path, "w") as stream:
                    stream.write(text)
        """})
        assert lint_select(root, "ATM001", "ATM002") == []

    def test_atomic_seam_usage_is_quiet(self, tmp_path):
        # The base tree's store writes via utils/io.py; the seam's own
        # os.fdopen is exempt.
        assert lint_select(base_tree(tmp_path), "ATM001", "ATM002") == []

    def test_exists_then_write_fires(self, tmp_path):
        root = base_tree(tmp_path, **{"pkg/traces/store.py": """
            import os

            def ensure_manifest(path, text):
                if not os.path.exists(path):
                    with open(path, "w") as stream:
                        stream.write(text)
        """})
        findings = lint_select(root, "ATM002")
        assert len(findings) == 1
        assert "exists-then-write race" in findings[0].message

    def test_exists_guarded_makedirs_without_exist_ok_fires(self, tmp_path):
        root = base_tree(tmp_path, **{"pkg/traces/store.py": """
            import os

            def ensure_root(root):
                if not os.path.isdir(root):
                    os.makedirs(root)
        """})
        findings = lint_select(root, "ATM002")
        assert len(findings) == 1
        assert "os.makedirs without exist_ok=True" in findings[0].message

    def test_exists_guarding_a_method_call_is_quiet(self, tmp_path):
        # The real store's ensure(): exists -> generate() is fine;
        # generate commits atomically and is idempotent.
        root = base_tree(tmp_path, **{"pkg/traces/store.py": """
            import os

            class Store:
                def ensure(self, spec):
                    if not os.path.exists(self.manifest_path(spec)):
                        self.generate(spec)

                def manifest_path(self, spec):
                    return spec + ".json"

                def generate(self, spec):
                    return spec
        """})
        assert lint_select(root, "ATM002") == []


# ---------------------------------------------------------------------------
# Self-hosting: the real package satisfies the provenance contracts


class TestProvenanceSelfHost:
    def test_src_repro_is_provenance_clean(self, src_repro_findings):
        findings = src_repro_findings("KEY", "ENV", "ATM")
        assert findings == [], "\n".join(f.render() for f in findings)

    @pytest.mark.parametrize("entry", [
        '"seed": ctx.seed,',
        '"trace_length": ctx.trace_length,',
        '"site_scale": ctx.site_scale,',
        '"predictor": self.predictor,',
        '"size_bytes": self.size_bytes,',
        '"shift_policy": self.shift_policy.value,',
        '"cutoff": self.cutoff,',
        '"factor": self.factor,',
        '"track_collisions": self.track_collisions,',
        '"predictor_kwargs": list(self.predictor_kwargs),',
    ])
    def test_real_key_fields_minus_any_entry_fires(self, tmp_path, entry):
        # The acceptance demonstration on the *real* source: copy the
        # anchor modules, excise one key entry, and KEY001 must fire.
        cells = (SRC_REPRO / "runner" / "cells.py").read_text()
        assert entry in cells
        root = write_tree(tmp_path, {
            "repro/runner/cells.py": cells.replace(entry, ""),
            "repro/experiments/common.py":
                (SRC_REPRO / "experiments" / "common.py").read_text(),
        })
        findings = run_lint([root], select_rules(["KEY001"]))
        name = entry.split('"')[1]
        assert any(f.rule == "KEY001" and f"{name!r}" in f.message
                   for f in findings), "\n".join(f.render() for f in findings)
