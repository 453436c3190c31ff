"""Tests for the concurrency rule family (CONC, analysis layer 6).

Each fixture tree is a miniature of the real package layout -- the
``runner/store.py`` subject, the ``runner/engine.py``/``runner/cells.py``
anchors, and the ``utils/io.py`` lock seam -- so the suffix anchoring,
import-provenance seam recognition, lock-region spans, and seam-blocked
reachability all exercise exactly what they run against ``src/repro``.
The seeded-bug cases (an unlocked unlink, a pre-lock directory scan, a
nested lock, a leaked descriptor, a worker/parent-shared raw write) are
the ISSUE's acceptance fixtures: each must be caught by its rule.
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
    "pkg/utils/io.py": """
        import contextlib
        import os
        import tempfile

        def atomic_write_text(path, text):
            fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path) or ".")
            try:
                with os.fdopen(fd, "w") as stream:
                    stream.write(text)
                os.replace(tmp, path)
            except OSError:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise

        @contextlib.contextmanager
        def shard_lock(path):
            fd = os.open(path, os.O_CREAT | os.O_RDWR)
            try:
                yield
            finally:
                os.close(fd)
    """,
    "pkg/runner/store.py": """
        import json
        import os

        from pkg.utils.io import atomic_write_text, shard_lock

        MANIFEST = "manifest.json"

        class Store:
            def __init__(self, root):
                self.root = root
                self.evictions = 0

            def entry_path(self, key):
                return os.path.join(self.root, key[:2], key + ".json")

            def _lock_path(self, shard):
                return os.path.join(self.root, shard, ".lock")

            def _manifest_path(self, shard):
                return os.path.join(self.root, shard, MANIFEST)

            def _load_manifest(self, shard):
                try:
                    with open(self._manifest_path(shard), "r") as stream:
                        return json.load(stream)
                except (OSError, ValueError):
                    return {"entries": {}}

            def _stamp_locked(self, shard, key, size):
                manifest = self._load_manifest(shard)
                manifest["entries"][key] = size
                atomic_write_text(self._manifest_path(shard),
                                  json.dumps(manifest, sort_keys=True))

            def _remove_locked(self, shard, keys):
                manifest = self._load_manifest(shard)
                removed = 0
                for key in keys:
                    if manifest["entries"].pop(key, None) is not None:
                        removed += 1
                    try:
                        os.unlink(self.entry_path(key))
                    except FileNotFoundError:
                        pass
                atomic_write_text(self._manifest_path(shard),
                                  json.dumps(manifest, sort_keys=True))
                return removed

            def write(self, key, payload):
                shard = key[:2]
                text = json.dumps(payload, sort_keys=True)
                os.makedirs(os.path.join(self.root, shard), exist_ok=True)
                with shard_lock(self._lock_path(shard)):
                    atomic_write_text(self.entry_path(key), text)
                    self._stamp_locked(shard, key, len(text))

            def evict(self, doomed):
                for shard in sorted(doomed):
                    with shard_lock(self._lock_path(shard)):
                        self.evictions += self._remove_locked(
                            shard, doomed[shard])
    """,
    "pkg/runner/cache.py": """
        from pkg.runner.store import Store

        class ResultCache:
            def __init__(self, root):
                self._store = Store(root)

            def put(self, key, payload):
                self._store.write(key, payload)
    """,
    "pkg/runner/cells.py": """
        def execute_cell(ctx, cell):
            return ctx.run(cell)
    """,
    "pkg/runner/engine.py": """
        from pkg.runner.cache import ResultCache
        from pkg.runner.cells import execute_cell

        def _worker_run(ctx, cell):
            return execute_cell(ctx, cell)

        class CellExecutor:
            def __init__(self, ctx, cache):
                self.ctx = ctx
                self.cache = cache

            def execute(self, cells):
                results = {}
                for cell in cells:
                    result = execute_cell(self.ctx, cell)
                    self.cache.put(str(cell), result)
                    results[cell] = result
                return results
    """,
}


def base_tree(tmp_path: Path, **overrides: str) -> Path:
    files = dict(BASE_FILES)
    files.update(overrides)
    return write_tree(tmp_path, files)


def append(base: str, block: str) -> str:
    """Append a function to a BASE_FILES source, preserving its indent.

    The BASE_FILES literals carry an 8-space base indent that
    ``write_tree`` dedents; appended code must match it or the dedent
    becomes a no-op and the fixture stops parsing.
    """
    return base + textwrap.indent(textwrap.dedent(block), " " * 8)


def lint_select(root: Path, *selectors: str):
    return run_lint([root], select_rules(list(selectors)))


# ---------------------------------------------------------------------------
# CONC001: mutations hold the shard lock


class TestConc001:
    def test_clean_tree_is_quiet(self, tmp_path):
        findings = lint_select(base_tree(tmp_path), "CONC")
        assert findings == [], "\n".join(f.render() for f in findings)

    def test_unlocked_mutation_fires(self, tmp_path):
        source = append(BASE_FILES["pkg/runner/store.py"], """
            def sweep(store, path):
                os.unlink(path)
        """)
        root = base_tree(tmp_path, **{"pkg/runner/store.py": source})
        findings = lint_select(root, "CONC001")
        assert [f.rule for f in findings] == ["CONC001"]
        assert "os.unlink" in findings[0].message
        assert "shard lock" in findings[0].message

    def test_locked_helper_called_without_lock_fires(self, tmp_path):
        source = BASE_FILES["pkg/runner/store.py"].replace(
            "with shard_lock(self._lock_path(shard)):\n"
            "                    atomic_write_text(self.entry_path(key), text)\n"
            "                    self._stamp_locked(shard, key, len(text))",
            "atomic_write_text(self.entry_path(key), text)\n"
            "                self._stamp_locked(shard, key, len(text))",
        )
        assert source != BASE_FILES["pkg/runner/store.py"]
        root = base_tree(tmp_path, **{"pkg/runner/store.py": source})
        findings = lint_select(root, "CONC001")
        assert any("_stamp_locked()" in f.message for f in findings), \
            "\n".join(f.render() for f in findings)

    def test_pre_lock_scan_used_under_lock_fires(self, tmp_path):
        source = append(BASE_FILES["pkg/runner/store.py"], """
            def purge(store, shard):
                names = os.listdir(store.root)
                with shard_lock(store._lock_path(shard)):
                    for name in names:
                        store._remove_locked(shard, [name])
        """)
        root = base_tree(tmp_path, **{"pkg/runner/store.py": source})
        findings = lint_select(root, "CONC001")
        assert len(findings) == 1
        assert "os.listdir" in findings[0].message
        assert "stale" in findings[0].message

    def test_scan_under_the_lock_is_quiet(self, tmp_path):
        source = append(BASE_FILES["pkg/runner/store.py"], """
            def purge(store, shard):
                with shard_lock(store._lock_path(shard)):
                    for name in os.listdir(store.root):
                        store._remove_locked(shard, [name])
        """)
        root = base_tree(tmp_path, **{"pkg/runner/store.py": source})
        assert lint_select(root, "CONC001") == []

    def test_mutation_outside_store_modules_is_out_of_scope(self, tmp_path):
        # CONC001 scopes to store modules; a temp-file unlink in an
        # experiment module is not a shared-store mutation.
        root = base_tree(tmp_path, **{"pkg/experiments/report.py": """
            import os

            def cleanup(path):
                os.unlink(path)
        """})
        assert lint_select(root, "CONC001") == []

    def test_local_shard_lock_lookalike_is_not_the_seam(self, tmp_path):
        # Seam recognition is by import provenance: a module-local
        # function named shard_lock does not create lock regions, so
        # mutations "under" it stay findings.
        source = """
            import os

            def shard_lock(path):
                return path

            def sweep(root, name):
                with shard_lock(root):
                    os.unlink(name)
        """
        root = base_tree(tmp_path, **{"pkg/runner/sweeper.py": source})
        findings = lint_select(root, "CONC001")
        assert len(findings) == 1
        assert "os.unlink" in findings[0].message


# ---------------------------------------------------------------------------
# CONC002: lock discipline


class TestConc002:
    def test_nested_locks_fire(self, tmp_path):
        source = append(BASE_FILES["pkg/runner/store.py"], """
            def migrate(store, a, b):
                with shard_lock(store._lock_path(a)):
                    with shard_lock(store._lock_path(b)):
                        store._remove_locked(a, [])
        """)
        root = base_tree(tmp_path, **{"pkg/runner/store.py": source})
        findings = lint_select(root, "CONC002")
        assert [f.rule for f in findings] == ["CONC002"]
        assert "nested" in findings[0].message

    def test_sequential_locks_are_quiet(self, tmp_path):
        # The clean store's evict() takes shards one at a time.
        assert lint_select(base_tree(tmp_path), "CONC002") == []

    def test_blocking_call_under_lock_fires(self, tmp_path):
        source = BASE_FILES["pkg/runner/store.py"].replace(
            "atomic_write_text(self.entry_path(key), text)",
            "time.sleep(0.1)\n"
            "                    atomic_write_text(self.entry_path(key), text)",
        ).replace("import json", "import json\n        import time")
        root = base_tree(tmp_path, **{"pkg/runner/store.py": source})
        findings = lint_select(root, "CONC002")
        assert len(findings) == 1
        assert "time.sleep" in findings[0].message
        assert "blocking" in findings[0].message

    def test_simulation_under_lock_fires(self, tmp_path):
        source = append(BASE_FILES["pkg/runner/store.py"], """
            def warm(store, shard, trace, predictor):
                with shard_lock(store._lock_path(shard)):
                    return simulate(trace, predictor)
        """)
        root = base_tree(tmp_path, **{"pkg/runner/store.py": source})
        findings = lint_select(root, "CONC002")
        assert len(findings) == 1
        assert "simulate" in findings[0].message

    def test_bare_lock_call_fires(self, tmp_path):
        source = append(BASE_FILES["pkg/runner/store.py"], """
            def grab(store, shard):
                return shard_lock(store._lock_path(shard))
        """)
        root = base_tree(tmp_path, **{"pkg/runner/store.py": source})
        findings = lint_select(root, "CONC002")
        assert len(findings) == 1
        assert "outside a 'with'" in findings[0].message

    def test_bare_acquire_without_finally_release_fires(self, tmp_path):
        root = base_tree(tmp_path, **{"pkg/runner/queue.py": """
            def push(lock, item, items):
                lock.acquire()
                items.append(item)
                lock.release()
        """})
        findings = lint_select(root, "CONC002")
        assert len(findings) == 1
        assert ".acquire()" in findings[0].message

    def test_acquire_with_finally_release_is_quiet(self, tmp_path):
        root = base_tree(tmp_path, **{"pkg/runner/queue.py": """
            def push(lock, item, items):
                lock.acquire()
                try:
                    items.append(item)
                finally:
                    lock.release()
        """})
        assert lint_select(root, "CONC002") == []


# ---------------------------------------------------------------------------
# CONC003: worker/parent-shared code writes only via seams


class TestConc003:
    def test_shared_raw_write_fires(self, tmp_path):
        source = """
            def _note_progress(cell):
                with open("progress.txt", "w") as stream:
                    stream.write(str(cell))

            def execute_cell(ctx, cell):
                _note_progress(cell)
                return ctx.run(cell)
        """
        root = base_tree(tmp_path, **{"pkg/runner/cells.py": source})
        findings = lint_select(root, "CONC003")
        assert [f.rule for f in findings] == ["CONC003"]
        assert "_note_progress" in findings[0].message
        assert "both the pool workers and the parent" in findings[0].message

    def test_shared_path_mutation_fires(self, tmp_path):
        source = """
            import os

            def _rotate_log(path):
                os.replace(path, path + ".old")

            def execute_cell(ctx, cell):
                _rotate_log("run.log")
                return ctx.run(cell)
        """
        root = base_tree(tmp_path, **{"pkg/runner/cells.py": source})
        findings = lint_select(root, "CONC003")
        assert len(findings) == 1
        assert "os.replace" in findings[0].message

    def test_write_through_the_cache_seam_is_quiet(self, tmp_path):
        # The base engine writes every result through ResultCache.put;
        # the store behind it mutates freely -- that is the sanctioned
        # path, and the seam-blocked traversal must not cross into it.
        assert lint_select(base_tree(tmp_path), "CONC003") == []

    def test_parent_only_write_is_quiet(self, tmp_path):
        # A write reachable from the parent but not from any worker
        # entry point is single-process; CONC003 only polices the
        # intersection.
        source = append(BASE_FILES["pkg/runner/engine.py"], """
            def save_report(results):
                with open("report.txt", "w") as stream:
                    stream.write(str(results))

            def render(executor, cells):
                results = executor.execute(cells)
                save_report(results)
                return results
        """)
        root = base_tree(tmp_path, **{"pkg/runner/engine.py": source})
        assert lint_select(root, "CONC003") == []


# ---------------------------------------------------------------------------
# CONC004: descriptor hygiene in store modules


class TestConc004:
    def test_bare_open_fires(self, tmp_path):
        source = BASE_FILES["pkg/runner/store.py"].replace(
            "with open(self._manifest_path(shard), \"r\") as stream:\n"
            "                        return json.load(stream)",
            "stream = open(self._manifest_path(shard), \"r\")\n"
            "                    return json.load(stream)",
        )
        assert source != BASE_FILES["pkg/runner/store.py"]
        root = base_tree(tmp_path, **{"pkg/runner/store.py": source})
        findings = lint_select(root, "CONC004")
        assert [f.rule for f in findings] == ["CONC004"]
        assert "open(...)" in findings[0].message

    def test_os_open_without_finally_close_fires(self, tmp_path):
        source = BASE_FILES["pkg/utils/io.py"].replace(
            "fd = os.open(path, os.O_CREAT | os.O_RDWR)\n"
            "            try:\n"
            "                yield\n"
            "            finally:\n"
            "                os.close(fd)",
            "fd = os.open(path, os.O_CREAT | os.O_RDWR)\n"
            "            yield\n"
            "            os.close(fd)",
        )
        assert source != BASE_FILES["pkg/utils/io.py"]
        root = base_tree(tmp_path, **{"pkg/utils/io.py": source})
        findings = lint_select(root, "CONC004")
        assert len(findings) == 1
        assert "os.open descriptor 'fd'" in findings[0].message

    def test_mkstemp_without_failure_cleanup_fires(self, tmp_path):
        # A seam variant whose failure path never unlinks the temp file.
        root = base_tree(tmp_path, **{"pkg/utils/io.py": """
            import contextlib
            import os
            import tempfile

            def atomic_write_text(path, text):
                fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path) or ".")
                with os.fdopen(fd, "w") as stream:
                    stream.write(text)
                os.replace(tmp, path)

            @contextlib.contextmanager
            def shard_lock(path):
                fd = os.open(path, os.O_CREAT | os.O_RDWR)
                try:
                    yield
                finally:
                    os.close(fd)
        """})
        findings = lint_select(root, "CONC004")
        assert len(findings) == 1
        assert "mkstemp temp file 'tmp'" in findings[0].message

    def test_seam_module_itself_is_in_scope(self, tmp_path):
        # Unlike ATM001/CONC001, CONC004 audits utils/io.py too: the
        # seam is where the raw descriptors live.  The clean seam
        # passes; its descriptors are all scoped.
        assert lint_select(base_tree(tmp_path), "CONC004") == []

    def test_open_outside_store_modules_is_out_of_scope(self, tmp_path):
        root = base_tree(tmp_path, **{"pkg/experiments/report.py": """
            def slurp(path):
                stream = open(path)
                return stream.read()
        """})
        assert lint_select(root, "CONC004") == []


# ---------------------------------------------------------------------------
# Self-hosting: the real package satisfies the concurrency contracts


class TestConcSelfHost:
    def test_src_repro_is_concurrency_clean(self, src_repro_findings):
        findings = src_repro_findings("CONC")
        assert findings == [], "\n".join(f.render() for f in findings)

    def test_real_store_unlocked_discard_fires(self, tmp_path):
        # The acceptance demonstration on the real source: copy the
        # store and seam modules, strip the lock from _discard's
        # remove, and CONC001 must fire on the *_locked call site.
        store = (SRC_REPRO / "runner" / "store.py").read_text()
        guarded = (
            "            with shard_lock(self._lock_path(shard)):\n"
            "                self._remove_locked(shard, [key])\n"
        )
        assert guarded in store
        broken = store.replace(
            guarded,
            "            self._remove_locked(shard, [key])\n",
        )
        root = write_tree(tmp_path, {
            "repro/runner/store.py": broken,
            "repro/utils/io.py":
                (SRC_REPRO / "utils" / "io.py").read_text(),
        })
        findings = run_lint([root], select_rules(["CONC001"]))
        assert any("_remove_locked()" in f.message for f in findings), \
            "\n".join(f.render() for f in findings)

    def test_real_store_nested_eviction_lock_fires(self, tmp_path):
        # Wrap the whole eviction loop in one extra lock: the per-shard
        # locks inside now nest, which CONC002 must reject.
        store = (SRC_REPRO / "runner" / "store.py").read_text()
        loop = (
            "        for shard in sorted(doomed):\n"
            "            try:\n"
            "                with shard_lock(self._lock_path(shard)):\n"
        )
        assert loop in store
        broken = store.replace(
            loop,
            "        with shard_lock(self._lock_path(\"00\")):\n"
            "          for shard in sorted(doomed):\n"
            "            try:\n"
            "                with shard_lock(self._lock_path(shard)):\n",
        )
        root = write_tree(tmp_path, {
            "repro/runner/store.py": broken,
            "repro/utils/io.py":
                (SRC_REPRO / "utils" / "io.py").read_text(),
        })
        findings = run_lint([root], select_rules(["CONC002"]))
        assert any("nested" in f.message for f in findings), \
            "\n".join(f.render() for f in findings)
