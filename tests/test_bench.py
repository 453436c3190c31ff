"""Tests for the benchmark subsystem (timing, snapshots, CLI gate)."""

from __future__ import annotations

import json

import pytest

from repro.bench.cases import (
    collision_cases,
    combined_cases,
    kernel_cases,
    profiling_cases,
    replay_cases,
    run_suite,
    tracked_cases,
)
from repro.bench.snapshot import (
    FORMAT_HEADER,
    BenchFormatError,
    BenchResult,
    BenchSnapshot,
    Comparison,
    compare,
    parse_threshold,
    snapshot_filename,
)
from repro.bench.timing import TimingStats, measure
from repro.cli import main


def result(case: str, median_s: float, branches: int = 1000) -> BenchResult:
    return BenchResult(case=case, branches=branches, median_s=median_s,
                       iqr_s=0.0)


def snapshot(results, name="kernels") -> BenchSnapshot:
    return BenchSnapshot(name=name, trace_length=1000, repeats=3,
                         warmup=1, results=tuple(results))


@pytest.fixture(autouse=True)
def isolated_trace_store(tmp_path, monkeypatch):
    """Keep replay-case trace artifacts out of the working tree."""
    monkeypatch.setenv("REPRO_TRACE_DIR", str(tmp_path / "trace-store"))


class TestTiming:
    def test_median_and_iqr(self):
        stats = TimingStats(samples=(4.0, 1.0, 2.0, 8.0, 3.0))
        assert stats.median_s == 3.0
        assert stats.iqr_s == 2.0  # q3=4.0, q1=2.0

    def test_single_sample(self):
        stats = TimingStats(samples=(0.5,))
        assert stats.median_s == 0.5
        assert stats.iqr_s == 0.0

    def test_measure_counts_calls(self):
        calls = []
        stats = measure(lambda: calls.append(1), repeats=3, warmup=2)
        assert len(calls) == 5
        assert len(stats.samples) == 3
        assert all(sample >= 0.0 for sample in stats.samples)


class TestThreshold:
    def test_spellings(self):
        assert parse_threshold("2x") == pytest.approx(2.0)
        assert parse_threshold("20%") == pytest.approx(1.25)
        assert parse_threshold("0.2") == pytest.approx(1.25)
        assert parse_threshold("1.5") == pytest.approx(1.5)
        assert parse_threshold("0%") == pytest.approx(1.0)

    def test_rejections(self):
        for bad in ("fast", "-5%", "150%", "0.5x", ""):
            with pytest.raises(BenchFormatError):
                parse_threshold(bad)


class TestSnapshot:
    def test_roundtrip(self, tmp_path):
        original = snapshot([result("gshare/fast", 0.25)])
        path = tmp_path / snapshot_filename("kernels")
        original.save(str(path))
        loaded = BenchSnapshot.load(str(path))
        assert loaded == original

    def test_json_shape(self):
        payload = json.loads(snapshot([result("a/ref", 0.5)]).to_json())
        assert payload["format"] == FORMAT_HEADER
        entry = payload["results"][0]
        assert entry["branches_per_s"] == pytest.approx(2000.0)

    def test_bad_format_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"format": "other v9"}', encoding="ascii")
        with pytest.raises(BenchFormatError):
            BenchSnapshot.load(str(path))
        path.write_text("[1, 2]", encoding="ascii")
        with pytest.raises(BenchFormatError):
            BenchSnapshot.load(str(path))
        with pytest.raises(BenchFormatError):
            BenchSnapshot.load(str(tmp_path / "missing.json"))


class TestCompare:
    def test_regression_detected(self):
        old = snapshot([result("a", 0.1), result("b", 0.1)])
        new = snapshot([result("a", 0.1), result("b", 0.5)])
        comparisons = compare(old, new, parse_threshold("2x"))
        verdicts = {c.case: c.regressed for c in comparisons}
        assert verdicts == {"a": False, "b": True}

    def test_threshold_boundary(self):
        old = snapshot([result("a", 0.1)])
        exactly_2x = snapshot([result("a", 0.2)])
        assert not any(
            c.regressed for c in compare(old, exactly_2x, 2.0)
        )

    def test_disjoint_cases_skipped(self):
        old = snapshot([result("a", 0.1)])
        new = snapshot([result("b", 0.1)])
        assert compare(old, new, 2.0) == []

    def test_render_mentions_verdict(self):
        comparison = Comparison(case="a", old_branches_per_s=1000.0,
                                new_branches_per_s=100.0, threshold=2.0)
        assert "REGRESSION" in comparison.render()


class TestSuite:
    def test_kernel_cases_pair_reference_and_fast(self):
        cases = kernel_cases()
        names = [case.name for case in cases]
        for family in ("gshare", "bimode", "2bcgskew"):
            assert f"{family}/reference" in names
            assert f"{family}/fast" in names
        # A /fast row runs the default kernel mode, a /reference row the
        # reference loop.
        assert {case.kernel for case in cases
                if case.name.endswith("/fast")} == {"auto"}
        assert {case.kernel for case in cases
                if case.name.endswith("/reference")} == {"reference"}

    def test_profiling_cases_pair_scalar_and_vectorized(self):
        names = [case.name for case in profiling_cases()]
        assert names == ["profile/reference", "profile/fast"]

    def test_collision_cases_pair_scalar_and_vectorized(self):
        cases = collision_cases()
        assert [(case.name, case.kernel) for case in cases] == [
            ("collision/reference", "reference"), ("collision/fast", "auto")]

    def test_combined_and_tracked_cases_pair_reference_and_fast(self):
        combined = combined_cases()
        assert [case.name for case in combined] \
            == ["combined/reference", "combined/fast"]
        assert all(case.scheme == "static_acc" and not case.end_to_end
                   for case in combined)
        names = [case.name for case in tracked_cases()]
        assert names == ["tracked/reference", "tracked/fast"]

    def test_replay_cases_pure_simulation(self):
        names = [case.name for case in replay_cases()]
        assert names == ["replay/gshare"]
        assert all(not case.end_to_end for case in replay_cases())

    def test_run_suite_smoke(self):
        snap = run_suite(quick=True, trace_length=2000, repeats=1)
        cases = {entry.case for entry in snap.results}
        assert "bimodal/reference" in cases
        assert "profile/reference" in cases
        assert "replay/gshare" in cases
        assert "service/roundtrip" in cases
        assert {"combined/fast", "tracked/fast"} <= cases
        assert all(entry.median_s > 0.0 for entry in snap.results)
        # Service cases time one request (branches=1, so branches/s
        # reads as requests/s); everything else counts the trace.
        assert all(entry.branches == 2000 for entry in snap.results
                   if not entry.case.startswith("service/"))
        assert all(entry.branches == 1 for entry in snap.results
                   if entry.case.startswith("service/"))

    def test_replay_case_reuses_pinned_artifact(self, tmp_path, monkeypatch):
        # Two suite runs at the same knobs must generate the artifact
        # once and replay it the second time.
        monkeypatch.setenv("REPRO_TRACE_DIR", str(tmp_path / "store"))
        run_suite(quick=True, trace_length=1500, repeats=1)
        store = tmp_path / "store"
        manifests = sorted(p.name for p in store.glob("*.json"))
        assert len(manifests) == 1 and manifests[0].startswith("bench-gcc-ref")
        stamp = {p.name: p.stat().st_mtime_ns for p in store.iterdir()}
        run_suite(quick=True, trace_length=1500, repeats=1)
        assert {p.name: p.stat().st_mtime_ns
                for p in store.iterdir()} == stamp


class TestCli:
    def test_bench_writes_snapshot(self, tmp_path, capsys):
        out = tmp_path / "BENCH_kernels.json"
        status = main(["bench", "--quick", "--length", "2000",
                       "--repeats", "1", "--out", str(out)])
        assert status == 0
        assert "branches/s" in capsys.readouterr().out
        snap = BenchSnapshot.load(str(out))
        assert snap.trace_length == 2000

    def test_bench_compare_gate(self, tmp_path, capsys):
        baseline = tmp_path / "base.json"
        current = tmp_path / "current.json"
        snapshot([result("a", 0.1)]).save(str(baseline))
        snapshot([result("a", 0.11)]).save(str(current))
        assert main(["bench", "--compare", str(baseline), str(current),
                     "--max-regression", "2x"]) == 0
        assert "no regression" in capsys.readouterr().out
        snapshot([result("a", 0.5)]).save(str(current))
        assert main(["bench", "--compare", str(baseline), str(current),
                     "--max-regression", "2x"]) == 1
        captured = capsys.readouterr()
        assert "REGRESSION" in captured.out

    def test_bench_bad_threshold_is_clean_error(self, capsys):
        assert main(["bench", "--compare", "x.json", "--max-regression",
                     "soon"]) == 1
        assert "error:" in capsys.readouterr().err
