"""Shared fixtures: small, fast workloads and traces.

Tests use tiny trace lengths and site scales so the whole suite runs in
seconds; experiment *shape* checks (which need realistic sizes) live in
the benchmark harness, not here.
"""

from __future__ import annotations

from pathlib import Path

import pytest

import repro
from repro.experiments.common import ExperimentContext
from repro.workloads.generator import build_workload
from repro.workloads.spec95 import get_spec
from repro.workloads.trace import BranchTrace

TEST_SEED = 7


@pytest.fixture(scope="session")
def gcc_workload():
    """A small gcc workload (ref input)."""
    return build_workload(get_spec("gcc"), "ref", root_seed=TEST_SEED,
                          site_scale=0.02)


@pytest.fixture(scope="session")
def gcc_trace(gcc_workload) -> BranchTrace:
    """A small gcc trace (~20k branches)."""
    return gcc_workload.execute(20_000, run_seed=1)


@pytest.fixture(scope="session")
def m88ksim_traces():
    """Small m88ksim train and ref traces (for drift/cross-training tests)."""
    train = build_workload(get_spec("m88ksim"), "train", root_seed=TEST_SEED,
                           site_scale=0.05).execute(20_000, run_seed=1)
    ref = build_workload(get_spec("m88ksim"), "ref", root_seed=TEST_SEED,
                         site_scale=0.05).execute(20_000, run_seed=1)
    return train, ref


@pytest.fixture(scope="session")
def src_repro_findings():
    """Every lint rule's findings on the real package, analyzed once.

    The self-host tests each assert one rule family's property on
    these: call with ``--select``-style tokens for the findings of the
    rules they select, with none for all.  A run selecting one family
    reports exactly the full run's findings of that family, so sharing
    the analysis loses nothing.
    """
    from repro.lint import run_lint
    from repro.lint.rules import select_rules

    findings = run_lint([Path(repro.__file__).parent])

    def select(*selectors):
        if not selectors:
            return list(findings)
        rule_ids = {rule.rule_id for rule in select_rules(selectors)}
        return [f for f in findings if f.rule in rule_ids]

    return select


@pytest.fixture()
def tiny_ctx() -> ExperimentContext:
    """An experiment context small enough for per-test experiment runs."""
    return ExperimentContext(trace_length=4_000, site_scale=0.02, seed=TEST_SEED)
