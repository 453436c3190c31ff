"""``repro.lint``: AST-based enforcement of the simulator's invariants.

The reproduction's numbers are trustworthy only while a handful of
codebase-wide conventions hold — all randomness derives from named
seeded streams, no code reads clocks or OS entropy, every predictor
honors the predict-then-update contract, the experiment registry and
its golden files agree, index masking goes through the checked
:mod:`repro.utils.bits` helpers, and everything the parallel runner's
workers can reach stays pure, picklable, and seeded only from declared
experiment knobs.  None of these fail loudly when violated; they
corrupt MISP/KI numbers silently.  This package turns them into
machine-checked rules that run before any simulation does::

    repro lint                       # self-check the installed package
    repro lint --format json src/    # CI / tooling output
    repro lint --format sarif src/   # GitHub code scanning upload
    repro lint --select DET,PRED001  # a subset of rules
    repro lint --changed --cache     # pre-commit: only git-touched files
    repro lint --baseline tests/     # fail only on NEW findings
    repro lint --update-baseline t/  # accept current, prune stale debt
    repro lint --strict-baseline ... # CI: also fail on stale debt
    repro lint --explain WID002      # a rule's rationale + examples
    repro lint --stats --cache src/  # cache effectiveness, to stderr
    repro lint --hot-report src/     # ranked hot-path vectorization worklist

Deliberate exceptions are annotated in place::

    t0 = time.perf_counter()  # repro: allow[DET002] -- measuring wall time

Rules (see :mod:`repro.lint.rules` and DESIGN.md section 8):

========  ============================================================
DET001    randomness must flow through ``utils.rng.derive_rng``
DET002    no wall clocks, OS entropy, or unordered-set iteration
DET003    ``rng_from_seed`` seeds trace to experiment knobs or literals
PRED001   ``BranchPredictor`` subclasses honor the base contract
PRED002   predictor names, factories, classes, and CLI choices agree
REG001    experiment ids, runners, and result goldens stay in lockstep
EXP002    ``cells``/``synthesize`` pair up; Cell schemes are registered
PAR001    worker-reachable code must not write module globals
PAR002    no lambdas/closures/local classes cross the pickle boundary
BIT001    index masking goes through ``utils.bits``, not inline math
WID001    table indices are provably within ``[0, table_size)``
WID002    counter updates provably saturate at the declared width
WID003    history shift-ins are masked to the declared width
WID004    modulo by a provable power of two should be a mask
PERF001   no per-element Python loops over trace-scale data on hot paths
PERF002   hot-path accumulators preallocate arrays instead of append
PERF003   no array-reallocating, upcasting, or scalar-math numpy use
PERF004   ``kernels/`` ``replay_*`` functions reachable from ``_KERNELS``
KEY001    every result-influencing input reaches the cache key or is
          declared in the audited ``_KEY_EXEMPT`` contract
KEY002    cache keys serialize canonically: sorted JSON, no sets,
          ``repr()``, or host/process-dependent values
ENV001    ``os.environ`` reads go through ``utils.env`` and match the
          ``ENV_KNOBS`` contract registry
ATM001    artifact stores write through the ``utils.io`` atomic seam
ATM002    no exists-then-write (TOCTOU) races in artifact stores
CONC001   store mutations hold the shard lock (or ride ``*_locked``
          helpers whose call sites do); no stale pre-lock scans
CONC002   shard locks are with-scoped and un-nested; nothing blocking
          runs under one; bare ``.acquire()`` needs a finally release
CONC003   worker-and-parent-reachable code writes files only through
          the result-store seams
CONC004   store-module descriptors have guaranteed cleanup: opens are
          context managers, ``os.open`` closes in finally, ``mkstemp``
          unlinks on failure paths
LINT001   (engine) a linted file failed to parse
========  ============================================================

The rules stack in six analysis layers.  Syntactic rules match
shapes in one AST (DET001/DET002, BIT001, PRED/EXP/REG contracts);
interprocedural dataflow rules walk the project call graph
(:mod:`repro.lint.graph`) and reaching definitions
(:mod:`repro.lint.dataflow`) for worker purity and seed provenance
(PAR001, DET003); the WID family abstractly interprets predictor
classes over a symbolic interval domain (:mod:`repro.lint.intervals`,
:mod:`repro.lint.rules.widths`) to *prove* bit-width contracts instead
of pattern-matching them; and the PERF family combines all three —
call-graph hot-region inference from the simulation entry points
(:mod:`repro.lint.hotpath`), loop trip-count provenance through
reaching definitions, and the interval domain to separate trace-scale
loops from table-sized ones — to ratchet scalar code off the hot
paths.  The fifth layer is result provenance
(:mod:`repro.lint.provenance`, :mod:`repro.lint.rules.provenance`):
KEY001 proves over the call graph that every ``Cell`` field and every
``ExperimentContext`` knob reachable from ``execute_cell`` flows into
the result-cache key or carries an audited ``_KEY_EXEMPT`` entry,
KEY002 keeps the key's serialization canonical, ENV001 reconciles
every environment read against the ``ENV_KNOBS`` contract registry,
and ATM001/ATM002 confine artifact writes to the ``mkstemp`` +
``os.replace`` seam of :mod:`repro.utils.io`.  The sixth layer is
concurrency safety (:mod:`repro.lint.concurrency`,
:mod:`repro.lint.rules.conc`), proving the discipline the sharded
result store (:mod:`repro.runner.store`) relies on: CONC001 requires
every cross-process filesystem mutation in the store modules to hold
the ``shard_lock`` seam (recognized by import provenance, like the
env-accessor seam) or to live in a ``*_locked`` helper whose call
sites are all under lock, and uses reaching definitions to reject
stale pre-lock directory scans consumed inside a locked region;
CONC002 keeps lock acquisition with-scoped, un-nested, and free of
blocking calls; CONC003 generalizes PAR001's reachability with
seam-blocked call-graph traversal — code reachable from both the pool
workers and the parent may write files only through the store seams;
and CONC004 guarantees descriptor cleanup paths in the store modules.
No module is ever imported to be linted.
"""

from repro.lint.baseline import BASELINE_VERSION, DEFAULT_BASELINE_PATH, Baseline
from repro.lint.cache import (
    CACHE_FORMAT_VERSION,
    DEFAULT_CACHE_PATH,
    AnalysisCache,
    git_changed_paths,
)
from repro.lint.engine import EngineStats, LintEngine, collect_files, run_lint
from repro.lint.findings import Finding, Severity
from repro.lint.hotpath import HotRegion, hot_region, load_project, render_hot_report
from repro.lint.report import render_explain, render_json, render_text
from repro.lint.rules import RULES, all_rules, rule_ids, select_rules
from repro.lint.sarif import SARIF_SCHEMA_URI, SARIF_VERSION, render_sarif
from repro.lint.suppressions import SuppressionIndex

__all__ = [
    "Finding",
    "Severity",
    "LintEngine",
    "EngineStats",
    "SuppressionIndex",
    "run_lint",
    "collect_files",
    "render_text",
    "render_json",
    "render_explain",
    "render_sarif",
    "SARIF_VERSION",
    "SARIF_SCHEMA_URI",
    "Baseline",
    "BASELINE_VERSION",
    "DEFAULT_BASELINE_PATH",
    "AnalysisCache",
    "CACHE_FORMAT_VERSION",
    "DEFAULT_CACHE_PATH",
    "git_changed_paths",
    "RULES",
    "all_rules",
    "rule_ids",
    "select_rules",
    "HotRegion",
    "hot_region",
    "load_project",
    "render_hot_report",
]
