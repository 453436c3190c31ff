"""Utility helpers shared across the :mod:`repro` package.

The submodules here are deliberately dependency-free (standard library
plus :mod:`repro.errors` only) so every other layer of the library can
import them without cycles:

* :mod:`repro.utils.bits` -- bit masks, folding, and mixing used by
  predictor index functions.
* :mod:`repro.utils.rng` -- deterministic, named random streams so that a
  single experiment seed reproduces every trace and selection decision.
* :mod:`repro.utils.hotpath` -- the ``@hot_path`` marker declaring a
  function as per-branch work for the lint hot-path analyzer.
* :mod:`repro.utils.env` -- typed environment-knob accessors; the single
  raw ``os.environ`` seam, contract-checked by lint rule ENV001 against
  the ``ENV_KNOBS`` registry in :mod:`repro.experiments.common`.
* :mod:`repro.utils.io` -- atomic file writes (``mkstemp`` +
  ``os.replace``); the single write seam for every artifact store,
  enforced by lint rules ATM001/ATM002.
* :mod:`repro.utils.tables` -- plain-text table rendering for experiment
  reports (the "tables" of the paper).
* :mod:`repro.utils.charts` -- plain-text chart rendering for experiment
  reports (the "figures" of the paper).
* :mod:`repro.utils.tally` -- the first-occurrence groupby behind every
  per-branch profile (it imports numpy inside the function, so loading
  it loads no numpy).
"""

from repro.utils.bits import bit_mask, fold_bits, is_power_of_two, log2_exact, mix64
from repro.utils.hotpath import hot_path
from repro.utils.rng import derive_rng, derive_seed

__all__ = [
    "bit_mask",
    "fold_bits",
    "is_power_of_two",
    "log2_exact",
    "mix64",
    "hot_path",
    "derive_rng",
    "derive_seed",
]
