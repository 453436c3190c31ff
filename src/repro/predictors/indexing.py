"""Index functions for predictor tables.

Various branch prediction schemes "differ in the way this table is
indexed" (Section 2 of the paper).  This module collects those index
computations:

* plain PC truncation (bimodal),
* history truncation (ghist),
* PC XOR history (gshare),
* the **e-gskew skewing functions** used by 2bcgskew's gskew banks.
  Seznec & Michaud's skewed indexing sends each branch/history pair to
  *different* counters in each bank, so two branches that collide in one
  bank almost never collide in the others, and the majority vote hides
  single-bank aliasing.  The functions are built from the standard
  invertible GF(2)-linear shuffle ``H`` (a one-bit LFSR-style shift with
  feedback ``y0 XOR y_{n-1}``) and its inverse:

  bank 0: ``H(c1)    XOR Hinv(c2) XOR c3``
  bank 1: ``Hinv(c1) XOR c2       XOR H(c3)``

  where ``c1, c2, c3`` are width-sized chunks of the (PC, history) pair.

``H``/``Hinv`` are precomputed as lookup tables per width because the
simulation loop calls them for every dynamic branch.
"""

from __future__ import annotations

from functools import lru_cache

from repro.errors import ConfigurationError
from repro.utils.bits import ADDRESS_ALIGN_SHIFT, bit_mask, fold_bits

__all__ = [
    "pc_index",
    "gshare_index",
    "fold_history",
    "skew_h",
    "skew_h_inv",
    "SkewTables",
    "skew_tables",
]


def pc_index(address: int, width: int) -> int:
    """Bimodal-style index: low ``width`` bits of the word-aligned PC."""
    return (address >> ADDRESS_ALIGN_SHIFT) & bit_mask(width)


def fold_history(history: int, history_length: int, width: int) -> int:
    """Fold ``history_length`` bits of history into a ``width``-bit value.

    When the configured history is no longer than the index width the
    fold is a plain truncation, which is what hot predictor loops inline.
    """
    value = history & bit_mask(history_length)
    if history_length <= width:
        return value
    return fold_bits(value, width)


def gshare_index(address: int, history: int, history_length: int, width: int) -> int:
    """gshare index: word PC XOR folded history, truncated to ``width``."""
    folded = fold_history(history, history_length, width)
    return ((address >> ADDRESS_ALIGN_SHIFT) ^ folded) & bit_mask(width)


def skew_h(value: int, width: int) -> int:
    """One step of the invertible skewing shuffle ``H``.

    ``H(y)`` shifts ``y`` right by one and feeds ``y0 XOR y_{width-1}``
    into the vacated top bit.  Linear over GF(2) and invertible for every
    width >= 1 (for width 1 it is the identity).  ``value`` may also be
    an integer numpy array (never mutated): the 2bcgskew kernel skews
    whole index columns with it.
    """
    if width < 1:
        raise ConfigurationError(f"skew width must be >= 1, got {width}")
    if width == 1:
        return value & 1
    value = value & bit_mask(width)
    top = (value ^ (value >> (width - 1))) & 1
    return (value >> 1) | (top << (width - 1))


def skew_h_inv(value: int, width: int) -> int:
    """Inverse of :func:`skew_h`.

    From ``r = H(y)``: ``y_i = r_{i-1}`` for ``i >= 1`` and
    ``y_0 = r_{width-1} XOR y_{width-1} = r_{width-1} XOR r_{width-2}``.
    """
    if width < 1:
        raise ConfigurationError(f"skew width must be >= 1, got {width}")
    if width == 1:
        return value & 1
    value = value & bit_mask(width)
    top = (value >> (width - 1)) & 1
    second = (value >> (width - 2)) & 1
    y0 = top ^ second
    return ((value << 1) & bit_mask(width)) | y0


class SkewTables:
    """Precomputed ``H``/``Hinv`` lookup tables for one index width.

    The tables make the per-branch cost of skewed indexing two list
    lookups instead of shift/XOR chains, which matters in the pure-Python
    2bcgskew simulation loop.
    """

    __slots__ = ("width", "h", "h_inv")

    def __init__(self, width: int):
        if not 1 <= width <= 20:
            raise ConfigurationError(
                f"skew tables support widths 1..20, got {width} "
                "(a 2**20-entry bank is already a 256 Kbyte predictor)"
            )
        self.width = width
        self.h = [skew_h(v, width) for v in range(1 << width)]
        self.h_inv = [skew_h_inv(v, width) for v in range(1 << width)]

    def check_bijective(self) -> None:
        """Assert H and Hinv are mutually inverse permutations (tests)."""
        size = 1 << self.width
        if sorted(self.h) != list(range(size)):
            raise AssertionError(f"H is not a permutation at width {self.width}")
        for v in range(size):
            if self.h_inv[self.h[v]] != v:
                raise AssertionError(
                    f"Hinv(H({v})) = {self.h_inv[self.h[v]]} at width {self.width}"
                )


@lru_cache(maxsize=32)
def skew_tables(width: int) -> SkewTables:
    """Shared, cached :class:`SkewTables` per width."""
    return SkewTables(width)
