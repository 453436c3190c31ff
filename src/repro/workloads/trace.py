"""Branch traces: the dynamic record of a workload execution.

A :class:`BranchTrace` is the column-oriented record of every conditional
branch executed by a synthetic workload, in order:

* ``site_indices[i]`` -- which static site executed (dense site id);
* ``addresses[i]``    -- that site's instruction address (denormalized
  from the program for fast simulation loops);
* ``outcomes[i]``     -- the resolved direction (True = taken);
* ``gaps[i]``         -- instructions retired by this record *including*
  the branch itself, so ``sum(gaps)`` is the total dynamic instruction
  count and MISPs/KI has a denominator.

Traces are plain Python lists rather than numpy arrays because the
reference predictor simulation loop reads them element-by-element; list
indexing is several times faster than numpy scalar access in CPython.

Three interchangeable serializations share one content identity
(:meth:`BranchTrace.content_digest`):

* the versioned **text** format (``dump``/``load_stream``) -- the
  interchange/debugging representation;
* the compressed **npz** format (``save_npz``/``load_npz``) -- ~20x
  smaller and ~50x faster to load;
* the **memmap** format (``save_memmap``/``load_memmap``) -- a directory
  of raw ``.npy`` columns that :mod:`numpy` can map without reading,
  for traces too large to materialize as Python lists.

The trace-length code paths (``validate``, ``dump``, ``load_stream``)
run whole-column numpy passes; the scalar loops they replaced survive as
module-private ``_*_scalar`` reference implementations, used for what
the columns cannot carry (ints beyond int64, malformed text that needs
an exact diagnostic) and as the bit-identity oracle in the test suite.
"""

from __future__ import annotations

import io
import json
import os
from dataclasses import dataclass, field
from typing import Iterator, TextIO

from repro.errors import TraceFormatError
from repro.utils.hotpath import hot_path

__all__ = ["BranchRecord", "BranchTrace"]

_FORMAT_HEADER = "repro-trace v1"
_MEMMAP_FORMAT = "repro-trace-memmap v1"
_MEMMAP_META = "meta.json"
_MEMMAP_COLUMNS = ("site_indices", "addresses", "outcomes", "gaps")
_DIGEST_HEADER = b"repro-trace-digest v1"


@dataclass(frozen=True, slots=True)
class BranchRecord:
    """One executed conditional branch (row view of a trace)."""

    site_index: int
    address: int
    taken: bool
    gap: int


def _require_clean_name(value: str, what: str) -> None:
    """Reject names the whitespace-delimited text format cannot carry.

    The metadata line is ``<program> <input> <count>``: a name containing
    any whitespace (or an empty name) would parse back as the wrong
    number of fields, so the asymmetry is rejected at *write* time with a
    clear error instead of surfacing as a confusing load failure later.
    """
    if not value or any(c.isspace() for c in value):
        raise TraceFormatError(
            f"{what} {value!r} cannot be written to the text trace format: "
            "names must be non-empty and contain no whitespace"
        )


def _npz_path(path: str) -> str:
    """The on-disk path ``numpy.savez_compressed`` actually writes.

    numpy silently appends ``.npz`` when the suffix is missing; doing the
    same normalization on both the save and load side keeps
    ``save_npz(p)`` / ``load_npz(p)`` a round-trip for every ``p``.
    """
    return path if path.endswith(".npz") else path + ".npz"


@dataclass(slots=True)
class BranchTrace:
    """Column-oriented branch trace.

    Invariants (enforced by :meth:`validate`):
    the four columns have equal length, gaps are >= 1, and addresses are
    4-byte aligned.
    """

    program_name: str
    input_name: str
    site_indices: list[int] = field(default_factory=list)
    addresses: list[int] = field(default_factory=list)
    outcomes: list[bool] = field(default_factory=list)
    gaps: list[int] = field(default_factory=list)
    _arrays: tuple | None = field(default=None, repr=False, compare=False)

    def __len__(self) -> int:
        return len(self.site_indices)

    def __iter__(self) -> Iterator[BranchRecord]:
        for i in range(len(self.site_indices)):
            yield BranchRecord(
                site_index=self.site_indices[i],
                address=self.addresses[i],
                taken=self.outcomes[i],
                gap=self.gaps[i],
            )

    @property
    def instruction_count(self) -> int:
        """Total dynamic instructions (branches + non-branches)."""
        return sum(self.gaps)

    @property
    def branch_count(self) -> int:
        """Total dynamic conditional branches."""
        return len(self.site_indices)

    def cbrs_per_ki(self) -> float:
        """Dynamic conditional branches per thousand instructions."""
        instructions = self.instruction_count
        if instructions == 0:
            return 0.0
        return 1000.0 * self.branch_count / instructions

    def taken_rate(self) -> float:
        """Fraction of dynamic branches that were taken."""
        if len(self.outcomes) == 0:
            return 0.0
        return sum(self.outcomes) / len(self.outcomes)

    def sites_executed(self) -> set[int]:
        """Set of static site indices that executed at least once."""
        return set(self.site_indices)

    @hot_path
    def validate(self) -> None:
        """Check structural invariants; raise :class:`TraceFormatError`.

        Whole-column numpy passes; the first offending record index is
        recovered from the violation mask so diagnostics match the
        scalar reference (:func:`_validate_scalar`) exactly.
        """
        n = len(self.site_indices)
        if not (len(self.addresses) == len(self.outcomes) == len(self.gaps) == n):
            raise TraceFormatError(
                f"ragged trace columns: sites={len(self.site_indices)} "
                f"addresses={len(self.addresses)} outcomes={len(self.outcomes)} "
                f"gaps={len(self.gaps)}"
            )
        if n == 0:
            return
        import numpy

        try:
            gaps = numpy.asarray(self.gaps, dtype=numpy.int64)
            addresses = numpy.asarray(self.addresses, dtype=numpy.int64)
        except OverflowError:
            # Columns holding ints beyond int64 (pathological but legal
            # for the list representation) take the arbitrary-precision
            # scalar path.
            _validate_scalar(self)
            return
        bad = gaps < 1
        if bad.any():
            i = int(bad.argmax())
            raise TraceFormatError(f"record {i} has gap {self.gaps[i]} < 1")
        # repro: allow[BIT001] -- alignment validation, not table indexing
        bad = addresses % 4 != 0
        if bad.any():
            i = int(bad.argmax())
            raise TraceFormatError(
                f"record {i} has unaligned address {self.addresses[i]:#x}"
            )

    def arrays(self) -> tuple:
        """The ``(addresses, outcomes)`` columns as numpy arrays, memoized.

        Fast simulation kernels (:mod:`repro.kernels`) consume whole
        columns at once; memoizing the conversion means its cost is
        paid once per trace, not once per simulated cell.  Addresses
        convert to ``int64`` (they are small, aligned instruction
        addresses), outcomes to numpy bools.

        Contract: callers must treat the returned arrays as read-only
        views of the trace, and the trace columns as frozen once the
        first ``arrays()`` call has been made.  The memo is refreshed
        automatically when either column's *length* changes; a
        same-length in-place edit is invisible to the length guard, so
        code that must mutate columns after this call has to invalidate
        the memo explicitly via :meth:`invalidate_arrays`.
        """
        import numpy

        if (
            self._arrays is None
            or self._arrays[0].shape[0] != len(self.addresses)
            or self._arrays[1].shape[0] != len(self.outcomes)
        ):
            self._arrays = (
                numpy.asarray(self.addresses, dtype=numpy.int64),
                numpy.asarray(self.outcomes, dtype=numpy.bool_),
            )
        return self._arrays

    def invalidate_arrays(self) -> None:
        """Drop the memoized :meth:`arrays` columns.

        Required after any in-place column mutation that preserves
        length (e.g. flipping an outcome): the memo guard can only see
        length changes, never content changes.
        """
        self._arrays = None

    def slice(self, start: int, stop: int) -> "BranchTrace":
        """Return a sub-trace covering records ``[start, stop)``.

        Used by phase-split experiments (e.g. warming up a predictor on a
        prefix, measuring on the rest).
        """
        return BranchTrace(
            program_name=self.program_name,
            input_name=self.input_name,
            site_indices=self.site_indices[start:stop],
            addresses=self.addresses[start:stop],
            outcomes=self.outcomes[start:stop],
            gaps=self.gaps[start:stop],
        )

    # -- content identity --------------------------------------------------

    def content_digest(self) -> str:
        """SHA-256 over the trace's canonical byte representation.

        Format-independent: the same trace produces the same digest
        whether it was generated in memory or round-tripped through the
        text, npz, or memmap serialization.  Columns hash as explicit
        little-endian fixed-width arrays so the digest is stable across
        platforms; the pinned trace suites (:mod:`repro.traces`) store
        this value in artifact manifests and fold it into result-cache
        keys.
        """
        import hashlib

        import numpy

        digest = hashlib.sha256()
        digest.update(_DIGEST_HEADER)
        digest.update(
            f"\n{self.program_name}\n{self.input_name}\n{len(self)}\n".encode("utf-8")
        )
        digest.update(numpy.asarray(self.site_indices, dtype="<i8").tobytes())
        digest.update(numpy.asarray(self.addresses, dtype="<i8").tobytes())
        digest.update(numpy.asarray(self.outcomes, dtype=numpy.bool_).tobytes())
        digest.update(numpy.asarray(self.gaps, dtype="<i8").tobytes())
        return digest.hexdigest()

    # -- file I/O ----------------------------------------------------------

    @hot_path
    def dump(self, stream: TextIO) -> None:
        """Write the trace to a text stream.

        Format: a header line, a metadata line, then one line per record
        with ``site_index address taken gap`` (address in hex, taken as
        0/1).  Record lines are rendered with whole-column numpy string
        formatting and written in one pass; output is byte-identical to
        the scalar reference (:func:`_dump_records_scalar`).
        """
        _require_clean_name(self.program_name, "program name")
        _require_clean_name(self.input_name, "input name")
        stream.write(_FORMAT_HEADER + "\n")
        stream.write(f"{self.program_name} {self.input_name} {len(self)}\n")
        if not self.site_indices:
            return
        import numpy

        try:
            sites = numpy.asarray(self.site_indices, dtype=numpy.int64)
            addresses = numpy.asarray(self.addresses, dtype=numpy.int64)
            outcomes = numpy.asarray(self.outcomes, dtype=numpy.int64)
            gaps = numpy.asarray(self.gaps, dtype=numpy.int64)
        except OverflowError:
            _dump_records_scalar(self, stream)
            return
        lines = numpy.char.add(
            numpy.char.add(
                numpy.char.mod("%d ", sites), numpy.char.mod("%x ", addresses)
            ),
            numpy.char.add(
                numpy.char.mod("%d ", outcomes), numpy.char.mod("%d", gaps)
            ),
        )
        stream.write("\n".join(lines.tolist()))
        stream.write("\n")

    def dumps(self) -> str:
        """Serialize the trace to a string."""
        buffer = io.StringIO()
        self.dump(buffer)
        return buffer.getvalue()

    def save(self, path: str) -> None:
        """Write the trace to a file."""
        with open(path, "w", encoding="ascii") as stream:
            self.dump(stream)

    @classmethod
    @hot_path
    def load_stream(cls, stream: TextIO) -> "BranchTrace":
        """Read a trace written by :meth:`dump`.

        The record block is read in one pass and parsed with
        whole-column conversions (:func:`_parse_records`); trailing
        blank lines are tolerated.  Malformed input falls back to the
        scalar reference parser so error messages (including line
        numbers) are identical to the historical per-line loop.
        """
        header = stream.readline().rstrip("\n")
        if header != _FORMAT_HEADER:
            raise TraceFormatError(f"bad trace header: {header!r}")
        meta = stream.readline().split()
        if len(meta) != 3:
            raise TraceFormatError(f"bad trace metadata line: {meta!r}")
        program_name, input_name, count_text = meta
        try:
            count = int(count_text)
        except ValueError as exc:
            raise TraceFormatError(f"bad record count: {count_text!r}") from exc
        site_indices, addresses, outcomes, gaps = _parse_records(stream.read())
        trace = cls(
            program_name=program_name,
            input_name=input_name,
            site_indices=site_indices,
            addresses=addresses,
            outcomes=outcomes,
            gaps=gaps,
        )
        if len(trace) != count:
            raise TraceFormatError(
                f"trace declared {count} records but contains {len(trace)}"
            )
        trace.validate()
        return trace

    @classmethod
    def loads(cls, text: str) -> "BranchTrace":
        """Parse a trace from a string."""
        return cls.load_stream(io.StringIO(text))

    @classmethod
    def load(cls, path: str) -> "BranchTrace":
        """Read a trace from a file."""
        with open(path, "r", encoding="ascii") as stream:
            return cls.load_stream(stream)

    # -- binary (npz) I/O --------------------------------------------------

    def save_npz(self, path: str) -> str:
        """Write the trace as a compressed numpy archive.

        For long traces the binary form is ~20x smaller and ~50x faster
        to load than the text format; the text format remains the
        interchange/debugging representation.  numpy appends ``.npz``
        when ``path`` lacks the suffix; the normalized path actually
        written is returned, and :meth:`load_npz` applies the same
        normalization so ``save_npz(p)``/``load_npz(p)`` round-trips
        for any ``p``.
        """
        import numpy

        actual = _npz_path(path)
        numpy.savez_compressed(
            actual,
            program_name=numpy.array(self.program_name),
            input_name=numpy.array(self.input_name),
            site_indices=numpy.asarray(self.site_indices, dtype=numpy.int32),
            addresses=numpy.asarray(self.addresses, dtype=numpy.uint64),
            outcomes=numpy.asarray(self.outcomes, dtype=numpy.bool_),
            gaps=numpy.asarray(self.gaps, dtype=numpy.int32),
        )
        return actual

    @classmethod
    def load_npz(cls, path: str) -> "BranchTrace":
        """Read a trace written by :meth:`save_npz`.

        Accepts the same ``path`` that was passed to ``save_npz`` --
        with or without the ``.npz`` suffix numpy appends -- preferring
        the normalized name and falling back to the literal path when
        only that exists.  Columns come back as plain Python lists (the
        simulation loop's native representation).
        """
        import zipfile

        import numpy

        actual = _npz_path(path)
        if actual != path and not os.path.exists(actual) and os.path.exists(path):
            actual = path
        try:
            with numpy.load(actual) as data:
                trace = cls(
                    program_name=str(data["program_name"]),
                    input_name=str(data["input_name"]),
                    site_indices=[int(v) for v in data["site_indices"]],
                    addresses=[int(v) for v in data["addresses"]],
                    outcomes=[bool(v) for v in data["outcomes"]],
                    gaps=[int(v) for v in data["gaps"]],
                )
        except (OSError, KeyError, ValueError, zipfile.BadZipFile) as exc:
            # BadZipFile is listed explicitly: it derives from neither
            # OSError nor ValueError, and a truncated archive raises it.
            raise TraceFormatError(f"cannot read npz trace {actual!r}: {exc}") from exc
        trace.validate()
        return trace

    # -- memmap I/O --------------------------------------------------------

    def save_memmap(self, path: str) -> str:
        """Write the trace as a directory of raw ``.npy`` columns.

        The memmap format trades the npz format's compression for
        zero-copy loading: each column is a plain ``numpy.save`` file
        that ``load_memmap(..., materialize=False)`` maps read-only
        without reading, so multi-gigabranch traces never have to fit
        in memory as Python lists.  ``meta.json`` carries the names,
        length, and :meth:`content_digest`.
        """
        import numpy

        os.makedirs(path, exist_ok=True)
        numpy.save(
            os.path.join(path, "site_indices.npy"),
            numpy.asarray(self.site_indices, dtype=numpy.int32),
        )
        numpy.save(
            os.path.join(path, "addresses.npy"),
            numpy.asarray(self.addresses, dtype=numpy.uint64),
        )
        numpy.save(
            os.path.join(path, "outcomes.npy"),
            numpy.asarray(self.outcomes, dtype=numpy.bool_),
        )
        numpy.save(
            os.path.join(path, "gaps.npy"),
            numpy.asarray(self.gaps, dtype=numpy.int32),
        )
        meta = {
            "format": _MEMMAP_FORMAT,
            "program_name": self.program_name,
            "input_name": self.input_name,
            "length": len(self),
            "content_digest": self.content_digest(),
        }
        with open(os.path.join(path, _MEMMAP_META), "w", encoding="utf-8") as stream:
            json.dump(meta, stream, sort_keys=True, indent=2)
        return path

    @classmethod
    def load_memmap(cls, path: str, materialize: bool = True) -> "BranchTrace":
        """Read a trace written by :meth:`save_memmap`.

        With ``materialize=True`` (the default) columns convert to plain
        Python lists, matching every other loader.  With
        ``materialize=False`` the columns stay read-only numpy memmap
        arrays -- the whole-column consumers (:meth:`arrays`, the fast
        kernels, :meth:`validate`, :meth:`content_digest`) work
        unchanged and the trace is never fully resident; per-element
        access still works but is slower than lists, so the reference
        simulation loop should use materialized traces.
        """
        import numpy

        meta_path = os.path.join(path, _MEMMAP_META)
        try:
            with open(meta_path, "r", encoding="utf-8") as stream:
                meta = json.load(stream)
        except (OSError, ValueError) as exc:
            raise TraceFormatError(
                f"cannot read memmap trace {path!r}: {exc}"
            ) from exc
        if meta.get("format") != _MEMMAP_FORMAT:
            raise TraceFormatError(
                f"bad memmap trace format in {meta_path!r}: {meta.get('format')!r}"
            )
        columns = {}
        for name in _MEMMAP_COLUMNS:
            column_path = os.path.join(path, f"{name}.npy")
            try:
                columns[name] = numpy.load(column_path, mmap_mode="r")
            except (OSError, ValueError) as exc:
                raise TraceFormatError(
                    f"cannot read memmap trace column {column_path!r}: {exc}"
                ) from exc
        lengths = {name: int(column.shape[0]) for name, column in columns.items()}
        if len(set(lengths.values())) != 1 or next(iter(lengths.values())) != meta.get("length"):
            raise TraceFormatError(
                f"memmap trace {path!r} column lengths {lengths} do not match "
                f"declared length {meta.get('length')!r}"
            )
        if materialize:
            site_indices = [int(v) for v in columns["site_indices"]]
            addresses = [int(v) for v in columns["addresses"]]
            outcomes = [bool(v) for v in columns["outcomes"]]
            gaps = [int(v) for v in columns["gaps"]]
        else:
            site_indices = columns["site_indices"]
            addresses = columns["addresses"]
            outcomes = columns["outcomes"]
            gaps = columns["gaps"]
        trace = cls(
            program_name=str(meta.get("program_name", "")),
            input_name=str(meta.get("input_name", "")),
            site_indices=site_indices,
            addresses=addresses,
            outcomes=outcomes,
            gaps=gaps,
        )
        trace.validate()
        return trace


# ---------------------------------------------------------------------------
# Record-block parsing (text format)
# ---------------------------------------------------------------------------


def _parse_records(body: str) -> tuple[list[int], list[int], list[bool], list[int]]:
    """Parse the record block of the text format into four columns.

    Fast path: one flat whitespace split of the whole block plus
    whole-column numpy conversions.  The flat split only preserves line
    structure when every line is exactly four single-space-separated
    fields (the shape :meth:`BranchTrace.dump` writes), which is proven
    before trusting it: exactly three spaces per line, no
    leading/trailing space, and global character conservation
    (``sum(len(line)) == sum(len(token)) + 3 * lines``) together rule
    out any other whitespace or token-count aliasing across lines.
    Anything else -- unusual-but-legal whitespace, or malformed input
    needing an exact diagnostic -- takes the scalar reference parser,
    which is byte-for-byte the historical per-line loop.

    Trailing blank lines (a final ``\\n\\n``, editor-appended newlines)
    are tolerated; blank lines *between* records still fail with the
    usual ``expected 4 fields`` error at the right line number.
    """
    lines = body.split("\n")
    end = len(lines)
    while end > 0 and not lines[end - 1].strip():
        end -= 1
    lines = lines[:end]
    if not lines:
        return [], [], [], []
    tokens = body.split()
    if len(tokens) != 4 * len(lines):
        return _parse_records_scalar(lines)
    import numpy

    line_column = numpy.asarray(lines)
    canonical = (
        bool((numpy.char.count(line_column, " ") == 3).all())
        and not numpy.char.startswith(line_column, " ").any()
        and not numpy.char.endswith(line_column, " ").any()
        and int(numpy.char.str_len(line_column).sum())
        == sum(map(len, tokens)) + 3 * len(lines)
    )
    if not canonical:
        return _parse_records_scalar(lines)
    try:
        site_indices = numpy.asarray(tokens[0::4]).astype(numpy.int64).tolist()
        addresses = [int(token, 16) for token in tokens[1::4]]
        outcomes = (numpy.asarray(tokens[2::4]) == "1").tolist()
        gaps = numpy.asarray(tokens[3::4]).astype(numpy.int64).tolist()
    except (ValueError, OverflowError):
        # Some field does not convert (or converts differently at
        # arbitrary precision): the scalar parser either produces the
        # exact historical diagnostic or handles the value correctly.
        return _parse_records_scalar(lines)
    return site_indices, addresses, outcomes, gaps


# ---------------------------------------------------------------------------
# Scalar reference implementations
#
# The per-record loops the vectorized paths replaced.  They handle what
# the int64 columns cannot carry and malformed input, and are the oracle
# the differential tests compare against; well-formed traces never
# reach them.
# ---------------------------------------------------------------------------


def _validate_scalar(trace: BranchTrace) -> None:
    """Per-record reference for :meth:`BranchTrace.validate` (column checks)."""
    for i, gap in enumerate(trace.gaps):  # repro: allow[PERF001] -- beyond-int64 fallback; the vectorized pass above is the hot path
        if gap < 1:
            raise TraceFormatError(f"record {i} has gap {gap} < 1")
    for i, address in enumerate(trace.addresses):  # repro: allow[PERF001] -- beyond-int64 fallback
        # repro: allow[BIT001] -- alignment validation, not table indexing
        if address % 4 != 0:
            raise TraceFormatError(
                f"record {i} has unaligned address {address:#x}"
            )


def _dump_records_scalar(trace: BranchTrace, stream: TextIO) -> None:
    """Per-record reference for the record block of :meth:`BranchTrace.dump`."""
    write = stream.write
    for i in range(len(trace.site_indices)):  # repro: allow[PERF001] -- beyond-int64 fallback; the vectorized pass above is the hot path
        write(
            f"{trace.site_indices[i]} {trace.addresses[i]:x} "
            f"{1 if trace.outcomes[i] else 0} {trace.gaps[i]}\n"
        )


def _parse_records_scalar(
    lines: list[str],
) -> tuple[list[int], list[int], list[bool], list[int]]:
    """Per-line reference parser for the text format's record block.

    Line numbers count from 3 (after the header and metadata lines),
    matching the historical stream loop, so every diagnostic it raises
    is byte-identical to the pre-vectorization behavior.
    """
    site_indices: list[int] = []
    addresses: list[int] = []
    outcomes: list[bool] = []
    gaps: list[int] = []
    for line_no, line in enumerate(lines, start=3):
        parts = line.split()
        if len(parts) != 4:
            raise TraceFormatError(
                f"line {line_no}: expected 4 fields, got {parts!r}"
            )
        try:
            site_indices.append(int(parts[0]))
            addresses.append(int(parts[1], 16))
            outcomes.append(parts[2] == "1")
            gaps.append(int(parts[3]))
        except ValueError as exc:
            raise TraceFormatError(f"line {line_no}: {exc}") from exc
    return site_indices, addresses, outcomes, gaps
