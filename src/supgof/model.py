"""Null/data containers, random streams and the count-table reader.

The nulls are stored sorted non-increasing, matching the convention under
which every rate formula in :mod:`supgof.rates` is written.  A Poisson or
multinomial null may also be given as runs of equal values, so that ``p``
far beyond memory (up to 2^53) is a few numbers.

Random streams are derived from a counter-based generator (Philox) keyed by
the seed plus an arbitrary integer path, so prior draws for different
purposes use disjoint substreams reproducibly.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = [
    "RateVector",
    "SimplexVector",
    "CountVector",
    "sample_size_value",
    "rng_stream",
    "as_probability_vector",
    "read_counts_csv",
]

SIMPLEX_SUM_TOL = 1e-12
# The most coordinates a null may have: every index up to 2^53 is exact in float64.
MAX_P = 2**53
# The most coordinates a null built from runs expands to in its dense rate array (80 MB).
DENSE_RATES_CAP = 10**7
_INT64_MIN, _INT64_MAX = int(np.iinfo(np.int64).min), int(np.iinfo(np.int64).max)


def rng_stream(seed: int, *path: int) -> np.random.Generator:
    """Independent counter-based stream for ``(seed, path...)``."""
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(k) for k in path))
    return np.random.Generator(np.random.Philox(ss))


def _as_float_vector(values, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError(f"{name} must be a nonempty 1-D sequence")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite")
    return arr


def _check_rates(arr: np.ndarray, name: str) -> None:
    if np.any(np.diff(arr) > 0):
        raise ValueError(f"{name} must be sorted non-increasing")
    if arr[-1] <= 0.0:
        raise ValueError(f"{name} must be strictly positive")


def _check_probs(arr: np.ndarray, name: str) -> None:
    if np.any(np.diff(arr) > 0):
        raise ValueError(f"{name} must be sorted non-increasing")
    if arr[-1] < 0.0 or arr[0] > 1.0:
        raise ValueError(f"{name} must lie in [0, 1]")


def _check_sum(total) -> None:
    if abs(total - 1.0) > SIMPLEX_SUM_TOL:
        raise ValueError(f"probs must sum to 1 within {SIMPLEX_SUM_TOL}, got {total!r}")


class _SortedNull:
    """A sorted null held as one value per coordinate, as runs of equal
    values, or both: each form is made from the other on first use, and the
    dense one only up to ``DENSE_RATES_CAP`` coordinates, past which a
    ``ValueError`` names the cap.  :class:`RateVector` and
    :class:`SimplexVector` differ only in their value checks and in whether
    the first coordinate is a run of its own."""

    __slots__ = ("_dense", "_runs", "_p")
    # Set by each subclass: the value check ``_check(arr, name)``, the name
    # its messages give the values (``_VALUES``), and whether the first
    # coordinate is always a run of its own (``_HEAD_RUN``).
    _HEAD_RUN = False

    def __init__(self, values):
        arr = _as_float_vector(values, self._VALUES)
        self._check(arr, self._VALUES)
        arr.setflags(write=False)
        self._dense, self._runs, self._p = arr, None, arr.size

    @classmethod
    def _from_checked_runs(cls, vals: np.ndarray, cnt: np.ndarray):
        """The null of the validated runs; a subclass adds its own checks."""
        out = cls.__new__(cls)
        out._dense, out._runs, out._p = None, (vals, cnt), int(cnt.sum())
        return out

    @classmethod
    def from_runs(cls, values, counts):
        """The null of ``counts[g]`` coordinates at value ``values[g]``, for each run ``g``.

        ``values`` must pass the dense checks; each count must be an integer
        (an integral float included) of at least 1, and their sum, ``p``, at
        most ``MAX_P``.
        """
        name = f"run {cls._VALUES}"
        vals = _as_float_vector(values, name)
        cls._check(vals, name)
        cnt = np.asarray(counts)
        if cnt.dtype.kind not in "iuf" or cnt.shape != vals.shape:
            raise ValueError("run counts must be numbers, one per run value")
        if not np.all((cnt >= 1) & (cnt <= MAX_P) & (np.floor(cnt) == cnt)):
            raise ValueError(f"run counts must be integers in [1, {MAX_P}]")
        cnt = cnt.astype(np.int64)
        # int64 wraps only where the float sum is far past MAX_P
        if cnt.sum(dtype=float) > MAX_P or int(cnt.sum()) > MAX_P:
            raise ValueError(f"a null of more than MAX_P = {MAX_P} coordinates")
        out = cls._from_checked_runs(vals, cnt)
        for arr in out._runs:
            arr.setflags(write=False)
        return out

    @property
    def p(self) -> int:
        return self._p

    def _expanded(self) -> np.ndarray:
        if self._dense is None:
            if self._p > DENSE_RATES_CAP:
                raise ValueError(
                    f"a null of p = {self._p} coordinates has no dense {self._VALUES} array: "
                    f"over the cap of DENSE_RATES_CAP = {DENSE_RATES_CAP}"
                )
            self._dense = np.repeat(*self._runs)
            self._dense.setflags(write=False)
        return self._dense

    @property
    def runs(self) -> tuple[np.ndarray, np.ndarray]:
        """``(values, counts)``: the values of the runs, in order, and their lengths.

        A null built from dense values has its maximal runs (the first
        coordinate alone where it is a run of its own), and when every run
        is one coordinate ``values`` is the dense array itself.
        """
        if self._runs is None:
            arr = self._dense
            breaks = np.flatnonzero(np.diff(arr)) + 1
            if self._HEAD_RUN and arr.size > 1 and (breaks.size == 0 or breaks[0] != 1):
                breaks = np.r_[1, breaks]
            ends = np.r_[breaks, arr.size]
            values = arr if ends.size == arr.size else arr[ends - 1]
            counts = np.diff(ends, prepend=0)
            for out in (values, counts):
                out.setflags(write=False)
            self._runs = (values, counts)
        return self._runs


class RateVector(_SortedNull):
    """Poisson null rates, sorted non-increasing and strictly positive.

    ``RateVector(rates)`` takes the rates one per coordinate;
    :meth:`from_runs` takes runs of equal rates, so ``p`` may reach
    ``MAX_P``.  :attr:`runs` gives the runs either way.  The dense
    :attr:`rates` of a null built from runs is formed on first use, and only
    up to ``DENSE_RATES_CAP`` coordinates: past it a ``ValueError`` names
    the cap.
    """

    __slots__ = ()
    _VALUES = "rates"
    _check = staticmethod(_check_rates)

    @property
    def rates(self) -> np.ndarray:
        """One rate per coordinate, read-only."""
        return self._expanded()


class SimplexVector(_SortedNull):
    """Multinomial null, sorted non-increasing, entries in [0, 1], summing to 1.

    ``SimplexVector(probs)`` takes one probability per cell; :meth:`from_runs`
    takes runs of equal probabilities, so ``p`` may reach ``MAX_P``, and
    checks ``sum_g counts[g] values[g]`` against 1 within
    ``SIMPLEX_SUM_TOL``.  The head cell is always a run of its own in
    :attr:`runs`, even when it ties with the next cell.  The dense
    :attr:`probs` is capped as :class:`RateVector`'s rates are.
    """

    __slots__ = ()
    _VALUES, _HEAD_RUN = "probs", True
    _check = staticmethod(_check_probs)

    def __init__(self, probs):
        super().__init__(probs)
        _check_sum(self._dense.sum())

    @classmethod
    def _from_checked_runs(cls, vals, cnt):
        _check_sum(float(cnt @ vals))
        if cnt[0] > 1:  # split the head off its run
            vals, cnt = np.r_[vals[0], vals], np.r_[1, cnt[0] - 1, cnt[1:]]
        return super()._from_checked_runs(vals, cnt)

    @property
    def probs(self) -> np.ndarray:
        """One probability per cell, read-only."""
        return self._expanded()

    @property
    def head(self) -> float:
        """Largest cell probability."""
        return float((self._runs[0] if self._dense is None else self._dense)[0])

    @property
    def tail(self) -> np.ndarray:
        """All cells except the largest (possibly empty)."""
        return self.probs[1:]


@dataclass(frozen=True)
class CountVector:
    """Observed nonnegative integer counts."""

    counts: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.counts)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("counts must be a nonempty 1-D sequence")
        if not np.issubdtype(arr.dtype, np.integer):
            as_int = np.asarray(arr, dtype=np.int64)
            if not np.array_equal(as_int, arr):
                raise ValueError("counts must be integers")
            arr = as_int
        else:
            arr = arr.astype(np.int64)
        if np.any(arr < 0):
            raise ValueError("counts must be nonnegative")
        object.__setattr__(self, "counts", arr)
        arr.setflags(write=False)

    @property
    def p(self) -> int:
        return self.counts.size


def sample_size_value(n: float) -> float:
    """``n`` as a float, validated positive and finite.

    Real values are legal: the Poissonized model takes a non-integral ``n``.
    """
    if not (np.isfinite(n) and n > 0):
        raise ValueError(f"sample size must be positive and finite, got {n!r}")
    return float(n)


def as_probability_vector(q, name: str = "q") -> np.ndarray:
    """Validate a probability vector without the sortedness requirement.

    Alternatives produced by the lower-bound constructions live on the
    simplex but are generally not sorted; the risk estimators accept them
    directly.
    """
    if isinstance(q, SimplexVector):
        return q.probs
    arr = _as_float_vector(q, name)
    if np.any(arr < -SIMPLEX_SUM_TOL):
        raise ValueError(f"{name} must be nonnegative")
    if abs(arr.sum() - 1.0) > 1e-9:
        raise ValueError(f"{name} must sum to 1, got {arr.sum()!r}")
    return np.clip(arr, 0.0, None)


def _is_number(cell: str) -> bool:
    try:
        float(cell)
    except ValueError:
        return False
    return True


def _parse_count(cell: str) -> int:
    """An integer cell, parsed exactly; an integral float spelling such as
    ``3.0`` or ``1e3`` goes through ``float``.  Raises ``ValueError`` otherwise."""
    try:
        return int(cell)
    except ValueError:
        value = float(cell)
        if not value.is_integer():  # also inf and nan
            raise
        return int(value)


def _parse_row(row: list[str], lineno: int) -> list[int] | None:
    """The counts of CSV record ``lineno`` (0-based), or None for a header:
    a first record with a non-numeric cell.  Blank cells are dropped."""
    try:
        parsed = list(map(int, row))  # plain integers, the common row
    except ValueError:  # blanks, float spellings, a header: cell by cell
        cells = [c.strip() for c in row if c.strip() != ""]
        try:
            parsed = list(map(_parse_count, cells))
        except ValueError:
            if lineno == 0 and not all(map(_is_number, cells)):
                return None
            raise ValueError(f"non-integer entry in CSV row {lineno + 1}: {row!r}")
    if parsed and (min(parsed) < _INT64_MIN or max(parsed) > _INT64_MAX):
        raise ValueError(f"count out of range in CSV row {lineno + 1}: {row!r}")
    return parsed


def _read_plain_table(path) -> np.ndarray | None:
    """The table of a file of plain int64 rows, after an optional header
    line, in one ``np.loadtxt`` call; None for any file numpy refuses
    (blanks, float spellings, quotes, ragged rows, int64 overflow, no rows),
    which the cell-by-cell reader then reads or refuses with its message."""
    with open(Path(path), newline="") as fh:
        try:
            first = fh.readline()
            if '"' in first:  # a quoted record may not end with its line
                return None
            if _parse_row(next(csv.reader([first]), []), 0) is not None:
                fh.seek(0)  # no header: the first line is data
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # numpy warns on a file without rows
                table = np.loadtxt(fh, delimiter=",", dtype=np.int64, comments=None, ndmin=2)
        except (ValueError, OverflowError, csv.Error, Warning):
            return None
    return table if table.size else None


def read_counts_csv(path, p_expected: int) -> np.ndarray:
    """Read a count table: one row per replicate, ``p_expected`` integer columns.

    A first row with a non-numeric cell is a header and is skipped; any
    other row that is not all integers is an error.  Integer cells are read
    exactly, so every int64 count survives.  A file of plain integer rows is
    read by numpy in one call; any other goes cell by cell, with the same
    result or error.
    """
    arr = _read_plain_table(path)
    if arr is None:
        rows: list[list[int]] = []
        with open(Path(path), newline="") as fh:
            for lineno, row in enumerate(csv.reader(fh)):
                parsed = _parse_row(row, lineno)
                if parsed:  # neither a header nor a blank row
                    rows.append(parsed)
        if not rows:
            raise ValueError(f"no data rows found in {path}")
        widths = {len(r) for r in rows}
        if len(widths) != 1:
            raise ValueError(f"ragged CSV: row widths {sorted(widths)}")
        arr = np.asarray(rows, dtype=np.int64)
    if np.any(arr < 0):
        raise ValueError("counts must be nonnegative")
    if arr.shape[1] != p_expected:
        raise ValueError(f"expected {p_expected} columns, got {arr.shape[1]}")
    return arr
