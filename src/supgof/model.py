"""Null/data containers, random streams and the count-table reader.

The nulls are stored sorted non-increasing, matching the convention under
which every rate formula in :mod:`supgof.rates` is written.  A Poisson null
may also be given as runs of equal rates, so that ``p`` far beyond memory
(up to 2^53) is a few numbers.

Random streams are derived from a counter-based generator (Philox) keyed by
the seed plus an arbitrary integer path, so prior draws for different
purposes use disjoint substreams reproducibly.
"""

from __future__ import annotations

import csv
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


class RateVector:
    """Poisson null rates, sorted non-increasing and strictly positive.

    ``RateVector(rates)`` takes the rates one per coordinate;
    :meth:`from_runs` takes runs of equal rates, so ``p`` may reach
    ``MAX_P``.  :attr:`runs` gives the runs either way.  The dense
    :attr:`rates` of a null built from runs is formed on first use, and only
    up to ``DENSE_RATES_CAP`` coordinates: past it a ``ValueError`` names
    the cap.
    """

    __slots__ = ("_rates", "_runs", "_p")

    def __init__(self, rates):
        arr = _as_float_vector(rates, "rates")
        _check_rates(arr, "rates")
        arr.setflags(write=False)
        self._rates, self._runs, self._p = arr, None, arr.size

    @classmethod
    def from_runs(cls, values, counts) -> "RateVector":
        """The null of ``counts[g]`` coordinates at rate ``values[g]``, for each run ``g``.

        ``values`` must be non-increasing and positive; each count must be
        an integer (an integral float included) of at least 1, and their
        sum, ``p``, at most ``MAX_P``.
        """
        vals = _as_float_vector(values, "run rates")
        _check_rates(vals, "run rates")
        cnt = np.asarray(counts)
        if cnt.dtype.kind not in "iuf" or cnt.shape != vals.shape:
            raise ValueError("run counts must be numbers, one per run rate")
        if not np.all((cnt >= 1) & (cnt <= MAX_P) & (np.floor(cnt) == cnt)):
            raise ValueError(f"run counts must be integers in [1, {MAX_P}]")
        cnt = cnt.astype(np.int64)
        p = int(cnt.sum())  # wraps only where the float sum is far past MAX_P
        if cnt.sum(dtype=float) > MAX_P or p > MAX_P:
            raise ValueError(f"a null of more than MAX_P = {MAX_P} coordinates")
        for arr in (vals, cnt):
            arr.setflags(write=False)
        out = cls.__new__(cls)
        out._rates, out._runs, out._p = None, (vals, cnt), p
        return out

    @property
    def p(self) -> int:
        return self._p

    @property
    def rates(self) -> np.ndarray:
        """One rate per coordinate, read-only."""
        if self._rates is None:
            if self._p > DENSE_RATES_CAP:
                raise ValueError(
                    f"a null of p = {self._p} coordinates has no dense rate array: "
                    f"over the cap of DENSE_RATES_CAP = {DENSE_RATES_CAP}"
                )
            self._rates = np.repeat(*self._runs)
            self._rates.setflags(write=False)
        return self._rates

    @property
    def runs(self) -> tuple[np.ndarray, np.ndarray]:
        """``(values, counts)``: the rates of the runs, in order, and their lengths.

        A null built from dense rates has its maximal runs, and when every
        rate is distinct ``values`` is :attr:`rates` itself.
        """
        if self._runs is None:
            rates = self._rates
            ends = np.r_[np.flatnonzero(np.diff(rates)) + 1, rates.size]
            values = rates if ends.size == rates.size else rates[ends - 1]
            counts = np.diff(ends, prepend=0)
            for arr in (values, counts):
                arr.setflags(write=False)
            self._runs = (values, counts)
        return self._runs


@dataclass(frozen=True)
class SimplexVector:
    """Multinomial null, sorted non-increasing, entries >= 0, summing to 1."""

    probs: np.ndarray

    def __post_init__(self):
        arr = _as_float_vector(self.probs, "probs")
        if np.any(np.diff(arr) > 0):
            raise ValueError("probs must be sorted non-increasing")
        if arr[-1] < 0.0 or arr[0] > 1.0:
            raise ValueError("probs must lie in [0, 1]")
        if abs(arr.sum() - 1.0) > SIMPLEX_SUM_TOL:
            raise ValueError(f"probs must sum to 1 within {SIMPLEX_SUM_TOL}, got {arr.sum()!r}")
        object.__setattr__(self, "probs", arr)
        arr.setflags(write=False)

    @property
    def p(self) -> int:
        return self.probs.size

    @property
    def head(self) -> float:
        """Largest cell probability."""
        return float(self.probs[0])

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


def read_counts_csv(path, p_expected: int) -> np.ndarray:
    """Read a count table: one row per replicate, ``p_expected`` integer columns.

    A first row with a non-numeric cell is a header and is skipped; any
    other row that is not all integers is an error.  Integer cells are read
    exactly, so every int64 count survives.
    """
    rows: list[list[int]] = []
    with open(Path(path), newline="") as fh:
        reader = csv.reader(fh)
        for lineno, row in enumerate(reader):
            try:
                parsed = list(map(int, row))  # plain integers, the common row
            except ValueError:  # blanks, float spellings, a header: cell by cell
                cells = [c.strip() for c in row if c.strip() != ""]
                try:
                    parsed = list(map(_parse_count, cells))
                except ValueError:
                    if lineno == 0 and not all(map(_is_number, cells)):
                        continue  # header
                    raise ValueError(f"non-integer entry in CSV row {lineno + 1}: {row!r}")
            if not parsed:
                continue
            if min(parsed) < _INT64_MIN or max(parsed) > _INT64_MAX:
                raise ValueError(f"count out of range in CSV row {lineno + 1}: {row!r}")
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
