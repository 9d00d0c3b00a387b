"""Null/data containers, random streams and the count-table reader.

The nulls are stored sorted non-increasing, matching the convention under
which every rate formula in :mod:`supgof.rates` is written.

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


@dataclass(frozen=True)
class RateVector:
    """Poisson null rates, sorted non-increasing and strictly positive."""

    rates: np.ndarray

    def __post_init__(self):
        arr = _as_float_vector(self.rates, "rates")
        if np.any(np.diff(arr) > 0):
            raise ValueError("rates must be sorted non-increasing")
        if arr[-1] <= 0.0:
            raise ValueError("rates must be strictly positive")
        object.__setattr__(self, "rates", arr)
        arr.setflags(write=False)

    @property
    def p(self) -> int:
        return self.rates.size


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
            cells = [c.strip() for c in row if c.strip() != ""]
            if not cells:
                continue
            try:
                parsed = list(map(_parse_count, cells))
            except ValueError:
                if lineno == 0 and not all(map(_is_number, cells)):
                    continue  # header
                raise ValueError(f"non-integer entry in CSV row {lineno + 1}: {row!r}")
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
