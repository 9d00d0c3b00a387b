"""Null/data containers and exact samplers for the three count models.

The nulls are stored sorted non-increasing, matching the convention under
which every rate formula in :mod:`supgof.rates` is written.  Construction
from unsorted user data goes through ``from_unsorted``, which records the
sorting permutation so category labels survive.

Each model has one sampler, a single numpy call: ``Generator.multinomial``
for fixed ``n``, and independent ``Generator.poisson`` cells for the Poisson
product and the Poissonized multinomial (rates ``n*q``, exact in law).
Samplers are deterministic functions of ``(inputs, seed)``.  Streams are
derived from a counter-based generator (Philox) keyed by the seed plus an
arbitrary integer path, so parallel Monte Carlo trials can use disjoint
substreams reproducibly.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = [
    "RateVector",
    "SimplexVector",
    "CountVector",
    "SampleSize",
    "sample_size_value",
    "rng_stream",
    "sample_poisson_product",
    "sample_multinomial",
    "sample_poissonized_multinomial",
    "as_probability_vector",
    "read_counts_csv",
]

SIMPLEX_SUM_TOL = 1e-12


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

    @classmethod
    def from_unsorted(cls, values) -> tuple["RateVector", np.ndarray]:
        """Sort descending; returns the vector and the applied permutation."""
        arr = _as_float_vector(values, "rates")
        perm = np.argsort(-arr, kind="stable")
        return cls(arr[perm]), perm

    @property
    def p(self) -> int:
        return self.rates.size

    def to_json(self) -> str:
        return json.dumps(list(self.rates))


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

    @classmethod
    def from_unsorted(cls, values) -> tuple["SimplexVector", np.ndarray]:
        arr = _as_float_vector(values, "probs")
        perm = np.argsort(-arr, kind="stable")
        return cls(arr[perm]), perm

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

    def to_json(self) -> str:
        return json.dumps(list(self.probs))


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

    def to_json(self) -> str:
        return json.dumps([int(v) for v in self.counts])


@dataclass(frozen=True)
class SampleSize:
    """Sample size; real values are legal for the Poissonized model."""

    n: float

    def __post_init__(self):
        if not (np.isfinite(self.n) and self.n > 0):
            raise ValueError(f"sample size must be positive and finite, got {self.n!r}")

    def as_integer(self) -> int:
        if self.n != int(self.n):
            raise ValueError(f"multinomial sampling needs an integer n, got {self.n!r}")
        return int(self.n)


def sample_size_value(n: SampleSize | float) -> float:
    """``n`` as a float, validated as a :class:`SampleSize` (positive, finite)."""
    return float((n if isinstance(n, SampleSize) else SampleSize(n)).n)


def as_probability_vector(q, name: str = "q") -> np.ndarray:
    """Validate a probability vector without the sortedness requirement.

    Alternatives produced by the lower-bound constructions live on the
    simplex but are generally not sorted; samplers accept them directly.
    """
    if isinstance(q, SimplexVector):
        return q.probs
    arr = _as_float_vector(q, name)
    if np.any(arr < -SIMPLEX_SUM_TOL):
        raise ValueError(f"{name} must be nonnegative")
    if abs(arr.sum() - 1.0) > 1e-9:
        raise ValueError(f"{name} must sum to 1, got {arr.sum()!r}")
    return np.clip(arr, 0.0, None)


def sample_poisson_product(lam, rng_seed, trials: int | None = None):
    """Draw from the independent-Poisson model with per-category rates ``lam``.

    With ``trials=None`` returns a single :class:`CountVector`; otherwise an
    int64 array of shape ``(trials, p)``.
    """
    if isinstance(lam, RateVector):
        lam = lam.rates
    arr = np.asarray(lam, dtype=float)
    if arr.ndim != 1 or np.any(np.isnan(arr)) or np.any(arr < 0) or np.any(~np.isfinite(arr)):
        raise ValueError("rates must be finite and nonnegative")
    rng = rng_seed if isinstance(rng_seed, np.random.Generator) else rng_stream(rng_seed)
    if trials is None:
        return CountVector(rng.poisson(arr))
    return rng.poisson(arr, size=(int(trials), arr.size)).astype(np.int64)


def sample_multinomial(n: int, q, rng_seed, trials: int | None = None):
    """Draw from ``Multinomial(n, q)``; counts always sum to exactly ``n``."""
    if isinstance(n, SampleSize):
        n = n.as_integer()
    if n != int(n) or n < 0:
        raise ValueError(f"n must be a nonnegative integer, got {n!r}")
    pvals = as_probability_vector(q)
    rng = rng_seed if isinstance(rng_seed, np.random.Generator) else rng_stream(rng_seed)
    if trials is None:
        return CountVector(rng.multinomial(int(n), pvals))
    return rng.multinomial(int(n), pvals, size=int(trials)).astype(np.int64)


def sample_poissonized_multinomial(n: float, q, rng_seed, trials: int | None = None):
    """Poissonized multinomial: ``N ~ Poisson(n)`` then ``Multinomial(N, q)``.

    Its counts are exactly independent ``Poisson(n q(j))``, so it is drawn
    as the independent-Poisson model with rates ``n*q``.
    """
    if isinstance(n, SampleSize):
        n = n.n
    if not (np.isfinite(n) and n > 0):
        raise ValueError(f"n must be positive, got {n!r}")
    return sample_poisson_product(n * as_probability_vector(q), rng_seed, trials)


def read_counts_csv(path, p_expected: int | None = None) -> np.ndarray:
    """Read a count table: one row per replicate, p integer columns.

    A non-numeric first row is treated as a header and skipped.
    """
    rows: list[list[int]] = []
    with open(Path(path), newline="") as fh:
        reader = csv.reader(fh)
        for lineno, row in enumerate(reader):
            cells = [c.strip() for c in row if c.strip() != ""]
            if not cells:
                continue
            try:
                parsed = [int(float(c)) for c in cells]
                if any(float(c) != int(float(c)) for c in cells):
                    raise ValueError
            except ValueError:
                if lineno == 0:
                    continue  # header
                raise ValueError(f"non-integer entry in CSV row {lineno + 1}: {row!r}")
            rows.append(parsed)
    if not rows:
        raise ValueError(f"no data rows found in {path}")
    widths = {len(r) for r in rows}
    if len(widths) != 1:
        raise ValueError(f"ragged CSV: row widths {sorted(widths)}")
    arr = np.asarray(rows, dtype=np.int64)
    if np.any(arr < 0):
        raise ValueError("counts must be nonnegative")
    if p_expected is not None and arr.shape[1] != p_expected:
        raise ValueError(f"expected {p_expected} columns, got {arr.shape[1]}")
    return arr
