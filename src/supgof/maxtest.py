"""Decision procedures: the Poisson max test and the multinomial head/tail pair.

Threshold conventions follow the displays defining the tests: the max tests
reject on strict ``>`` exceedance, the head test on ``>=``.  Calibration
constants come from summing the relevant series exactly: the union bound
spends ``2/(C' j^2)`` per coordinate, so the smallest constant achieving
level ``eta/2`` is ``C' = 2 pi^2 / (3 eta)``, and analogously for the tail
test at level ``eta/4`` (clamped to at least ``e``).

Each test has one vectorized body.  It takes one count vector or a
``(rows, p)`` table: a table is decided row by row into a
:class:`TestDecision` of arrays, and a single vector is decided as a table
of one row into a decision of scalars.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import CountVector, RateVector, SampleSize, SimplexVector, sample_size_value
from .special import h_inverse

__all__ = [
    "TestDecision",
    "PoissonTestConfig",
    "MultinomialTestConfig",
    "calibrate_poisson",
    "calibrate_k2",
    "head_k1",
    "poisson_max_test",
    "multinomial_head_test",
    "multinomial_tail_test",
    "multinomial_combined_test",
]


@dataclass(frozen=True)
class TestDecision:
    """Outcome of a test: scalars for one count vector, and arrays with one
    entry per row for a ``(rows, p)`` table."""

    reject: bool | np.ndarray
    statistic: float | np.ndarray
    threshold: float | np.ndarray

    @property
    def label(self) -> str | np.ndarray:
        if np.ndim(self.reject):
            return np.where(self.reject, "reject", "accept")
        return "reject" if self.reject else "accept"


def _check_eta(eta: float) -> None:
    if not 0.0 < eta <= 1.0:
        raise ValueError(f"eta must lie in (0, 1], got {eta!r}")


def calibrate_poisson(eta: float) -> float:
    """Smallest ``C'`` with ``sum_j 2/(C' j^2) <= eta/2``."""
    _check_eta(eta)
    return 2.0 * math.pi**2 / (3.0 * eta)


def calibrate_k2(eta: float) -> float:
    """Smallest ``K2 >= e`` with ``sum_{j>=2} 2/(K2 (j-1)^2) <= eta/4``."""
    _check_eta(eta)
    return max(math.e, 4.0 * math.pi**2 / (3.0 * eta))


def head_k1(eta: float) -> float:
    """Chebyshev constant ``K1 = (eta/4)^{-1/2}`` for the head test."""
    _check_eta(eta)
    return (eta / 4.0) ** -0.5


@dataclass(frozen=True)
class PoissonTestConfig:
    """Per-coordinate thresholds ``u_j = mu_j h^{-1}(log(C' j^2)/mu_j)``."""

    c_prime: float
    thresholds: np.ndarray

    def __post_init__(self):
        if self.c_prime < 1.0:
            raise ValueError(f"c_prime must be >= 1, got {self.c_prime!r}")
        arr = np.asarray(self.thresholds, dtype=float)
        if np.any(arr < 0.0):
            raise ValueError("thresholds must be nonnegative")
        object.__setattr__(self, "thresholds", arr)
        arr.setflags(write=False)

    @classmethod
    def from_null(cls, mu: RateVector, c_prime: float) -> "PoissonTestConfig":
        js = np.arange(1, mu.p + 1, dtype=float)
        with np.errstate(over="ignore"):  # an infinite argument fails h_inverse's own check
            args = (math.log(c_prime) + 2.0 * np.log(js)) / mu.rates
        return cls(c_prime, mu.rates * h_inverse(args))

    @classmethod
    def from_eta(cls, mu: RateVector, eta: float) -> "PoissonTestConfig":
        return cls.from_null(mu, calibrate_poisson(eta))

    @property
    def max_threshold(self) -> float:
        return float(self.thresholds.max())


def _table(x, p: int) -> tuple[np.ndarray, bool]:
    """Counts as a ``(rows, p)`` table, and whether ``x`` was a single vector."""
    counts = np.asarray(x.counts if isinstance(x, CountVector) else x)
    if counts.ndim not in (1, 2):
        raise ValueError("data must be a count vector or a (rows, p) table")
    table = np.atleast_2d(counts)
    if table.shape[1] != p:
        raise ValueError(f"data has {table.shape[1]} coordinates, null has {p}")
    return table, counts.ndim == 1


def _decision(reject, statistic, threshold, single: bool) -> TestDecision:
    if single:
        return TestDecision(bool(reject[0]), float(statistic[0]), float(threshold[0]))
    return TestDecision(reject, statistic, threshold)


def poisson_max_test(x, mu: RateVector, cfg: PoissonTestConfig) -> TestDecision:
    """Reject when ``||x - mu||_inf`` exceeds the largest per-coordinate threshold."""
    table, single = _table(x, mu.p)
    stat = np.abs(table - mu.rates).max(axis=1)
    thr = np.full(stat.shape, cfg.max_threshold)
    return _decision(stat > thr, stat, thr, single)


@dataclass(frozen=True)
class MultinomialTestConfig:
    """Head threshold plus per-coordinate tail thresholds.

    ``tail_thresholds[j-2]`` guards category ``j >= 2`` with the binomial
    variance ``n q(j)(1-q(j))``; degenerate cells (zero variance) carry a
    zero threshold and are excluded from the tail maximum.  A positive count
    in a cell with null probability zero is infinite evidence and rejects
    through a dedicated guard.
    """

    k1: float
    k2: float
    head_threshold: float
    tail_thresholds: np.ndarray
    tail_active: np.ndarray

    def __post_init__(self):
        if self.k1 <= 0.0:
            raise ValueError(f"k1 must be positive, got {self.k1!r}")
        if self.k2 < math.e:
            raise ValueError(f"k2 must be >= e, got {self.k2!r}")
        thr = np.asarray(self.tail_thresholds, dtype=float)
        act = np.asarray(self.tail_active, dtype=bool)
        object.__setattr__(self, "tail_thresholds", thr)
        object.__setattr__(self, "tail_active", act)
        thr.setflags(write=False)
        act.setflags(write=False)

    @classmethod
    def from_null(
        cls, q0: SimplexVector, n: SampleSize | float, k1: float, k2: float
    ) -> "MultinomialTestConfig":
        n_val = sample_size_value(n)
        head_var = n_val * q0.head * (1.0 - q0.head)
        head_threshold = k1 * (1.0 + math.sqrt(head_var))
        tail = q0.tail
        variances = n_val * tail * (1.0 - tail)
        active = variances > 0.0
        thresholds = np.zeros(tail.size)
        if np.any(active):
            js = np.arange(2, q0.p + 1, dtype=float)[active]
            v = variances[active]
            thresholds[active] = v * h_inverse((math.log(k2) + 2.0 * np.log(js - 1.0)) / v)
        return cls(k1, k2, head_threshold, thresholds, active)

    @classmethod
    def from_eta(
        cls, q0: SimplexVector, n: SampleSize | float, eta: float
    ) -> "MultinomialTestConfig":
        return cls.from_null(q0, n, head_k1(eta), calibrate_k2(eta))

    @property
    def max_tail_threshold(self) -> float:
        if not np.any(self.tail_active):
            return 0.0
        return float(self.tail_thresholds[self.tail_active].max())


def multinomial_head_test(
    x, q0: SimplexVector, n: SampleSize | float, cfg: MultinomialTestConfig
) -> TestDecision:
    """Reject when ``|x_1 - n q0(1)|`` reaches the Chebyshev threshold."""
    table, single = _table(x, q0.p)
    stat = np.abs(table[:, 0] - sample_size_value(n) * q0.head)
    thr = np.full(stat.shape, cfg.head_threshold)
    return _decision(stat >= thr, stat, thr, single)


def multinomial_tail_test(
    x, q0: SimplexVector, n: SampleSize | float, cfg: MultinomialTestConfig
) -> TestDecision:
    """Max test over categories ``2..p`` with Bennett-calibrated thresholds.

    A positive count in a tail cell of null probability zero gives an
    infinite statistic, so it rejects; with ``p = 1`` the statistic is 0 and
    the test never rejects.
    """
    table, single = _table(x, q0.p)
    tail_counts = table[:, 1:]
    stat = np.abs(tail_counts - sample_size_value(n) * q0.tail).max(axis=1, initial=0.0)
    stat[(tail_counts[:, q0.tail == 0.0] > 0).any(axis=1)] = math.inf
    thr = np.full(stat.shape, cfg.max_tail_threshold)
    return _decision(stat > thr, stat, thr, single)


def multinomial_combined_test(
    x, q0: SimplexVector, n: SampleSize | float, cfg: MultinomialTestConfig
) -> TestDecision:
    """Disjunction of the head and tail tests.

    Reports the more extreme sub-test: the statistic/threshold pair shown is
    the one with the larger exceedance ratio, the head's on a tie.
    """
    table, single = _table(x, q0.p)
    head = multinomial_head_test(table, q0, n, cfg)
    tail = multinomial_tail_test(table, q0, n, cfg)
    head_ratio = head.statistic / np.maximum(head.threshold, 1e-300)
    tail_ratio = tail.statistic / np.maximum(tail.threshold, 1e-300)
    head_wins = head_ratio >= tail_ratio
    return _decision(
        head.reject | tail.reject,
        np.where(head_wins, head.statistic, tail.statistic),
        np.where(head_wins, head.threshold, tail.threshold),
        single,
    )
