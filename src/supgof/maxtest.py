"""Decision procedures: the Poisson max test and the multinomial head-or-tail test.

Threshold conventions follow the displays defining the tests: the max tests
reject on strict ``>`` exceedance, the head test on ``>=``.  Every test
accepts exactly when each count lies in an integer interval, its
:class:`AcceptanceBox`; the box settles the float comparison at integral
edges.  Calibration constants come from summing the relevant series
exactly: the union bound spends ``2/(C' j^2)`` per coordinate, so the
smallest constant achieving level ``eta/2`` is ``C' = 2 pi^2 / (3 eta)``,
and analogously for the tail test at level ``eta/4`` (clamped to at least
``e``).  Each max test uses one half-width, the largest per-coordinate
threshold, and a config holds only its half-widths, taken on the null's run
ends.

Both tests run one vectorized kernel, :func:`_max_test`, over blocks of
cells, each with its half-width: the Poisson test is one block, the
multinomial test the head cell plus the tail.  It takes one count vector or
a ``(rows, p)`` table: a table is decided row by row into a
:class:`TestDecision` of arrays, and a single vector is decided as a table
of one row into a decision of scalars.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import CountVector, RateVector, SimplexVector, sample_size_value
from .rates import _peak_on_run_ends

__all__ = [
    "AcceptanceBox",
    "TestDecision",
    "PoissonTestConfig",
    "MultinomialTestConfig",
    "calibrate_poisson",
    "calibrate_k2",
    "head_k1",
    "poisson_max_test",
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


@dataclass(frozen=True)
class AcceptanceBox:
    """The counts a test accepts: integers ``lo_j <= x_j <= hi_j`` in every cell.

    An empty interval has ``hi_j < lo_j``.  Under independent Poisson cells
    the acceptance probability is the product of the per-cell masses, which
    :mod:`supgof.risk` computes.
    """

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        lo = np.asarray(self.lo, dtype=float)
        hi = np.asarray(self.hi, dtype=float)
        if lo.ndim != 1 or lo.shape != hi.shape:
            raise ValueError("lo and hi must be 1-D arrays of one length")
        for name, arr in (("lo", lo), ("hi", hi)):
            object.__setattr__(self, name, arr)
            arr.setflags(write=False)

    @classmethod
    def around(cls, center, half_width: float, strict: bool) -> "AcceptanceBox":
        """Integers ``x >= 0`` with ``|x - center_j| < half_width`` if
        ``strict``, else ``<= half_width``.

        Each edge is settled by that same float comparison, so a count at an
        integral edge falls on the side the test puts it.
        """
        center = np.asarray(center, dtype=float)
        within = np.less if strict else np.less_equal

        def inside(x):  # |x - center| within half_width, one side at a time
            return within(x - center, half_width) & within(center - x, half_width)

        hi = np.floor(center + half_width)
        hi = np.where(inside(hi), hi, hi - 1.0)
        hi = np.where(inside(hi + 1.0), hi + 1.0, hi)
        lo = np.ceil(center - half_width)
        lo = np.where(inside(lo), lo, lo + 1.0)
        lo = np.where(inside(lo - 1.0), lo - 1.0, lo)
        return cls(np.maximum(lo, 0.0), hi)

    def __getitem__(self, cells) -> "AcceptanceBox":
        return AcceptanceBox(self.lo[cells], self.hi[cells])

    def rejects(self, table: np.ndarray) -> np.ndarray:
        """Per row of a ``(rows, p)`` table: some count lies outside its interval."""
        return ((table < self.lo) | (table > self.hi)).any(axis=1)


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
    quarter = eta / 4.0
    if quarter == 0.0:  # a subnormal eta underflows
        raise OverflowError(f"K1 = (eta/4)^(-1/2) overflows at eta = {eta!r}")
    return quarter ** -0.5


@dataclass(frozen=True)
class PoissonTestConfig:
    """The max test's half-width ``max_j mu_j h^{-1}(log(C' j^2)/mu_j)``.

    The per-coordinate threshold grows with ``j`` inside a run of equal
    rates, so its maximum falls on a run end: :meth:`from_null` evaluates
    the run ends of ``mu`` only, in O(#runs), and a null given as runs
    builds its config at any ``p``.
    """

    max_threshold: float

    def __post_init__(self):
        if not self.max_threshold >= 0.0:  # NaN included
            raise ValueError(f"max_threshold must be nonnegative, got {self.max_threshold!r}")

    @classmethod
    def from_null(cls, mu: RateVector, c_prime: float) -> "PoissonTestConfig":
        if not c_prime >= 1.0:  # NaN included; refused before log(C') reaches h^{-1}
            raise ValueError(f"c_prime must be >= 1, got {c_prime!r}")
        log_c = math.log(c_prime)
        return cls(_peak_on_run_ends(*mu.runs, lambda js: log_c + 2.0 * np.log(js)).term)

    @classmethod
    def from_eta(cls, mu: RateVector, eta: float) -> "PoissonTestConfig":
        return cls.from_null(mu, calibrate_poisson(eta))

    def acceptance_box(self, mu: RateVector) -> AcceptanceBox:
        """Counts the max test accepts: ``|x_j - mu_j| <= max_threshold`` in every cell."""
        return AcceptanceBox.around(mu.rates, self.max_threshold, strict=False)


@dataclass(frozen=True)
class MultinomialTestConfig:
    """Head threshold ``K1 (1 + sqrt(n q0(1)(1 - q0(1))))`` plus the tail
    half-width ``max_j v_j h^{-1}(log(K2 (j-1)^2)/v_j)`` over categories ``j >= 2``.

    ``v_j = n q(j)(1-q(j))`` is the binomial variance of category ``j``;
    degenerate cells (zero variance) are left out of the maximum, which is
    0 when every tail cell is degenerate.  As for
    :class:`PoissonTestConfig` the maximum falls on a run end, so
    :meth:`from_null` evaluates the tail's run ends only.
    """

    head_threshold: float
    max_tail_threshold: float

    def __post_init__(self):
        for name in ("head_threshold", "max_tail_threshold"):
            if not getattr(self, name) >= 0.0:  # NaN included
                raise ValueError(f"{name} must be nonnegative, got {getattr(self, name)!r}")

    @classmethod
    def from_null(
        cls, q0: SimplexVector, n: float, k1: float, k2: float
    ) -> "MultinomialTestConfig":
        if not k1 > 0.0:  # NaN included
            raise ValueError(f"k1 must be positive, got {k1!r}")
        if not k2 >= math.e:  # NaN included; refused before log(K2) reaches h^{-1}
            raise ValueError(f"k2 must be >= e, got {k2!r}")
        n_val = sample_size_value(n)
        head_var = n_val * q0.head * (1.0 - q0.head)
        head_threshold = k1 * (1.0 + math.sqrt(head_var))
        values, counts = q0.runs
        variances = n_val * values[1:] * (1.0 - values[1:])
        # Tail values are at most 1/2, so the variance falls along the runs
        # and the degenerate runs are the last ones: dropping them keeps the
        # run ends of the others.
        active = variances > 0.0
        tail_threshold = 0.0
        if np.any(active):
            log_k2 = math.log(k2)
            tail_threshold = _peak_on_run_ends(
                variances[active], counts[1:][active], lambda js: log_k2 + 2.0 * np.log(js)
            ).term
        return cls(head_threshold, tail_threshold)

    @classmethod
    def from_eta(
        cls, q0: SimplexVector, n: float, eta: float
    ) -> "MultinomialTestConfig":
        return cls.from_null(q0, n, head_k1(eta), calibrate_k2(eta))

    def acceptance_box(self, q0: SimplexVector, n: float) -> AcceptanceBox:
        """Counts the head-or-tail test accepts.

        The head cell lies strictly within ``head_threshold`` of ``n q0(1)``,
        every tail cell within ``max_tail_threshold`` of ``n q0(j)``
        (inclusive), and a tail cell of null probability zero at ``[0, 0]``.
        """
        center = sample_size_value(n) * q0.probs
        head = AcceptanceBox.around(center[:1], self.head_threshold, strict=True)
        tail = AcceptanceBox.around(center[1:], self.max_tail_threshold, strict=False)
        zero = q0.tail == 0.0
        return AcceptanceBox(
            np.r_[head.lo, np.where(zero, 0.0, tail.lo)], np.r_[head.hi, np.where(zero, 0.0, tail.hi)]
        )


def _max_test(x, center: np.ndarray, box: AcceptanceBox, blocks) -> TestDecision:
    """The one decision body: reject exactly when some count lies outside ``box``.

    ``x`` is one count vector or a ``(rows, p)`` table.  Each block
    ``(start, stop, threshold)`` of cells has the statistic ``max |x_j -
    center_j|`` over its cells, 0 on an empty block, with a positive count
    in a zero-center cell counting as infinite evidence.  The decision shows
    the block with the largest ``statistic / threshold``, the first on a tie.
    """
    counts = np.asarray(x.counts if isinstance(x, CountVector) else x)
    if counts.ndim not in (1, 2):
        raise ValueError("data must be a count vector or a (rows, p) table")
    table = np.atleast_2d(counts)
    if table.shape[1] != center.size:
        raise ValueError(f"data has {table.shape[1]} coordinates, null has {center.size}")
    dev = np.abs(table - center)
    zero = center == 0.0
    if zero.any():
        dev[:, zero] = np.where(table[:, zero] > 0, math.inf, dev[:, zero])
    stats = np.array([dev[:, start:stop].max(axis=1, initial=0.0) for start, stop, _ in blocks])
    thresholds = np.array([threshold for _, _, threshold in blocks])
    shown = np.argmax(stats / np.maximum(thresholds, 1e-300)[:, None], axis=0)
    stat, thr = stats[shown, np.arange(table.shape[0])], thresholds[shown]
    reject = box.rejects(table)
    if counts.ndim == 1:
        return TestDecision(bool(reject[0]), float(stat[0]), float(thr[0]))
    return TestDecision(reject, stat, thr)


def poisson_max_test(x, mu: RateVector, cfg: PoissonTestConfig) -> TestDecision:
    """Reject when ``||x - mu||_inf`` exceeds ``max_threshold``: one block of every cell."""
    return _max_test(x, mu.rates, cfg.acceptance_box(mu), [(0, mu.p, cfg.max_threshold)])


def multinomial_combined_test(
    x, q0: SimplexVector, n: float, cfg: MultinomialTestConfig
) -> TestDecision:
    """Disjunction of the head test (reject when ``|x_1 - n q0(1)|`` reaches
    ``head_threshold``) and the tail max test over categories ``2..p``.

    Two blocks, the head cell and the tail cells: the statistic/threshold
    pair shown is the one with the larger exceedance ratio, the head's on a
    tie.  A positive count in a tail cell of null probability zero rejects
    with an infinite statistic; with ``p = 1`` the tail's statistic is 0.
    """
    center = sample_size_value(n) * q0.probs
    blocks = [(0, 1, cfg.head_threshold), (1, q0.p, cfg.max_tail_threshold)]
    return _max_test(x, center, cfg.acceptance_box(q0, n), blocks)
