"""Lower-bound constructions: the parametric two-point alternative, spike
and simplex priors, and the flattening reduction to a homoskedastic
auxiliary problem.

Prior draws are alternatives, so they are returned as plain ``(trials, p)``
arrays: a spike breaks the sorted-null invariant of the container types on
purpose.  The paper's constants are fixed: the simplex prior's ``psi`` and
``m`` use ``log(e j*)``, and the spike-scale certificate searches the spike
prior with ``C = e``; only :meth:`PoissonSpikePrior.build` takes another ``C``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .divergence import (
    DivergenceResult,
    PoissonMixture,
    _spike_tv,
    poisson_mixture,
    poisson_product_dist,
    tv_distance,
)
from .model import DENSE_RATES_CAP, RateVector, SimplexVector, rng_stream, sample_size_value
from .rates import _multinomial_peak, _poisson_peak
from .special import h_inverse

__all__ = [
    "PoissonSpikePrior",
    "draw_poisson_spike",
    "certified_poisson_spike_c",
    "multinomial_parametric_alternative",
    "MultinomialSimplexPrior",
    "draw_multinomial_simplex_prior",
    "certified_simplex_c",
    "FlattenedPair",
    "flatten_poisson_pair",
    "FlatteningReport",
    "verify_flattening",
]


@dataclass(frozen=True)
class PoissonSpikePrior:
    """Uniform one-spike prior over the first ``j_star`` coordinates.

    A draw adds ``c * psi`` to one coordinate ``J ~ Uniform{1..j_star}`` of the
    base rates, with ``psi = mu_{j*} h^{-1}(log(C j*)/mu_{j*})``.
    """

    base: RateVector
    j_star: int
    psi: float
    c: float
    big_c: float

    @classmethod
    def build(cls, mu: RateVector, c: float, big_c: float = math.e) -> "PoissonSpikePrior":
        if not c > 0:  # NaN included
            raise ValueError(f"c must be positive, got {c!r}")
        if not math.e <= big_c < math.inf:  # NaN included
            raise ValueError(f"C (--big-c) must be finite and >= e, got {big_c!r}")
        peak = _poisson_peak(*mu.runs)
        j_star, mu_star = peak.j_star, peak.value
        psi = mu_star * h_inverse((math.log(big_c) + math.log(j_star)) / mu_star)
        if not math.isfinite(float(mu.runs[0][0]) + c * psi):
            raise ValueError(f"spike c * psi = {c!r} * {psi!r} makes a spiked rate infinite")
        return cls(mu, j_star, psi, c, big_c)

    @property
    def spike(self) -> float:
        return self.c * self.psi

    def components(self) -> tuple[np.ndarray, np.ndarray]:
        """Explicit mixture representation: (weights, rate rows)."""
        rows = np.tile(self.base.rates, (self.j_star, 1))
        rows[np.arange(self.j_star), np.arange(self.j_star)] += self.spike
        return np.full(self.j_star, 1.0 / self.j_star), rows


def _draw_count(trials: int, p: int) -> int:
    """``trials`` as an int, refused before any allocation when the
    ``(trials, p)`` draw would hold more than ``DENSE_RATES_CAP`` values."""
    if not trials >= 1:
        raise ValueError(f"trials (--trials) must be at least 1, got {trials!r}")
    if int(trials) * p > DENSE_RATES_CAP:
        raise ValueError(
            f"trials (--trials) x p = {trials!r} x {p} drawn values exceed the cap of "
            f"DENSE_RATES_CAP = {DENSE_RATES_CAP}"
        )
    return int(trials)


def draw_poisson_spike(prior: PoissonSpikePrior, seed: int, trials: int = 1) -> np.ndarray:
    """Draw ``trials`` rate vectors from the spike prior as a ``(trials, p)``
    array; deterministic given the seed."""
    rng = rng_stream(seed)
    t = _draw_count(trials, prior.base.p)
    out = np.tile(prior.base.rates, (t, 1))
    out[np.arange(t), rng.integers(0, prior.j_star, size=t)] += prior.spike
    return out


# Candidate spike scales of ``certified_poisson_spike_c``: 1, ..., 1/_C_GRID.
_C_GRID = 40


def certified_poisson_spike_c(mu: RateVector, eta: float) -> tuple[float, float]:
    """Largest spike scale ``c`` certified (by exact computation) to keep
    the Bayes risk of the flattened pair at least ``eta``, for the spike
    prior with ``C = e``.

    Searches the decreasing grid of ``_C_GRID`` values of ``c`` and certifies
    each candidate with the exact flattened total variation; returns
    ``(c, certified risk)``.  The design's ``nu`` and ``j*`` do not depend on
    ``c``, so one spike DP serves the whole grid and builds each level's
    binomial table once.
    """
    if not 0.0 < eta < 1.0:
        raise ValueError(f"eta must lie in (0, 1), got {eta!r}")
    prior = PoissonSpikePrior.build(mu, 1.0)
    values, counts = mu.runs  # nu is the value of the run that ends at j*
    tv = _spike_tv(float(values[np.searchsorted(np.cumsum(counts), prior.j_star)]), prior.j_star)
    for c in np.linspace(1.0, 1.0 / _C_GRID, _C_GRID):
        risk = 1.0 - tv(float(c) * prior.psi).value
        if risk >= eta:
            return float(c), risk
    raise ValueError(f"no grid point certifies risk >= {eta}")


def multinomial_parametric_alternative(
    q0: SimplexVector, n: float, c_eta: float
) -> np.ndarray:
    """Two-point alternative behind the parametric term.

    Removes ``c_eta * eps`` from the largest cell, with
    ``eps = q0(1) ∧ sqrt(q0(1)(1-q0(1))/n)``, and rescales the rest to stay
    on the simplex.
    """
    if not 0.0 <= c_eta <= 1.0:
        raise ValueError(f"c_eta must lie in [0, 1], got {c_eta!r}")
    n_val = sample_size_value(n)
    head = q0.head
    eps = min(head, math.sqrt(head * (1.0 - head) / n_val))
    if c_eta == 0.0 or eps == 0.0:
        return q0.probs.copy()
    q1 = q0.probs * (1.0 + c_eta * eps / (1.0 - head))
    q1[0] = head - c_eta * eps
    return q1


@dataclass(frozen=True)
class MultinomialSimplexPrior:
    """Simplex-preserving prior: add mass at one random tail coordinate,
    remove it evenly from a random size-``m`` subset of the others.

    Categories ``2..j_star+1`` participate; the first coordinate is never
    perturbed.  With ``m = 0`` every draw equals the null.  ``j_star``,
    ``psi`` and ``m`` are those of :func:`~supgof.rates.multinomial_rate`,
    whose ``psi`` uses ``log(e j*)``, taken from the peak of its objective
    alone, and :meth:`build` reads the null's runs only, so it works at any
    ``p``.
    """

    base: SimplexVector
    n: float
    j_star: int
    psi: float
    m: int
    c: float

    @classmethod
    def build(cls, q0: SimplexVector, n: float, c: float) -> "MultinomialSimplexPrior":
        if not c > 0:  # NaN included
            raise ValueError(f"c must be positive, got {c!r}")
        if q0.p < 2:
            raise ValueError("need at least two categories")
        n_val = sample_size_value(n)
        values, counts = q0.runs
        j_star, psi, m, _, _ = _multinomial_peak(values, counts, n_val)
        if m >= 1:
            removal = c * psi / (n_val * m)
            floor_prob = float(values[np.searchsorted(np.cumsum(counts), j_star + 1)])  # category j*+1
            if removal > floor_prob + 1e-15:
                raise ValueError(
                    f"c={c!r} is too large: removal {removal!r} exceeds the smallest "
                    f"perturbed cell {floor_prob!r}; see certified_simplex_c"
                )
        return cls(q0, n_val, j_star, psi, m, c)


def draw_multinomial_simplex_prior(prior: MultinomialSimplexPrior, seed: int, trials: int = 1) -> np.ndarray:
    """Draw ``trials`` probability vectors from the simplex prior as a
    ``(trials, p)`` array; deterministic given the seed.  A removal is not
    clipped at 0, so a draw that empties its floor cell may hold
    rounding-level negative cells."""
    rng = rng_stream(seed)
    t = _draw_count(trials, prior.base.p)
    out = np.tile(prior.base.probs, (t, 1))
    if prior.m > 0:
        # 0-based indices 1..j_star hold categories 2..j_star+1.
        spike_idx = rng.integers(1, prior.j_star + 1, size=t)
        # Uniform subsets via order statistics of iid uniforms, with the
        # spiked position masked out.
        noise = rng.random((t, prior.j_star))
        noise[np.arange(t), spike_idx - 1] = np.inf
        removal_pos = np.argpartition(noise, prior.m - 1, axis=1)[:, : prior.m]
        rows = np.repeat(np.arange(t), prior.m)
        out[np.arange(t), spike_idx] += prior.c * prior.psi / prior.n
        out[rows, removal_pos.ravel() + 1] -= prior.c * prior.psi / (prior.n * prior.m)
    return out


def certified_simplex_c(q0: SimplexVector, n: float) -> float:
    """Per-instance spike scale keeping every simplex-prior draw feasible.

    The removal per cell is ``c psi/(n m)``; bounding it by the smallest
    perturbed cell and applying a 0.9 safety factor gives
    ``c = 0.9 * ceil(h) / h`` with ``h = h^{-1}(log(e j*)/nu)`` at
    ``nu = n q0^{-max}(j*)``.
    """
    peak = _multinomial_peak(*q0.runs, n)
    if peak.m == 0:
        return 0.9
    h = h_inverse((1.0 + math.log(peak.j_star)) / peak.value)  # nu is the peak's value
    return 0.9 * math.ceil(h) / h


@dataclass(frozen=True)
class FlattenedPair:
    """Homoskedastic head pair produced by the flattening reduction."""

    null: PoissonMixture
    mixture: PoissonMixture


def _prior_rows(prior: Sequence[tuple[float, Sequence[float]]]) -> tuple[np.ndarray, np.ndarray]:
    weights = np.asarray([w for w, _r in prior], dtype=float)
    rows = np.asarray([np.asarray(r, dtype=float) for _w, r in prior])
    if weights.ndim != 1 or rows.ndim != 2 or weights.size != rows.shape[0]:
        raise ValueError("prior must be a sequence of (weight, rate-row) pairs")
    if np.any(weights < 0) or abs(weights.sum() - 1.0) > 1e-9:
        raise ValueError("prior weights must form a probability vector")
    if np.any(rows < 0):
        raise ValueError("prior rate rows must be nonnegative")
    return weights, rows


def _check_head_tail_independent(weights: np.ndarray, rows: np.ndarray, k: int) -> None:
    heads: dict[bytes, float] = {}
    tails: dict[bytes, float] = {}
    joint: dict[tuple[bytes, bytes], float] = {}
    for w, row in zip(weights, rows):
        hk, tk = row[:k].tobytes(), row[k:].tobytes()
        heads[hk] = heads.get(hk, 0.0) + w
        tails[tk] = tails.get(tk, 0.0) + w
        joint[(hk, tk)] = joint.get((hk, tk), 0.0) + w
    for hk, wh in heads.items():
        for tk, wt in tails.items():
            if abs(joint.get((hk, tk), 0.0) - wh * wt) > 1e-9:
                raise ValueError(
                    "prior head and tail blocks are not independent; "
                    "flattening requires a product-form prior"
                )


def flatten_poisson_pair(
    mu,
    prior: Sequence[tuple[float, Sequence[float]]],
    k: int,
    underline_omega: float,
) -> FlattenedPair:
    """Flattening reduction on the first ``k`` coordinates.

    Replaces the heteroskedastic head null ``@_{j<=k} Poisson(omega_j)`` by
    the homoskedastic ``Poisson(underline_omega)^{X k}`` and shifts each
    prior row to ``xi_j - omega_j + underline_omega``.  Validates the two
    structural conditions: shifted means stay nonnegative, and the prior's
    head and tail blocks are independent.
    """
    omega = mu.rates if isinstance(mu, RateVector) else np.asarray(mu, dtype=float)
    if np.any(np.diff(omega) > 0) or np.any(omega < 0):
        raise ValueError("omega must be sorted non-increasing and nonnegative")
    if not 1 <= k <= omega.size:
        raise ValueError(f"k must lie in [1, {omega.size}], got {k!r}")
    if underline_omega > omega[k - 1] + 1e-12 or underline_omega < 0:
        raise ValueError("need 0 <= underline_omega <= omega_k")
    weights, rows = _prior_rows(prior)
    if rows.shape[1] != omega.size:
        raise ValueError("prior rows must match the null dimension")
    shifted = rows[:, :k] - omega[:k] + underline_omega
    if np.any(shifted < -1e-12):
        raise ValueError("flattening condition violated: a shifted mean is negative")
    shifted = np.clip(shifted, 0.0, None)
    _check_head_tail_independent(weights, rows, k)
    return FlattenedPair(poisson_product_dist([underline_omega] * k), poisson_mixture(weights, shifted))


@dataclass(frozen=True)
class FlatteningReport:
    """Numeric check of the flattening inequality on one instance."""

    lhs: DivergenceResult
    rhs_head: DivergenceResult
    rhs_tail: DivergenceResult
    slack: float

    @property
    def ok(self) -> bool:
        return self.slack >= -1e-8

    def to_dict(self) -> dict:
        return {
            "lhs_tv": self.lhs.value,
            "lhs_error_bar": self.lhs.error_bar,
            "rhs_head_tv": self.rhs_head.value,
            "rhs_tail_tv": self.rhs_tail.value,
            "rhs_error_bar": self.rhs_head.error_bar + self.rhs_tail.error_bar,
            "slack": self.slack,
            "ok": self.ok,
        }


def verify_flattening(
    mu,
    prior: Sequence[tuple[float, Sequence[float]]],
    k: int,
    underline_omega: float,
) -> FlatteningReport:
    """Exactly evaluate both sides of the flattening inequality.

    ``slack = rhs - lhs + error bars``; the inequality holds when slack is
    nonnegative (up to the 1e-8 verification tolerance).
    """
    omega = mu.rates if isinstance(mu, RateVector) else np.asarray(mu, dtype=float)
    weights, rows = _prior_rows(prior)
    lhs = tv_distance(poisson_product_dist(omega), poisson_mixture(weights, rows))
    pair = flatten_poisson_pair(mu, prior, k, underline_omega)
    rhs_head = tv_distance(pair.null, pair.mixture)
    if k < omega.size:
        rhs_tail = tv_distance(poisson_product_dist(omega[k:]), poisson_mixture(weights, rows[:, k:]))
    else:
        rhs_tail = DivergenceResult(0.0, 0.0)
    slack = (
        rhs_head.value
        + rhs_tail.value
        - lhs.value
        + lhs.error_bar
        + rhs_head.error_bar
        + rhs_tail.error_bar
    )
    return FlatteningReport(lhs, rhs_head, rhs_tail, slack)
