"""Local separation rates, critical index, perturbation size, and regimes.

All logarithms are natural; ``log(e j)`` is computed as ``1 + log(j)``.  The
argmax index ``j_star`` is 1-based and ties break to the smallest index.
The ``regime`` label compares ``log(e j*)`` against the critical coordinate's
mean and is advisory metadata only; no decision procedure branches on it.

The sharp-constant levels and the regime labels are computed on the runs
of equal values of the null (``runs`` of
:class:`~supgof.model.RateVector` and
:class:`~supgof.model.SimplexVector`, the multinomial head a run of its
own): their objectives grow with ``j`` inside a run, so only run ends are
evaluated, in O(#runs), and a null of any ``p`` given as runs needs no
dense array.  :func:`poisson_rate` and :func:`multinomial_rate` report
every coordinate's term and so work on the dense values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .model import RateVector, SimplexVector, sample_size_value
from .special import gamma_rate, h_inverse

__all__ = [
    "RateProfile",
    "poisson_rate",
    "poisson_regime",
    "multinomial_rate",
    "multinomial_regime",
    "prob_all_observed",
    "sharp_constant_epsilon",
    "multinomial_sharp_constant_level",
    "SharpConstantEpsilon",
]


@dataclass(frozen=True)
class RateProfile:
    """Derived local quantities attached to a null."""

    j_star: int
    psi: float
    m: int
    epsilon_star: float
    regime: str
    per_coordinate_terms: np.ndarray

    def __post_init__(self):
        terms = np.asarray(self.per_coordinate_terms, dtype=float)
        object.__setattr__(self, "per_coordinate_terms", terms)
        terms.setflags(write=False)
        if terms.size and not np.isclose(
            terms[self.j_star - 1], terms.max(), rtol=0.0, atol=0.0
        ):
            raise ValueError("j_star must attain the maximum of per_coordinate_terms")

    def to_dict(self) -> dict:
        return {
            "epsilon_star": self.epsilon_star,
            "j_star": self.j_star,
            "psi": self.psi,
            "m": self.m,
            "regime": self.regime,
            "terms": self.per_coordinate_terms.tolist(),
        }


def _log_ej(j: np.ndarray) -> np.ndarray:
    return 1.0 + np.log(j)

def _regime_label(log_ej_star: float, mean_at_jstar: float) -> str:
    ratio = log_ej_star / mean_at_jstar
    if ratio < 1.0:
        return "subgaussian"
    if ratio > 1.0:
        return "subpoissonian"
    return "boundary"


def _argmax_smallest(terms: np.ndarray) -> int:
    return int(np.argmax(terms)) + 1  # np.argmax returns the first maximizer


def _peak_on_run_ends(values, counts, level, scale: float = 1.0) -> tuple[float, int, int]:
    """``(max_j values_j h^{-1}(level(j) / (scale values_j)), j*, g*)`` over the
    runs ``(values, counts)``, with ``g*`` the run that ends at ``j*``.

    ``level`` grows with ``j``, so within a run of equal values the objective
    peaks at the run's last index: only run ends are evaluated, ``j*`` is
    the end of a run, and ties between runs break to the smallest index.
    """
    ends = np.cumsum(counts, dtype=float)
    with np.errstate(over="ignore"):  # an infinite argument fails h_inverse's own check
        terms = values * h_inverse(level(ends) / (scale * values))
    g = int(np.argmax(terms))
    return float(terms[g]), int(ends[g]), g


def poisson_rate(mu: RateVector) -> RateProfile:
    """Local sup-norm separation profile for the Poisson-product model.

    ``epsilon_star = 1 + max_j mu_j * Gamma(log(ej)/mu_j)`` and the argmax
    objective defining ``j_star`` and ``psi`` uses the exact inverse
    ``h_inverse`` in place of the surrogate.
    """
    rates = mu.rates
    js = np.arange(1, rates.size + 1, dtype=float)
    with np.errstate(over="ignore"):  # an infinite argument fails h_inverse's own check
        args = _log_ej(js) / rates
    terms = rates * h_inverse(args)
    j_star = _argmax_smallest(terms)
    epsilon_star = 1.0 + float(np.max(rates * gamma_rate(args)))
    psi = float(terms[j_star - 1])
    regime = _regime_label(1.0 + math.log(j_star), float(rates[j_star - 1]))
    return RateProfile(j_star, psi, 0, epsilon_star, regime, terms)


def poisson_regime(mu: RateVector) -> str:
    """The ``regime`` label of :func:`poisson_rate`, from its objective on run ends only."""
    values, counts = mu.runs
    _, j_star, g = _peak_on_run_ends(values, counts, _log_ej)
    return _regime_label(1.0 + math.log(j_star), float(values[g]))


def multinomial_rate(q0: SimplexVector, n: float) -> RateProfile:
    """Local sup-norm separation profile for the multinomial model.

    The third rate term ranges over the null with its largest cell removed
    (1-based index j over categories ``2..p``); zero cells contribute zero.
    The mass-removal count ``m = min(ceil(h^{-1}(log(e j*)/mu*)), j* - 1)``
    and ``psi = mu* h^{-1}(log(e j*)/mu*)`` (count units, zero when ``m``
    is zero) share one ``h^{-1}`` value at ``mu* = n q0^{-max}(j*)``.
    """
    n_val = sample_size_value(n)
    head = q0.head
    tail = q0.tail
    parametric = 1.0 / n_val + math.sqrt(head * (1.0 - head) / n_val)
    if tail.size == 0:
        return RateProfile(1, 0.0, 0, parametric, "boundary", np.array([]))

    js = np.arange(1, tail.size + 1, dtype=float)
    terms = np.zeros(tail.size)
    gamma_terms = np.zeros(tail.size)
    pos = tail > 0.0
    mus = n_val * tail[pos]
    with np.errstate(over="ignore", divide="ignore"):  # n * q_j may underflow to 0
        args = _log_ej(js[pos]) / mus
    terms[pos] = mus * h_inverse(args)
    gamma_terms[pos] = tail[pos] * gamma_rate(args)

    j_star = _argmax_smallest(terms)
    epsilon_star = parametric + float(gamma_terms.max())
    mu_star = n_val * float(tail[j_star - 1])
    if mu_star > 0:
        h_star = h_inverse((1.0 + math.log(j_star)) / mu_star)
        m = min(math.ceil(h_star), j_star - 1)
        psi = mu_star * h_star if m >= 1 else 0.0
        regime = _regime_label(1.0 + math.log(j_star), mu_star)
    else:
        m, psi, regime = 0, 0.0, "boundary"
    return RateProfile(j_star, psi, m, epsilon_star, regime, terms)


def multinomial_regime(q0: SimplexVector, n: float) -> str:
    """The ``regime`` label of :func:`multinomial_rate`, from its objective on
    the run ends of the tail only; zero cells contribute nothing."""
    n_val = sample_size_value(n)
    values, counts = q0.runs
    values, counts = values[1:], counts[1:]
    if values.size and values[-1] == 0.0:  # the zero cells are the last run
        values, counts = values[:-1], counts[:-1]
    if values.size == 0:
        return "boundary"
    mus = n_val * values
    _, j_star, g = _peak_on_run_ends(mus, counts, _log_ej)
    return _regime_label(1.0 + math.log(j_star), float(mus[g]))


def prob_all_observed(mu: RateVector, k: int) -> float:
    """Exact null probability that the first ``k`` coordinates are all >= 1."""
    if not 1 <= k <= mu.p:
        raise ValueError(f"k must lie in [1, {mu.p}], got {k!r}")
    return float(np.exp(np.sum(np.log1p(-np.exp(-mu.rates[:k])))))


class SharpConstantEpsilon(NamedTuple):
    """Inflated-log separation level and its critical index."""

    value: float
    j_star: int


def _inflated_log(js: np.ndarray, alpha_p: float) -> np.ndarray:
    # log(e * j * alpha_p * log^2(e j))
    return 1.0 + np.log(js) + math.log(alpha_p) + 2.0 * np.log1p(np.log(js))


def _check_alpha_p(alpha_p: float) -> None:
    if not 1.0 < alpha_p < math.inf:  # NaN included
        raise ValueError(f"alpha_p must lie in (1, inf), got {alpha_p!r}")


def _check_xi(xi: float) -> None:
    if not 0.0 < xi < math.inf:  # NaN included
        raise ValueError(f"xi must be positive and finite, got {float(xi)!r}")


def sharp_constant_epsilon(
    mu: RateVector, alpha_p: float, xi: float
) -> SharpConstantEpsilon:
    """Poisson sharp-constant separation ``xi * max_j mu_j h^{-1}(L_j / mu_j)``.

    ``L_j`` carries the slowly diverging ``alpha_p log^2(e j)`` inflation; the
    standing assumption of the asymptotic setup requires all rates >= 1.
    The ``xi``-free objective and its critical index are computed on the
    run ends of ``mu`` only, so in O(#runs).
    """
    _check_alpha_p(alpha_p)
    _check_xi(xi)
    if mu.runs[0][-1] < 1.0:
        raise ValueError("the sharp-constant setup assumes all rates >= 1")
    level, j_star, _ = _peak_on_run_ends(*mu.runs, lambda js: _inflated_log(js, alpha_p))
    value = float(xi) * level
    if not math.isfinite(value):
        raise OverflowError(f"the separation xi * {level!r} overflows at xi = {float(xi)!r}")
    return SharpConstantEpsilon(value, j_star)


def multinomial_sharp_constant_level(
    q0: SimplexVector, n: float, alpha_p: float
) -> tuple[float, int, float, int]:
    """Multinomial sharp-constant level, the separation at ``xi = 1``:
    ``(level, j*, n', m)`` at sample size ``n' = (1+n^{-1/3})n``.

    The level uses the plain ``log(e j)`` while the critical index is the
    argmax of the inflated-log objective; both use the variance form
    ``q(1-q)`` of the tail cells.  The mass-removal count ``m`` is clamped
    to at least 2 whenever it is positive.  Both objectives, the critical
    index and ``m`` are computed on the run ends of the tail only
    (:func:`_peak_on_run_ends`), so in O(#runs).
    """
    _check_alpha_p(alpha_p)
    n_val = sample_size_value(n)
    values, counts = q0.runs
    if values[-1] < 1.0 / n_val:
        raise ValueError("the sharp-constant setup assumes q0(p) >= 1/n")
    n_prime = (1.0 + n_val ** (-1.0 / 3.0)) * n_val
    tail, counts = values[1:], counts[1:]
    if tail.size == 0:
        raise ValueError("need at least two categories")
    v = tail * (1.0 - tail)
    level, _, _ = _peak_on_run_ends(v, counts, _log_ej, n_prime)
    _, j_star, g = _peak_on_run_ends(v, counts, lambda js: _inflated_log(js, alpha_p), n_prime)
    mu_star = n_prime * float(tail[g])
    m_raw = max(2, math.ceil(h_inverse((1.0 + math.log(j_star)) / mu_star)))
    m = min(m_raw, j_star - 1)
    return level, j_star, n_prime, m
