"""Local separation rates, critical index, perturbation size, and regimes.

All logarithms are natural; ``log(e j)`` is computed as ``1 + log(j)``.  The
argmax index ``j_star`` is 1-based and ties break to the smallest index.
The ``regime`` label compares ``log(e j*)`` against the critical coordinate's
mean and is advisory metadata only; no decision procedure branches on it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .model import RateVector, SampleSize, SimplexVector, sample_size_value
from .special import gamma_rate, h_inverse

__all__ = [
    "RateProfile",
    "poisson_rate",
    "multinomial_rate",
    "prob_all_observed",
    "sharp_constant_epsilon",
    "sharp_constant_epsilons",
    "multinomial_sharp_constant_epsilon",
    "SharpConstantEpsilon",
    "MultinomialSharpConstantEpsilon",
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
            "terms": [float(t) for t in self.per_coordinate_terms],
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


def multinomial_rate(
    q0: SimplexVector, n: SampleSize | float, c_tilde: float = math.e
) -> RateProfile:
    """Local sup-norm separation profile for the multinomial model.

    The third rate term ranges over the null with its largest cell removed
    (1-based index j over categories ``2..p``); zero cells contribute zero.
    ``psi`` (count units) uses ``log(c_tilde * j_star)`` and is zero when the
    mass-removal count ``m`` is zero.
    """
    if c_tilde < math.e:
        raise ValueError(f"c_tilde must be >= e, got {c_tilde!r}")
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
        m_raw = math.ceil(h_inverse((1.0 + math.log(j_star)) / mu_star))
        m = min(m_raw, j_star - 1)
        psi = (
            mu_star * h_inverse((math.log(c_tilde) + math.log(j_star)) / mu_star)
            if m >= 1
            else 0.0
        )
        regime = _regime_label(1.0 + math.log(j_star), mu_star)
    else:
        m, psi, regime = 0, 0.0, "boundary"
    return RateProfile(j_star, psi, m, epsilon_star, regime, terms)


def prob_all_observed(mu: RateVector, k: int) -> float:
    """Exact null probability that the first ``k`` coordinates are all >= 1."""
    if not 1 <= k <= mu.p:
        raise ValueError(f"k must lie in [1, {mu.p}], got {k!r}")
    return float(np.exp(np.sum(np.log1p(-np.exp(-mu.rates[:k])))))


class SharpConstantEpsilon(NamedTuple):
    """Inflated-log separation level and its critical index."""

    value: float
    j_star: int


class MultinomialSharpConstantEpsilon(NamedTuple):
    value: float
    j_star: int
    n_prime: float
    m: int


def _inflated_log(js: np.ndarray, alpha_p: float) -> np.ndarray:
    # log(e * j * alpha_p * log^2(e j))
    return 1.0 + np.log(js) + math.log(alpha_p) + 2.0 * np.log1p(np.log(js))


def sharp_constant_epsilon(
    mu: RateVector, alpha_p: float, xi: float
) -> SharpConstantEpsilon:
    """Poisson sharp-constant separation ``xi * max_j mu_j h^{-1}(L_j / mu_j)``.

    ``L_j`` carries the slowly diverging ``alpha_p log^2(e j)`` inflation; the
    standing assumption of the asymptotic setup requires all rates >= 1.
    """
    eps, j_star = sharp_constant_epsilons(mu, alpha_p, [xi])
    return SharpConstantEpsilon(float(eps[0]), j_star)


def sharp_constant_epsilons(
    mu: RateVector, alpha_p: float, xi_grid
) -> tuple[np.ndarray, int]:
    """:func:`sharp_constant_epsilon` over a grid of ``xi``: ``(epsilons, j*)``.

    The ``xi``-free objective and its critical index are computed once.
    """
    if alpha_p <= 1.0:
        raise ValueError(f"alpha_p must exceed 1, got {alpha_p!r}")
    xi_grid = np.asarray(xi_grid, dtype=float)
    for xi in xi_grid:
        if xi <= 0.0:
            raise ValueError(f"xi must be positive, got {float(xi)!r}")
    rates = mu.rates
    if rates[-1] < 1.0:
        raise ValueError("the sharp-constant setup assumes all rates >= 1")
    js = np.arange(1, rates.size + 1, dtype=float)
    terms = rates * h_inverse(_inflated_log(js, alpha_p) / rates)
    return xi_grid * float(terms.max()), _argmax_smallest(terms)


def multinomial_sharp_constant_epsilon(
    q0: SimplexVector, n: SampleSize | float, alpha_p: float, xi: float
) -> MultinomialSharpConstantEpsilon:
    """Multinomial sharp-constant separation at sample size ``n' = (1+n^{-1/3})n``.

    The level uses the plain ``log(e j)`` while the critical index is the
    argmax of the inflated-log objective; both use the variance form
    ``q(1-q)`` of the tail cells.  The mass-removal count ``m`` is clamped
    to at least 2 whenever it is positive.
    """
    if alpha_p <= 1.0:
        raise ValueError(f"alpha_p must exceed 1, got {alpha_p!r}")
    if xi <= 0.0:
        raise ValueError(f"xi must be positive, got {xi!r}")
    n_val = sample_size_value(n)
    if q0.probs[-1] < 1.0 / n_val:
        raise ValueError("the sharp-constant setup assumes q0(p) >= 1/n")
    n_prime = (1.0 + n_val ** (-1.0 / 3.0)) * n_val
    tail = q0.tail
    if tail.size == 0:
        raise ValueError("need at least two categories")
    js = np.arange(1, tail.size + 1, dtype=float)
    v = tail * (1.0 - tail)
    mus = n_prime * v
    value_terms = v * h_inverse(_log_ej(js) / mus)
    inflated_terms = v * h_inverse(_inflated_log(js, alpha_p) / mus)
    j_star = _argmax_smallest(inflated_terms)
    mu_star = n_prime * float(tail[j_star - 1])
    m_raw = max(2, math.ceil(h_inverse((1.0 + math.log(j_star)) / mu_star)))
    m = min(m_raw, j_star - 1)
    return MultinomialSharpConstantEpsilon(
        xi * float(value_terms.max()), j_star, n_prime, m
    )
