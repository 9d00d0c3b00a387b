"""Risk of the implemented tests: Monte Carlo estimators and the sharp-constant sweeps.

"Risk" is always Type I plus Type II.  The Type II side is evaluated either
at a fixed alternative or in the Bayes sense under one of the lower-bound
priors; what is estimated is the risk of the *implemented* test, never a
heuristic supremum over alternatives.

The Poisson sharp-constant sweep is computed exactly.  Monte Carlo
estimates are deterministic functions of ``(inputs, seed)``: each estimator
derives dedicated substreams from the seed and consumes them in a fixed
chunked order, so results do not depend on the execution schedule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import pdtr, pdtrc

from .maxtest import (
    MultinomialTestConfig,
    PoissonTestConfig,
    multinomial_combined_test,
    poisson_max_test,
)
from .model import RateVector, SimplexVector, as_probability_vector, rng_stream
from .priors import (
    MultinomialSimplexPrior,
    PoissonSpikePrior,
    draw_multinomial_simplex_prior,
    draw_poisson_spike,
)
from .rates import (
    multinomial_rate,
    multinomial_sharp_constant_epsilon,
    poisson_rate,
    sharp_constant_epsilons,
)

__all__ = [
    "RiskEstimate",
    "SweepResult",
    "wilson_halfwidth",
    "estimate_poisson_risk",
    "estimate_multinomial_risk",
    "sweep_sharp_constant",
    "sweep_multinomial_sharp_constant",
]

_CHUNK = 1000
_Z95 = 1.959963984540054


def wilson_halfwidth(p_hat: float, n: int, z: float = _Z95) -> float:
    """Half-width of the two-sided Wilson score interval."""
    if n < 1:
        raise ValueError("need at least one trial")
    return z * math.sqrt(p_hat * (1.0 - p_hat) / n + z * z / (4.0 * n * n)) / (1.0 + z * z / n)


@dataclass(frozen=True)
class RiskEstimate:
    """Type I and Type II error of a test.

    A Monte Carlo estimate carries its trial count and the sum of the two
    Wilson half-widths; a result is exact when ``trials == 0`` and
    ``ci_halfwidth == 0``.
    """

    type1: float
    type2: float
    trials: int
    seed: int
    ci_halfwidth: float

    def __post_init__(self):
        if not (0.0 <= self.type1 <= 1.0 and 0.0 <= self.type2 <= 1.0):
            raise ValueError("error rates must lie in [0, 1]")

    @property
    def total(self) -> float:
        return self.type1 + self.type2


def _make_estimate(reject_null: int, accept_alt: int, trials: int, seed: int) -> RiskEstimate:
    t1 = reject_null / trials
    t2 = accept_alt / trials
    ci = wilson_halfwidth(t1, trials) + wilson_halfwidth(t2, trials)
    return RiskEstimate(t1, t2, trials, seed, ci)


def _chunks(trials: int) -> list[int]:
    out = [_CHUNK] * (trials // _CHUNK)
    if trials % _CHUNK:
        out.append(trials % _CHUNK)
    return out


def _rejections(trials: int, sample, reject) -> int:
    """Rejections over ``trials`` draws taken in fixed chunks.

    ``sample(size)`` draws one chunk as a ``(size, p)`` count table and
    ``reject(x)`` decides its rows.
    """
    return sum(int(np.count_nonzero(reject(sample(size)))) for size in _chunks(trials))


def estimate_poisson_risk(
    mu: RateVector,
    alternative,
    eta: float,
    trials: int,
    seed: int,
    c_prime: float | None = None,
) -> RiskEstimate:
    """Risk of the calibrated Poisson max test.

    ``alternative`` is a fixed rate vector (two-point Type II) or a
    :class:`PoissonSpikePrior` (Bayes Type II under fresh prior draws).
    """
    if trials < 100:
        raise ValueError("need at least 100 trials")
    cfg = (
        PoissonTestConfig.from_eta(mu, eta)
        if c_prime is None
        else PoissonTestConfig.from_null(mu, c_prime)
    )
    rates = mu.rates

    def reject(x):
        return poisson_max_test(x, mu, cfg).reject

    null_rng = rng_stream(seed, 0)
    rejects = _rejections(trials, lambda size: null_rng.poisson(rates, size=(size, mu.p)), reject)

    alt_rng = rng_stream(seed, 1)
    if isinstance(alternative, PoissonSpikePrior):
        def sample_alt(size):
            return alt_rng.poisson(draw_poisson_spike(alternative, alt_rng, trials=size))
    else:
        lam = alternative.rates if isinstance(alternative, RateVector) else np.asarray(alternative, dtype=float)
        if lam.size != rates.size:
            raise ValueError("alternative dimension mismatch")

        def sample_alt(size):
            return alt_rng.poisson(lam, size=(size, lam.size))
    accepts = trials - _rejections(trials, sample_alt, reject)
    return _make_estimate(rejects, accepts, trials, seed)


def _sample_counts(
    rng: np.random.Generator, n: float, q_rows: np.ndarray, poissonized: bool
) -> np.ndarray:
    """One count row per probability row: ``Multinomial(n, q)``, or, when
    Poissonized, independent ``Poisson(n q_j)`` cells (exact in law).

    Rows are clipped at 0 first: a prior draw may leave a cell a rounding
    error below zero, which numpy rejects.
    """
    q_rows = np.clip(q_rows, 0.0, None)
    if poissonized:
        return rng.poisson(n * q_rows)
    if n != int(n):
        raise ValueError("exact multinomial sampling needs an integer n")
    return rng.multinomial(int(n), q_rows)


def estimate_multinomial_risk(
    q0: SimplexVector,
    n: float,
    alternative,
    eta: float,
    trials: int,
    seed: int,
    poissonized: bool = False,
) -> RiskEstimate:
    """Risk of the combined head-or-tail multinomial test.

    ``alternative`` is a fixed probability vector or a
    :class:`MultinomialSimplexPrior`.  With ``poissonized=True`` the sample
    size is ``Poisson(n)`` (``n`` may then be non-integral).
    """
    if trials < 100:
        raise ValueError("need at least 100 trials")
    cfg = MultinomialTestConfig.from_eta(q0, n, eta)

    def reject(x):
        return multinomial_combined_test(x, q0, n, cfg).reject

    null_rng = rng_stream(seed, 0)
    rejects = _rejections(
        trials, lambda size: _sample_counts(null_rng, n, np.tile(q0.probs, (size, 1)), poissonized), reject
    )

    alt_rng = rng_stream(seed, 1)
    if isinstance(alternative, MultinomialSimplexPrior):
        def alt_rows(size):
            return draw_multinomial_simplex_prior(alternative, alt_rng, trials=size)
    else:
        q_alt = as_probability_vector(alternative, "alternative")

        def alt_rows(size):
            return np.tile(q_alt, (size, 1))
    accepts = trials - _rejections(
        trials, lambda size: _sample_counts(alt_rng, n, alt_rows(size), poissonized), reject
    )
    return _make_estimate(rejects, accepts, trials, seed)


@dataclass(frozen=True)
class SweepResult:
    """Risk curve over a grid of separation multipliers ``xi``."""

    xi_grid: np.ndarray
    epsilons: np.ndarray
    risks: tuple[RiskEstimate, ...]
    regime: str
    p: int
    null_descriptor: str

    def __post_init__(self):
        xi = np.asarray(self.xi_grid, dtype=float)
        eps = np.asarray(self.epsilons, dtype=float)
        if np.any(np.diff(xi) <= 0):
            raise ValueError("xi_grid must be strictly increasing")
        if xi.size != eps.size or xi.size != len(self.risks):
            raise ValueError("grid and risks must be aligned")
        object.__setattr__(self, "xi_grid", xi)
        object.__setattr__(self, "epsilons", eps)
        xi.setflags(write=False)
        eps.setflags(write=False)

    def rows(self) -> list[dict]:
        out = []
        for xi, eps, r in zip(self.xi_grid, self.epsilons, self.risks):
            out.append(
                {
                    "xi": float(xi),
                    "epsilon": float(eps),
                    "type1": r.type1,
                    "type2": r.type2,
                    "total": r.total,
                    "ci": r.ci_halfwidth,
                    "trials": r.trials,
                    "seed": r.seed,
                    "regime": self.regime,
                }
            )
        return out


def _acceptance_box(center: np.ndarray, psi: float) -> tuple[np.ndarray, np.ndarray]:
    """Integer bounds ``[lo, hi]`` of ``{x >= 0 : |x - center_j| < psi}``.

    Each edge is settled by the float comparison the test itself makes, so
    a count at an integral edge falls on the same side as in the test.
    """
    hi = np.floor(center + psi)
    hi = np.where(np.abs(hi - center) < psi, hi, hi - 1.0)
    hi = np.where(np.abs(hi + 1.0 - center) < psi, hi + 1.0, hi)
    lo = np.ceil(center - psi)
    lo = np.where(np.abs(lo - center) < psi, lo, lo + 1.0)
    lo = np.where(np.abs(lo - 1.0 - center) < psi, lo - 1.0, lo)
    return np.maximum(lo, 0.0), hi


def _poisson_below(lo: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """``P_lam(X < lo)`` for ``lo >= 0``."""
    return np.where(lo >= 1.0, pdtr(np.maximum(lo - 1.0, 0.0), lam), 0.0)


def sweep_sharp_constant(
    mu: RateVector,
    xi_grid,
    alpha_p: float,
    trials: int,
    seed: int,
) -> SweepResult:
    """Poisson sharp-constant sweep, computed exactly.

    At each ``xi`` the separation is the inflated-log level ``eps(xi)``, the
    test rejects when ``||X - mu||_inf >= eps(xi)/xi`` (the threshold is the
    ``xi``-free level), and Type II is Bayes risk under the uniform spike of
    magnitude ``eps(xi)`` on the first ``j*`` coordinates.

    The test accepts exactly when every count lies in its acceptance box, so
    with ``a_j = P_{mu_j}(box_j)`` and ``b_j = P_{mu_j + eps}(box_j)`` the
    risk is ``type1 = 1 - prod_j a_j`` and
    ``type2 = mean_{j <= j*} b_j prod_{i != j} a_i``, in O(p) per ``xi``.
    ``trials`` and ``seed`` are not used: each row reports 0 trials, a zero
    ``ci`` and ``seed`` as passed.  A box among the first ``j*`` whose null
    probability is zero in float64 (an empty box, or one a huge rate
    collapses below its float spacing) raises ``FloatingPointError``: the
    product is formed as ``exp(sum log a - log a_j)``, undefined at ``a_j = 0``.
    """
    xi_grid = np.asarray(list(xi_grid), dtype=float)
    epsilons, j_star = sharp_constant_epsilons(mu, alpha_p, xi_grid)
    rates = mu.rates
    estimates = []
    for xi, eps in zip(xi_grid, epsilons):
        lo, hi = _acceptance_box(rates, eps / xi)
        # log a_j as log1p(-tail mass), so a small Type I keeps its relative accuracy.
        with np.errstate(divide="ignore"):
            log_a = np.log1p(-(_poisson_below(lo, rates) + pdtrc(hi, rates)))
        empty = np.flatnonzero(np.isneginf(log_a[:j_star]))
        if empty.size:
            j = int(empty[0])
            raise FloatingPointError(
                f"acceptance box of coordinate {j + 1} (rate {float(rates[j])!r}) has zero "
                f"null probability at xi={float(xi)!r}; its leave-one-out Type II term is undefined"
            )
        log_accept_null = float(log_a.sum())
        alt = rates[:j_star] + eps
        b = pdtr(hi[:j_star], alt) - _poisson_below(lo[:j_star], alt)
        type2 = float(np.mean(np.exp(log_accept_null - log_a[:j_star]) * b))
        estimates.append(RiskEstimate(-math.expm1(log_accept_null), type2, 0, seed, 0.0))
    regime = poisson_rate(mu).regime
    return SweepResult(
        xi_grid, epsilons, tuple(estimates), regime, mu.p, f"poisson(p={mu.p})"
    )


def sweep_multinomial_sharp_constant(
    q0: SimplexVector,
    n: float,
    xi_grid,
    alpha_p: float,
    trials: int,
    seed: int,
    poissonized: bool = False,
) -> SweepResult:
    """Multinomial sharp-constant sweep with the add-one/remove-m prior.

    The test rejects when ``||X - n q0||_inf >= n' * eps(xi)/xi``; the
    alternative adds ``eps(xi)`` to one uniformly random tail coordinate
    among ``2..j*+1`` and removes ``eps(xi)/m`` from a random size-``m``
    subset of the remaining ones (``m`` is clamped to at least 2 when
    positive).  That alternative is a :class:`MultinomialSimplexPrior` with
    ``c psi / n = eps(xi)``.  It must stay on the simplex: a ``ValueError``
    is raised when ``eps(xi)/m`` exceeds the smallest perturbed cell, or when
    ``j* = 1`` leaves no cell (``m = 0``) to give up the added mass.
    """
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials!r}")
    xi_grid = np.asarray(list(xi_grid), dtype=float)
    probs = q0.probs
    estimates = []
    epsilons = []
    for idx, xi in enumerate(xi_grid):
        eps, j_star, n_prime, m = multinomial_sharp_constant_epsilon(q0, n, alpha_p, float(xi))
        if m == 0:
            raise ValueError("sweep alternative needs j* >= 2: no cell can give up the added mass")
        if eps / m > probs[j_star] + 1e-15:
            raise ValueError("sweep alternative leaves the simplex; reduce xi or grow n")
        prior = MultinomialSimplexPrior(q0, n, j_star, psi=n * eps, m=m, c=1.0, c_tilde=math.e)
        thr = n_prime * eps / xi

        def reject(x):
            return np.abs(x - n * probs).max(axis=1) >= thr

        null_rng = rng_stream(seed, 2 * idx)
        rejects = _rejections(
            trials, lambda size: _sample_counts(null_rng, n, np.tile(probs, (size, 1)), poissonized), reject
        )
        alt_rng = rng_stream(seed, 2 * idx + 1)

        def sample_alt(size):
            q_rows = draw_multinomial_simplex_prior(prior, alt_rng, trials=size)
            return _sample_counts(alt_rng, n, q_rows, poissonized)

        accepts = trials - _rejections(trials, sample_alt, reject)
        estimates.append(_make_estimate(rejects, accepts, trials, seed))
        epsilons.append(eps)
    regime = multinomial_rate(q0, n).regime
    return SweepResult(
        xi_grid,
        np.asarray(epsilons),
        tuple(estimates),
        regime,
        q0.p,
        f"multinomial(p={q0.p}, n={n})",
    )
