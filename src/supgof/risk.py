"""Risk of the implemented tests: exact products, Monte Carlo, and the sharp-constant sweeps.

"Risk" is always Type I plus Type II.  The Type II side is evaluated either
at a fixed alternative or in the Bayes sense under one of the lower-bound
priors; what is computed is the risk of the *implemented* test, never a
heuristic supremum over alternatives.

Every test accepts exactly on its :class:`~supgof.maxtest.AcceptanceBox`.
Where the cells are independent Poisson variables -- the Poisson model and
the Poissonized multinomial -- Type I and Type II are therefore products of
one-dimensional Poisson box probabilities, computed exactly: such a result
reports 0 trials and a zero ``ci``.  The fixed-n multinomial is not a
product and is estimated by Monte Carlo, a deterministic function of
``(inputs, seed)``: each estimator derives dedicated substreams from the
seed and consumes them in a fixed chunked order, so results do not depend
on the execution schedule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .maxtest import AcceptanceBox, MultinomialTestConfig, PoissonTestConfig
from .model import RateVector, SimplexVector, as_probability_vector, rng_stream
from .priors import (
    MultinomialSimplexPrior,
    PoissonSpikePrior,
    draw_multinomial_simplex_prior,
)
from .rates import (
    multinomial_rate,
    multinomial_sharp_constant_epsilons,
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


def _exact(log_accept_null: float, type2: float, seed: int) -> RiskEstimate:
    """Exact risk from ``log P_0(accept)`` and the Type II error."""
    return RiskEstimate(-math.expm1(log_accept_null), min(type2, 1.0), 0, seed, 0.0)


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


def _log_mean_subset_products(log_r: np.ndarray, m: int) -> np.ndarray:
    """``log(e_m(r_{-s}) / C(k - 1, m))`` for each ``s`` of the ``k`` ratios:
    the log of the mean product of ``r`` over the ``m``-subsets without ``s``.

    ``e_m`` is the elementary symmetric polynomial.  ``pre[s, l]`` and
    ``suf[s, l]`` hold ``log e_l`` of the ratios before and after ``s``, built
    column by column as log-domain cumulative sums, and
    ``e_m(r_{-s}) = sum_l e_l(r_{<s}) e_{m-l}(r_{>s})``.  Working with logs
    nothing overflows, and every term being positive, nothing cancels.
    O(k m) time and memory.
    """
    k = log_r.size
    pre = np.full((k, m + 1), -np.inf)
    pre[:, 0] = 0.0
    suf = pre.copy()
    for l in range(1, m + 1):
        pre[1:, l] = np.logaddexp.accumulate(log_r[:-1] + pre[:-1, l - 1])
        suf[:-1, l] = np.logaddexp.accumulate((log_r[1:] + suf[1:, l - 1])[::-1])[::-1]
    return np.logaddexp.reduce(pre + suf[:, ::-1], axis=1) - math.log(math.comb(k - 1, m))


def _leave_one_out_type2(
    log_a: np.ndarray,
    b: np.ndarray,
    pool: slice,
    rates: np.ndarray,
    where: str = "",
    log_d: np.ndarray | None = None,
    m: int = 0,
) -> float:
    """Exact Type II under a spike placed uniformly on the cells of ``pool``.

    ``log_a`` holds ``log a_i``, the box probability of every cell without
    the spike, and ``b_s`` that of pool cell ``s`` carrying it, so the test
    accepts with probability ``b_s prod_{i != s} a_i`` given the spike at
    ``s``.  With ``m > 0`` mass is also removed from a uniform ``m``-subset of
    the other pool cells, whose box probabilities become ``d_i``: averaging
    over the subsets multiplies that term by ``e_m(r_{-s}) / C(|pool| - 1, m)``
    with ``r_i = d_i / a_i`` (:func:`_log_mean_subset_products`).

    The terms are formed as ``exp(sum log a - log a_s + ...)``, undefined
    when a pool cell has ``a_s = 0`` in float64 (an empty box, or one a huge
    rate collapses below its float spacing): that raises
    ``FloatingPointError`` naming the cell.
    """
    log_a_pool = log_a[pool]
    empty = np.flatnonzero(np.isneginf(log_a_pool))
    if empty.size:
        j = pool.start + int(empty[0])
        raise FloatingPointError(
            f"acceptance box of coordinate {j + 1} (rate {float(rates[j])!r}) has zero "
            f"null probability{where}; its leave-one-out Type II term is undefined"
        )
    log_w = 0.0 if m == 0 else _log_mean_subset_products(log_d - log_a_pool, m)
    return float(np.mean(np.exp(log_a.sum() - log_a_pool + log_w) * b))


def _simplex_prior_type2(
    box: AcceptanceBox, n: float, prior: MultinomialSimplexPrior, where: str = ""
) -> float:
    """Exact Poissonized Type II under the add-one/remove-m simplex prior.

    Cell ``j`` is ``Poisson(n q_j)`` with ``q`` a prior draw: the spike adds
    ``c psi / n`` to one of categories ``2..j*+1`` and removes ``c psi/(n m)``
    (clipped at 0, as the sampler does) from ``m`` of the others.
    """
    probs = prior.base.probs
    lam = n * probs
    if prior.m == 0:  # every draw is the base vector
        return math.exp(float(box.log_mass(lam).sum()))
    pool = slice(1, prior.j_star + 1)
    spiked = probs[pool] + prior.c * prior.psi / prior.n
    removed = np.clip(probs[pool] - prior.c * prior.psi / (prior.n * prior.m), 0.0, None)
    return _leave_one_out_type2(
        box.log_mass(lam),
        box[pool].mass(n * spiked),
        pool,
        lam,
        where,
        log_d=box[pool].log_mass(n * removed),
        m=prior.m,
    )


def estimate_poisson_risk(
    mu: RateVector,
    alternative,
    eta: float,
    trials: int,
    seed: int,
    c_prime: float | None = None,
) -> RiskEstimate:
    """Exact risk of the calibrated Poisson max test.

    ``alternative`` is a fixed rate vector ``lam`` (two-point Type II
    ``prod_j P_{lam_j}(box_j)``) or a :class:`PoissonSpikePrior` (Bayes
    Type II, the leave-one-out average over the spiked cell); Type I is
    ``1 - prod_j P_{mu_j}(box_j)``.  ``trials`` (at least 100) and ``seed``
    are validated but not used: the result reports 0 trials, a zero ``ci``
    and ``seed`` as passed.
    """
    if trials < 100:
        raise ValueError("need at least 100 trials")
    cfg = (
        PoissonTestConfig.from_eta(mu, eta)
        if c_prime is None
        else PoissonTestConfig.from_null(mu, c_prime)
    )
    box = cfg.acceptance_box(mu)
    prior = isinstance(alternative, PoissonSpikePrior)
    if prior:
        lam = alternative.base.rates
    else:
        lam = alternative.rates if isinstance(alternative, RateVector) else np.asarray(alternative, dtype=float)
    if lam.shape != mu.rates.shape:
        raise ValueError("alternative dimension mismatch")
    if prior:
        pool = slice(0, alternative.j_star)
        type2 = _leave_one_out_type2(
            box.log_mass(lam), box[pool].mass(lam[pool] + alternative.spike), pool, lam
        )
    elif np.all(np.isfinite(lam) & (lam >= 0.0)):
        type2 = math.exp(float(box.log_mass(lam).sum()))
    else:
        raise ValueError("alternative rates must be finite and nonnegative")
    return _exact(float(box.log_mass(mu.rates).sum()), type2, seed)


def _sample_multinomial(rng: np.random.Generator, n: float, q_rows: np.ndarray) -> np.ndarray:
    """One ``Multinomial(n, q)`` count row per probability row.

    Rows are clipped at 0 first: a prior draw may leave a cell a rounding
    error below zero, which numpy rejects.
    """
    q_rows = np.clip(q_rows, 0.0, None)
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
    size is ``Poisson(n)`` (``n`` may then be non-integral), the cells are
    independent ``Poisson(n q_j)`` and the risk is exact, reported with 0
    trials and a zero ``ci``; ``trials`` must still be at least 100.  The
    fixed-n risk is estimated from ``trials`` Monte Carlo draws.
    """
    if trials < 100:
        raise ValueError("need at least 100 trials")
    cfg = MultinomialTestConfig.from_eta(q0, n, eta)
    box = cfg.acceptance_box(q0, n)
    prior = isinstance(alternative, MultinomialSimplexPrior)
    q_alt = alternative.base.probs if prior else as_probability_vector(alternative, "alternative")
    if q_alt.size != q0.p:
        raise ValueError("alternative dimension mismatch")
    if poissonized:
        if prior:
            type2 = _simplex_prior_type2(box, n, alternative)
        else:
            type2 = math.exp(float(box.log_mass(n * q_alt).sum()))
        return _exact(float(box.log_mass(n * q0.probs).sum()), type2, seed)

    null_rng = rng_stream(seed, 0)
    rejects = _rejections(
        trials, lambda size: _sample_multinomial(null_rng, n, np.tile(q0.probs, (size, 1))), box.rejects
    )

    alt_rng = rng_stream(seed, 1)
    if prior:
        def alt_rows(size):
            return draw_multinomial_simplex_prior(alternative, alt_rng, trials=size)
    else:
        def alt_rows(size):
            return np.tile(q_alt, (size, 1))
    accepts = trials - _rejections(
        trials, lambda size: _sample_multinomial(alt_rng, n, alt_rows(size)), box.rejects
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
    ``ci`` and ``seed`` as passed.  A box among the first ``j*`` with zero
    null probability in float64 raises ``FloatingPointError``.
    """
    xi_grid = np.asarray(list(xi_grid), dtype=float)
    epsilons, j_star = sharp_constant_epsilons(mu, alpha_p, xi_grid)
    rates = mu.rates
    pool = slice(0, j_star)
    estimates = []
    for xi, eps in zip(xi_grid, epsilons):
        box = AcceptanceBox.around(rates, eps / xi, strict=True)
        log_a = box.log_mass(rates)
        type2 = _leave_one_out_type2(
            log_a, box[pool].mass(rates[pool] + eps), pool, rates, f" at xi={float(xi)!r}"
        )
        estimates.append(_exact(float(log_a.sum()), type2, seed))
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

    The Poissonized risk is exact, in O(p + j* m) per ``xi``: with
    ``a_j = P_{n q0_j}(box_j)``, ``type1 = 1 - prod_j a_j`` and Type II is
    the leave-one-out average of :func:`_leave_one_out_type2` over the
    spiked cell and the removal subsets; its rows report 0 trials and a zero
    ``ci``.  The fixed-n risk is Monte Carlo over ``trials`` draws per
    ``xi``.  ``trials`` must be at least 1 either way.
    """
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials!r}")
    xi_grid = np.asarray(list(xi_grid), dtype=float)
    epsilons, j_star, n_prime, m = multinomial_sharp_constant_epsilons(q0, n, alpha_p, xi_grid)
    if m == 0:
        raise ValueError("sweep alternative needs j* >= 2: no cell can give up the added mass")
    probs = q0.probs
    center = n * probs
    estimates = []
    for idx, (xi, eps) in enumerate(zip(xi_grid, epsilons.tolist())):
        if eps / m > probs[j_star] + 1e-15:
            raise ValueError("sweep alternative leaves the simplex; reduce xi or grow n")
        prior = MultinomialSimplexPrior(q0, n, j_star, psi=n * eps, m=m, c=1.0, c_tilde=math.e)
        box = AcceptanceBox.around(center, n_prime * eps / xi, strict=True)
        if poissonized:
            type2 = _simplex_prior_type2(box, n, prior, f" at xi={float(xi)!r}")
            estimates.append(_exact(float(box.log_mass(center).sum()), type2, seed))
            continue
        null_rng = rng_stream(seed, 2 * idx)
        rejects = _rejections(
            trials, lambda size: _sample_multinomial(null_rng, n, np.tile(probs, (size, 1))), box.rejects
        )
        alt_rng = rng_stream(seed, 2 * idx + 1)

        def sample_alt(size):
            return _sample_multinomial(alt_rng, n, draw_multinomial_simplex_prior(prior, alt_rng, trials=size))

        accepts = trials - _rejections(trials, sample_alt, box.rejects)
        estimates.append(_make_estimate(rejects, accepts, trials, seed))
    regime = multinomial_rate(q0, n).regime
    return SweepResult(
        xi_grid,
        epsilons,
        tuple(estimates),
        regime,
        q0.p,
        f"multinomial(p={q0.p}, n={n})",
    )
