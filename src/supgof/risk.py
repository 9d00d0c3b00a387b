"""Risk of the implemented tests, computed exactly, and the sharp-constant sweeps.

"Risk" is always Type I plus Type II.  The Type II side is evaluated either
at a fixed alternative or in the Bayes sense under one of the lower-bound
priors; what is computed is the risk of the *implemented* test, never a
heuristic supremum over alternatives.

Every test accepts exactly on its :class:`~supgof.maxtest.AcceptanceBox`.
Where the cells are independent Poisson variables -- the Poisson model and
the Poissonized multinomial -- Type I and Type II are products of
one-dimensional Poisson box probabilities.  The fixed-n multinomial is not a
product, but a ``Multinomial(n, q)`` vector is a vector of independent
``Y_j ~ Poisson(n q_j)`` conditioned on ``sum Y = n`` (Levin, Ann. Statist.
9, 1981), so

    ``P(X in box) = P(Y in box, sum Y = n) / P(Poisson(Lambda) = n)``,

``Lambda = sum_j n q_j``, and the numerator is one coefficient of a product
of box-truncated Poisson pmfs, formed by FFT (:func:`_fixed_n_accept`).
Every result is exact and reports 0 trials and a zero ``ci``; nothing is
sampled.  A fixed-n product too large to form (more than ``_MAX_TERMS``
terms in one level) raises ``AtomBudgetError``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .divergence import AtomBudgetError
from .maxtest import AcceptanceBox, MultinomialTestConfig, PoissonTestConfig
from .model import RateVector, SimplexVector, as_probability_vector
from .priors import MultinomialSimplexPrior, PoissonSpikePrior
from .rates import (
    multinomial_rate,
    multinomial_sharp_constant_epsilons,
    poisson_rate,
    sharp_constant_epsilons,
)

__all__ = [
    "RiskEstimate",
    "SweepResult",
    "estimate_poisson_risk",
    "estimate_multinomial_risk",
    "sweep_sharp_constant",
    "sweep_multinomial_sharp_constant",
]

# Fixed-n route: the most polynomial terms one product level may hold, and the
# longest product kept (t + 1 coefficients); past either, AtomBudgetError.
_MAX_TERMS = 1 << 22


@dataclass(frozen=True)
class RiskEstimate:
    """Type I and Type II error of a test.

    Every route in this module is exact and reports ``trials == 0`` and
    ``ci_halfwidth == 0`` (the CLI's ``risk`` echoes its ``--trials``).
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


def _exact(log_accept_null: float, type2: float, seed: int) -> RiskEstimate:
    """Exact risk from ``log P_0(accept)`` and the Type II error."""
    return RiskEstimate(-math.expm1(log_accept_null), min(type2, 1.0), 0, seed, 0.0)


def _log_mean_subset_products(log_r: np.ndarray, m: int) -> np.ndarray:
    """``log(e_m(r_{-s}) / C(k - 1, m))`` for each ``s`` of the ``k`` ratios:
    the log of the mean product of ``r`` over the ``m``-subsets without ``s``.

    ``e_m`` is the elementary symmetric polynomial.  ``suf[s, l]`` holds
    ``log e_l`` of the ratios after ``s``, built column by column as
    log-domain cumulative sums; the matching prefix column ``log e_l(r_{<s})``
    is built the same way one ``l`` at a time and folded straight into
    ``e_m(r_{-s}) = sum_l e_l(r_{<s}) e_{m-l}(r_{>s})``.  Working with logs
    nothing overflows, and every term being positive, nothing cancels.
    O(k m) time; one ``(k, m + 1)`` table.
    """
    k = log_r.size
    suf = np.full((k, m + 1), -np.inf)
    suf[:, 0] = 0.0
    for l in range(1, m + 1):
        suf[:-1, l] = np.logaddexp.accumulate((log_r[1:] + suf[1:, l - 1])[::-1])[::-1]
    pre = np.zeros(k)
    total = suf[:, m].copy()
    for l in range(1, m + 1):
        pre = np.r_[-np.inf, np.logaddexp.accumulate(log_r[:-1] + pre[:-1])]
        total = np.logaddexp(total, pre + suf[:, m - l])
    return total - math.log(math.comb(k - 1, m))


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


def _fft_len(size: int) -> int:
    """Smallest ``f * 2^k >= size`` with ``f`` in {1, 3, 5, 9, 15}: a fast FFT length."""
    return min(f << (-(-size // f) - 1).bit_length() for f in (1, 3, 5, 9, 15))


def _cut(z: np.ndarray, size: int, t: int) -> np.ndarray:
    """The first ``min(size, t + 1)`` coefficients of an inverse FFT, negative round-off set to 0.

    Cutting at degree ``t`` is exact for every coefficient kept: a product's
    coefficient ``k`` involves only its factors' coefficients up to ``k``.
    """
    return np.maximum(z[..., : min(size, t + 1)], 0.0)


def _mul(x: np.ndarray, y: np.ndarray, t: int) -> np.ndarray:
    """Product of the polynomials ``x`` and ``y`` (coefficients on the last axis), cut at degree ``t``."""
    size = x.shape[-1] + y.shape[-1] - 1
    nfft = _fft_len(size)
    fx = np.fft.rfft(x, nfft)
    fy = fx if y is x else np.fft.rfft(y, nfft)
    return _cut(np.fft.irfft(fx * fy, nfft), size, t)


def _power(x: np.ndarray, count: int, t: int) -> np.ndarray:
    """``x ** count`` cut at degree ``t``, by repeated squaring from the top bit
    down, so every other product has the short factor ``x``."""
    if count == 0:
        return np.ones(1)
    out = x
    for bit in bin(count)[3:]:
        out = _mul(out, out, t)
        if bit == "1":
            out = _mul(out, x, t)
    return out


def _tree_product(rows: np.ndarray, t: int) -> np.ndarray:
    """Product of the polynomials ``rows[..., r, :]`` over ``r``, cut at degree ``t``.

    Neighbours multiply pairwise, level by level, each level in one batched
    ``rfft``; an odd last row is carried up a level.
    """
    if rows.shape[-2] == 0:
        return np.ones(rows.shape[:-2] + (1,))
    while rows.shape[-2] > 1:
        half = rows.shape[-2] // 2
        size = 2 * rows.shape[-1] - 1
        nfft = _fft_len(size)
        f = np.fft.rfft(rows[..., : 2 * half, :], nfft)
        prod = _cut(np.fft.irfft(f[..., 0::2, :] * f[..., 1::2, :], nfft), size, t)
        if rows.shape[-2] % 2:
            last = np.pad(rows[..., -1:, :], [(0, 0)] * (rows.ndim - 1) + [(0, prod.shape[-1] - rows.shape[-1])])
            prod = np.concatenate([prod, last], axis=-2)
        rows = prod
    return rows[..., 0, :]


def _coefficient(x: np.ndarray, y: np.ndarray, t: int):
    """Coefficient ``t`` of the product ``x * y``; ``y`` may carry leading batch axes."""
    k = np.arange(max(0, t - y.shape[-1] + 1), min(x.shape[-1], t + 1))
    return y[..., t - k] @ x[k]


def _check_terms(terms: int, what: str) -> None:
    if terms > _MAX_TERMS:
        raise AtomBudgetError(
            f"exact fixed-n risk needs {terms} {what}, over the cap of {_MAX_TERMS}"
        )


def _cell_rows(lam: np.ndarray, lo: np.ndarray, hi: np.ndarray, t: int) -> np.ndarray:
    """``P(Y_j = lo_j + k)`` for ``Y_j ~ Poisson(lam_j)`` and ``k = 0..min(hi_j - lo_j, t)``:
    one zero-padded row per cell.

    A row runs out from the cell's mode within its box by the ratios
    ``P(k) / P(k - 1) = lam / k``, summed in logs as ``log1p`` of their small
    part, and is scaled to the mass :meth:`AcceptanceBox.mass` gives the
    (cut) box, so it keeps that accuracy; a value ``k`` steps from the mode
    errs by a further relative ``k eps`` or so.
    """
    hi = np.minimum(hi, lo + t)
    width = hi - lo
    span = np.arange(int(width.max()) + 1)
    counts = lo[:, None] + span[1:]
    with np.errstate(divide="ignore"):  # a zero rate: log1p(-1)
        steps = np.log1p((lam[:, None] - counts) / counts)
    logs = np.concatenate([np.zeros((lam.size, 1)), np.cumsum(steps, axis=1)], axis=1)
    mode = (np.clip(np.floor(lam), lo, hi) - lo).astype(np.intp)
    logs = np.where(span > width[:, None], -np.inf, logs - logs[np.arange(lam.size), mode][:, None])
    rows = np.exp(logs)
    return rows * (AcceptanceBox(lo, hi).mass(lam) / rows.sum(axis=1))[:, None]


def _product(lam: np.ndarray, lo: np.ndarray, hi: np.ndarray, t: int) -> np.ndarray:
    """Product over cells of their box rows (:func:`_cell_rows`), cut at degree ``t``.

    Cells that share a (rate, box) are one factor raised to their count by
    repeated squaring; the distinct single cells multiply in one tree.
    """
    cells, counts = np.unique(np.column_stack([lam, lo, hi]), axis=0, return_counts=True)
    lam, lo, hi = cells.T
    _check_terms(lam.size * (int(np.minimum(hi - lo, t).max()) + 1), "terms in one product level")
    rows = _cell_rows(lam, lo, hi, t)
    out = _tree_product(rows[counts == 1], t)
    for row, count in zip(rows[counts > 1], counts[counts > 1]):
        out = _mul(out, _power(row, int(count), t), t)
    return out


def _box_cut(box: AcceptanceBox, n: float) -> int:
    """``t = n - sum_j lo_j``, the degree that carries ``sum Y = n`` once each
    cell is shifted by ``lo_j``; -1 when no count vector in the box sums to ``n``."""
    if n != int(n):
        raise ValueError("the fixed-n multinomial needs an integer n")
    t = int(n) - int(box.lo.sum())
    if t < 0 or np.any(box.hi < box.lo) or box.hi.sum() < n:
        return -1
    _check_terms(t + 1, "coefficients in the product")
    return t


def _ratio(numerator, n: float, total_rate: float):
    """``numerator / P(Poisson(total_rate) = n)``, clipped to [0, 1]."""
    point = AcceptanceBox(np.array([n]), np.array([n])).mass(np.array([total_rate]))[0]
    return np.clip(numerator / point, 0.0, 1.0)


def _fixed_n_accept(box: AcceptanceBox, n: float, lam: np.ndarray) -> float:
    """``P(X in box)`` for ``X ~ Multinomial(n, lam / Lambda)``, ``Lambda = sum lam``, exactly.

    The numerator ``P(Y in box, sum Y = n)`` is coefficient ``t = n - sum lo``
    of ``prod_j sum_k P(Y_j = lo_j + k) z^k`` (:func:`_product`).  Round-off:
    every partial product has nonnegative coefficients summing to at most 1,
    so an FFT product errs in each coefficient by at most about
    ``c eps log2(N)`` with ``c ~ 20`` (Higham, *Accuracy and Stability of
    Numerical Algorithms*, sec. 24.1), for transform length ``N <= 4 t + 4``,
    and an error carried up the tree is scaled by the other factor's mass,
    at most 1.  Over at most ``2 p`` products the probability therefore errs
    by at most ``2 p c eps log2(4 t + 4) / P(Poisson(Lambda) = n)`` absolute,
    with ``P(Poisson(Lambda) = n) ~ (2 pi n)^(-1/2)``: 3e-12 at p = 4, n = 30.
    The rows (:func:`_cell_rows`) and the denominator, a difference of two
    CDFs, add relative errors of order ``eps (width + sqrt(n))``.  Against
    40-digit enumeration at p <= 4, n <= 30 the error is at most 4e-15.
    """
    t = _box_cut(box, n)
    if t < 0:
        return 0.0
    prod = _product(lam, box.lo, box.hi, t)
    return float(_ratio(prod[t] if t < prod.size else 0.0, n, float(lam.sum())))


def _log_comb(n: np.ndarray, top: int) -> np.ndarray:
    """``log C(n_r, k)`` for ``k = 0..top``, one row per entry of ``n``; ``-inf`` where ``k > n_r``."""
    n = np.asarray(n, dtype=float)[:, None]
    r = np.arange(top)
    with np.errstate(divide="ignore", invalid="ignore"):
        steps = np.where(r < n, np.log((n - r) / (r + 1.0)), -np.inf)
    return np.concatenate([np.zeros((n.shape[0], 1)), np.cumsum(steps, axis=1)], axis=1)


def _accumulate(out, i, x, y, log_x, log_y, log_norm, share) -> None:
    """``out[:, i + j] += share C_x(i) C_y(j) / C(i + j) x y[:, j]`` for every ``j``
    with ``i + j < out.shape[1]``; the binomials come as logs, and a term with
    ``C_x(i) C_y(j) = 0`` adds nothing."""
    span = min(y.shape[1], out.shape[1] - i)
    if span <= 0:
        return
    log_w = log_x[:, None] + log_y[:, :span]
    with np.errstate(invalid="ignore"):
        w = share * np.exp(np.where(np.isfinite(log_w), log_w - log_norm[:, i : i + span], -np.inf))
    out[:, i : i + span] += w[..., None] * x[:, None, :] * y[:, :span]


def _pool_tree(a: np.ndarray, b: np.ndarray, d: np.ndarray, m: int, t: int) -> np.ndarray:
    """Mean over the simplex prior's draws of the pool's product polynomial, cut at degree ``t``.

    A draw spikes one pool cell ``s`` (row ``b_s``) and takes mass from an
    ``m``-subset ``S`` of the others (rows ``d``); the rest keep their base
    rows ``a``.  The sum of ``b_s prod_S d prod_rest a`` over all ``(s, S)``
    is the coefficient of ``u v^m`` in ``prod_i (a_i + u b_i + v d_i)``.  A
    node of the tree over the cells keeps that expansion as means: ``M_k``
    over the ``k``-subsets of its cells of ``prod_S d prod_rest a``, and
    ``U_k`` over (spike, ``k``-subset of the rest), ``k <= m``.  Nodes of
    ``N1`` and ``N2`` cells merge with hypergeometric weights, as in
    ``M_k = sum_i C(N1, i) C(N2, k - i) / C(N, k) M1_i M2_{k-i}``, so every
    value stays a mean of sub-probability polynomials and nothing overflows.
    A merge costs ``O((m + 1)^2)`` products; the root's ``U_m`` is returned.
    """
    m_rows = np.stack([a, d], axis=1)  # one cell: M_0 = a, M_1 = d
    u_rows = b[:, None, :]  # U_0 = b
    sizes = np.ones(a.shape[0], dtype=np.int64)
    while sizes.size > 1:
        pairs = sizes.size // 2
        n1, n2 = sizes[0 : 2 * pairs : 2], sizes[1 : 2 * pairs : 2]
        n = n1 + n2
        km, ku = m_rows.shape[1], u_rows.shape[1]
        km_out, ku_out = min(m, int(n.max())) + 1, min(m, int(n.max()) - 1) + 1
        size = 2 * m_rows.shape[-1] - 1
        nfft = _fft_len(size)
        f = np.fft.rfft(np.concatenate([m_rows[: 2 * pairs], u_rows[: 2 * pairs]], axis=1), nfft)
        m1, m2, u1, u2 = f[0::2, :km], f[1::2, :km], f[0::2, km:], f[1::2, km:]
        c1, c2 = _log_comb(n1, km - 1), _log_comb(n2, km - 1)
        c1u, c2u = _log_comb(n1 - 1, km - 1), _log_comb(n2 - 1, km - 1)
        cn, cnu = _log_comb(n, km_out - 1), _log_comb(n - 1, ku_out - 1)
        out_m = np.zeros((pairs, km_out, f.shape[-1]), dtype=complex)
        out_u = np.zeros((pairs, ku_out, f.shape[-1]), dtype=complex)
        for i in range(km):
            _accumulate(out_m, i, m1[:, i], m2, c1[:, i], c2, cn, 1.0)
            _accumulate(out_u, i, m1[:, i], u2, c1[:, i], c2u, cnu, (n2 / n)[:, None])
            if i < ku:
                _accumulate(out_u, i, u1[:, i], m2, c1u[:, i], c2, cnu, (n1 / n)[:, None])
        m_next = _cut(np.fft.irfft(out_m, nfft), size, t)
        u_next = _cut(np.fft.irfft(out_u, nfft), size, t)
        if sizes.size % 2:  # carry the last node up, padded to the new shapes
            length = m_next.shape[-1]
            last_m = np.pad(m_rows[-1:], [(0, 0), (0, km_out - km), (0, length - m_rows.shape[-1])])
            last_u = np.pad(u_rows[-1:], [(0, 0), (0, ku_out - ku), (0, length - u_rows.shape[-1])])
            m_next, u_next = np.concatenate([m_next, last_m]), np.concatenate([u_next, last_u])
            n = np.r_[n, sizes[-1]]
        m_rows, u_rows, sizes = m_next, u_next, n
    return u_rows[0, m]


def _pool_tree_terms(cells: int, m: int, length: int, t: int) -> int:
    """The most complex terms one level of :func:`_pool_tree` holds, on
    ``cells`` rows of ``length`` coefficients; the first level's count is
    at least that of the three row tables themselves."""
    size, terms = 1, 0
    while cells > 1:
        freqs = _fft_len(2 * length - 1) // 2 + 1
        km, ku = min(m, size) + 1, min(m, size - 1) + 1
        terms = max(terms, cells * (km + ku) * freqs)
        cells, size, length = cells - cells // 2, 2 * size, min(2 * length - 1, t + 1)
    return terms


class _FixedNPrior:
    """One acceptance box under the fixed-n law of a simplex prior's base ``probs`` and draws.

    The cells outside the pool (category 1 and those past ``j* + 1``) keep
    their base rates in every draw, so their product ``outside`` is formed
    once, and with it ``accept0 = P_0(X in box)``; a sweep shares one
    instance over every ``xi`` whose box is the same.  A pool whose cells
    share one (rate, box) keeps the power ``rest = a^(j* - 1 - m)`` of its
    cells that are neither spiked nor removed.  Every draw has
    ``Lambda = n sum(q0)`` (up to the clip at 0 of a removed cell).
    """

    def __init__(self, box: AcceptanceBox, n: float, probs: np.ndarray, j_star: int, m: int):
        self.t = t = _box_cut(box, n)
        self.n, self.total = n, n * float(probs.sum())
        if t < 0:
            self.accept0 = 0.0
            return
        pool = slice(1, j_star + 1)
        outside = np.r_[0, j_star + 1 : probs.size]
        self.lo, self.hi = box.lo[pool], box.hi[pool]
        lam = n * probs[pool]
        self.outside = _product(n * probs[outside], box.lo[outside], box.hi[outside], t)
        self.flat = np.unique(np.column_stack([lam, self.lo, self.hi]), axis=0).shape[0] == 1
        if self.flat:
            a = _cell_rows(lam[:1], self.lo[:1], self.hi[:1], t)[0]
            self.rest = _power(a, j_star - 1 - m, t)
            numerator = _coefficient(_mul(self.outside, _power(a, m + 1, t), t), self.rest, t)
        else:
            numerator = _coefficient(self.outside, _product(lam, self.lo, self.hi, t), t)
        self.accept0 = float(_ratio(numerator, n, self.total))

    def type2(self, prior: MultinomialSimplexPrior) -> float:
        """Exact Bayes Type II under ``prior``, whose base, ``j*`` and ``m``
        built this instance.  A pool product past ``_MAX_TERMS`` terms in one
        level raises ``AtomBudgetError`` before any row is built."""
        if self.t < 0:
            return 0.0
        if prior.m == 0:  # every draw is the base vector
            return self.accept0
        t, m = self.t, prior.m
        q = prior.base.probs[1 : prior.j_star + 1]
        shift = prior.c * prior.psi / prior.n
        if not self.flat:
            length = int(np.minimum(self.hi - self.lo, t).max()) + 1
            _check_terms(_pool_tree_terms(q.size, m, length, t), "terms in one pool-product level")
        cells = slice(0, 1) if self.flat else slice(None)  # a flat pool needs one row of each
        a, b, d = (
            _cell_rows(self.n * rates[cells], self.lo[cells], self.hi[cells], t)
            for rates in (q, q + shift, np.clip(q - shift / m, 0.0, None))
        )
        if self.flat:
            changed = _mul(_mul(self.outside, b[0], t), _power(d[0], m, t), t)
            numerator = _coefficient(changed, self.rest, t)
        else:
            numerator = _coefficient(self.outside, _pool_tree(a, b, d, m, t), t)
        return float(_ratio(numerator, self.n, self.total))


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
    size is ``Poisson(n)`` (``n`` may then be non-integral) and the cells are
    independent ``Poisson(n q_j)``; otherwise ``n`` must be an integer and
    the risk is that of ``Multinomial(n, q)`` counts (:func:`_fixed_n_accept`).
    Either way the risk is exact, reported with 0 trials, a zero ``ci`` and
    ``seed`` as passed; ``trials`` must be at least 100 but is not used.
    Type I is always under ``q0``, Type II under the alternative's own cells
    (a prior's base included).  Past the ``_MAX_TERMS`` cap the fixed-n
    route raises ``AtomBudgetError``.
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
    if prior:
        state = _FixedNPrior(box, n, q_alt, alternative.j_star, alternative.m)
        same_base = np.array_equal(q_alt, q0.probs)
        accept0 = state.accept0 if same_base else _fixed_n_accept(box, n, n * q0.probs)
        return RiskEstimate(1.0 - accept0, state.type2(alternative), 0, seed, 0.0)
    return RiskEstimate(
        1.0 - _fixed_n_accept(box, n, n * q0.probs), _fixed_n_accept(box, n, n * q_alt), 0, seed, 0.0
    )


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
    spiked cell and the removal subsets.  The fixed-n risk is exact too
    (:class:`_FixedNPrior`): the threshold ``n' eps(xi)/xi`` does not depend
    on ``xi``, so whenever two boxes are equal (they are compared, not
    assumed equal) one product of the cells outside the pool, and one Type I,
    serve every such ``xi``.  Every row reports 0 trials, a zero ``ci`` and
    ``seed`` as passed; ``trials`` must be at least 1 but is not used.
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
    boxes: dict[tuple[bytes, bytes], _FixedNPrior] = {}
    for xi, eps in zip(xi_grid, epsilons.tolist()):
        if eps / m > probs[j_star] + 1e-15:
            raise ValueError("sweep alternative leaves the simplex; reduce xi or grow n")
        prior = MultinomialSimplexPrior(q0, n, j_star, psi=n * eps, m=m, c=1.0, c_tilde=math.e)
        box = AcceptanceBox.around(center, n_prime * eps / xi, strict=True)
        if poissonized:
            type2 = _simplex_prior_type2(box, n, prior, f" at xi={float(xi)!r}")
            estimates.append(_exact(float(box.log_mass(center).sum()), type2, seed))
            continue
        key = (box.lo.tobytes(), box.hi.tobytes())
        if key not in boxes:
            boxes[key] = _FixedNPrior(box, n, probs, j_star, m)
        state = boxes[key]
        estimates.append(RiskEstimate(1.0 - state.accept0, state.type2(prior), 0, seed, 0.0))
    regime = multinomial_rate(q0, n).regime
    return SweepResult(
        xi_grid,
        epsilons,
        tuple(estimates),
        regime,
        q0.p,
        f"multinomial(p={q0.p}, n={n})",
    )
