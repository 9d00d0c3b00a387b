"""Risk of the implemented tests, computed exactly, and the sharp-constant sweeps.

"Risk" is always Type I plus Type II.  The Type II side is evaluated either
at a fixed alternative or in the Bayes sense under one of the lower-bound
priors; what is computed is the risk of the *implemented* test, never a
heuristic supremum over alternatives.

Every test accepts exactly on its :class:`~supgof.maxtest.AcceptanceBox`,
so a risk is one box under one law, and each model has one law object.
Where the cells are independent Poisson variables -- the Poisson model and
the Poissonized multinomial -- the law is :class:`_PoissonCells`, and Type I
and Type II are products of one-dimensional Poisson box probabilities.  The
fixed-n multinomial is not a product, but a ``Multinomial(n, q)`` vector is
a vector of independent ``Y_j ~ Poisson(n q_j)`` conditioned on
``sum Y = n`` (Levin, Ann. Statist. 9, 1981), so

    ``P(X in box) = P(Y in box, sum Y = n) / P(Poisson(Lambda) = n)``,

``Lambda = sum_j n q_j``, and the numerator is one coefficient of a product
of box-truncated Poisson pmfs, formed by FFT (:class:`_FixedN`).
Every partial product is kept only on its mass window: cut at that
coefficient's degree, with the outer coefficients below ``_TRIM`` times its
largest dropped and their mass summed into the error bound, so a product's
length follows its standard deviation rather than its degree.
Each public route builds its box and the null's law, which gives Type I,
and asks the law of the alternative's own cells (a prior's base included)
for Type II.  Every result is exact and reports 0 trials and a zero
``ci``; nothing is sampled.  A fixed-n product too large to form (more than
``_MAX_TERMS`` terms in one level, or a coefficient degree past it) raises
``AtomBudgetError``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.special import pdtr, pdtrc

from .maxtest import AcceptanceBox, MultinomialTestConfig, PoissonTestConfig
from .model import RateVector, SimplexVector, as_probability_vector
from .priors import MultinomialSimplexPrior, PoissonSpikePrior
from .rates import (
    _check_alpha_p,
    _check_xi,
    _multinomial_peak,
    _poisson_peak,
    multinomial_sharp_constant_level,
    sharp_constant_epsilon,
)
from .special import AtomBudgetError

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
# A fixed-n product keeps the span of its coefficients above _TRIM times its
# largest.  Round-off stays below about 3e-16 of the largest (the worst
# negative coefficient over the benchmark's fixed-n products and powers up to
# count 1e6), so the window's edges follow the law's tails, about 8 standard
# deviations out, and not the noise.
_TRIM = 1e-14


def _poisson_below(lo: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """``P_lam(X < lo)`` for ``lo >= 0``, with ``pdtr`` evaluated only where
    ``lo >= 1``: elsewhere it is 0, and in many boxes that is most cells."""
    return pdtr(lo - 1.0, lam, out=np.zeros(np.broadcast(lo, lam).shape), where=lo >= 1.0)


def _box_mass(box: AcceptanceBox, lam) -> np.ndarray:
    """``P(lo_j <= X_j <= hi_j)`` for ``X_j ~ Poisson(lam_j)``, as a CDF difference."""
    return np.where(box.hi >= box.lo, pdtr(box.hi, lam) - _poisson_below(box.lo, lam), 0.0)


def _box_log_mass(box: AcceptanceBox, lam) -> np.ndarray:
    """``log`` of :func:`_box_mass` as ``log1p(-mass outside)``, so a mass near 1
    keeps its relative accuracy; ``-inf`` on an empty interval."""
    outside = np.minimum(_poisson_below(box.lo, lam) + pdtrc(box.hi, lam), 1.0)
    with np.errstate(divide="ignore"):
        log_inside = np.log1p(-outside)
    return np.where(box.hi >= box.lo, log_inside, -np.inf)


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


def _log_mean_subset_products(log_r: np.ndarray, m: int, counts: np.ndarray) -> np.ndarray:
    """``log(e_m(r minus one copy of r_g) / C(k - 1, m))`` for each entry ``g``
    of the ``k`` ratios: the log of the mean product of ``r`` over the
    ``m``-subsets of the ratios other than that copy.

    Entry ``g`` stands for ``counts[g]`` equal ratios, so the elementary
    symmetric polynomial ``e_m`` of what is left is
    ``[u^m] (1 + r_g u)^(c_g - 1) prod_{h != g} (1 + r_h u)^(c_h)``.
    ``pre[g, l]`` holds ``log [u^l]`` of the product over the entries before
    ``g`` and ``suf[g, l]`` over those after it; each table is built one
    ``l`` at a time, as a cumulative ``logaddexp`` of the terms
    ``C(c_h, i) r_h^i [u^(l - i)]`` from its columns already built.  The
    own factor with one copy removed multiplies ``suf`` last.  Working with
    logs nothing overflows, and every term being positive, nothing cancels.
    O(G m min(m, max c)) time for G entries (O(k m) on single ratios); two
    ``(G + 1, m + 1)`` tables.
    """
    size = log_r.size
    top = min(m, int(counts.max()))

    def binomial_terms(c, most):  # log C(c_g, i) r_g^i for i = 1..most
        return _log_comb(c, most)[:, 1:] + log_r[:, None] * np.arange(1, most + 1)

    def products(order: np.ndarray, terms: np.ndarray) -> np.ndarray:
        """``out[k, l]``: ``log [u^l]`` of the product over the first ``k`` entries of ``order``."""
        out = np.full((size + 1, m + 1), -np.inf)
        out[:, 0] = 0.0
        for l in range(1, m + 1):
            inc = terms[order, 0] + out[:-1, l - 1]
            for i in range(2, min(l, top) + 1):
                inc = np.logaddexp(inc, terms[order, i - 1] + out[:-1, l - i])
            out[1:, l] = np.logaddexp.accumulate(inc)
        return out

    terms = binomial_terms(counts, top)
    forward = np.arange(size)
    pre = products(forward, terms)[:-1]
    suf = products(forward[::-1], terms)[::-1][1:]
    own = min(m, int(counts.max()) - 1)  # the own factor (1 + r_g u)^(c_g - 1)
    if own:
        own_terms = binomial_terms(counts - 1, own)
        with_own = suf.copy()
        for i in range(1, own + 1):
            with_own[:, i:] = np.logaddexp(with_own[:, i:], own_terms[:, i - 1 : i] + suf[:, : m + 1 - i])
        suf = with_own
    total = suf[:, m].copy()
    for l in range(1, m + 1):
        total = np.logaddexp(total, pre[:, l] + suf[:, m - l])
    return total - math.log(math.comb(int(counts.sum()) - 1, m))


def _leave_one_out_type2(
    log_a: np.ndarray,
    b: np.ndarray,
    pool: slice,
    rates: np.ndarray,
    counts: np.ndarray,
    where: str,
    log_d: np.ndarray | None,
    m: int,
) -> float:
    """Exact Type II under a spike placed uniformly on the cells of ``pool``.

    ``log_a`` holds ``log a_i``, the box probability of every cell without
    the spike, and ``b_s`` that of pool cell ``s`` carrying it, so the test
    accepts with probability ``b_s prod_{i != s} a_i`` given the spike at
    ``s``.  With ``m > 0`` mass is also removed from a uniform ``m``-subset of
    the other pool cells, whose box probabilities become ``d_i``: averaging
    over the subsets multiplies that term by ``e_m(r_{-s}) / C(|pool| - 1, m)``
    with ``r_i = d_i / a_i`` (:func:`_log_mean_subset_products`).

    Entry ``i`` stands for a run of ``counts[i]`` equal cells (dense cells
    are runs of count 1): the product is ``prod_i a_i^{counts[i]}``, the
    removal subsets range over the runs' cells, and each pool term is
    weighted by its run's share of the pool.

    The terms are formed as ``exp(sum log a - log a_s + ...)``, undefined
    when a pool cell has ``a_s = 0`` in float64 (an empty box, or one a huge
    rate collapses below its float spacing): that raises
    ``FloatingPointError`` naming the cell.
    """
    log_a_pool = log_a[pool]
    empty = np.flatnonzero(np.isneginf(log_a_pool))
    if empty.size:
        g = pool.start + int(empty[0])
        raise FloatingPointError(
            f"acceptance box of coordinate {int(np.sum(counts[:g])) + 1} (rate {float(rates[g])!r}) "
            f"has zero null probability{where}; its leave-one-out Type II term is undefined"
        )
    log_w = 0.0 if m == 0 else _log_mean_subset_products(log_d - log_a_pool, m, counts[pool])
    terms = np.exp(np.sum(counts * log_a) - log_a_pool + log_w) * b
    return float(np.sum(counts[pool] * terms) / np.sum(counts[pool]))


class _PoissonCells:
    """One acceptance box under independent Poisson cells: the Poisson model
    (``n = 1``) and the Poissonized multinomial (cell ``j`` is ``Poisson(n q_j)``).

    The cells come as runs, ``counts[g]`` cells of value ``values[g]`` and
    rate ``n values[g]`` whose box is ``box[g]``; dense cells are runs of
    count 1.  ``log_a`` holds each run's ``log P(box_g)``, and ``accept =
    prod_g P(box_g)^{counts[g]}`` is formed once from ``log_accept``, its log.
    """

    def __init__(self, box: AcceptanceBox, values: np.ndarray, counts: np.ndarray, n: float = 1.0):
        self.box, self.values, self.counts, self.n = box, values, counts, n
        self.ends = np.cumsum(counts)  # the cell count through each run, for the pools
        self.rates = n * values
        self.log_a = _box_log_mass(box, self.rates)
        self.log_accept = float(np.sum(counts * self.log_a))
        self.accept = math.exp(self.log_accept)

    def bayes(self, prior: PoissonSpikePrior | MultinomialSimplexPrior, where: str = "") -> float:
        """Exact Bayes Type II when the prior's draws perturb these cells.

        A :class:`PoissonSpikePrior` adds ``spike`` to one of cells
        ``1..j*``; a :class:`MultinomialSimplexPrior` adds ``c psi / n`` to
        one of categories ``2..j*+1`` and removes ``c psi / (n m)`` from
        ``m`` of the others.  The average over the draws is
        :func:`_leave_one_out_type2` on that pool, which is whole runs
        (``j*`` ends a run, or the cells are dense).  A removal below 0 is
        clipped at 0 here, as in :class:`_FixedN`; the sampler
        :func:`~supgof.priors.draw_multinomial_simplex_prior` does not clip,
        and may leave rounding-level negative cells in its draws.  ``where``
        ends the message of a pool box with zero null probability.
        """
        if isinstance(prior, PoissonSpikePrior):
            first, shift, m = 0, prior.spike, 0
        elif prior.m == 0:  # every draw is the base vector
            return self.accept
        else:
            first, shift, m = 1, prior.c * prior.psi / prior.n, prior.m
        pool = slice(first, int(np.searchsorted(self.ends, prior.j_star + first)) + 1)
        values, box = self.values[pool], self.box[pool]
        spiked = _box_mass(box, self.n * (values + shift))
        log_d = None
        if m:
            log_d = _box_log_mass(box, self.n * np.clip(values - prior.c * prior.psi / (prior.n * m), 0.0, None))
        return _leave_one_out_type2(self.log_a, spiked, pool, self.rates, self.counts, where, log_d, m)

    def risk(self, type2: float, seed: int) -> RiskEstimate:
        """The exact risk with these cells as the null (Type I ``1 - accept``) and ``type2``."""
        return RiskEstimate(-math.expm1(self.log_accept), min(type2, 1.0), 0, seed, 0.0)


def estimate_poisson_risk(
    mu: RateVector,
    alternative,
    eta: float,
    trials: int,
    seed: int,
) -> RiskEstimate:
    """Exact risk of the calibrated Poisson max test.

    ``alternative`` is a fixed rate vector ``lam`` (two-point Type II
    ``prod_j P_{lam_j}(box_j)``) or a :class:`PoissonSpikePrior` (Bayes
    Type II, the leave-one-out average over the spiked cell of its base);
    Type I is ``1 - prod_j P_{mu_j}(box_j)``.  ``trials`` (at least 100) and
    ``seed`` are validated but not used: the result reports 0 trials, a zero
    ``ci`` and ``seed`` as passed.
    """
    if trials < 100:
        raise ValueError("need at least 100 trials")
    box = PoissonTestConfig.from_eta(mu, eta).acceptance_box(mu)
    prior = isinstance(alternative, PoissonSpikePrior)
    if prior:
        lam = alternative.base.rates
    else:
        lam = alternative.rates if isinstance(alternative, RateVector) else np.asarray(alternative, dtype=float)
    if lam.shape != mu.rates.shape:
        raise ValueError("alternative dimension mismatch")
    if not (prior or np.all(np.isfinite(lam) & (lam >= 0.0))):
        raise ValueError("alternative rates must be finite and nonnegative")
    ones = np.ones(lam.size, dtype=np.int64)  # the dense cells as runs of count 1
    alt = _PoissonCells(box, lam, ones)
    type2 = alt.bayes(alternative) if prior else alt.accept
    return _PoissonCells(box, mu.rates, ones).risk(type2, seed)


def _fft_len(size: int) -> int:
    """Smallest ``f * 2^k >= size`` with ``f`` in {1, 3, 5, 9, 15}: a fast FFT length."""
    return min(f << (-(-size // f) - 1).bit_length() for f in (1, 3, 5, 9, 15))


class _Poly(NamedTuple):
    """``sum_i coeffs[..., i] z^(offset + i)``, and the mass that windowing
    dropped on the way to it, summed as it was dropped.  ``offset`` and
    ``trimmed`` are per row when ``coeffs`` holds a batch of rows."""

    offset: int | np.ndarray
    coeffs: np.ndarray
    trimmed: float | np.ndarray = 0.0


_ONE = _Poly(0, np.ones(1))


def _cut(z: np.ndarray, size: int, t: int) -> np.ndarray:
    """The first ``min(size, t + 1)`` coefficients of an inverse FFT, negative round-off set to 0.

    Cutting at degree ``t`` is exact for every coefficient kept: a product's
    coefficient ``k`` involves only its factors' coefficients up to ``k``.
    """
    return np.maximum(z[..., : min(size, t + 1)], 0.0)


def _window(z: np.ndarray, offset, trimmed, t: int) -> _Poly:
    """The product ``z`` (its column ``i`` is degree ``offset + i``, per row),
    cut at degree ``t`` as :func:`_cut` does and clipped in place, with the
    leading and trailing columns dropped where no row exceeds ``_TRIM`` times
    its own largest coefficient: one shared column window for a batch, each
    row keeping its offset.  What is dropped is added to ``trimmed``.

    A batch is cut at its lowest offset's degree ``t``, so a row with a
    higher offset may keep coefficients past ``t``; no coefficient up to
    ``t`` involves them.
    """
    z = z[..., : max(1, t - int(np.min(offset)) + 1)]
    np.maximum(z, 0.0, out=z)
    kept = z > _TRIM * z.max(axis=-1, keepdims=True)  # a zero row keeps nothing
    cols = np.flatnonzero(kept.reshape(-1, z.shape[-1]).any(axis=0))
    lo, hi = (int(cols[0]), int(cols[-1]) + 1) if cols.size else (0, 1)
    dropped = z[..., :lo].sum(axis=-1) + z[..., hi:].sum(axis=-1)
    return _Poly(offset + lo, z[..., lo:hi], trimmed + dropped)


def _mul(x: _Poly, y: _Poly, t: int) -> _Poly:
    """Product of the polynomials ``x`` and ``y``, cut at degree ``t`` and windowed (:func:`_window`)."""
    size = x.coeffs.size + y.coeffs.size - 1
    nfft = _fft_len(size)
    fx = np.fft.rfft(x.coeffs, nfft)
    fy = fx if y is x else np.fft.rfft(y.coeffs, nfft)
    return _window(np.fft.irfft(fx * fy, nfft)[:size], x.offset + y.offset, x.trimmed + y.trimmed, t)


def _power(x: _Poly, count: int, t: int) -> _Poly:
    """``x ** count`` cut at degree ``t`` and windowed, by repeated squaring
    from the top bit down, so every other product has the short factor ``x``."""
    if count == 0:
        return _ONE
    out = x
    for bit in bin(count)[3:]:
        out = _mul(out, out, t)
        if bit == "1":
            out = _mul(out, x, t)
    return out


def _tree_product(rows: np.ndarray, t: int) -> _Poly:
    """Product of the polynomials ``rows[r]`` over ``r``, cut at degree ``t`` and windowed.

    Neighbours multiply pairwise, level by level, each level in one batched
    ``rfft`` and windowed as one batch (:func:`_window`); an odd last row is
    carried up a level, zero-padded with the products to one width.
    """
    if rows.shape[0] == 0:
        return _ONE
    offset, trimmed = np.zeros(rows.shape[0], dtype=np.int64), np.zeros(rows.shape[0])
    while rows.shape[0] > 1:
        pairs = rows.shape[0] // 2 * 2
        size = 2 * rows.shape[1] - 1
        nfft = _fft_len(size)
        f = np.fft.rfft(rows[:pairs], nfft)
        f = f[0::2] * f[1::2]  # frees the rows' spectra before the inverse FFT
        level = _window(
            np.fft.irfft(f, nfft)[:, :size],
            offset[0:pairs:2] + offset[1:pairs:2],
            trimmed[0:pairs:2] + trimmed[1:pairs:2],
            t,
        )
        if rows.shape[0] % 2:
            carried = np.zeros((level.coeffs.shape[0] + 1, max(level.coeffs.shape[1], rows.shape[1])))
            carried[:-1, : level.coeffs.shape[1]] = level.coeffs
            carried[-1, : rows.shape[1]] = rows[-1]
            level = _Poly(np.r_[level.offset, offset[-1]], carried, np.r_[level.trimmed, trimmed[-1]])
        offset, rows, trimmed = level
    return _Poly(int(offset[0]), rows[0], float(trimmed[0]))


def _coefficient(x: _Poly, y: _Poly, t: int) -> float:
    """Coefficient ``t`` of the product ``x * y``."""
    s = t - x.offset - y.offset  # x.coeffs[k] meets y.coeffs[s - k]
    k = np.arange(max(0, s - y.coeffs.size + 1), min(x.coeffs.size, s + 1))
    return float(y.coeffs[s - k] @ x.coeffs[k])


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
    return rows * (_box_mass(AcceptanceBox(lo, hi), lam) / rows.sum(axis=1))[:, None]


def _groups(lam, lo, hi, counts) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The distinct (rate, box) groups of ``counts[g]`` cells of rate
    ``lam[g]`` in box ``g``, in any order, and their merged counts.

    One stable sort by (rate, lo, hi) puts the groups in the ascending order
    ``np.unique(..., axis=0)`` gives, and neighbours that share a (rate, box)
    are merged, their counts summed.
    """
    order = np.lexsort((hi, lo, lam))
    lam, lo, hi, counts = lam[order], lo[order], hi[order], counts[order]
    starts = np.flatnonzero(np.r_[True, (np.diff(lam) != 0) | (np.diff(lo) != 0) | (np.diff(hi) != 0)])
    return lam[starts], lo[starts], hi[starts], np.add.reduceat(counts, starts)


def _product(lam: np.ndarray, lo: np.ndarray, hi: np.ndarray, counts: np.ndarray, t: int) -> _Poly:
    """Product over cells of their box rows (:func:`_cell_rows`), cut at degree ``t`` and windowed.

    The cells come as groups, merged and sorted by :func:`_groups`.  Cells
    that share a (rate, box) are one factor raised to their count by
    repeated squaring; the distinct single cells multiply in one tree.
    """
    lam, lo, hi, counts = _groups(lam, lo, hi, counts)
    _check_terms(lam.size * (int(np.minimum(hi - lo, t).max()) + 1), "terms in one product level")
    rows = _cell_rows(lam, lo, hi, t)
    out = _tree_product(rows[counts == 1], t)
    for row, count in zip(rows[counts > 1], counts[counts > 1]):
        out = _mul(out, _power(_Poly(0, row), int(count), t), t)
    return out


def _box_cut(box: AcceptanceBox, n: float, counts: np.ndarray) -> int:
    """``t = n - sum_j lo_j``, the degree that carries ``sum Y = n`` once each
    cell is shifted by ``lo_j``, for ``counts[g]`` cells in box ``g``; -1
    when no count vector in the box sums to ``n``."""
    if n != int(n):
        raise ValueError("the fixed-n multinomial needs an integer n")
    t = int(n) - int(counts @ box.lo)
    if t < 0 or np.any(box.hi < box.lo) or counts @ box.hi < n:
        return -1
    _check_terms(t + 1, "coefficients in the product")
    return t


def _ratio(numerator, n: float, total_rate: float):
    """``numerator / P(Poisson(total_rate) = n)``, clipped to [0, 1].

    A point probability that is not positive in float64 (a box collapsed
    below the float spacing of a huge ``n``) raises ``FloatingPointError``.
    """
    point = _box_mass(AcceptanceBox(np.array([n]), np.array([n])), np.array([total_rate]))[0]
    if not point > 0.0:
        raise FloatingPointError(
            f"P(Poisson({total_rate!r}) = n) is not positive in float64 at n = {n!r}; "
            "the fixed-n probability is undefined"
        )
    return np.clip(numerator / point, 0.0, 1.0)


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


class _FixedN:
    """One acceptance box under ``Multinomial(n, q)``, and under the draws of
    a simplex prior on ``q``; with ``j_star = 0`` (no pool) the law of ``q``
    alone.

    ``q`` comes as runs, ``counts[g]`` cells of probability ``values[g]``
    whose box is ``box[g]``, with the head a run of its own and the pool
    (categories ``2..j* + 1``) whole runs; dense cells are runs of count 1.
    ``total`` is ``Lambda``, ``n sum(q)``, which every draw shares (up to
    the clip at 0 of a removed cell).  The cells outside the pool keep
    their base rates in every draw, so their product ``outside`` is formed
    once, and with it ``accept = P(X in box)`` under ``q``; a sweep shares
    one instance over its whole ``xi`` grid.  A pool whose cells share one
    (rate, box) keeps the power ``rest = a^(j* - 1 - m)`` of its cells that
    are neither spiked nor removed.

    The numerator ``P(Y in box, sum Y = n)`` is coefficient ``t = n - sum lo``
    of ``prod_j sum_k P(Y_j = lo_j + k) z^k`` (:func:`_product`).  It errs in
    two ways:

    * Round-off: every partial product has nonnegative coefficients summing
      to at most 1, so an FFT product errs in each coefficient by at most
      about ``c eps log2(N)`` with ``c ~ 20`` (Higham, *Accuracy and
      Stability of Numerical Algorithms*, sec. 24.1), for transform length
      ``N <= 4 t + 4``, and an error carried up the tree is scaled by the
      other factor's mass, at most 1: over at most ``2 p`` products,
      ``2 p c eps log2(4 t + 4)`` in all.
    * Windowing (:func:`_window`): a coefficient dropped from a factor takes
      with it its products with the other factors' coefficients, each at
      most 1, so the numerator falls by at most ``trimmed``, the mass
      dropped, counted once per copy of the factor in the product;
      ``_Poly.trimmed`` sums it so as it is dropped (a squaring doubles it).

    The probability therefore errs by at most ``(2 p c eps log2(4 t + 4) +
    trimmed) / P(Poisson(Lambda) = n)`` absolute, with ``P(Poisson(Lambda)
    = n) ~ (2 pi n)^(-1/2)``: 3e-12 at p = 4, n = 30, and 1.2e-7 at p = 1e3,
    n = 1e5, where ``trimmed`` is 5.2e-13 on a flat null and 3.1e-14 on
    ``q_j ~ j^(-1/2)``, under 0.4 % of the bound.  The rows
    (:func:`_cell_rows`) and the denominator, a difference of two CDFs, add
    relative errors of order ``eps (width + sqrt(n))``.  Measured: against
    40-digit enumeration at p <= 4, n <= 30 the error is at most 8.3e-15;
    at p = 1e3, n = 1e5, against a direct long-double convolution of the
    same rows, 4.5e-13 on the flat null and 1.7e-14 on ``q_j ~ j^(-1/2)``.
    """

    def __init__(
        self, box: AcceptanceBox, n: float, values: np.ndarray, counts: np.ndarray, total: float, j_star=0, m=0
    ):
        self.t = t = _box_cut(box, n, counts)
        self.n, self.total = n, total
        if t < 0:
            self.accept = 0.0
            return
        cut = int(np.searchsorted(np.cumsum(counts), j_star + 1)) + 1
        pool, outside = slice(1, cut), np.r_[0, cut : values.size]
        lam = n * values
        self.lo, self.hi, self.counts = box.lo[pool], box.hi[pool], counts[pool]
        self.outside = _product(lam[outside], box.lo[outside], box.hi[outside], counts[outside], t)
        pool_lam = lam[pool]
        self.flat = j_star > 0 and _groups(pool_lam, self.lo, self.hi, self.counts)[0].size == 1
        if j_star == 0:
            numerator = _coefficient(self.outside, _ONE, t)
        elif self.flat:
            a = _Poly(0, _cell_rows(pool_lam[:1], self.lo[:1], self.hi[:1], t)[0])
            self.rest = _power(a, j_star - 1 - m, t)
            numerator = _coefficient(_mul(self.outside, _power(a, m + 1, t), t), self.rest, t)
        else:
            numerator = _coefficient(self.outside, _product(pool_lam, self.lo, self.hi, self.counts, t), t)
        self.accept = float(_ratio(numerator, n, self.total))

    def bayes(self, prior: MultinomialSimplexPrior, where: str = "") -> float:
        """Exact Bayes Type II under ``prior``, whose base, ``j*`` and ``m``
        built this instance.  A removal below 0 is clipped at 0, as in
        :meth:`_PoissonCells.bayes`.  A pool product past ``_MAX_TERMS``
        terms in one level raises ``AtomBudgetError`` before any row is
        built.  ``where`` is not used: no fixed-n failure depends on the
        prior's scale."""
        if self.t < 0:
            return 0.0
        if prior.m == 0:  # every draw is the base vector
            return self.accept
        t, m = self.t, prior.m
        q = prior.base.probs[1 : prior.j_star + 1]
        shift = prior.c * prior.psi / prior.n
        if self.flat:  # a flat pool needs one row of each
            lo, hi, q = self.lo[:1], self.hi[:1], q[:1]
        else:
            lo, hi = np.repeat(self.lo, self.counts), np.repeat(self.hi, self.counts)
            length = int(np.minimum(hi - lo, t).max()) + 1
            _check_terms(_pool_tree_terms(q.size, m, length, t), "terms in one pool-product level")
        a, b, d = (_cell_rows(self.n * rates, lo, hi, t) for rates in (q, q + shift, np.clip(q - shift / m, 0.0, None)))
        if self.flat:
            changed = _mul(_mul(self.outside, _Poly(0, b[0]), t), _power(_Poly(0, d[0]), m, t), t)
            numerator = _coefficient(changed, self.rest, t)
        else:
            numerator = _coefficient(self.outside, _Poly(0, _pool_tree(a, b, d, m, t)), t)
        return float(_ratio(numerator, self.n, self.total))

    def risk(self, type2: float, seed: int) -> RiskEstimate:
        """The exact risk with this law as the null (Type I ``1 - accept``) and ``type2``."""
        return RiskEstimate(1.0 - self.accept, type2, 0, seed, 0.0)


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
    independent ``Poisson(n q_j)`` (:class:`_PoissonCells`); otherwise ``n``
    must be an integer and the risk is that of ``Multinomial(n, q)`` counts
    (:class:`_FixedN`).  Either way the risk is exact, reported with 0
    trials, a zero ``ci`` and ``seed`` as passed; ``trials`` must be at
    least 100 but is not used.  Type I is always under ``q0``, Type II under
    the alternative's own cells (a prior's base included).  Past the
    ``_MAX_TERMS`` cap the fixed-n route raises ``AtomBudgetError``.
    """
    if trials < 100:
        raise ValueError("need at least 100 trials")
    box = MultinomialTestConfig.from_eta(q0, n, eta).acceptance_box(q0, n)
    prior = isinstance(alternative, MultinomialSimplexPrior)
    q_alt = alternative.base.probs if prior else as_probability_vector(alternative, "alternative")
    if q_alt.size != q0.p:
        raise ValueError("alternative dimension mismatch")
    ones = np.ones(q_alt.size, dtype=np.int64)  # the dense cells as runs of count 1
    if poissonized:
        alt, null = (_PoissonCells(box, q, ones, n) for q in (q_alt, q0.probs))
    elif prior:
        alt = _FixedN(box, n, q_alt, ones, n * float(q_alt.sum()), alternative.j_star, alternative.m)
        null = alt if np.array_equal(q_alt, q0.probs) else _FixedN(box, n, q0.probs, ones, float((n * q0.probs).sum()))
    else:
        null, alt = (_FixedN(box, n, q, ones, float((n * q).sum())) for q in (q0.probs, q_alt))
    return null.risk(alt.bayes(alternative) if prior else alt.accept, seed)


@dataclass(frozen=True)
class SweepResult:
    """Risk curve over a grid of separation multipliers ``xi``, with the
    null's advisory ``regime`` label (:mod:`supgof.rates`) on every row."""

    xi_grid: np.ndarray
    epsilons: np.ndarray
    risks: tuple[RiskEstimate, ...]
    regime: str

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
        return [
            {"xi": float(xi), "epsilon": float(eps), "type1": r.type1, "type2": r.type2, "total": r.total,
             "ci": r.ci_halfwidth, "trials": r.trials, "seed": r.seed, "regime": self.regime}
            for xi, eps, r in zip(self.xi_grid, self.epsilons, self.risks)
        ]


def _checked_xi_grid(alpha_p: float, xi_grid) -> np.ndarray:
    """A sweep's ``xi`` grid as floats, each checked after ``alpha_p``, in the
    order the sharp-constant levels check them."""
    _check_alpha_p(alpha_p)
    xi_grid = np.asarray(list(xi_grid), dtype=float)
    for xi in xi_grid:
        _check_xi(xi)
    return xi_grid


def _scaled_by_grid(xi_grid: np.ndarray, level: float) -> np.ndarray:
    """The separations ``xi * level`` over the grid; ``OverflowError`` if one is not finite."""
    with np.errstate(over="ignore"):
        epsilons = xi_grid * level
    if not np.all(np.isfinite(epsilons)):
        raise OverflowError(f"the separation xi * {level!r} overflows on xi grid {xi_grid.tolist()!r}")
    return epsilons


def sweep_sharp_constant(
    mu: RateVector,
    xi_grid,
    alpha_p: float,
    trials: int,
    seed: int,
) -> SweepResult:
    """Poisson sharp-constant sweep, computed exactly over the runs of ``mu``.

    At each ``xi`` the separation is the inflated-log level ``eps(xi)``, the
    test rejects when ``||X - mu||_inf >= eps(xi)/xi`` (the threshold is the
    ``xi``-free level), and Type II is Bayes risk under the uniform spike of
    magnitude ``eps(xi)`` on the first ``j*`` coordinates.

    The test accepts exactly when every count lies in its acceptance box.
    ``j*`` ends a run (:func:`~supgof.rates.sharp_constant_epsilon`), so
    the pool ``1..j*`` is whole runs; with ``n_g`` cells of rate ``mu_g`` in
    run ``g``, ``a_g = P_{mu_g}(box_g)`` and ``b_g = P_{mu_g + eps}(box_g)``,
    the risk is ``type1 = 1 - prod_g a_g^{n_g}`` and
    ``type2 = sum_{g in pool} (n_g / j*) b_g prod_h a_h^{n_h} / a_g``, in
    O(#runs) per ``xi``: a null built from runs sweeps at any ``p`` without
    its dense rates.  The threshold does not depend on ``xi``, so one
    :class:`_PoissonCells` law, with its box, ``log a`` and Type I, serves
    the whole grid.
    ``trials`` must be at least 1 but is not used, nor is ``seed``: each row
    reports 0 trials, a zero ``ci`` and ``seed`` as passed.  A box among the
    first ``j*`` with zero null probability in float64 raises
    ``FloatingPointError``.
    """
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials!r}")
    xi_grid = _checked_xi_grid(alpha_p, xi_grid)
    # The xi-free level, which is the test's threshold, is the separation at xi = 1.
    level, j_star = sharp_constant_epsilon(mu, alpha_p, 1.0)
    epsilons = _scaled_by_grid(xi_grid, level)
    values, counts = mu.runs
    null = _PoissonCells(AcceptanceBox.around(values, level, strict=True), values, counts)
    estimates = tuple(
        # The spike prior of scale xi on the level: its spike xi * level is the grid's epsilon.
        null.risk(null.bayes(PoissonSpikePrior(mu, j_star, level, xi, math.e), f" at xi={xi!r}"), seed)
        for xi in xi_grid.tolist()
    )
    return SweepResult(xi_grid, epsilons, estimates, _poisson_peak(values, counts).regime)


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

    Both risks work on the runs of ``q0`` (:attr:`SimplexVector.runs`, the
    head a run of its own): ``j*`` ends a run
    (:func:`~supgof.rates.multinomial_sharp_constant_level`), so the pool
    ``2..j*+1`` is whole runs, and every box is built once per run.  The
    threshold ``n' eps(xi)/xi`` does not depend on ``xi``, so one box, built
    from the ``xi``-free level, serves the whole grid.  The Poissonized risk
    is exact, in O(#runs m) per ``xi``: with ``c_g`` cells of box
    probability ``a_g = P_{n q_g}(box_g)`` in run ``g``, ``type1 = 1 -
    prod_g a_g^{c_g}`` and Type II is the leave-one-out average of
    :meth:`_PoissonCells.bayes` over the spiked run and the removal
    subsets, so a null given as runs sweeps at any ``p``.  The fixed-n risk
    is exact too (:class:`_FixedN`, one product of the cells outside the
    pool and one Type I for the whole grid) but needs the dense cells,
    so past ``DENSE_RATES_CAP`` it raises a ``ValueError`` naming the cap.
    Every row reports 0 trials, a zero ``ci`` and ``seed`` as passed;
    ``trials`` must be at least 1 but is not used.
    """
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials!r}")
    xi_grid = _checked_xi_grid(alpha_p, xi_grid)
    # The xi-free level, the test's threshold over n', is the separation at xi = 1.
    level, j_star, n_prime, m = multinomial_sharp_constant_level(q0, n, alpha_p)
    epsilons = _scaled_by_grid(xi_grid, level)
    if m == 0:
        raise ValueError("sweep alternative needs j* >= 2: no cell can give up the added mass")
    # Fixed-n works on the dense cells: past DENSE_RATES_CAP this raises, naming the cap.
    total = None if poissonized else n * float(q0.probs.sum())
    values, counts = q0.runs
    floor = values[np.searchsorted(np.cumsum(counts), j_star + 1)]  # category j* + 1, the pool's last
    if np.any(epsilons / m > floor + 1e-15):
        raise ValueError("sweep alternative leaves the simplex; reduce xi or grow n")
    box = AcceptanceBox.around(n * values, n_prime * level, strict=True)
    null = _PoissonCells(box, values, counts, n) if poissonized else _FixedN(box, n, values, counts, total, j_star, m)
    estimates = tuple(
        null.risk(null.bayes(MultinomialSimplexPrior(q0, n, j_star, psi=n * eps, m=m, c=1.0), f" at xi={xi!r}"), seed)
        for xi, eps in zip(xi_grid.tolist(), epsilons.tolist())
    )
    return SweepResult(xi_grid, epsilons, estimates, _multinomial_peak(values, counts, n).regime)
