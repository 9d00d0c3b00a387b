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

``Lambda = n sum_j q_j``, and the numerator is one coefficient of a product
of box-truncated Poisson pmfs, held by its values at the few frequencies
where it carries mass and inverted by one direct sum (:class:`_FixedN`).
Each law is built with a prior's pool (first cell, ``j*``, ``m``) and takes
its added masses ``c psi``, in count units, as plain numbers; only the
``estimate_*`` routes look at a prior.  A route's law of the alternative's
own cells (a prior's base included) gives Type II, and Type I when those
cells are the null's; otherwise a law of the null's cells gives Type I.
Every result is exact and reports 0 trials and a zero ``ci``; nothing is
sampled.  A fixed-n product too large to form (more than ``_MAX_TERMS``
terms in one level, or a coefficient degree past it) raises ``AtomBudgetError``.
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
from .rates import _check_alpha_p, _check_xi, _sharp_constant_peaks, multinomial_sharp_constant_level
from .special import AtomBudgetError

__all__ = [
    "RiskEstimate",
    "SweepResult",
    "estimate_poisson_risk",
    "estimate_multinomial_risk",
    "sweep_sharp_constant",
    "sweep_multinomial_sharp_constant",
]

# Fixed-n route: the most terms one row table or pool-product level may hold,
# and the longest product taken (t + 1 coefficients); past either, AtomBudgetError.
_MAX_TERMS = 1 << 22
# Fixed-n Type II: the masses of one bayes call share a worst-draw table, or a
# pool tree, while it holds at most _BATCH entries (at least one mass each).
_BATCH = 1 << 18
# A fixed-n grid keeps both the aliased mass and the dropped frequencies' share
# of the numerator below _TAIL (see _choose_grid).
_TAIL = 1e-18


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
    ``m``-subsets of the ratios other than that copy.  ``log_r`` may hold one
    row of ratios per prior, along a leading axis.

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
    ``(G + 1, m + 1)`` tables per row.
    """
    size = log_r.shape[-1]
    top = min(m, int(counts.max()))

    def binomial_terms(c, most):  # log C(c_g, i) r_g^i for i = 1..most
        return _log_comb(c, most)[:, 1:] + log_r[..., None] * np.arange(1, most + 1)

    def products(order: np.ndarray, terms: np.ndarray) -> np.ndarray:
        """``out[..., k, l]``: ``log [u^l]`` of the product over the first ``k`` entries of ``order``."""
        out = np.full(log_r.shape[:-1] + (size + 1, m + 1), -np.inf)
        out[..., 0] = 0.0
        for l in range(1, m + 1):
            inc = terms[..., order, 0] + out[..., :-1, l - 1]
            for i in range(2, min(l, top) + 1):
                inc = np.logaddexp(inc, terms[..., order, i - 1] + out[..., :-1, l - i])
            out[..., 1:, l] = np.logaddexp.accumulate(inc, axis=-1)
        return out

    terms = binomial_terms(counts, top)
    forward = np.arange(size)
    pre = products(forward, terms)[..., :-1, :]
    suf = products(forward[::-1], terms)[..., ::-1, :][..., 1:, :]
    own = min(m, int(counts.max()) - 1)  # the own factor (1 + r_g u)^(c_g - 1)
    if own:
        own_terms = binomial_terms(counts - 1, own)
        with_own = suf.copy()
        for i in range(1, own + 1):
            with_own[..., i:] = np.logaddexp(with_own[..., i:], own_terms[..., i - 1 : i] + suf[..., : m + 1 - i])
        suf = with_own
    total = suf[..., m].copy()
    for l in range(1, m + 1):
        total = np.logaddexp(total, pre[..., l] + suf[..., m - l])
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
) -> np.ndarray:
    """Exact Type II under a spike placed uniformly on the cells of ``pool``,
    one per row of ``b`` (and of ``log_d``): one per prior.

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
    return np.sum(counts[pool] * terms, axis=-1) / np.sum(counts[pool])


class _PoissonCells:
    """One acceptance box under independent Poisson cells: the Poisson model
    (``n = 1``) and the Poissonized multinomial (cell ``j`` is ``Poisson(n q_j)``).

    The cells come as runs, ``counts[g]`` cells of value ``values[g]`` and
    rate ``n values[g]`` whose box is ``box[g]``; dense cells are runs of
    count 1.  ``log_a`` holds each run's ``log P(box_g)``, and ``accept =
    prod_g P(box_g)^{counts[g]}`` is formed once from ``log_accept``, its log.
    A prior's pool is cells ``first + 1..first + j*``, whole runs: ``first =
    0`` for the spike prior, ``1`` for the simplex prior, which has ``m > 0``.
    """

    def __init__(self, box: AcceptanceBox, values: np.ndarray, counts: np.ndarray, n=1.0, first=0, j_star=0, m=0):
        self.box, self.values, self.counts, self.n, self.m = box, values, counts, n, m
        self.pool = slice(first, int(np.searchsorted(np.cumsum(counts), j_star + first)) + 1)  # the pool's runs
        self.rates = n * values
        self.log_a = _box_log_mass(box, self.rates)
        self.log_accept = float(np.sum(counts * self.log_a))
        self.accept = math.exp(self.log_accept)

    def bayes(self, masses, where: str = "") -> list[float]:
        """Exact Bayes Type II under the prior that adds ``mass`` (count units)
        to one pool cell and, with ``m > 0``, takes ``mass / m`` from ``m``
        others, for each of ``masses``: :func:`_leave_one_out_type2` on one
        ``(mass, pool)`` table of spiked box masses and one of reduced ones.
        A removal below 0 is clipped at 0, as in :class:`_FixedN`; the sampler
        :func:`~supgof.priors.draw_multinomial_simplex_prior` does not clip,
        and may leave rounding-level negative cells in its draws.  ``where``
        ends the message of a pool box with zero null probability.
        """
        if not len(masses):
            return []
        pool = self.pool
        values, box, masses = self.values[pool], self.box[pool], np.asarray(masses, dtype=float)[:, None]
        spiked = _box_mass(box, self.n * (values + masses / self.n))
        log_d = None
        if self.m:
            log_d = _box_log_mass(box, self.n * np.clip(values - masses / (self.n * self.m), 0.0, None))
        return _leave_one_out_type2(self.log_a, spiked, pool, self.rates, self.counts, where, log_d, self.m).tolist()

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
    alt = _PoissonCells(box, lam, ones, j_star=alternative.j_star if prior else 0)
    null = alt if np.array_equal(lam, mu.rates) else _PoissonCells(box, mu.rates, ones)
    return null.risk(alt.bayes([alternative.spike])[0] if prior else alt.accept, seed)


def _check_terms(terms: int, what: str) -> None:
    if terms > _MAX_TERMS:
        raise AtomBudgetError(f"exact fixed-n risk needs {terms} {what}, over the cap of {_MAX_TERMS}")


class _Rows(NamedTuple):
    """Box rows of Poisson cells about their modes: ``table[g, left + d]`` is
    ``P(Y_g = lo_g + mode[g] + d)``, ``Y_g ~ Poisson(lam[g])``, 0 outside the
    box ``[lo_g, lo_g + width[g]]``; ``mass`` and ``var`` are row sums and variances."""

    table: np.ndarray
    left: int
    mode: np.ndarray
    width: np.ndarray
    lam: np.ndarray
    mass: np.ndarray
    var: np.ndarray


def _cell_rows(lam: np.ndarray, lo: np.ndarray, hi: np.ndarray, t: int) -> _Rows:
    """``P(Y_g = lo_g + k)`` for ``Y_g ~ Poisson(lam_g)`` and ``k = 0..min(hi_g - lo_g, t)``,
    one row per cell about its mode in the box (:class:`_Rows`): cumulative
    products, in place, of the ratios ``lam / x`` to the right and ``(x + 1)
    / lam`` to the left, each at most 1, scaled to the mass
    :meth:`AcceptanceBox.mass` gives the (cut) box, so a value ``k`` steps
    from the mode errs by a further relative ``k eps`` or so."""
    hi = np.minimum(hi, lo + t)
    width = (hi - lo).astype(np.int64)
    mode = (np.clip(np.floor(lam), lo, hi) - lo).astype(np.int64)
    left = int(mode.max())
    d = np.arange(-left, int((width - mode).max()) + 1)
    table = np.add.outer(lo + mode, d.astype(float))  # the count each entry stands for
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):  # only outside the boxes
        np.divide(lam[:, None], table[:, left + 1 :], out=table[:, left + 1 :])
        np.add(table[:, :left], 1.0, out=table[:, :left])
        np.divide(table[:, :left], lam[:, None], out=table[:, :left])
        table[:, left] = 1.0
        np.multiply.accumulate(table[:, left:], axis=1, out=table[:, left:])
        np.multiply.accumulate(table[:, left::-1], axis=1, out=table[:, left::-1])
    np.copyto(table, 0.0, where=(d < -mode[:, None]) | (d > (width - mode)[:, None]))
    table *= (_box_mass(AcceptanceBox(lo, hi), lam) / table.sum(axis=1))[:, None]
    mass, first, second = (table @ np.stack([np.ones(d.size), d, d * d.astype(float)], axis=1)).T
    scale = np.where(mass > 0.0, mass, 1.0)  # a row of zero mass has no law
    return _Rows(table, left, mode, width, lam, mass, np.maximum(second / scale - (first / scale) ** 2, 0.0))


def _groups(values, lo, hi, counts) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The distinct (value, box) groups of ``counts[g]`` cells of value
    ``values[g]`` in box ``g``, in any order, and their merged counts
    (``counts`` may hold one column per kind of cell).

    One stable sort by (value, lo, hi) puts the groups in the ascending order
    ``np.unique(..., axis=0)`` gives, and neighbours that share a (value, box)
    are merged, their counts summed.
    """
    order = np.lexsort((hi, lo, values))
    values, lo, hi, counts = values[order], lo[order], hi[order], counts[order]
    starts = np.flatnonzero(np.r_[True, (np.diff(values) != 0) | (np.diff(lo) != 0) | (np.diff(hi) != 0)])
    return values[starts], lo[starts], hi[starts], np.add.reduceat(counts, starts)


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


def _point(n: float, total_rate: float) -> float:
    """``P(Poisson(total_rate) = n)``, the denominator of every fixed-n probability.

    A point probability that is not positive in float64 (a box collapsed
    below the float spacing of a huge ``n``) raises ``FloatingPointError``.
    """
    point = _box_mass(AcceptanceBox(np.array([n]), np.array([n])), np.array([total_rate]))[0]
    if not point > 0.0:
        raise FloatingPointError(
            f"P(Poisson({total_rate!r}) = n) is not positive in float64 at n = {n!r}; "
            "the fixed-n probability is undefined"
        )
    return point


def _weighted(counts, *fields) -> tuple:
    """``sum_g counts[g] field[g]`` for each field: in logs, the product of ``counts[g]`` copies of row ``g``."""
    keep = np.asarray(counts) > 0  # no 0 * log(0)
    return tuple(np.asarray(counts)[keep] @ field[keep] for field in fields)


class _Bounds(NamedTuple):
    """What chooses a fixed-n grid, for each row or, summed (:func:`_weighted`),
    for a product law: its ``centre`` (the modes' sum) and ``logs``, the
    columns ``log M(theta_i)``, then ``log M(-theta_i)``, with ``M(theta) =
    sum_d P(d) e^(theta d)`` about the centre, then the log of a bound on
    ``|R(omega)|`` wherever ``1 - cos omega >= 1 - cos phi_i``."""

    centre: np.ndarray
    logs: np.ndarray


def _ladders(sigma: float, width: int) -> tuple[np.ndarray, np.ndarray]:
    """The tilts and frequencies of the :class:`_Bounds` of a law of standard
    deviation ``sigma`` on rows at most ``width`` long: ``theta`` about ``12 /
    sigma`` and under ``700 / width`` (no ``e^(theta d)`` overflows), ``phi``
    fine about ``9 / sigma``, where a normal ``Phi`` falls below ``_TAIL``."""
    theta = np.minimum(12.0 / sigma * 2.0 ** (np.arange(-4, 9) / 2.0), 700.0 / max(1, width))
    ladder = 2.0 ** np.r_[np.arange(-8, 17) / 8.0, np.arange(5, 15) / 2.0]
    return theta, np.r_[np.minimum(9.0 / sigma * ladder, math.pi), math.pi]


def _bounds(rows: _Rows, theta: np.ndarray, phi: np.ndarray, offset=0) -> _Bounds:
    """Each row's :class:`_Bounds`, about its mode less ``offset``.  A row is a
    sub-probability of ``Poisson(lam)`` with mass ``a``, so ``|R(omega)|`` is
    at most ``a`` and at most ``|E e^(i omega Y)| + 1 - a = e^(-lam (1 - cos
    omega)) + 1 - a``, and neither grows with ``1 - cos omega``."""
    d = np.arange(-rows.left, rows.table.shape[1] - rows.left)
    signed = np.concatenate((theta, -theta))
    tilts = np.exp(np.multiply.outer(d, signed))
    envelope = np.exp(-np.multiply.outer(rows.lam, 2.0 * np.sin(0.5 * phi) ** 2))  # |E e^(i omega Y)|
    trunc = np.minimum(rows.mass[:, None], envelope + np.maximum(1.0 - rows.mass, 0.0)[:, None])
    logs = np.log(np.maximum(np.hstack([rows.table @ tilts, trunc]), 1e-300))  # finite with no mass
    logs += np.multiply.outer(offset, np.concatenate((signed, 0.0 * phi)))
    return _Bounds(rows.mode - offset, logs)


def _worst_draw(base, spiked, reduced, counts: np.ndarray, m: int) -> np.ndarray:
    """Per column, the largest sum of the pool's log bounds over the simplex
    prior's draws (one spiked cell, ``m`` reduced, the rest at base; ``counts[g]``
    cells of row ``g``).  With ``lift = reduced - base`` and ``top(k)`` the sum
    of its ``k`` largest over the cells, a draw spiking a cell of row ``g``
    reduces at most ``min(top(m), top(m + 1) - lift[g])``: a pool of one row
    is its one law, exactly.  ``spiked`` and ``reduced`` may hold several
    laws' columns side by side, each law's as many as ``base``'s, and
    ``counts @ base`` is taken once for them all.  The columns are taken in
    blocks of at most 2^16 entries, and of at least two columns, whose sums
    down the rows run in the same order as the whole table's."""
    rows, cols = spiked.shape
    out = np.empty(cols)
    for at in np.array_split(np.arange(cols), max(1, min(cols // 2, math.ceil(rows * cols / (1 << 16))))):
        below = base[:, at % base.shape[1]]
        lift = reduced[:, at] - below
        order = np.argsort(-lift, axis=0, kind="stable")
        taken, ranked = counts[order], np.take_along_axis(lift, order, axis=0)
        ahead = np.cumsum(taken, axis=0) - taken  # cells ranked above each row's
        top, more = (np.sum(np.clip(k - ahead, 0, taken) * ranked, axis=0) for k in (m, m + 1))
        out[at] = np.max(spiked[:, at] - below + np.minimum(top, more - lift), axis=0)
    return np.tile(counts @ base, cols // base.shape[1]) + out


class _Grid(NamedTuple):
    """Frequencies ``omega_k = 2 pi k / size`` for ``k = 0..top``, ``top <= size / 2``."""

    size: int
    top: int


def _choose_grid(law: _Bounds, t: int, theta: np.ndarray, phi: np.ndarray, least: int) -> _Grid:
    """A grid on which coefficient ``t`` of ``law`` errs by at most ``_TAIL``
    from aliasing and ``_TAIL`` from truncation.  The aliases ``coef(tau + m
    N)``, ``m != 0``, ``tau = t - centre``, sum to at most ``e^(-theta (tau +
    N)) M(theta) + e^(-theta (N - tau)) M(-theta)`` for any ``theta > 0``:
    ``N`` is the first of ``least 2^(j/8)`` (the null's ``6 sigma + 8``,
    or its ``N`` for a draw) that a ``theta`` brings below ``_TAIL``.  The
    dropped ``K < |k| <= N / 2`` cost at most ``|Phi(omega_(K+1))|``: ``K``
    is the first past the least ``phi_i`` with ``trunc[i] <= log _TAIL``,
    or ``N / 2`` with none."""
    tau, (up, down, trunc) = t - int(law.centre), np.split(law.logs, [theta.size, 2 * theta.size])
    sizes = np.ceil(least * 2.0 ** (np.arange(128) / 8.0)).astype(np.int64)
    over = np.min(up - np.multiply.outer(tau + sizes, theta), axis=1)
    under = np.min(down - np.multiply.outer(sizes - tau, theta), axis=1)
    fits = np.flatnonzero(np.logaddexp(over, under) <= math.log(_TAIL))
    if not fits.size:
        raise FloatingPointError(f"no fixed-n grid up to {int(sizes[-1])} points bounds the aliasing to {_TAIL}")
    size = int(sizes[fits[0]])
    cut = np.flatnonzero(trunc <= math.log(_TAIL))
    return _Grid(size, size // 2 if not cut.size else min(size // 2, math.ceil(size * phi[cut[0]] / (2.0 * math.pi))))


def _log_spectra(table: np.ndarray, left: int, grid: _Grid) -> tuple[np.ndarray, np.ndarray]:
    """``log R_g(e^(i omega_k))``, ``k = 0..top``, as real part and phase, of the
    rows ``R_g(z) = sum_d table[g, left + d] z^d``: ``log a + log1p(Z)``, ``a``
    the row's mass and ``Z = sum_d (P(d) / a) (e^(i omega d) - 1)`` formed
    from ``sum P sin^2(omega d / 2)`` and ``sum P sin(omega d)`` (one real
    matmul each, ``omega d`` taken mod ``2 pi`` in integers).  About the mode
    ``Z`` is small wherever ``Phi`` carries mass, so a row raised to a large
    count keeps its relative accuracy.  A row of zero mass gives ``-inf``."""
    size, top = grid
    d = np.arange(-left, table.shape[1] - left)
    cos_part, sin_part = np.empty((2, table.shape[0], top + 1))
    step = max(1, (1 << 18) // d.size)  # at most 2^18 entries in one trigonometric table
    for at in range(0, top + 1, step):
        half = np.multiply.outer(d, np.arange(at, min(at + step, top + 1))) % size * (math.pi / size)  # omega d / 2
        cos_part[:, at : at + step] = table @ np.sin(half) ** 2
        sin_part[:, at : at + step] = table @ np.sin(2.0 * half)
    mass = table.sum(axis=1)[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        re, im = cos_part * (-2.0 / mass), sin_part / mass
        near = re * (2.0 + re) + im * im  # |1 + Z|^2 - 1
        real = np.where(mass > 0.0, 0.5 * np.log1p(np.maximum(near, -1.0)) + np.log(mass), -np.inf)
        return real, np.where(mass > 0.0, np.arctan2(im, 1.0 + re), 0.0)


def _invert(grid: _Grid, tau, real: np.ndarray, phase: np.ndarray):
    """Coefficient ``tau`` (an int or an array) of the Laurent polynomial with
    values ``exp(real + i phase)`` at ``omega_k``: ``(1 / N) sum_(|k| <= K)
    Phi(omega_k) e^(-i omega_k tau)``, ``k < 0`` by conjugate symmetry, the
    Nyquist ``k = N / 2`` once, and ``k tau`` taken mod ``N`` in integers."""
    size, top = grid
    k = np.arange(top + 1)
    weight = np.where((k == 0) | (2 * k == size), 1.0, 2.0)
    turns = np.multiply.outer(tau, k) % size * (2.0 * math.pi / size)
    return np.sum(weight * np.exp(real) * np.cos(phase - turns), axis=-1) / size


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


def _pool_tree(a: np.ndarray, b: np.ndarray, d: np.ndarray, m: int) -> np.ndarray:
    """Mean over the simplex prior's draws of the pool's product, at each frequency.

    ``a``, ``b``, ``d`` hold each pool cell's base, spiked and reduced row at
    the grid's frequencies, about one centre per cell.  A draw spikes cell
    ``s`` (row ``b_s``) and takes mass from an ``m``-subset ``S`` of the
    others (rows ``d``); summed over all ``(s, S)``, ``b_s prod_S d
    prod_rest a`` is the coefficient of ``u v^m`` in ``prod_i (a_i + u b_i
    + v d_i)``.  A node of the tree over the cells keeps it as means:
    ``M_k`` over the ``k``-subsets of its cells of ``prod_S d prod_rest a``,
    and ``U_k`` over (spike, ``k``-subset of the rest), ``k <= m``; the
    root's ``U_m`` is returned.  Nodes of ``N1`` and ``N2`` cells merge
    pointwise, ``O((m + 1)^2)`` products per frequency, as in ``M_k = sum_i
    C(N1, i) C(N2, k - i) / C(N, k) M1_i M2_{k-i}``: means of sub-probability
    spectra, so nothing overflows."""
    m_rows = np.stack([a, d], axis=1)  # one cell: M_0 = a, M_1 = d
    u_rows = b[:, None, :]  # U_0 = b
    sizes = np.ones(a.shape[0], dtype=np.int64)
    while sizes.size > 1:
        pairs, odd = divmod(sizes.size, 2)
        n1, n2 = sizes[0 : 2 * pairs : 2], sizes[1 : 2 * pairs : 2]
        n = n1 + n2
        km, ku = m_rows.shape[1], u_rows.shape[1]
        km_out, ku_out = min(m, int(n.max())) + 1, min(m, int(n.max()) - 1) + 1
        m1, m2 = m_rows[0 : 2 * pairs : 2], m_rows[1 : 2 * pairs : 2]
        u1, u2 = u_rows[0 : 2 * pairs : 2], u_rows[1 : 2 * pairs : 2]
        c1, c2, c1u, c2u = np.split(_log_comb(np.r_[n1, n2, n1 - 1, n2 - 1], km - 1), 4)
        cn, cnu = np.split(_log_comb(np.r_[n, n - 1], km_out - 1), 2)
        out_m = np.zeros((pairs + odd, km_out, a.shape[-1]), dtype=complex)
        out_u = np.zeros((pairs + odd, ku_out, a.shape[-1]), dtype=complex)
        for i in range(km):
            _accumulate(out_m[:pairs], i, m1[:, i], m2, c1[:, i], c2, cn, 1.0)
            _accumulate(out_u[:pairs], i, m1[:, i], u2, c1[:, i], c2u, cnu, (n2 / n)[:, None])
            if i < ku:
                _accumulate(out_u[:pairs], i, u1[:, i], m2, c1u[:, i], c2, cnu, (n1 / n)[:, None])
        if odd:  # carry the last node up
            out_m[-1, :km], out_u[-1, :ku] = m_rows[-1], u_rows[-1]
        m_rows, u_rows, sizes = out_m, out_u, np.r_[n, sizes[2 * pairs :]]
    return u_rows[0, m]


def _pool_tree_terms(cells: int, m: int, freqs: int) -> int:
    """The most complex terms one level of :func:`_pool_tree` holds on ``cells``
    rows of ``freqs`` frequencies, the first at least the three row tables'."""
    size, terms = 1, 0
    while cells > 1:
        terms = max(terms, cells * (min(m, size) + min(m, size - 1) + 2) * freqs)
        cells, size = cells - cells // 2, 2 * size
    return terms


class _FixedN:
    """One acceptance box under ``Multinomial(n, q)``, and under the draws of
    the simplex prior on ``q`` with pool ``2..j_star + 1`` and removal count
    ``m``; with ``j_star = 0`` (no pool) the law of ``q``.

    ``q`` comes as runs, ``counts[g]`` cells of probability ``values[g]`` in
    box ``box[g]``, the head a run of its own and the pool (categories
    ``2..j* + 1``) whole runs; ``total`` is ``Lambda = n sum(q)`` in every
    route.  The numerator ``P(Y in box, sum Y = n)`` is coefficient ``t = n
    - sum lo`` of ``Phi(z) = prod_g R_g(z)^(c_g)`` over the (probability,
    box) groups (:func:`_groups`, :func:`_cell_rows`), held by its values at
    ``omega_k = 2 pi k / N``, ``k = 0..K``, as ``sum_g c_g log R_g``
    (:func:`_log_spectra`) and inverted by one sum (:func:`_invert`).
    ``Phi`` falls like ``exp(-sigma^2 omega^2 / 2)``, so ``K`` is about ``1.5
    N / sigma``: 15 of ``N`` about 2,900 at p = 1e3, n = 1e5.  Type I is one
    product over every group, on a grid (:func:`_choose_grid`) from the null
    alone, whatever ``j_star``, ``m`` or the cells' order; its denominator
    ``P(Poisson(Lambda) = n)`` is kept as ``point``.  Under the prior the
    outside cells' spectra and bounds are summed once; a pool of one group is
    one law, ``b d^m a^(j* - 1 - m)``, and any other pool the mean over the
    draws (:func:`_pool_tree`); either is bounded by its worst draw
    (:func:`_worst_draw`).  :meth:`bayes` takes a sweep's masses in one pass,
    sharing every step whose columns are computed apart (see there).

    The probability errs by at most ``(2 _TAIL + rho) / P(Poisson(Lambda) =
    n)``, ``P(Poisson(Lambda) = n) ~ (2 pi n)^(-1/2)``: aliasing, truncation
    and ``rho ~ (2 K + 1) / N sum_g c_g (W_g + 2) eps``, the round-off of the
    direct sums (each term a product of values at most 1 from rows ``W_g +
    1`` long, erring by ``(W_g + 1) eps``, with about ``eps`` per copy from
    logs, exps and phases): 1.6e-10 to 2.2e-10 at p = 1e3, n = 1e5, where a
    long-double convolution of the same rows measures under 1e-13.  The rows
    and the denominator, a difference of two CDFs, add relative errors of
    order ``eps (width + sqrt(n))``.
    """

    def __init__(
        self, box: AcceptanceBox, n: float, values: np.ndarray, counts: np.ndarray, total: float, j_star=0, m=0
    ):
        self.t = t = _box_cut(box, n, counts)
        self.n, self.total, self.m = n, total, m
        if t < 0:
            self.accept = 0.0
            return
        cut = int(np.searchsorted(np.cumsum(counts), j_star + 1)) + 1
        pool = np.where((np.arange(values.size) >= 1) & (np.arange(values.size) < cut), counts, 0)
        self.values, self.lo, self.hi, split = _groups(values, box.lo, box.hi, np.stack([counts - pool, pool], axis=1))
        self.outside, self.pool = split.T  # each group's cells outside the pool, and in it
        _check_terms(self.values.size * (int(np.minimum(self.hi - self.lo, t).max()) + 1), "terms in one product level")
        self.rows = rows = _cell_rows(n * self.values, self.lo, self.hi, t)
        cells = self.outside + self.pool
        sigma = math.sqrt(max(float(cells @ rows.var), 1.0))
        self.theta, self.phi = _ladders(sigma, int(rows.width.max()))
        self.bounds = _bounds(rows, self.theta, self.phi)
        null = _Bounds(*_weighted(cells, *self.bounds))
        self.grid = _choose_grid(null, t, self.theta, self.phi, math.ceil(6.0 * sigma + 8.0))
        self.spectra = _log_spectra(rows.table, rows.left, self.grid)
        numerator = _invert(self.grid, t - int(null.centre), *_weighted(cells, *self.spectra))
        self.point = _point(n, total)
        self.accept = float(np.clip(numerator / self.point, 0.0, 1.0))
        # What every draw of a prior shares: the outside cells' bounds and spectra.
        self.outside_law, self.outside_spectra = (_weighted(self.outside, *x) for x in (self.bounds, self.spectra))

    def bayes(self, masses, where: str = "") -> list[float]:
        """Exact Bayes Type II under the simplex prior on this instance's
        pool that adds ``mass`` (in count units) to one pool cell and takes
        ``mass / m`` from ``m`` others, for each of ``masses``; a removal
        below 0 is clipped at 0, as in :meth:`_PoissonCells.bayes`.

        One pass serves every mass, in batches of as many masses as keep
        their changed rows and bounds (counted at the base rows' widths)
        within ``_BATCH`` entries (:meth:`_numerators`); every numerator is
        divided by the one ``P(Poisson(Lambda) = n)`` of the null.  A pool
        product past ``_MAX_TERMS`` terms in one level (on the null's grid)
        raises ``AtomBudgetError`` before any row is built.  ``where`` is not
        used."""
        if self.t < 0 or not len(masses):
            return [0.0] * len(masses)
        pool = np.flatnonzero(self.pool)
        cells = self.pool[pool]
        if pool.size > 1:
            _check_terms(_pool_tree_terms(int(cells.sum()), self.m, self.grid.top + 1), "terms in one pool-product level")
        step = max(1, _BATCH // (2 * pool.size * (self.bounds.logs.shape[1] + self.rows.table.shape[1])))
        numerators = [self._numerators(masses[at : at + step], pool, cells) for at in range(0, len(masses), step)]
        return np.clip(np.concatenate(numerators) / self.point, 0.0, 1.0).tolist()

    def _numerators(self, masses, pool: np.ndarray, cells: np.ndarray) -> np.ndarray:
        """``P(Y in box, sum Y = n)`` under the prior's draws at each of
        ``masses``, which add ``mass / n`` to a cell of the groups ``pool``
        (``cells`` of each) and take ``mass / (n m)`` from ``m`` others.

        Each mass keeps its own changed rows, their bounds and spectra, its
        grid and its inversion: in BLAS a matmul's row depends on how many
        rows the matrix has, so stacking the masses' rows would move their
        bits.  What each column computes alone is shared: one worst-draw table
        with the masses' columns side by side (:func:`_worst_draw`), each
        grid's base spectra, and one pool tree per grid with the masses'
        spectra side by side on the frequency axis (its merges are pointwise),
        as many masses to a tree as keep its levels within ``_BATCH`` terms.
        So each mass's value is the same bit for bit in any batch."""
        t, m, n = self.t, self.m, self.n
        q, lo, hi = self.values[pool], np.tile(self.lo[pool], 2), np.tile(self.hi[pool], 2)
        # Each mass's spiked rows, then its reduced rows, in the base rows' boxes.
        changed = [
            _cell_rows(n * np.concatenate((q + s, np.clip(q - s / m, 0.0, None))), lo, hi, t)
            for s in (mass / n for mass in masses)
        ]
        modes = np.tile(self.rows.mode[pool], 2)
        offsets = [rows.mode - modes for rows in changed]  # the changed rows' modes about the base rows'
        # Their bounds, about the base rows' modes, live only here: the tree needs the memory.
        logs = [_bounds(rows, self.theta, self.phi, at).logs for rows, at in zip(changed, offsets)]
        spiked, reduced = (np.hstack([x[half] for x in logs]) for half in (np.s_[: pool.size], np.s_[pool.size :]))
        del logs
        worst = _worst_draw(self.bounds.logs[pool], spiked, reduced, cells, m).reshape(len(masses), -1)
        del spiked, reduced
        centre = int(self.outside_law[0] + cells @ self.bounds.centre[pool])
        # Each grid's masses, with their changed rows' log spectra on it (a pool
        # of one group sums them) or the spectra's values (any other's tree takes them).
        by_grid = {}
        for i, (rows, at, bound) in enumerate(zip(changed, offsets, worst)):
            law = _Bounds(centre, self.outside_law[1] + bound)
            grid = _choose_grid(law, t, self.theta, self.phi, self.grid.size)
            if grid.size == self.grid.size and grid.top <= self.grid.top:  # the null's spectra serve
                grid = self.grid
            moved, turned = _log_spectra(rows.table, rows.left, grid)
            turned += np.multiply.outer(at, np.arange(grid.top + 1)) % grid.size * (2.0 * math.pi / grid.size)
            by_grid.setdefault(grid, []).append((i, (moved, turned) if pool.size == 1 else np.exp(moved + 1j * turned)))
        del changed, rows, moved, turned  # the tree needs the memory
        out = np.empty(len(masses))
        leaf = np.repeat(np.arange(pool.size), cells)  # the pool tree's leaves: one per cell
        for grid, draws in by_grid.items():
            spectra = self.spectra if grid == self.grid else _log_spectra(self.rows.table, self.rows.left, grid)
            real, phase = self.outside_spectra if grid == self.grid else _weighted(self.outside, *spectra)
            if pool.size == 1:  # one law for every draw: one spiked cell, m reduced, the rest at base
                rest = _weighted(cells - 1 - m, *(x[pool] for x in spectra))
                for i, draw in draws:
                    out[i] = _invert(grid, t - centre, *map(sum, zip((real, phase), rest, _weighted([1, m], *draw))))
                continue
            # One leaf per cell (base, spiked and reduced), the masses side by side.
            trees = max(1, _BATCH // _pool_tree_terms(int(cells.sum()), m, grid.top + 1))
            for part in (draws[at : at + trees] for at in range(0, len(draws), trees)):
                mean = _pool_tree(
                    np.tile(np.exp(spectra[0][pool[leaf]] + 1j * spectra[1][pool[leaf]]), len(part)),
                    *(np.hstack([draw[leaf + k] for _, draw in part]) for k in (0, pool.size)),
                    m,
                )
                for (i, _), each in zip(part, mean.reshape(len(part), -1)):
                    with np.errstate(divide="ignore"):
                        out[i] = _invert(grid, t - centre, real + np.log(np.abs(each)), phase + np.angle(each))
        return out

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

    def law(q, *pool):
        if poissonized:
            return _PoissonCells(box, q, ones, n, 1, *pool)
        return _FixedN(box, n, q, ones, n * float(q.sum()), *pool)

    alt = law(q_alt, alternative.j_star, alternative.m) if prior else law(q_alt)
    null = alt if np.array_equal(q_alt, q0.probs) else law(q0.probs)
    type2 = alt.accept  # with m = 0 every draw of a prior is its base
    if prior and alternative.m:  # c psi, from the count units of the prior's n to this route's
        type2 = alt.bayes([alternative.c * alternative.psi * (n / alternative.n)])[0]
    return null.risk(type2, seed)


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
    :class:`_PoissonCells` law on the pool ``1..j*``, with its box, ``log a``
    and Type I, serves the whole grid, and takes the spikes ``eps(xi)`` in
    one pass over the pool.  One peak search finds the level, ``j*`` and the
    regime.
    ``trials`` must be at least 1 but is not used, nor is ``seed``: each row
    reports 0 trials, a zero ``ci`` and ``seed`` as passed.  A box among the
    first ``j*`` with zero null probability in float64 raises
    ``FloatingPointError``.
    """
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials!r}")
    xi_grid = _checked_xi_grid(alpha_p, xi_grid)
    # The xi-free level, which is the test's threshold, is the separation at xi = 1.
    (level, j_star, _, _), peak = _sharp_constant_peaks(mu, alpha_p)
    epsilons = _scaled_by_grid(xi_grid, level)
    values, counts = mu.runs
    null = _PoissonCells(AcceptanceBox.around(values, level, strict=True), values, counts, j_star=j_star)
    type2 = null.bayes(epsilons, f" at xi={float(xi_grid[0])!r}" if xi_grid.size else "")
    return SweepResult(xi_grid, epsilons, tuple(null.risk(t, seed) for t in type2), peak.regime)


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
    positive): the simplex prior with ``c psi / n = eps(xi)``, whose added
    mass ``c psi`` is ``n eps(xi)``.  It must stay on the simplex: a ``ValueError``
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
    Either law, built with the pool, takes the whole grid's masses in one
    call: the Poissonized one in one pass over the pool, the fixed-n one in
    one pass that shares its worst-draw table, pool tree and point
    probability across the masses.  One peak search finds the level, ``j*``
    and the regime.
    Every row reports 0 trials, a zero ``ci`` and ``seed`` as passed;
    ``trials`` must be at least 1 but is not used.
    """
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials!r}")
    xi_grid = _checked_xi_grid(alpha_p, xi_grid)
    # The xi-free level, the test's threshold over n', is the separation at xi = 1.
    level, j_star, n_prime, m, regime = multinomial_sharp_constant_level(q0, n, alpha_p)
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
    if poissonized:
        null = _PoissonCells(box, values, counts, n, 1, j_star, m)
    else:
        null = _FixedN(box, n, values, counts, total, j_star, m)
    type2 = null.bayes(n * epsilons, f" at xi={float(xi_grid[0])!r}" if xi_grid.size else "")
    return SweepResult(xi_grid, epsilons, tuple(null.risk(t, seed) for t in type2), regime)
