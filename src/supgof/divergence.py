"""Exact divergences between Poisson products and mixtures of them.

Enumeration here is *certified*: every divergence returns
``(value, error_bar)`` with the truncated mass in the bar, and tests assert
against ``value + error_bar``.  Three computation routes coexist:

1. dense enumeration of two Poisson mixtures (a product is a mixture of
   one) on the union of their truncation grids, where each side's off-grid
   mass is bounded; axes on which both laws share one rate factor out as
   their grid mass, and both joint pmfs on the other axes are streamed in
   slabs of at most ``_SLAB_ATOMS`` atoms: each slab is a small matrix
   product of per-axis pmf tables, so no array of the grid's size is ever
   built (an atom budget on the varying axes' grid caps the time);
2. the closed-form chi-square between Poisson products;
3. an exchangeable sufficient-statistic reduction for uniform one-spike
   Poisson mixtures, which is exact with *no* truncation error and scales
   far beyond the dense grid.

The conditional chi-square bound for the simplex prior and the certificate
for the uniform spike prior live here as well; they need only
one-dimensional Poisson CDFs and the hypergeometric overlap law, so they
work at any dimension.

Poisson pmfs, CDFs and quantiles are ``scipy.special`` closed forms (where
``pdtr`` underflows, the log CDF is a saddle-point log pmf plus a continued
fraction) and binomial pmfs come from the Pascal recurrence: the module
needs nothing from ``scipy.stats``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np
from scipy.special import gammaln, logsumexp, pdtr, pdtrc, pdtrik, xlogy

from .special import AtomBudgetError

__all__ = [
    "ATOM_BUDGET",
    "DivergenceResult",
    "PmfTable",
    "PoissonMixture",
    "truncated_poisson_pmf",
    "poisson_product_dist",
    "poisson_mixture",
    "tv_distance",
    "chi_square_poisson_products",
    "chi_square_enumerated",
    "hypergeometric_overlap_log_pmf",
    "multinomial_conditional_chisq_bound",
    "SpikeRiskCertificate",
    "certified_spike_risk_bound",
    "tv_poisson_uniform_spike",
]

# Most atoms a dense divergence may enumerate: the grid of the axes where the two
# laws differ.  They are streamed in slabs, so this caps time, not memory.
ATOM_BUDGET = 10**7
# Most atoms of one streamed slab: two slabs and their difference stay in cache.
_SLAB_ATOMS = 1 << 16
# Most spike-DP states one level may hold before ``tv_poisson_uniform_spike`` gives up.
_MAX_STATES = 5_000_000
# Mass a truncated Poisson law or mixture may leave off its grid, split per coordinate.
DEFAULT_MASS_TOL = 1e-12
_TINY = float(np.finfo(float).tiny)
_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)


def _poisson_pmf(ks: np.ndarray, lam: float) -> np.ndarray:
    # scipy.stats.poisson's own order of operations, so tables stay bit-identical.
    return np.exp(xlogy(ks, lam) - gammaln(ks + 1) - lam)


def _log_poisson_pmf(k: int, lam: float) -> float:
    """``log P{Poisson(lam) = k}`` in Loader's saddle-point form, accurate far into the tails.

    ``-stirlerr(k) - bd0(k, lam) - log sqrt(2 pi k)``, where
    ``bd0 = k log(k/lam) + lam - k`` is summed as a series where its two terms
    nearly cancel and ``stirlerr(k) = log k! - log(sqrt(2 pi k) (k/e)^k)``.
    """
    if k == 0:
        return -lam
    if abs(k - lam) < 0.1 * (k + lam):
        v = (k - lam) / (k + lam)
        bd0, term, j = (k - lam) * v, 2.0 * k * v, 3
        while True:
            term *= v * v
            nxt = bd0 + term / j
            if nxt == bd0:
                break
            bd0, j = nxt, j + 2
    else:
        bd0 = k * math.log(k / lam) + lam - k
    if k > 15:
        kk = 1.0 / (k * k)
        stirlerr = (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - kk / 1188) * kk) * kk) * kk) / k
    else:
        stirlerr = math.lgamma(k + 1.0) - (k + 0.5) * math.log(k) + k - _HALF_LOG_2PI
    return -stirlerr - bd0 - 0.5 * math.log(k) - _HALF_LOG_2PI


def _log_poisson_cdf_over_pmf(k: int, lam: float) -> float:
    """``log(P{Poisson(lam) <= k} / P{Poisson(lam) = k})`` for ``lam > k + 1``.

    The ratio is ``lam`` times Legendre's continued fraction for the upper
    incomplete gamma ``Gamma(k + 1, lam)``, run by the modified Lentz method;
    it takes a handful of terms wherever the CDF underflows.
    """
    a = k + 1.0
    b = lam + 1.0 - a
    c, d = math.inf, 1.0 / b
    h = d
    for i in range(1, 1000):
        an = -i * (i - a)
        b += 2.0
        d = 1.0 / (an * d + b)
        c = b + an / c
        h *= d * c
        if abs(d * c - 1.0) <= 1e-16:
            return math.log(lam * h)
    raise FloatingPointError(f"the Poisson tail fraction at k={k}, lam={lam!r} did not converge")


def _poisson_logcdf(k: int, lam: float) -> float:
    """``log P{Poisson(lam) <= k}``: ``log pdtr`` where that is a normal float, else in log space.

    ``pdtr`` underflows only far below the mean; there the log-space value
    stays finite, to about 1e-15 of itself, down to any depth.
    """
    if k < 0:
        return -math.inf
    cdf = pdtr(k, lam)
    if cdf >= _TINY or not math.isfinite(lam):
        with np.errstate(divide="ignore"):
            return float(np.log(cdf))
    return _log_poisson_pmf(k, lam) + _log_poisson_cdf_over_pmf(k, lam)


def _exp(x: float) -> float:
    """``math.exp`` that overflows to ``inf`` instead of raising."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def _poisson_ppf(q: float, lam: float) -> int:
    """Smallest ``k`` with ``P{Poisson(lam) <= k} >= q``, by scipy's one-step fix-up."""
    if q >= 1.0:
        raise OverflowError(f"quantile level {q!r} has no finite Poisson quantile")
    k = pdtrik(q, lam)
    if math.isnan(k):  # pdtrik gives up from about lam = 1e11
        raise AtomBudgetError(f"no Poisson quantile at rate {lam!r}: pdtrik gives NaN at level {q!r}")
    k = math.ceil(k)
    k1 = max(k - 1, 0)
    return k1 if pdtr(k1, lam) >= q else k


def _binom_rows(size: int, p: float | np.ndarray) -> np.ndarray:
    """Row ``r < size`` of table ``i`` is the ``Binomial(r, p[i])`` pmf over ``0..r``, zero-padded.

    One sweep of the Pascal recurrence over ``r`` fills every table; a scalar
    ``p`` is a batch of one and gives one ``(size, size)`` table.  The
    recurrence adds only nonnegative terms, so entries keep a few ulps of
    relative accuracy where ``exp(gammaln(...))`` loses about 1e-14 at
    ``r = 70``; exact zeros off the atom at ``p = 0`` or ``1``.  Each entry
    takes the same float operations whatever the batch, so a table is
    bit-identical alone and stacked.
    """
    p = np.asarray(p, dtype=float)[..., None]
    q = 1.0 - p
    rows = np.zeros(p.shape[:-1] + (size, size))
    rows[..., 0, 0] = 1.0
    for r in range(1, size):
        rows[..., r, :r] = rows[..., r - 1, :r] * q
        rows[..., r, 1 : r + 1] += rows[..., r - 1, :r] * p
    return rows


class DivergenceResult(NamedTuple):
    """A certified value: the truth lies within ``value +/- error_bar``."""

    value: float
    error_bar: float


@dataclass(frozen=True)
class PmfTable:
    """Finite pmf over ``{0, ..., K}``; ``deficit`` is the discarded mass."""

    probs: np.ndarray
    deficit: float

    def __len__(self) -> int:
        return self.probs.size


def _truncation_len(lam: float, mass_tol: float) -> int:
    """Size ``K + 1`` of the grid ``{0..K}`` with K minimal s.t. cdf >= 1 - mass_tol."""
    if not (np.isfinite(lam) and lam >= 0.0):
        raise ValueError(f"lambda must be finite and nonnegative, got {lam!r}")
    if not (0.0 < mass_tol < 1.0):
        raise ValueError(f"mass_tol must lie in (0, 1), got {mass_tol!r}")
    return 1 if lam == 0.0 else _poisson_ppf(1.0 - mass_tol, lam) + 1


def truncated_poisson_pmf(lam: float, mass_tol: float) -> PmfTable:
    """Poisson pmf table over ``{0..K}`` with K minimal s.t. cdf >= 1 - mass_tol."""
    size = _truncation_len(lam, mass_tol)
    return PmfTable(_poisson_pmf(np.arange(size), lam), float(pdtrc(size - 1, lam)))


@dataclass(frozen=True)
class PoissonMixture:
    """Finite mixture ``sum_c weights[c] @_j Poisson(rates[c, j])``; a product is a mixture of one.

    ``shape`` is the law's own truncation grid ``{0..shape_j - 1}``.  The
    divergences evaluate both laws' pmfs and deficits on the union of the
    two grids, so neither side is rebuilt to match the other.
    """

    weights: np.ndarray
    rates: np.ndarray
    shape: tuple[int, ...]

    @property
    def p(self) -> int:
        return self.rates.shape[1]

    def deficit(self, shape: tuple[int, ...]) -> float:
        """Union bound on the mass off the grid: ``sum_c w_c sum_j P{Poisson(rates[c, j]) >= shape_j}``."""
        tails = pdtrc(np.asarray(shape) - 1, self.rates)
        return float(np.dot(self.weights, tails.sum(axis=1)))


def poisson_product_dist(lams: Sequence[float]) -> PoissonMixture:
    """Truncated ``@ Poisson(lam_j)``, a mixture of one component."""
    return poisson_mixture([1.0], [lams])


def poisson_mixture(weights: Sequence[float], lam_rows: Sequence[Sequence[float]]) -> PoissonMixture:
    """Mixture of Poisson products; its grid covers every component with the
    mass budget ``DEFAULT_MASS_TOL`` (read at each call) split per coordinate."""
    w = np.asarray(weights, dtype=float)
    rows = np.asarray(lam_rows, dtype=float)
    if rows.ndim != 2 or rows.size == 0 or w.shape != rows.shape[:1]:
        raise ValueError("weights and rate rows must be nonempty and aligned")
    if np.any(w < 0.0) or abs(w.sum() - 1.0) > 1e-9:
        raise ValueError("weights must be a probability vector")
    per_coord = DEFAULT_MASS_TOL / rows.shape[1]
    grid = tuple(max(_truncation_len(float(lam), per_coord) for lam in np.unique(col)) for col in rows.T)
    return PoissonMixture(w, rows, grid)


def _union_grid(p_dist: PoissonMixture, q_dist: PoissonMixture) -> tuple[int, ...]:
    if p_dist.p != q_dist.p:
        raise ValueError("distributions must share dimension")
    return tuple(np.maximum(p_dist.shape, q_dist.shape).tolist())


def _khatri_rao(out: np.ndarray, tables: Sequence[np.ndarray]) -> np.ndarray:
    """``out`` ``(C, 1)`` times the row-wise Kronecker product of ``(C, K_j)`` tables, in C order."""
    for t in tables:
        out = (out[:, :, None] * t[:, None, :]).reshape(out.shape[0], -1)
    return out


def _slabs(p_dist: PoissonMixture, q_dist: PoissonMixture, shape: tuple[int, ...]):
    """Both laws' joint pmfs on the varying axes of the grid ``shape``, as ``(p, q)`` slabs in C order.

    An axis is *shared* when every component of both laws has one and the
    same rate there, and *varying* otherwise.  On the grid the laws are then
    ``P_V @ R`` and ``Q_V @ R`` with ``R`` the shared axes' product, so
    ``sum |p - q|`` and ``sum (q - p)^2 / p`` over the grid are ``m`` times
    their sums over the varying axes, where ``m`` is ``R``'s mass on the grid.
    ``m`` is folded into both laws' weights and only the varying axes are
    streamed; with none, the one slab is one atom holding each law's weight.
    More than ``ATOM_BUDGET`` atoms on the varying axes raise ``AtomBudgetError``.

    The varying axes are cut where the trailing product of grid sizes first
    fits in ``_SLAB_ATOMS``.  Each law is then two tables: ``head`` ``(C, L)``,
    the weighted Khatri-Rao product of its leading-axis pmfs, and ``tail``
    ``(C, T)``, that of its trailing ones; a slab is ``head[:, rows].T @ tail``
    for a run of head rows.  The two products stay separate, so equal laws
    give bit-equal slabs.
    """
    rates = np.vstack((p_dist.rates, q_dist.rates))
    shared = (rates == rates[0]).all(axis=0)
    mass = math.prod(float(_poisson_pmf(np.arange(k), lam).sum()) for k, lam, s in zip(shape, rates[0], shared) if s)
    varying = np.flatnonzero(~shared)
    shape = tuple(shape[j] for j in varying)
    if math.prod(shape) > ATOM_BUDGET:
        raise AtomBudgetError(f"{math.prod(shape)} atoms exceed the budget of {ATOM_BUDGET}")
    cut = next(s for s in range(len(shape) + 1) if math.prod(shape[s:]) <= _SLAB_ATOMS)
    factors = []
    for law in (p_dist, q_dist):
        tables = [_poisson_pmf(np.arange(k), law.rates[:, [j]]) for j, k in zip(varying, shape)]
        head = _khatri_rao(mass * law.weights[:, None], tables[:cut])
        factors.append((head, _khatri_rao(np.ones_like(head[:, :1]), tables[cut:])))
    step = _SLAB_ATOMS // math.prod(shape[cut:])
    for start in range(0, math.prod(shape[:cut]), step):
        # A product law's slab is an outer product, which BLAS runs as a slow rank-1 GEMM.
        yield tuple(
            np.multiply.outer(head[0, start : start + step], tail[0])
            if head.shape[0] == 1
            else head[:, start : start + step].T @ tail
            for head, tail in factors
        )


def tv_distance(p_dist: PoissonMixture, q_dist: PoissonMixture) -> DivergenceResult:
    """Total variation on the union grid, with both laws' deficits there as the bar.

    The sum runs over the varying axes only, scaled by the shared axes' grid
    mass (see ``_slabs``); equal laws give exactly ``0.0``.
    """
    shape = _union_grid(p_dist, q_dist)
    total = 0.0
    for p, q in _slabs(p_dist, q_dist, shape):
        p -= q
        total += float(np.abs(p, out=p).sum())
    return DivergenceResult(0.5 * total, p_dist.deficit(shape) + q_dist.deficit(shape))


def chi_square_poisson_products(a: Sequence[float], b: Sequence[float]) -> float:
    """Closed form: ``chi2(@Poi(a) || @Poi(b)) = exp(sum (a-b)^2 / b) - 1``."""
    a_arr = np.asarray(a, dtype=float)
    b_arr = np.asarray(b, dtype=float)
    if a_arr.shape != b_arr.shape:
        raise ValueError("rate sequences must share shape")
    if np.any(a_arr < 0) or np.any(b_arr < 0):
        raise ValueError("rates must be nonnegative")
    bad = (b_arr == 0.0) & (a_arr > 0.0)
    if np.any(bad):
        raise ZeroDivisionError("null rate is zero where the alternative rate is positive")
    both_zero = (b_arr == 0.0) & (a_arr == 0.0)
    terms = np.zeros_like(a_arr)
    nz = ~both_zero
    terms[nz] = (a_arr[nz] - b_arr[nz]) ** 2 / b_arr[nz]
    return float(np.expm1(terms.sum()))


def _atoms_above(lam: float, log_floor: float, size: int) -> int:
    """The grid length ``K <= size`` whose last atom is the last, past the
    mode of ``Poisson(lam)``, with log pmf at least ``log_floor``; the pmf
    falls past the mode, so by bisection."""
    lo, hi = math.ceil(lam), size - 1
    if _log_poisson_pmf(hi, lam) >= log_floor:
        return size
    if lo >= hi or _log_poisson_pmf(lo, lam) < log_floor:
        return 0
    while hi - lo > 1:  # pmf(lo) >= floor > pmf(hi)
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if _log_poisson_pmf(mid, lam) >= log_floor else (lo, mid)
    return lo + 1


def _chi_square_grid(q_dist: PoissonMixture, p_dist: PoissonMixture) -> tuple[int, ...]:
    """The union grid, widened on each axis where the laws differ and
    ``b_j > 0`` to hold ``Poisson(max_c a_cj^2 / b_j)``, the widest of the
    tilted laws ``Poisson(a_cj a_c'j / b_j)`` that carry ``q^2/p``, up to
    ``DEFAULT_MASS_TOL / p`` of its mass.

    An axis widens only while ``Poisson(b_j)``'s pmf stays above
    ``tiny^(1/d)``, ``d`` the axes that may widen, so no atom's null mass
    underflows on their account; what lies past that stays in the bar.
    """
    shape = list(_union_grid(p_dist, q_dist))
    a, b = q_dist.rates, p_dist.rates[0]
    live = np.flatnonzero((b > 0.0) & ~(a == b).all(axis=0))
    log_floor = math.log(_TINY) / max(1, live.size)
    for j in live:
        with np.errstate(over="ignore"):
            tilted = float(np.max(a[:, j]) ** 2 / b[j])
        if not math.isfinite(tilted):
            continue
        cover = _truncation_len(tilted, DEFAULT_MASS_TOL / len(shape))
        if cover > shape[j]:
            shape[j] = max(shape[j], _atoms_above(float(b[j]), log_floor, cover))
    return tuple(shape)


def chi_square_enumerated(q_dist: PoissonMixture, p_dist: PoissonMixture) -> DivergenceResult:
    """``chi2(Q || P)`` by summation on a grid ``G`` (test oracle); ``P`` is a product.

    ``G`` is the union grid widened to hold the mass of ``q^2/p``
    (:func:`_chi_square_grid`).  The truth minus the sum is ``off(q^2/p) - 2 Q(G^c) + P(G^c)``, so the bar
    is ``off(q^2/p) + 2 Q(G^c) + P(G^c)`` with both masses bounded by the
    deficits.  For product ``P = @ Poisson(b_j)`` the first term is exact: for
    components ``c, c'`` of ``Q`` it is ``w_c w_c' prod_j M_j (1 - prod_j F_j)``
    with ``M_j = exp((a_cj - b_j)(a_c'j - b_j) / b_j)`` and
    ``F_j = P{Poisson(a_cj a_c'j / b_j) <= K_j - 1}`` on the grid ``{0..K_j - 1}``.
    The sum runs over the varying axes only, scaled by the shared axes' grid
    mass (see ``_slabs``), and is infinite once a slab has ``p == 0 < q``; the
    deficits and the off-grid term stay on the whole grid.
    """
    if p_dist.rates.shape[0] != 1:
        raise ValueError("chi_square_enumerated needs a product P, a mixture of one component")
    shape = _chi_square_grid(q_dist, p_dist)
    a, b = q_dist.rates, p_dist.rates[0]
    if np.any((b == 0.0) & (a > 0.0)):
        return DivergenceResult(math.inf, 0.0)
    value = 0.0
    for p, q in _slabs(p_dist, q_dist, shape):
        if np.any((p == 0.0) & (q > 0.0)):
            return DivergenceResult(math.inf, 0.0)
        mask = p > 0.0
        value += float(np.sum((q[mask] - p[mask]) ** 2 / p[mask]))
    # Where b_j = 0 every a_cj is 0 too: both sides sit at 0 there, M_j = F_j = 1.
    live = b > 0.0
    a, b, k = a[:, live], b[live], np.asarray(shape)[live]
    d = a - b
    log_m = (d[:, None, :] * d[None, :, :] / b).sum(axis=2)
    with np.errstate(divide="ignore", over="ignore"):
        log_f = np.log1p(-pdtrc(k - 1, a[:, None, :] * a[None, :, :] / b)).sum(axis=2)
        pair_off = np.exp(log_m + np.log(-np.expm1(log_f)))
    off = float(q_dist.weights @ pair_off @ q_dist.weights)
    return DivergenceResult(value, off + 2.0 * q_dist.deficit(shape) + p_dist.deficit(shape))


def hypergeometric_overlap_log_pmf(pool: int, m: int) -> np.ndarray:
    """Log-pmf of ``|I ∩ I'|`` for two independent uniform size-m subsets.

    Both subsets are drawn from a pool of ``pool`` elements; computed in
    log space so it stays finite for very large pools.
    """
    if m < 0 or pool < m:
        raise ValueError("need 0 <= m <= pool")
    if m == 0:
        return np.array([0.0])
    ks = np.arange(m + 1)
    with np.errstate(divide="ignore"):
        log_binom_m_k = gammaln(m + 1) - gammaln(ks + 1) - gammaln(m - ks + 1)
        rest = pool - m
        valid = rest >= m - ks
        log_binom_rest = np.where(
            valid,
            gammaln(rest + 1) - gammaln(np.maximum(rest - (m - ks), 0) + 1) - gammaln(m - ks + 1),
            -np.inf,
        )
    log_total = gammaln(pool + 1) - gammaln(m + 1) - gammaln(pool - m + 1)
    out = log_binom_m_k + log_binom_rest - log_total
    out[~valid] = -np.inf
    return out


@dataclass(frozen=True)
class ConditionalChisqBound:
    """Evaluated pieces of a conditional second-moment bound."""

    value: float
    mixture_term: float
    mgf: float
    mgf_binomial_bound: float | None


def _diagonal_mixture_term(mu: float, psi: float, c: float) -> float:
    """Exact ``exp(c^2 psi^2 / mu) * P{Poisson((mu+c psi)^2/mu) <= mu+psi}``."""
    if mu <= 0:
        raise ValueError("mu must be positive")
    rate = (mu + c * psi) ** 2 / mu
    log_term = (c * psi) ** 2 / mu + _poisson_logcdf(math.floor(mu + psi), rate)
    with np.errstate(over="ignore"):
        return float(np.exp(log_term))


def multinomial_conditional_chisq_bound(
    mu_jstar: float, psi: float, c: float, j_star: int, m: int
) -> ConditionalChisqBound:
    """Simplex-prior conditional chi-square bound.

    The overlap MGF ``E exp(c^2 psi^2/(m^2 mu) * |I ∩ I'|)`` is evaluated
    exactly through the hypergeometric overlap law (pool of size j*); by
    convention the MGF is 1 when ``m = 0``.
    """
    if j_star < 1:
        raise ValueError("j_star must be >= 1")
    if m < 0 or (j_star > 1 and m > j_star - 1) or (j_star == 1 and m > 0):
        raise ValueError("need 0 <= m <= j_star - 1")
    if m == 0:
        mgf = 1.0
        mgf_bound = None
    else:
        t = (c * psi) ** 2 / (m * m * mu_jstar)
        log_pmf = hypergeometric_overlap_log_pmf(j_star, m)
        ks = np.arange(m + 1)
        mgf = float(np.exp(logsumexp(log_pmf + t * ks)))
        mgf_bound = float(np.exp(m * m / (j_star - 1) * math.expm1(t)))
    term = _diagonal_mixture_term(mu_jstar, psi, c)
    bracket = 1.0 if j_star - m <= 0 else 1.0 + max(0.0, term - 1.0) / (j_star - m)
    return ConditionalChisqBound(
        value=mgf * bracket,
        mixture_term=term,
        mgf=mgf,
        mgf_binomial_bound=mgf_bound,
    )


@dataclass(frozen=True)
class SpikeRiskCertificate:
    """Certified lower bound on the Bayes risk of a homoskedastic spike pair."""

    risk_lower_bound: float
    tv_upper_bound: float
    conditional_chisq: float
    p_null_event: float
    p_mixture_event: float


def certified_spike_risk_bound(
    nu: float, eps: float, cap: float, j_star: int
) -> SpikeRiskCertificate:
    """Conditional-second-moment certificate for the uniform spike mixture.

    For the pair ``Poisson(nu)^{X j*}`` versus the uniform one-spike mixture
    with spike ``eps``, conditioning both laws on ``E = {max_j V_j <= cap}``
    gives the exact identity

        chi2 + 1 = (P0(E)/Ppi(E)^2) * [ (1-1/j*) F_nu(cap)^{j*-2} F_{nu+eps}(cap)^2
                    + (1/j*) e^{eps^2/nu} F_nu(cap)^{j*-1} F_{(nu+eps)^2/nu}(cap) ],

    and ``TV <= sqrt(chi2)/2 + 2 P0(E^c) + 2 Ppi(E^c)``.  Every factor is a
    one-dimensional Poisson CDF, taken in log space, so the certificate is
    computable exactly at any dimension; ``1 - TV-bound`` lower-bounds the
    minimax risk of the original (unflattened) problem.  A chi-square that
    overflows, or is NaN because ``E`` has probability 0, gives the trivial
    bound: risk 0, TV 1.
    """
    if j_star < 1 or nu <= 0 or eps < 0:
        raise ValueError("need j_star >= 1, nu > 0, eps >= 0")
    kcap = math.floor(cap)
    log_f_null = _poisson_logcdf(kcap, nu)
    log_f_spike = _poisson_logcdf(kcap, nu + eps)
    log_f_sq = _poisson_logcdf(kcap, (nu + eps) ** 2 / nu)
    log_p0 = j_star * log_f_null
    log_ppi = (j_star - 1) * log_f_null + log_f_spike
    log_prefactor = log_p0 - 2.0 * log_ppi
    off_diag = (
        0.0
        if j_star == 1
        else (1.0 - 1.0 / j_star) * _exp(log_prefactor + (j_star - 2) * log_f_null + 2.0 * log_f_spike)
    )
    diag = (1.0 / j_star) * _exp(log_prefactor + eps * eps / nu + (j_star - 1) * log_f_null + log_f_sq)
    chisq = off_diag + diag - 1.0
    if not math.isfinite(chisq):
        # An overflowing ratio, or an event of probability 0 (NaN): only the trivial bound holds.
        return SpikeRiskCertificate(0.0, 1.0, chisq, math.exp(log_p0), math.exp(log_ppi))
    chisq = max(0.0, chisq)
    p0_comp = -math.expm1(log_p0)
    ppi_comp = -math.expm1(log_ppi)
    tv_bound = 0.5 * math.sqrt(chisq) + 2.0 * p0_comp + 2.0 * ppi_comp
    return SpikeRiskCertificate(
        risk_lower_bound=max(0.0, 1.0 - tv_bound),
        tv_upper_bound=min(1.0, tv_bound),
        conditional_chisq=chisq,
        p_null_event=math.exp(log_p0),
        p_mixture_event=math.exp(log_ppi),
    )


def tv_poisson_uniform_spike(nu: float, eps: float, k: int) -> DivergenceResult:
    """Exact ``TV(Poisson(nu)^{X k}, uniform one-spike mixture)``.

    The mixture puts the spike ``Poisson(nu + eps)`` at a uniformly random
    one of the ``k`` coordinates.  The likelihood ratio depends on the data
    only through ``T = sum_j z^{X_j}`` with ``z = 1 + eps/nu``, so TV equals
    ``P(T <= t0) - Q(T <= t0)`` at ``t0 = k e^eps``.  Conditioning on
    coordinate 1 (the spiked one under ``Q``, by exchangeability) gives
    ``TV = sum_x (pmf_nu(x) - pmf_{nu+eps}(x)) F(t0 - z^x)`` with ``F`` the
    law of the sum over the other ``k - 1`` coordinates, so one dynamic
    program serves both sides.  It assigns those coordinates to value levels
    ``x >= 2`` from the top down (the count at each level is conditionally
    binomial), merges paths that reach the same state and drops partial
    sums that cannot finish at or below ``t0 - 1``; the rest of a state sits
    at levels 1 and 0, whose count is binomial and closes in one table
    lookup.  Nothing is truncated.  A TV below ``-1e-10`` or NaN means the
    DP lost accuracy and raises ``FloatingPointError``; more than
    ``_MAX_STATES`` states at one level raises ``AtomBudgetError``.
    """
    return _spike_tv(nu, k)(eps)


def _spike_tv(nu: float, k: int) -> Callable[[float], DivergenceResult]:
    """``eps -> tv_poisson_uniform_spike(nu, eps, k)``, sharing the levels' binomial tables across ``eps``.

    Level ``x``'s table holds the ``Binomial(r, P{X = x | X <= x})`` rows,
    which depend on ``nu`` and ``x`` only.  The DP builds the tables it lacks
    as it reaches them, in one Pascal sweep of at most ``_MAX_STATES`` floats
    (all the missing levels at once unless ``x_max k^2`` exceeds that), and
    keeps them for the next ``eps``: a smaller spike raises ``x_max`` and
    adds levels; it rebuilds none.
    """
    if nu <= 0 or k < 1:
        raise ValueError("need nu > 0 and k >= 1")
    levels: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}

    def level(x: int, p_cond: np.ndarray):
        """Level ``x``'s rows with each row's first and last count of nonzero weight."""
        if x not in levels:
            batch = max(1, _MAX_STATES // (k * k))
            xs = [y for y in range(x, max(x - batch, 0), -1) if y not in levels]
            rows = _binom_rows(k, p_cond[xs])
            lo = np.argmax(rows > 0.0, axis=2)
            hi = k - 1 - np.argmax(rows[:, :, ::-1] > 0.0, axis=2)
            levels.update(zip(xs, zip(rows, lo, hi)))
        return levels[x]

    def fits(room: np.ndarray, step: float) -> np.ndarray:
        """How many counts ``n = 0, 1, ...`` keep ``n * step <= room``."""
        return np.searchsorted(np.arange(k) * step, room, side="right")

    def tv(eps: float) -> DivergenceResult:
        if eps < 0:
            raise ValueError("eps must be nonnegative")
        if eps == 0.0:
            return DivergenceResult(0.0, 0.0)
        z = 1.0 + eps / nu
        log_z = math.log1p(eps / nu)
        t0 = k * math.exp(eps)
        if not math.isfinite(t0):
            raise OverflowError("spike too large for the sufficient-statistic reduction")
        # Largest level that does not force T > t0 on its own.
        x_max = int(math.floor(math.log(max(t0 - (k - 1), 1.0)) / log_z))
        values = z ** np.arange(x_max + 1)
        pmf = _poisson_pmf(np.arange(x_max + 1), nu)
        cdf = np.cumsum(pmf)
        # P{X = x | X <= x}, or its limit 1 where both underflow (nu near 750 and up).
        p_cond = np.divide(pmf, cdf, out=np.ones_like(pmf), where=cdf > 0.0)

        # State i: r[i] of the other coordinates still unplaced, partial sum s[i].
        r = np.array([k - 1])
        s = np.zeros(1)
        prob = np.array([(1.0 - float(pdtrc(x_max, nu))) ** (k - 1)])
        for x in range(x_max, 1, -1):
            # Paths that reached the same (r, s) merge into one state before they expand.
            order = np.lexsort((s, r))
            r, s, prob = r[order], s[order], prob[order]
            first = np.flatnonzero((np.diff(r, prepend=-1) != 0) | (np.diff(s, prepend=-1.0) != 0))
            r, s, prob = r[first], s[first], np.add.reduceat(prob, first)
            # Counts n with a nonzero weight, lo[r] <= n <= hi[r], and
            # s + r + n (z^x - 1) <= t0 - 1: coordinate 1 adds >= 1.
            rows, lo, hi = level(x, p_cond)
            top = np.minimum(fits(t0 - 1.0 - s - r, values[x] - 1.0) - 1, hi[r])
            width = np.maximum(top - lo[r] + 1, 0)
            total = int(width.sum())
            if total > _MAX_STATES:
                raise AtomBudgetError(f"{total} DP states exceed the cap {_MAX_STATES}")
            parent = np.repeat(np.arange(r.size), width)
            n = lo[r[parent]] + np.arange(total) - np.repeat(np.cumsum(width) - width, width)
            prob = prob[parent] * rows[r[parent], n]
            r, s = r[parent] - n, s[parent] + n * values[x]

        # The r coordinates left sit at level 1 with probability p1 (p_cond[1], or 0 at x_max = 0), else at 0.
        cum = np.zeros((k, k + 1))  # cum[r, j] = P{Binomial(r, p1) <= j - 1}
        np.cumsum(level(1, p_cond)[0] if x_max >= 1 else _binom_rows(k, 0.0), axis=1, out=cum[:, 1:])
        f = np.array([prob @ cum[r, fits(t0 - v - s - r, z - 1.0)] for v in values])
        value = float((pmf - _poisson_pmf(np.arange(x_max + 1), nu + eps)) @ f)
        if not value >= -1e-10:
            raise FloatingPointError(f"optimal-event TV came out negative or NaN ({value!r}): the DP lost accuracy")
        return DivergenceResult(max(0.0, value), 0.0)

    return tv
