"""Exact divergences between discrete product distributions and mixtures.

Enumeration here is *certified*: every truncated object carries the mass it
discarded, every divergence returns ``(value, error_bar)``, and tests assert
against ``value + error_bar``.  Three computation routes coexist:

1. dense enumeration over a truncated product grid (general, capped by an
   atom budget);
2. the closed-form chi-square between Poisson products;
3. an exchangeable sufficient-statistic reduction for uniform one-spike
   Poisson mixtures, which is exact with *no* truncation error and scales
   far beyond the dense grid.

The conditional chi-square bound for the simplex prior and the certificate
for the uniform spike prior live here as well; they need only
one-dimensional Poisson CDFs and the hypergeometric overlap law, so they
work at any dimension.

Poisson pmfs, CDFs and quantiles are ``scipy.special`` closed forms and
binomial pmfs come from the Pascal recurrence: the module needs nothing from
``scipy.stats``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np
from scipy.special import gammaln, logsumexp, pdtr, pdtrc, pdtrik, xlogy

__all__ = [
    "ATOM_BUDGET",
    "AtomBudgetError",
    "DivergenceResult",
    "PmfTable",
    "FiniteProductDist",
    "ProductMixture",
    "truncated_poisson_pmf",
    "poisson_product_dist",
    "poisson_mixture",
    "tv_distance",
    "chi_square_poisson_products",
    "chi_square_enumerated",
    "hypergeometric_overlap_log_pmf",
    "multinomial_conditional_chisq_bound",
    "exact_bayes_risk",
    "SpikeRiskCertificate",
    "certified_spike_risk_bound",
    "tv_poisson_uniform_spike",
]

ATOM_BUDGET = 10**7
DEFAULT_MASS_TOL = 1e-12


def _poisson_pmf(ks: np.ndarray, lam: float) -> np.ndarray:
    # scipy.stats.poisson's own order of operations, so tables stay bit-identical.
    return np.exp(xlogy(ks, lam) - gammaln(ks + 1) - lam)


def _poisson_logcdf(k: int, lam: float) -> float:
    if k < 0:
        return -math.inf
    with np.errstate(divide="ignore"):
        return float(np.log(pdtr(k, lam)))


def _poisson_ppf(q: float, lam: float) -> int:
    """Smallest ``k`` with ``P{Poisson(lam) <= k} >= q``, by scipy's one-step fix-up."""
    if q >= 1.0:
        raise OverflowError(f"quantile level {q!r} has no finite Poisson quantile")
    k = math.ceil(pdtrik(q, lam))
    k1 = max(k - 1, 0)
    return k1 if pdtr(k1, lam) >= q else k


def _binom_rows(size: int, p: float) -> np.ndarray:
    """Row ``r < size`` is the ``Binomial(r, p)`` pmf over ``0..r``, zero-padded.

    The Pascal recurrence adds only nonnegative terms, so entries keep a few
    ulps of relative accuracy where ``exp(gammaln(...))`` loses about 1e-14
    at ``r = 70``; exact zeros off the atom at ``p = 0`` or ``1``.
    """
    rows = np.zeros((size, size))
    rows[0, 0] = 1.0
    for r in range(1, size):
        rows[r, :r] = rows[r - 1, :r] * (1.0 - p)
        rows[r, 1 : r + 1] += rows[r - 1, :r] * p
    return rows


class AtomBudgetError(RuntimeError):
    """The requested enumeration exceeds the atom budget."""


class DivergenceResult(NamedTuple):
    """A certified value: the truth lies within ``value +/- error_bar``."""

    value: float
    error_bar: float


@dataclass(frozen=True)
class PmfTable:
    """Finite pmf over ``{0, ..., K}``; ``deficit`` is the discarded mass."""

    probs: np.ndarray
    deficit: float

    def __post_init__(self):
        arr = np.asarray(self.probs, dtype=float)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("pmf table must be a nonempty 1-D array")
        if np.any(arr < 0.0) or self.deficit < -1e-15:
            raise ValueError("pmf entries and deficit must be nonnegative")
        object.__setattr__(self, "probs", arr)
        object.__setattr__(self, "deficit", max(0.0, float(self.deficit)))
        arr.setflags(write=False)

    def __len__(self) -> int:
        return self.probs.size


def truncated_poisson_pmf(lam: float, mass_tol: float, min_len: int | None = None) -> PmfTable:
    """Poisson pmf table over ``{0..K}`` with K minimal s.t. cdf >= 1 - mass_tol."""
    if not (np.isfinite(lam) and lam >= 0.0):
        raise ValueError(f"lambda must be finite and nonnegative, got {lam!r}")
    if not (0.0 < mass_tol < 1.0):
        raise ValueError(f"mass_tol must lie in (0, 1), got {mass_tol!r}")
    if lam == 0.0:
        size = max(1, min_len or 1)
        probs = np.zeros(size)
        probs[0] = 1.0
        return PmfTable(probs, 0.0)
    k_max = _poisson_ppf(1.0 - mass_tol, lam)
    if min_len is not None:
        k_max = max(k_max, min_len - 1)
    probs = _poisson_pmf(np.arange(k_max + 1), lam)
    deficit = float(pdtrc(k_max, lam))
    return PmfTable(probs, deficit)


@dataclass(frozen=True)
class FiniteProductDist:
    """Product of per-coordinate finite pmf tables."""

    tables: tuple[PmfTable, ...]

    def __post_init__(self):
        if len(self.tables) == 0:
            raise ValueError("a product distribution needs at least one coordinate")
        object.__setattr__(self, "tables", tuple(self.tables))

    @property
    def p(self) -> int:
        return len(self.tables)

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(len(t) for t in self.tables)

    @property
    def truncation_deficit(self) -> float:
        return float(sum(t.deficit for t in self.tables))

    def dense(self, shape: tuple[int, ...]) -> np.ndarray:
        """Joint pmf on the product grid ``{0..shape_j - 1}``, zero-padded."""
        out = None
        for table, size in zip(self.tables, shape):
            col = np.zeros(size)
            col[: len(table)] = table.probs[:size]
            out = col if out is None else np.multiply.outer(out, col)
        return out


@dataclass(frozen=True)
class ProductMixture:
    """Explicit finite mixture of product distributions."""

    weights: np.ndarray
    components: tuple[FiniteProductDist, ...]

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        comps = tuple(self.components)
        if w.ndim != 1 or w.size != len(comps) or w.size == 0:
            raise ValueError("weights and components must be nonempty and aligned")
        if np.any(w < 0.0) or abs(w.sum() - 1.0) > 1e-9:
            raise ValueError("weights must be a probability vector")
        ps = {c.p for c in comps}
        if len(ps) != 1:
            raise ValueError("mixture components must share dimension")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "components", comps)
        w.setflags(write=False)

    @property
    def p(self) -> int:
        return self.components[0].p

    @property
    def truncation_deficit(self) -> float:
        return float(np.dot(self.weights, [c.truncation_deficit for c in self.components]))

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(max(dims) for dims in zip(*(c.shape for c in self.components)))

    def dense(self, shape: tuple[int, ...]) -> np.ndarray:
        out = np.zeros(shape)
        for w, comp in zip(self.weights, self.components):
            out += w * comp.dense(shape)
        return out


def poisson_product_dist(
    lams: Sequence[float],
    mass_tol: float = DEFAULT_MASS_TOL,
    lengths: Sequence[int] | None = None,
) -> FiniteProductDist:
    """Truncated ``@ Poisson(lam_j)`` with the mass budget split per coordinate."""
    lams = np.asarray(lams, dtype=float)
    per_coord = mass_tol / lams.size
    tables = []
    for j, lam in enumerate(lams):
        min_len = None if lengths is None else int(lengths[j])
        tables.append(truncated_poisson_pmf(float(lam), per_coord, min_len=min_len))
    return FiniteProductDist(tuple(tables))


def poisson_mixture(
    weights: Sequence[float],
    lam_rows: Sequence[Sequence[float]],
    mass_tol: float = DEFAULT_MASS_TOL,
) -> ProductMixture:
    """Mixture of Poisson products on a harmonized common support."""
    rows = [np.asarray(r, dtype=float) for r in lam_rows]
    p = rows[0].size
    per_coord = mass_tol / p
    lengths = []
    for j in range(p):
        k = 0
        for r in rows:
            lam = float(r[j])
            k = max(k, 1 if lam == 0.0 else _poisson_ppf(1.0 - per_coord, lam) + 1)
        lengths.append(k)
    comps = tuple(poisson_product_dist(r, mass_tol, lengths) for r in rows)
    return ProductMixture(np.asarray(weights, dtype=float), comps)


def _common_shape(p_dist, q_dist) -> tuple[int, ...]:
    if p_dist.p != q_dist.p:
        raise ValueError("distributions must share dimension")
    shape = tuple(max(a, b) for a, b in zip(p_dist.shape, q_dist.shape))
    atoms = int(np.prod(shape, dtype=np.int64))
    if atoms > ATOM_BUDGET:
        raise AtomBudgetError(f"{atoms} atoms exceed the budget of {ATOM_BUDGET}")
    return shape


def tv_distance(p_dist, q_dist) -> DivergenceResult:
    """Total variation over the union support, with a truncation error bar."""
    shape = _common_shape(p_dist, q_dist)
    diff = p_dist.dense(shape) - q_dist.dense(shape)
    value = 0.5 * float(np.abs(diff).sum())
    bar = p_dist.truncation_deficit + q_dist.truncation_deficit
    return DivergenceResult(value, bar)


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


def chi_square_enumerated(q_dist, p_dist) -> DivergenceResult:
    """``chi2(Q || P)`` by summation on the union grid (test oracle)."""
    shape = _common_shape(p_dist, q_dist)
    p = p_dist.dense(shape).ravel()
    q = q_dist.dense(shape).ravel()
    if np.any((p == 0.0) & (q > 0.0)):
        return DivergenceResult(math.inf, 0.0)
    mask = p > 0.0
    value = float(np.sum((q[mask] - p[mask]) ** 2 / p[mask]))
    # Missing mass enters quadratically; the linear deficit is a safe bar
    # for the small deficits used here.
    bar = p_dist.truncation_deficit + q_dist.truncation_deficit
    return DivergenceResult(value, bar)


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


def exact_bayes_risk(null_dist, mixture) -> DivergenceResult:
    """Bayes testing risk ``1 - TV(null, mixture)`` with the TV error bar."""
    tv = tv_distance(null_dist, mixture)
    return DivergenceResult(1.0 - tv.value, tv.error_bar)


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
    one-dimensional Poisson CDF, so the certificate is computable exactly at
    any dimension; ``1 - TV-bound`` lower-bounds the minimax risk of the
    original (unflattened) problem.
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
    with np.errstate(over="ignore"):
        off_diag = (
            0.0
            if j_star == 1
            else (1.0 - 1.0 / j_star)
            * math.exp(log_prefactor + (j_star - 2) * log_f_null + 2.0 * log_f_spike)
        )
        diag = (1.0 / j_star) * math.exp(
            log_prefactor + eps * eps / nu + (j_star - 1) * log_f_null + log_f_sq
        )
    chisq = max(0.0, off_diag + diag - 1.0)
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


def tv_poisson_uniform_spike(
    nu: float, eps: float, k: int, max_states: int = 5_000_000
) -> DivergenceResult:
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
    ``max_states`` states at one level raises ``AtomBudgetError``.
    """
    if nu <= 0 or k < 1:
        raise ValueError("need nu > 0 and k >= 1")
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

    def fits(room: np.ndarray, step: float) -> np.ndarray:
        """How many counts ``n = 0, 1, ...`` keep ``n * step <= room``."""
        return np.searchsorted(np.arange(k) * step, room, side="right")

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
        rows = _binom_rows(k, float(p_cond[x]))
        # Counts n with a nonzero weight, lo[r] <= n <= hi[r], and
        # s + r + n (z^x - 1) <= t0 - 1: coordinate 1 adds >= 1.
        lo = np.argmax(rows > 0.0, axis=1)
        hi = k - 1 - np.argmax(rows[:, ::-1] > 0.0, axis=1)
        top = np.minimum(fits(t0 - 1.0 - s - r, values[x] - 1.0) - 1, hi[r])
        width = np.maximum(top - lo[r] + 1, 0)
        total = int(width.sum())
        if total > max_states:
            raise AtomBudgetError(f"{total} DP states exceed the cap {max_states}")
        parent = np.repeat(np.arange(r.size), width)
        n = lo[r[parent]] + np.arange(total) - np.repeat(np.cumsum(width) - width, width)
        prob = prob[parent] * rows[r[parent], n]
        r, s = r[parent] - n, s[parent] + n * values[x]

    # The r coordinates left sit at level 1 with probability p1, else at 0.
    p1 = float(p_cond[1]) if x_max >= 1 else 0.0
    cum = np.zeros((k, k + 1))  # cum[r, j] = P{Binomial(r, p1) <= j - 1}
    np.cumsum(_binom_rows(k, p1), axis=1, out=cum[:, 1:])
    f = np.array([prob @ cum[r, fits(t0 - v - s - r, z - 1.0)] for v in values])
    tv = float((pmf - _poisson_pmf(np.arange(x_max + 1), nu + eps)) @ f)
    if not tv >= -1e-10:
        raise FloatingPointError(f"optimal-event TV came out negative or NaN ({tv!r}): the DP lost accuracy")
    return DivergenceResult(max(0.0, tv), 0.0)
