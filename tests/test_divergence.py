"""Tests for the exact divergence machinery and the bound evaluators."""

from __future__ import annotations

import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest
import mpmath
import scipy.special
import scipy.stats

import supgof.divergence as divergence
from supgof.divergence import (
    PoissonMixture,
    certified_spike_risk_bound,
    chi_square_enumerated,
    chi_square_poisson_products,
    hypergeometric_overlap_log_pmf,
    multinomial_conditional_chisq_bound,
    poisson_mixture,
    poisson_product_dist,
    truncated_poisson_pmf,
    tv_distance,
    tv_poisson_uniform_spike,
)
from supgof.model import RateVector
from supgof.priors import PoissonSpikePrior, verify_flattening
from supgof.special import AtomBudgetError


# Rates over [1e-3, 1e4] and quantile levels with 1 - q over [1e-16, 1e-1].
_RNG = np.random.default_rng(20240908)
LAMS = 10.0 ** _RNG.uniform(-3.0, 4.0, 2_000)
QS = 1.0 - 10.0 ** _RNG.uniform(-16.0, -1.0, 2_000)


def _tv_by_level_counts(nu: float, eps: float, k: int) -> float:
    """``TV = E0[(1 - L)+]`` summed over how many coordinates sit at each count.

    Shares no code with ``supgof``.  ``L = mean_j e^{-eps} z^{X_j}`` with
    ``z = 1 + eps/nu`` depends on the counts only through
    ``T = sum_j z^{X_j} = t0 L`` at ``t0 = k e^eps``, so the sum runs over the
    number ``c`` of coordinates at each count ``x`` (multinomial weights),
    from the top count down, and leaves a branch once ``T`` reaches ``t0``.
    """
    log_z = math.log1p(eps / nu)
    t0 = k * math.exp(eps)
    top = int(math.log(t0) / log_z)
    log_pmf = [x * math.log(nu) - nu - math.lgamma(x + 1) for x in range(top + 1)]
    total = 0.0
    stack = [(top, k, 0.0, math.lgamma(k + 1))]
    while stack:
        x, left, t, log_w = stack.pop()
        if x == 0:
            t += left
            if t < t0:
                log_w += left * log_pmf[0] - math.lgamma(left + 1)
                total += math.exp(log_w) * (1.0 - t / t0)
            continue
        z_x = math.exp(x * log_z)
        for c in range(left + 1):
            if t + c * z_x + (left - c) >= t0:
                break
            stack.append((x - 1, left - c, t + c * z_x, log_w + c * log_pmf[x] - math.lgamma(c + 1)))
    return total


def _pascal_rows(size: int, p: float) -> np.ndarray:
    """One ``Binomial(r, p)`` table, ``r < size``, by a Pascal loop of its own."""
    rows = np.zeros((size, size))
    rows[0, 0] = 1.0
    for r in range(1, size):
        rows[r, :r] = rows[r - 1, :r] * (1.0 - p)
        rows[r, 1 : r + 1] += rows[r - 1, :r] * p
    return rows


def _spike_tv_per_level(nu: float, eps: float, k: int) -> float:
    """The spike DP with one Pascal loop per level and no table kept between levels or calls.

    It takes the same float operations as ``tv_poisson_uniform_spike`` in the
    same order, so the two agree bit for bit.
    """
    z = 1.0 + eps / nu
    t0 = k * math.exp(eps)
    x_max = int(math.floor(math.log(max(t0 - (k - 1), 1.0)) / math.log1p(eps / nu)))
    values = z ** np.arange(x_max + 1)
    pmf = divergence._poisson_pmf(np.arange(x_max + 1), nu)
    cdf = np.cumsum(pmf)
    p_cond = np.divide(pmf, cdf, out=np.ones_like(pmf), where=cdf > 0.0)
    counts = np.arange(k)
    r, s = np.array([k - 1]), np.zeros(1)
    prob = np.array([(1.0 - float(scipy.special.pdtrc(x_max, nu))) ** (k - 1)])
    for x in range(x_max, 1, -1):
        order = np.lexsort((s, r))
        r, s, prob = r[order], s[order], prob[order]
        first = np.flatnonzero((np.diff(r, prepend=-1) != 0) | (np.diff(s, prepend=-1.0) != 0))
        r, s, prob = r[first], s[first], np.add.reduceat(prob, first)
        rows = _pascal_rows(k, float(p_cond[x]))
        lo = np.argmax(rows > 0.0, axis=1)
        hi = k - 1 - np.argmax(rows[:, ::-1] > 0.0, axis=1)
        top = np.minimum(np.searchsorted(counts * (values[x] - 1.0), t0 - 1.0 - s - r, side="right") - 1, hi[r])
        width = np.maximum(top - lo[r] + 1, 0)
        if width.sum() > divergence._MAX_STATES:
            raise AtomBudgetError("reference DP states exceed the cap")
        parent = np.repeat(np.arange(r.size), width)
        n = lo[r[parent]] + np.arange(int(width.sum())) - np.repeat(np.cumsum(width) - width, width)
        prob = prob[parent] * rows[r[parent], n]
        r, s = r[parent] - n, s[parent] + n * values[x]
    cum = np.zeros((k, k + 1))
    np.cumsum(_pascal_rows(k, float(p_cond[1]) if x_max >= 1 else 0.0), axis=1, out=cum[:, 1:])
    f = np.array([prob @ cum[r, np.searchsorted(counts * (z - 1.0), t0 - v - s - r, side="right")] for v in values])
    return max(0.0, float((pmf - divergence._poisson_pmf(np.arange(x_max + 1), nu + eps)) @ f))


class TestSpecialClosedForms:
    """The module's closed forms reproduce ``scipy.stats`` (kept here only as the oracle)."""

    def test_ppf_matches_scipy_stats(self):
        got = [divergence._poisson_ppf(float(q), float(lam)) for q, lam in zip(QS, LAMS)]
        want = [int(scipy.stats.poisson.ppf(q, lam)) for q, lam in zip(QS, LAMS)]
        assert got == want

    def test_pmf_sf_logcdf_bit_equal_to_scipy_stats(self):
        for lam, q in zip(LAMS[::10], QS[::10]):
            ks = np.arange(int(scipy.stats.poisson.ppf(q, lam)) + 3)
            np.testing.assert_array_equal(
                divergence._poisson_pmf(ks, lam), scipy.stats.poisson.pmf(ks, lam)
            )
            np.testing.assert_array_equal(
                divergence.pdtrc(ks, lam), scipy.stats.poisson.sf(ks, lam)
            )
            for k in (0, int(ks[-1] // 2), int(ks[-1])):
                # Where the CDF is subnormal or 0, scipy's log(cdf) loses bits or reads -inf;
                # TestLogSpaceTails checks those points against mpmath.
                if scipy.stats.poisson.cdf(k, lam) >= np.finfo(float).tiny:
                    assert divergence._poisson_logcdf(k, lam) == scipy.stats.poisson.logcdf(k, lam)

    def test_ppf_at_level_one_is_a_numeric_failure(self):
        """``1 - mass_tol`` rounds to 1 below about 5.5e-17: no finite table exists."""
        with pytest.raises(OverflowError):
            truncated_poisson_pmf(1.0, 1e-17)

    def test_logcdf_minus_inf_without_warning(self):
        """Only an empty event has log-probability -inf; an underflowing CDF stays finite."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert divergence._poisson_logcdf(-1, 1.0) == -math.inf
            assert divergence._poisson_logcdf(0, 1e4) == -1e4
            # The diagonal term of the conditional bounds is exp(-1974.6...): it underflows for real.
            assert divergence._diagonal_mixture_term(1.0, 1.0, 1e3) == 0.0
        assert scipy.stats.poisson.logcdf(0, 1e4) == -math.inf

    @pytest.mark.parametrize("p", [0.0, 1e-12, 0.01, 0.37, 0.5, 0.99, 1.0 - 1e-12, 1.0])
    def test_binomial_pmf_matches_scipy_stats(self, p):
        rows = divergence._binom_rows(101, p)
        for r in (0, 1, 2, 7, 40, 100):
            want = scipy.stats.binom.pmf(np.arange(r + 1), r, p)
            np.testing.assert_allclose(rows[r, : r + 1], want, rtol=1e-12, atol=1e-300)
            assert not rows[r, r + 1 :].any()

    def test_stacked_tables_are_the_single_tables_bit_for_bit(self):
        """One Pascal sweep over a batch of ``p`` gives each table exactly as a loop of its own would."""
        ps = np.array([0.0, 1.0, 1e-300, 1e-12, 0.01, 0.37, 0.5, 0.99, 1.0 - 1e-12, 0.2])
        stacked = divergence._binom_rows(70, ps)
        assert stacked.shape == (ps.size, 70, 70)
        for p, table in zip(ps, stacked):
            want = _pascal_rows(70, float(p))
            assert np.array_equal(table, want)
            assert np.array_equal(divergence._binom_rows(70, float(p)), want)
        assert divergence._binom_rows(70, 0.3).shape == (70, 70)
        assert divergence._binom_rows(70, ps[:0]).shape == (0, 70, 70)

    def test_binomial_degenerate_rows(self):
        """Exact zeros off the atom, as the spike DP needs at ``p_cond = 1``."""
        assert divergence._binom_rows(1, 0.3).tolist() == [[1.0]]
        assert divergence._binom_rows(6, 1.0)[5].tolist() == [0.0] * 5 + [1.0]
        assert divergence._binom_rows(6, 0.0)[5].tolist() == [1.0] + [0.0] * 5


class TestLogSpaceTails:
    """``_poisson_logcdf`` and ``_diagonal_mixture_term`` against 40-digit mpmath, on both
    sides of the point where ``pdtr`` underflows."""

    @staticmethod
    def _mp_logcdf(k: int, lam: float):
        with mpmath.workdps(40):
            return mpmath.log(mpmath.gammainc(k + 1, mpmath.mpf(lam), mpmath.inf, regularized=True))

    @pytest.mark.parametrize("lam", [710.0, 961.0, 3721.0, 1e4, 1.86e5, 1e8, 1e10])
    def test_logcdf_across_the_underflow(self, lam):
        tiny = np.finfo(float).tiny
        # About 37.6 standard deviations below the mean, pdtr crosses from normal to subnormal.
        ks = sorted({max(0, int(lam - z * math.sqrt(lam))) for z in (30, 36, 37.5, 38, 40, 60, 300)} | {0, 1, 31})
        seen = set()
        for k in ks:
            seen.add(bool(divergence.pdtr(k, lam) >= tiny))
            got = divergence._poisson_logcdf(k, lam)
            want = float(self._mp_logcdf(k, lam))
            assert math.isfinite(got)
            assert got == pytest.approx(want, rel=1e-14, abs=1e-13)
        assert False in seen

    @pytest.mark.parametrize(
        "mu, psi, c, want",
        [(1.0, 30.0, 1.0, 1.18e32), (1.0, 40.0, 1.0, 3.60e47), (4.0, 60.0, 1.0, 5.39e49)],
    )
    def test_diagonal_term_where_the_cdf_underflows(self, mu, psi, c, want):
        """Each of these once came out 0.0, with ``log pdtr = -inf``."""
        assert divergence._diagonal_mixture_term(mu, psi, c) == pytest.approx(want, rel=5e-3)

    @pytest.mark.parametrize("psi", [20.0, 25.0, 29.0, 29.6, 29.7, 30.0, 35.0, 40.0, 60.0])
    def test_diagonal_term_matches_mpmath(self, psi):
        mu, c = 1.0, 1.0
        rate = (mu + c * psi) ** 2 / mu
        with mpmath.workdps(40):
            want = mpmath.exp(mpmath.mpf(c * psi) ** 2 / mu) * mpmath.exp(self._mp_logcdf(math.floor(mu + psi), rate))
        assert divergence._diagonal_mixture_term(mu, psi, c) == pytest.approx(float(want), rel=1e-12)


class TestTruncatedPmf:
    def test_zero_rate_point_mass(self):
        table = truncated_poisson_pmf(0.0, 1e-12)
        assert table.probs.tolist() == [1.0]
        assert table.deficit == 0.0

    def test_entries_match_formula(self):
        table = truncated_poisson_pmf(1.0, 1e-12)
        ks = np.arange(len(table))
        exact = np.exp(-1.0) / scipy.special.factorial(ks)
        np.testing.assert_allclose(table.probs, exact, atol=1e-15)
        assert table.probs[0] == pytest.approx(math.exp(-1.0), rel=1e-15)

    def test_k_is_minimal_and_mass_covered(self):
        for lam, tol in [(1.0, 1e-12), (7.3, 1e-9), (0.2, 1e-6)]:
            table = truncated_poisson_pmf(lam, tol)
            k = len(table) - 1
            assert scipy.stats.poisson.cdf(k, lam) >= 1 - tol
            assert scipy.stats.poisson.cdf(k - 1, lam) < 1 - tol
            assert table.deficit == pytest.approx(scipy.stats.poisson.sf(k, lam), abs=1e-18)

    def test_rate_past_the_quantile_solver_names_the_rate(self):
        """``pdtrik`` gives NaN from about rate 1e11, which once reached ``math.ceil``."""
        with pytest.raises(AtomBudgetError, match=r"rate 10000000000000\.0"):
            truncated_poisson_pmf(1e13, 1e-12)


class TestTvDistance:
    def test_identical_is_zero(self):
        p = poisson_product_dist([1.0, 2.0])
        assert tv_distance(p, p).value == 0.0

    def test_poisson_shift_bound_examples(self):
        p1 = poisson_product_dist([1.0])
        assert tv_distance(p1, poisson_product_dist([2.0])).value <= 1.0
        small = tv_distance(p1, poisson_product_dist([1.01]))
        assert small.value + small.error_bar <= math.sqrt(0.01)

    def test_symmetry_and_triangle(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            lams = rng.uniform(0.1, 4.0, size=(3, 2))
            dists = [poisson_product_dist(l) for l in lams]
            ab = tv_distance(dists[0], dists[1])
            ba = tv_distance(dists[1], dists[0])
            assert ab.value == pytest.approx(ba.value, abs=1e-15)
            ac = tv_distance(dists[0], dists[2]).value
            cb = tv_distance(dists[2], dists[1]).value
            assert ab.value <= ac + cb + 1e-12

    def test_tv_below_half_sqrt_chisq(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            a = rng.uniform(0.2, 4.0, size=2)
            b = rng.uniform(0.2, 4.0, size=2)
            pa, pb = poisson_product_dist(a), poisson_product_dist(b)
            tv = tv_distance(pa, pb).value
            assert tv <= 0.5 * math.sqrt(chi_square_poisson_products(a, b)) + 1e-10

    def test_atom_budget(self):
        """The budget caps the atoms enumerated: the grid of the axes where the two laws differ."""
        big = PoissonMixture(np.ones(1), np.full((1, 3), 1.0), (500, 500, 500))
        other = PoissonMixture(np.ones(1), np.full((1, 3), 1.5), (500, 500, 500))
        assert big.shape == other.shape == (500, 500, 500)
        with pytest.raises(AtomBudgetError, match="125000000 atoms"):
            tv_distance(big, other)
        with pytest.raises(AtomBudgetError, match="125000000 atoms"):
            chi_square_enumerated(other, big)
        # Equal laws share every axis: one atom, whatever the grid.
        assert tv_distance(big, big) == (0.0, 2.0 * big.deficit(big.shape))

    def test_atom_budget_passes_a_flattening_whose_spiked_axes_fit(self, monkeypatch):
        """``[5, 3, 3, 1, 1, 1]`` at c = 0.2: its union grid holds 8.86e7 atoms, past the
        budget, but the spike varies only the j* = 3 leading axes, 21,632 atoms."""
        streamed = []
        slabs = divergence._slabs

        def recording(p_dist, q_dist, shape):
            atoms = []
            streamed.append((math.prod(shape), atoms))
            for p, q in slabs(p_dist, q_dist, shape):
                atoms.append(p.size)
                yield p, q

        monkeypatch.setattr(divergence, "_slabs", recording)
        mu = RateVector(np.array([5.0, 3.0, 3.0, 1.0, 1.0, 1.0]))
        prior = PoissonSpikePrior.build(mu, 0.2)
        weights, rows = prior.components()
        k = prior.j_star
        assert k == 3
        report = verify_flattening(mu, list(zip(weights, rows)), k, float(mu.rates[k - 1]))
        (lhs_grid, lhs_atoms), _, _ = streamed
        assert lhs_grid == 88_604_672 > divergence.ATOM_BUDGET
        assert sum(lhs_atoms) == 21_632
        assert report.ok
        assert 0.0 < report.lhs.value < 1.0

    def test_union_grid_matches_hand_harmonized_pair(self):
        """Each side is evaluated on the union grid: rebuilding the null there by hand changes no bit."""
        for nu, spike, k in [(1.0, 2.0, 2), (0.5, 3.0, 3), (2.0, 1.5, 2)]:
            rows = [[nu + (spike if j == i else 0.0) for j in range(k)] for i in range(k)]
            mix = poisson_mixture([1.0 / k] * k, rows)
            null = poisson_product_dist([nu] * k)
            assert any(a < b for a, b in zip(null.shape, mix.shape))
            by_hand = PoissonMixture(null.weights, null.rates, tuple(np.maximum(null.shape, mix.shape).tolist()))
            assert tv_distance(null, mix) == tv_distance(by_hand, mix)
            assert tv_distance(mix, null) == tv_distance(mix, by_hand)


def _dense_pmf(law, shape) -> np.ndarray:
    """Full-grid joint pmf, one ``np.multiply.outer`` chain per component: the slab oracle."""
    out = np.zeros(shape)
    for w, rates in zip(law.weights, law.rates):
        comp = np.ones(())
        for lam, k in zip(rates, shape):
            comp = np.multiply.outer(comp, scipy.stats.poisson.pmf(np.arange(k), lam))
        out += w * comp
    return out


def _dense_chisq(q_law, p_law) -> float:
    """``sum (q - p)^2 / p`` over the full grid that ``chi_square_enumerated`` sums on."""
    shape = divergence._chi_square_grid(q_law, p_law)
    pp, qq = _dense_pmf(p_law, shape), _dense_pmf(q_law, shape)
    return float(np.sum((qq - pp) ** 2 / pp))


class TestSlabStreaming:
    """TV and chi-square stream both joint pmfs in slabs; no full grid is built."""

    @pytest.mark.parametrize("slab", [None, 1, 7, 64, 1000])
    def test_tv_and_chisq_match_the_full_grid(self, monkeypatch, slab):
        if slab is not None:
            monkeypatch.setattr(divergence, "_SLAB_ATOMS", slab)
        rng = np.random.default_rng(11)
        for _ in range(12):
            p = int(rng.integers(1, 4))
            monkeypatch.setattr(divergence, "DEFAULT_MASS_TOL", 1e-6 if slab == 1 else 1e-10)
            null = poisson_product_dist(rng.uniform(0.1, 4.0, p))
            components = int(rng.integers(1, 6))
            mix = poisson_mixture(rng.dirichlet(np.ones(components)), rng.uniform(0.1, 4.0, (components, p)))
            shape = tuple(np.maximum(null.shape, mix.shape))
            pp, qq = _dense_pmf(null, shape), _dense_pmf(mix, shape)
            assert tv_distance(null, mix).value == pytest.approx(0.5 * np.abs(pp - qq).sum(), rel=1e-13, abs=1e-15)
            want = _dense_chisq(mix, null)
            assert chi_square_enumerated(mix, null).value == pytest.approx(want, rel=1e-12)

    def test_one_coordinate(self, monkeypatch):
        """p = 1: the whole grid is one slab, or (at a slab of 4) the head holds every atom."""
        null = poisson_product_dist([2.0])
        mix = poisson_mixture([0.25, 0.75], [[1.0], [4.0]])
        shape = tuple(np.maximum(null.shape, mix.shape))
        pp, qq = _dense_pmf(null, shape), _dense_pmf(mix, shape)
        whole = tv_distance(null, mix)
        assert whole.value == pytest.approx(0.5 * np.abs(pp - qq).sum(), rel=1e-14)
        monkeypatch.setattr(divergence, "_SLAB_ATOMS", 4)
        assert tv_distance(null, mix).value == pytest.approx(whole.value, rel=1e-14)
        assert chi_square_enumerated(mix, null).value == pytest.approx(_dense_chisq(mix, null), rel=1e-12)

    def test_more_components_than_the_first_axis(self, monkeypatch):
        """Eight components on a first axis of a few atoms, cut after that axis."""
        rng = np.random.default_rng(5)
        rows = np.column_stack([np.full(8, 0.01), rng.uniform(0.5, 3.0, (8, 2))])
        mix = poisson_mixture(np.full(8, 1.0 / 8), rows)
        null = poisson_product_dist([0.01, 1.5, 1.5])
        shape = tuple(np.maximum(null.shape, mix.shape))
        assert shape[0] < 8
        monkeypatch.setattr(divergence, "_SLAB_ATOMS", shape[1] * shape[2])
        pp, qq = _dense_pmf(null, shape), _dense_pmf(mix, shape)
        assert tv_distance(null, mix).value == pytest.approx(0.5 * np.abs(pp - qq).sum(), rel=1e-13)
        assert tv_distance(mix, mix).value == 0.0

    def test_identical_laws_are_zero_in_every_slab(self, monkeypatch):
        """The two laws' slabs are separate products, so equal laws cancel exactly."""
        monkeypatch.setattr(divergence, "_SLAB_ATOMS", 10)
        mix = poisson_mixture([0.2, 0.3, 0.5], [[1.0, 2.0], [3.0, 0.5], [2.0, 2.0]])
        assert tv_distance(mix, mix).value == 0.0
        p = poisson_product_dist([1.0, 2.0])
        assert tv_distance(p, p).value == 0.0

    def test_infinite_chisq_first_seen_in_a_later_slab(self, monkeypatch):
        """``Poisson(0.001)``'s pmf underflows past count ~110 while ``Poisson(500)``'s does not."""
        monkeypatch.setattr(divergence, "_SLAB_ATOMS", 16)
        null = poisson_product_dist([0.001])
        alt = poisson_product_dist([500.0])
        shape = tuple(np.maximum(null.shape, alt.shape))
        pp, qq = _dense_pmf(null, shape), _dense_pmf(alt, shape)
        first = int(np.flatnonzero((pp == 0.0) & (qq > 0.0))[0])
        assert first >= 16
        assert chi_square_enumerated(alt, null).value == math.inf

    def test_flattening_memory_stays_far_below_one_grid(self):
        """The exact-bounds workload's 5-coordinate null: its lhs grid holds 3.06e6 atoms (24 MB)."""
        mu = RateVector(np.array([3.0, 2.2, 1.6, 1.2, 1.0]))
        prior = PoissonSpikePrior.build(mu, 0.25)
        weights, rows = prior.components()
        k = prior.j_star
        shape = np.maximum(poisson_product_dist(mu.rates).shape, poisson_mixture(weights, rows).shape)
        grid_bytes = 8 * math.prod(shape.tolist())
        assert grid_bytes > 24e6
        tracemalloc.start()
        try:
            verify_flattening(mu, list(zip(weights, rows)), k, float(mu.rates[k - 1]))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < grid_bytes / 6


class TestSharedAxes:
    """Axes where both laws share one rate factor out as their grid mass; only the others are streamed."""

    @pytest.mark.parametrize("slab", [None, 1, 7])
    @pytest.mark.parametrize(
        "shared",
        [[True, False, False], [False, True, False], [False, False, True], [True, True, True], [False, False, False]],
        ids=["first", "middle", "last", "everywhere", "nowhere"],
    )
    def test_tv_and_chisq_match_the_full_grid(self, monkeypatch, slab, shared):
        if slab is not None:
            monkeypatch.setattr(divergence, "_SLAB_ATOMS", slab)
        rng = np.random.default_rng(18)
        monkeypatch.setattr(divergence, "DEFAULT_MASS_TOL", 1e-6 if slab == 1 else 1e-10)
        for _ in range(6):
            rates = rng.uniform(0.1, 4.0, 3)
            components = int(rng.integers(1, 5))
            rows = rng.uniform(0.1, 4.0, (components, 3))
            rows[:, shared] = rates[shared]  # every component of both laws shares these rates
            null = poisson_product_dist(rates)
            mix = poisson_mixture(rng.dirichlet(np.ones(components)), rows)
            shape = tuple(np.maximum(null.shape, mix.shape))
            pp, qq = _dense_pmf(null, shape), _dense_pmf(mix, shape)
            assert tv_distance(null, mix).value == pytest.approx(0.5 * np.abs(pp - qq).sum(), rel=1e-13, abs=1e-15)
            want = _dense_chisq(mix, null)
            assert chi_square_enumerated(mix, null).value == pytest.approx(want, rel=1e-12, abs=1e-15)

    def test_shared_column_padded_by_lengths(self, monkeypatch):
        """A null built on a grid wider than its own widens a shared axis: its
        mass is summed over the padded length."""
        monkeypatch.setattr(divergence, "_SLAB_ATOMS", 7)
        monkeypatch.setattr(divergence, "DEFAULT_MASS_TOL", 1e-6)
        own = poisson_product_dist([1.5, 0.7, 2.0])
        assert own.shape[1] < 40
        null = PoissonMixture(own.weights, own.rates, (own.shape[0], 40, own.shape[2]))
        mix = poisson_mixture([0.4, 0.6], [[1.0, 0.7, 2.0], [2.5, 0.7, 2.0]])
        shape = tuple(np.maximum(null.shape, mix.shape))
        assert shape[1] == 40 > mix.shape[1]
        pp, qq = _dense_pmf(null, shape), _dense_pmf(mix, shape)
        tv = tv_distance(null, mix)
        assert tv.value == pytest.approx(0.5 * np.abs(pp - qq).sum(), rel=1e-13)
        assert tv.error_bar == null.deficit(shape) + mix.deficit(shape)
        assert chi_square_enumerated(mix, null).value == pytest.approx(_dense_chisq(mix, null), rel=1e-12)

    def test_equal_laws_with_every_axis_shared_are_zero(self):
        p = poisson_product_dist([1.0, 2.0, 0.5])
        assert tv_distance(p, p).value == 0.0
        assert chi_square_enumerated(p, p).value == 0.0
        mix = poisson_mixture([0.3, 0.7], [[1.0, 2.0], [1.0, 2.0]])
        assert tv_distance(mix, mix).value == 0.0

    def test_infinite_chisq_on_a_varying_axis_between_shared_ones(self, monkeypatch):
        """``Poisson(0.001)``'s pmf underflows where ``Poisson(500)``'s does not, on the middle axis."""
        monkeypatch.setattr(divergence, "_SLAB_ATOMS", 16)
        null = poisson_product_dist([2.0, 0.001, 3.0])
        alt = poisson_product_dist([2.0, 500.0, 3.0])
        shape = tuple(np.maximum(null.shape, alt.shape))
        pp, qq = _dense_pmf(null, shape), _dense_pmf(alt, shape)
        assert np.any((pp == 0.0) & (qq > 0.0))
        assert chi_square_enumerated(alt, null).value == math.inf

    def test_flattening_streams_only_the_spiked_axes(self, monkeypatch):
        """The exact-bounds 5-coordinate null: ``lhs`` streams 26 x 24 of its 3.06e6 atoms."""
        streamed = []
        slabs = divergence._slabs

        def recording(p_dist, q_dist, shape):
            atoms = []
            streamed.append((shape, atoms))
            for p, q in slabs(p_dist, q_dist, shape):
                atoms.append(p.size)
                yield p, q

        monkeypatch.setattr(divergence, "_slabs", recording)
        mu = RateVector(np.array([3.0, 2.2, 1.6, 1.2, 1.0]))
        prior = PoissonSpikePrior.build(mu, 0.25)
        weights, rows = prior.components()
        k = prior.j_star
        report = verify_flattening(mu, list(zip(weights, rows)), k, float(mu.rates[k - 1]))
        (lhs_shape, lhs_atoms), _, (tail_shape, tail_atoms) = streamed
        assert lhs_shape == (26, 24, 18, 17, 16)
        assert sum(lhs_atoms) == 26 * 24
        assert len(tail_shape) == 3 and tail_atoms == [1]  # no varying axis: one atom per law
        assert report.lhs.value == pytest.approx(0.1391358613965928, abs=1e-15)
        assert report.rhs_head.value == pytest.approx(0.1486656094610406, abs=1e-15)
        assert report.rhs_tail.value == pytest.approx(0.0, abs=1e-15)
        assert report.lhs.error_bar == 4.584242628124065e-13
        assert report.rhs_head.error_bar == 2.258257321144728e-13
        assert report.rhs_tail.error_bar == 1.4976385635164738e-12


class TestChiSquare:
    def test_equal_rates_zero(self):
        assert chi_square_poisson_products([1.0, 2.0], [1.0, 2.0]) == 0.0

    def test_single_unit_shift(self):
        assert chi_square_poisson_products([2.0], [1.0]) == pytest.approx(math.e - 1.0, rel=1e-14)

    def test_matches_enumeration(self, monkeypatch):
        monkeypatch.setattr(divergence, "DEFAULT_MASS_TOL", 1e-13)
        rng = np.random.default_rng(3)
        for _ in range(20):
            p = int(rng.integers(1, 4))
            b = rng.uniform(0.3, 5.0, p)
            a = b + rng.uniform(-0.2, 0.5, p)
            a = np.clip(a, 0.01, None)
            closed = chi_square_poisson_products(a, b)
            enum = chi_square_enumerated(poisson_product_dist(a), poisson_product_dist(b))
            assert abs(closed - enum.value) <= enum.error_bar + 1e-12 * closed

    @pytest.mark.parametrize(
        "a, b",
        [([2.0], [1.0]), ([3.0, 1.0], [1.0, 1.0]), ([0.5, 4.0], [1.5, 2.0]), ([6.0], [0.5])],
    )
    def test_error_bar_covers_the_closed_form(self, monkeypatch, a, b):
        """The bar carries the off-grid ``q^2/p`` mass, which grows with ``q/p``.

        On the union grid at ``DEFAULT_MASS_TOL = 1e-13``, Poisson(2) against
        Poisson(1) misses ``e - 1`` by about 2.8e-8, far more than the two deficits.
        """
        monkeypatch.setattr(divergence, "DEFAULT_MASS_TOL", 1e-13)
        closed = chi_square_poisson_products(a, b)
        enum = chi_square_enumerated(poisson_product_dist(a), poisson_product_dist(b))
        assert math.isfinite(enum.value)
        # Rounding: exp(60.5) carries a few ulps of its argument's error.
        assert abs(closed - enum.value) <= enum.error_bar + 1e-13 * closed
        assert enum.error_bar <= 1e3 * abs(closed - enum.value) + 1e-12

    @pytest.mark.parametrize("a, b", [([6.0], [0.5]), ([6.0, 1.0], [0.5, 1.0]), ([4.0, 3.0], [0.5, 1.0])])
    def test_large_shift_matches_the_closed_form(self, a, b):
        """``q^2/p`` of Poisson(6) against Poisson(0.5) sits near Poisson(72),
        far past both laws' own grids: the sum once read 3.38e18 for the
        closed form's 1.88e26, with a bar of 1.88e26."""
        closed = chi_square_poisson_products(a, b)
        enum = chi_square_enumerated(poisson_product_dist(a), poisson_product_dist(b))
        assert abs(enum.value - closed) <= 1e-9 * closed
        assert abs(enum.value - closed) <= enum.error_bar + 1e-13 * closed
        assert enum.error_bar <= 1e-9 * closed

    def test_widening_stops_where_the_null_pmf_underflows(self):
        """Poisson(50) against Poisson(5): past 243 atoms Poisson(5)'s pmf falls
        below the smallest normal float, so the grid stops there and the bar
        keeps the rest."""
        alt, null = poisson_product_dist([50.0]), poisson_product_dist([5.0])
        shape = divergence._chi_square_grid(alt, null)
        assert max(alt.shape[0], null.shape[0]) < shape[0] < 500
        assert scipy.stats.poisson.pmf(shape[0] - 1, 5.0) > 0.0
        closed = chi_square_poisson_products([50.0], [5.0])
        enum = chi_square_enumerated(alt, null)
        assert enum.value < closed <= enum.value + enum.error_bar

    def test_unharmonized_grids_are_finite(self):
        """Poisson(3) x Poisson(1) needs more atoms than the null's own grid holds."""
        enum = chi_square_enumerated(poisson_product_dist([3.0, 1.0]), poisson_product_dist([1.0, 1.0]))
        assert math.isfinite(enum.value)
        assert abs(enum.value - math.expm1(4.0)) <= enum.error_bar
        assert math.expm1(4.0) == pytest.approx(53.598, abs=5e-4)

    def test_mixture_chi_square_matches_closed_form(self):
        """``chi2(sum_c w_c Q_c || P) + 1 = sum_{c,c'} w_c w_c' prod_j M_j``."""
        rows = np.array([[2.0, 1.0], [1.0, 2.5], [0.5, 1.5]])
        weights = np.array([0.5, 0.3, 0.2])
        b = np.array([1.0, 1.2])
        d = rows - b
        closed = weights @ np.exp((d[:, None, :] * d[None, :, :] / b).sum(axis=2)) @ weights - 1.0
        enum = chi_square_enumerated(poisson_mixture(weights, rows), poisson_product_dist(b))
        assert abs(closed - enum.value) <= enum.error_bar + 1e-12

    def test_mixture_null_is_refused(self):
        mix = poisson_mixture([0.5, 0.5], [[1.0], [2.0]])
        with pytest.raises(ValueError, match="product"):
            chi_square_enumerated(poisson_product_dist([1.0]), mix)

    def test_zero_null_rate_is_infinite(self):
        enum = chi_square_enumerated(poisson_product_dist([1.0]), poisson_product_dist([0.0]))
        assert enum.value == math.inf

    def test_zero_rate_handling(self):
        assert chi_square_poisson_products([0.0, 1.0], [0.0, 1.0]) == 0.0
        with pytest.raises(ZeroDivisionError):
            chi_square_poisson_products([1.0], [0.0])


class TestHypergeometricOverlap:
    def test_matches_scipy(self):
        for pool, m in [(10, 3), (30, 5), (100, 7)]:
            log_pmf = hypergeometric_overlap_log_pmf(pool, m)
            ks = np.arange(m + 1)
            ref = scipy.stats.hypergeom.pmf(ks, pool, m, m)
            np.testing.assert_allclose(np.exp(log_pmf), ref, rtol=1e-10)

    def test_subset_pair_enumeration_oracle(self):
        """Brute-force enumeration of all subset pairs (pool=4, m=2)."""
        pool, m = 4, 2
        subsets = list(itertools.combinations(range(pool), m))
        counts = {}
        for a in subsets:
            for b in subsets:
                k = len(set(a) & set(b))
                counts[k] = counts.get(k, 0) + 1
        total = len(subsets) ** 2
        pmf = np.exp(hypergeometric_overlap_log_pmf(pool, m))
        for k in range(m + 1):
            assert pmf[k] == pytest.approx(counts.get(k, 0) / total, rel=1e-12)

    def test_m_one_pool_two(self):
        pmf = np.exp(hypergeometric_overlap_log_pmf(2, 1))
        np.testing.assert_allclose(pmf, [0.5, 0.5])

    def test_large_pool_no_overflow(self):
        log_pmf = hypergeometric_overlap_log_pmf(10**6, 5)
        assert np.isfinite(np.exp(log_pmf)).all()
        assert np.exp(log_pmf).sum() == pytest.approx(1.0, rel=1e-14)

    @pytest.mark.parametrize("pool", [10, 10**6, 10**9, 10**12, 10**15])
    def test_matches_mpmath_at_any_pool(self, pool):
        """Each log-probability against 40-digit mpmath binomials, to 1e-14 of
        ``max(1, |log P|)``; ``-inf`` exactly where ``C(pool - m, m - k) = 0``;
        and the pmf sums to 1."""
        for m in (1, 2, 5, 7, 30):
            if m > pool:
                continue
            log_pmf = hypergeometric_overlap_log_pmf(pool, m)
            with mpmath.workdps(40):
                for k in range(m + 1):
                    if pool - m < m - k:
                        assert log_pmf[k] == -np.inf
                        continue
                    ways = mpmath.binomial(m, k) * mpmath.binomial(pool - m, m - k) / mpmath.binomial(pool, m)
                    want = float(mpmath.log(ways))
                    assert abs(log_pmf[k] - want) <= 1e-14 * max(1.0, abs(want)), (m, k)
            assert np.exp(log_pmf).sum() == pytest.approx(1.0, rel=1e-14)

    @pytest.mark.parametrize("j_star", [10**12, 10**15])
    def test_overlap_mgf_at_least_one_at_large_pools(self, j_star):
        """An MGF of a nonnegative overlap at ``t > 0`` is at least 1 and, at
        these pools, within 1e-15 of its binomial bound."""
        res = multinomial_conditional_chisq_bound(100, 30, 1, j_star, 2)
        assert res.mgf >= 1.0
        assert res.mgf == pytest.approx(res.mgf_binomial_bound, rel=1e-15)


class TestPoissonConditionalChisqBound:
    """The m = 0 (Poisson-prior) case of the conditional chi-square bound."""

    def test_zero_spike_at_most_one(self):
        """c=0: the mixture term is at most 1, so the bound is at most 1."""
        res = multinomial_conditional_chisq_bound(1.0, 3.0, 0.0, 7, 0)
        assert res.mixture_term == pytest.approx(scipy.stats.poisson.cdf(4, 1.0), rel=1e-12)
        assert res.mixture_term <= 1.0
        assert res.value <= 1.0

    def test_degenerate_mixture_weight(self):
        """j*=1 keeps only the diagonal term."""
        mu, psi, c = 2.0, 4.0, 0.5
        res = multinomial_conditional_chisq_bound(mu, psi, c, 1, 0)
        rate = (mu + c * psi) ** 2 / mu
        expected = math.exp((c * psi) ** 2 / mu) * scipy.stats.poisson.cdf(
            math.floor(mu + psi), rate
        )
        assert res.mixture_term == pytest.approx(expected, rel=1e-12)
        assert res.value == pytest.approx(max(1.0, expected), rel=1e-12)


class TestMultinomialConditionalChisqBound:
    def test_m_zero_convention(self):
        res = multinomial_conditional_chisq_bound(1.0, 0.0, 0.2, 1, 0)
        assert res.mgf == 1.0

    def test_exact_mgf_below_binomial_moment_bound(self):
        """Hypergeometric MGF <= exp(m^2/(j*-1) (e^t - 1)) on a parameter grid."""
        for j_star in range(2, 31):
            for m in range(1, min(5, j_star - 1) + 1):
                for t in (0.05, 0.5, 2.0):
                    # Choose (c, psi, mu) realizing exponent t = c^2 psi^2/(m^2 mu).
                    res = multinomial_conditional_chisq_bound(
                        1.0, m * math.sqrt(t), 1.0, j_star, m
                    )
                    assert res.mgf_binomial_bound is not None
                    assert res.mgf <= res.mgf_binomial_bound * (1 + 1e-12)

    def test_value_combines_mgf_and_bracket(self):
        mu, psi, c, j_star, m = 1.0, 5.0, 0.4, 10, 2
        res = multinomial_conditional_chisq_bound(mu, psi, c, j_star, m)
        bracket = 1.0 + max(0.0, res.mixture_term - 1.0) / (j_star - m)
        assert res.value == pytest.approx(res.mgf * bracket, rel=1e-12)

    def test_m_bound_validation(self):
        with pytest.raises(ValueError):
            multinomial_conditional_chisq_bound(1.0, 1.0, 0.1, 3, 3)


class TestSpikeMixtureTv:
    def test_matches_dense_enumeration(self):
        """The sufficient-statistic reduction agrees with brute-force TV."""
        for nu, eps, k in [(1.0, 1.3, 3), (0.7, 2.4, 4), (2.0, 0.9, 2), (0.4, 3.0, 5)]:
            weights = [1.0 / k] * k
            rows = [[nu + (eps if j == i else 0.0) for j in range(k)] for i in range(k)]
            dense = tv_distance(poisson_product_dist([nu] * k), poisson_mixture(weights, rows))
            fast = tv_poisson_uniform_spike(nu, eps, k)
            assert fast.value == pytest.approx(dense.value, abs=dense.error_bar + 1e-10)
            assert fast.error_bar == 0.0

    def test_zero_spike(self):
        assert tv_poisson_uniform_spike(1.0, 0.0, 5).value == 0.0

    @pytest.mark.parametrize(
        "nu, eps_grid",
        [(0.5, (0.05, 1.0, 4.0)), (1.0, (0.3, 1.0, 4.0)), (4.0, (1.2, 4.0, 16.0))],
    )
    @pytest.mark.parametrize("k", [1, 2, 12, 70])
    def test_matches_the_per_level_dp_bit_for_bit(self, monkeypatch, nu, eps_grid, k):
        """Stacked level tables change no bit, from ``x_max = 0`` up to 15.

        At ``nu = 4`` and ``k = 70`` the DP fits the state cap at no spike, so
        there both sides must raise; a cap of 2e5 keeps that quick.
        """
        if nu == 4.0 and k == 70:
            monkeypatch.setattr(divergence, "_MAX_STATES", 200_000)
            for eps in eps_grid:
                with pytest.raises(AtomBudgetError):
                    _spike_tv_per_level(nu, eps, k)
                with pytest.raises(AtomBudgetError):
                    tv_poisson_uniform_spike(nu, eps, k)
            return
        for eps in eps_grid:
            got = tv_poisson_uniform_spike(nu, eps, k)
            assert got.value == _spike_tv_per_level(nu, eps, k)
            assert got.error_bar == 0.0

    def test_designs_reach_every_small_x_max(self):
        """The bit-for-bit grid above covers ``x_max`` 0 and 1, where the DP loop never runs."""
        x_max = {
            math.floor(math.log(k * math.expm1(eps) + 1.0) / math.log1p(eps / nu))
            for nu, eps, k in [(0.5, 0.05, 1), (0.5, 1.0, 1), (0.5, 4.0, 1), (1.0, 0.3, 1), (0.5, 0.05, 70)]
        }
        assert x_max == {0, 1, 15}

    def test_memory_of_the_stacked_tables(self):
        """At k = 200 the DP's peak stays under 10 MB: its 5 level tables hold 1.6 MB."""
        tracemalloc.start()
        try:
            tv_poisson_uniform_spike(1.0, 4.0, 200)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 10 * 2**20

    def test_monotone_in_spike(self):
        vals = [tv_poisson_uniform_spike(1.0, eps, 6).value for eps in (0.5, 1.0, 2.0, 4.0)]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_negative_tv_is_a_numeric_failure(self, monkeypatch):
        """A spike side that outweighs the null raises, also under ``python -O``."""
        pmf = divergence._poisson_pmf
        monkeypatch.setattr(
            divergence, "_poisson_pmf", lambda ks, lam: pmf(ks, lam) * (2.0 if lam > 1.0 else 1.0)
        )
        with pytest.raises(FloatingPointError, match="negative"):
            tv_poisson_uniform_spike(1.0, 1.0, 3)

    def test_matches_level_count_enumeration(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            nu = float(rng.uniform(0.3, 5.0))
            eps = float(rng.uniform(0.25, 1.0)) * (nu + 1.0)
            # The enumeration grows exponentially in k; k <= 40/nu keeps it under a second.
            k = int(rng.integers(1, min(20, int(40.0 / nu)) + 1))
            got = tv_poisson_uniform_spike(nu, eps, k)
            assert got.value == pytest.approx(_tv_by_level_counts(nu, eps, k), abs=1e-12)
            assert got.error_bar == 0.0

    @pytest.mark.parametrize(
        "nu, eps, k, x_max",
        [
            (1.0, 3.0, 1, 2),  # no other coordinates
            (2.0, 0.9, 2, 3),
            (0.3, 0.1, 2, 0),  # any count above 0 rejects on its own
            (1.0, 1.3, 1, 1),  # x_max <= 1: the DP enumerates no level
            (0.3, 4.0, 2, 1),
        ],
    )
    def test_edge_designs(self, nu, eps, k, x_max):
        assert math.floor(math.log(k * math.expm1(eps) + 1.0) / math.log1p(eps / nu)) == x_max
        got = tv_poisson_uniform_spike(nu, eps, k).value
        assert got > 0.0
        assert got == pytest.approx(_tv_by_level_counts(nu, eps, k), abs=1e-12)

    def test_nan_tv_is_a_numeric_failure(self, monkeypatch):
        pmf = divergence._poisson_pmf
        monkeypatch.setattr(
            divergence, "_poisson_pmf", lambda ks, lam: pmf(ks, lam) * (np.nan if lam > 1.0 else 1.0)
        )
        with pytest.raises(FloatingPointError, match="NaN"):
            tv_poisson_uniform_spike(1.0, 1.0, 3)

    def test_underflowing_low_levels(self):
        """At ``nu = 800`` the pmf underflows at counts 0 and 1, so ``P{X = x | X <= x}`` is 0/0.

        Its limit is 1.  The reference is the dense two-coordinate TV.
        """
        assert divergence._poisson_pmf(np.arange(2), 800.0).sum() == 0.0
        xs = np.arange(1500)
        p = scipy.stats.poisson.pmf(xs, 800.0)
        q = scipy.stats.poisson.pmf(xs, 810.0)
        want = 0.5 * np.abs(np.outer(p, p) - 0.5 * (np.outer(q, p) + np.outer(p, q))).sum()
        assert tv_poisson_uniform_spike(800.0, 10.0, 2).value == pytest.approx(want, abs=1e-12)

    def test_equal_sums_merge(self, monkeypatch):
        """``z`` rounds to 1 and ``x_max`` is about 1000, so every path at a level has sum ``s``
        equal to its count; merged, the DP never holds more than 55 states (it held millions
        path by path).  The TV of a 1e-15 spike is 0 to double precision.
        """
        assert 1.0 + 1e-15 / 100.0 == 1.0
        monkeypatch.setattr(divergence, "_MAX_STATES", 100)
        got = tv_poisson_uniform_spike(100.0, 1e-15, 10)
        assert got.value == pytest.approx(0.0, abs=1e-12)

    def test_state_budget(self, monkeypatch):
        monkeypatch.setattr(divergence, "_MAX_STATES", 10)
        with pytest.raises(AtomBudgetError):
            tv_poisson_uniform_spike(1.0, 3.0, 30)

    @pytest.mark.parametrize(
        "k, eps, want",
        [
            (70, 3.589786155242682, "0.375006341431009234730338922032"),
            (100, 3.724068023778403, "0.359957831488611513459861186665"),
        ],
    )
    def test_matches_mpmath_at_large_k(self, k, eps, want):
        """30-digit references: ``_tv_by_level_counts`` run in mpmath at 40 digits.

        The designs are the sharp-constant spikes at ``nu = 1``, ``xi = 0.5``
        and ``p = k``; the mpmath sum takes about 5 s at k = 70 and 20 s at
        k = 100, so the values are inlined.  The DP is within 5e-16 of both;
        ``1e-14`` leaves room for a BLAS that sums the states in another order.
        """
        assert tv_poisson_uniform_spike(1.0, eps, k).value == pytest.approx(float(want), abs=1e-14)


class TestSpikeRiskCertificate:
    def test_certificate_is_valid_upper_bound_on_tv(self):
        rng = np.random.default_rng(6)
        for _ in range(25):
            nu = float(rng.uniform(0.3, 3.0))
            eps = float(rng.uniform(0.2, 4.0))
            k = int(rng.integers(2, 10))
            cap = nu + float(rng.uniform(1.0, 3.0)) * eps
            cert = certified_spike_risk_bound(nu, eps, cap, k)
            exact = tv_poisson_uniform_spike(nu, eps, k)
            assert cert.tv_upper_bound >= exact.value - 1e-12

    def test_certificate_bounds_the_exact_tv_where_the_cdf_underflows(self, monkeypatch):
        """Spikes up to 60 nu, where ``P{Poisson((nu+eps)^2/nu) <= cap}`` underflows.

        With ``log pdtr`` the diagonal term read 0 there, and the certificate
        once gave a TV bound of 1.2e-6 at (1, 30, 61, 10), where the exact TV is
        0.999995.  The DP runs wherever it fits a state cap of 3e5 (a tighter
        cap than the module's, to keep the test short); where ``e^eps``
        overflows it has no answer and only the certificate runs.
        """
        monkeypatch.setattr(divergence, "_MAX_STATES", 300_000)
        checked = 0
        for nu, ratio, k in itertools.product((1.0, 4.0, 50.0), (0.5, 1, 2, 5, 10, 20, 30, 45, 60), (1, 2, 10)):
            eps = ratio * nu
            certs = [certified_spike_risk_bound(nu, eps, nu + g * eps, k) for g in (0.5, 1.0, 2.0, 3.0)]
            assert all(0.0 <= c.tv_upper_bound <= 1.0 for c in certs)
            try:
                exact = tv_poisson_uniform_spike(nu, eps, k).value
            except (AtomBudgetError, OverflowError):
                continue
            checked += 1
            for cert in certs:
                assert cert.tv_upper_bound >= exact - 1e-12
        assert checked >= 50
        assert tv_poisson_uniform_spike(1.0, 30.0, 10).value > 0.9999

    @pytest.mark.parametrize(
        "nu, eps, cap, k",
        [(50.0, 250.0, 800.0, 10), (50.0, 250.0, 800.0, 1), (1.0, 3.0, -1.0, 4)],
        ids=["overflowing-ratio", "overflowing-ratio-k1", "empty-event"],
    )
    def test_non_finite_chisq_gives_the_trivial_bound(self, nu, eps, cap, k):
        """``math.exp`` once raised OverflowError on the first; a NaN chi-square clipped to 0 on the third."""
        cert = certified_spike_risk_bound(nu, eps, cap, k)
        assert not math.isfinite(cert.conditional_chisq)
        assert cert.risk_lower_bound == 0.0
        assert cert.tv_upper_bound == 1.0

    def test_event_probabilities(self):
        cert = certified_spike_risk_bound(1.0, 2.0, 6.0, 4)
        f = scipy.stats.poisson.cdf(6, 1.0)
        assert cert.p_null_event == pytest.approx(f**4, rel=1e-12)


class TestExactBayesRisk:
    def test_mixture_equal_null(self):
        null = poisson_product_dist([1.0, 1.0])
        mix = poisson_mixture([1.0], [[1.0, 1.0]])
        tv = tv_distance(null, mix)
        assert 1 - tv.value == pytest.approx(1.0, abs=1e-12)

    def test_two_point_risk_at_constant_separation(self):
        """Prop-style two-point instance: risk >= eta for c = (1-eta)^2."""
        eta = 0.5
        c = (1.0 - eta) ** 2
        null = poisson_product_dist([1.0, 1.0])
        mix = poisson_mixture([1.0], [[1.0 + c, 1.0]])
        tv = tv_distance(null, mix)
        assert 1 - tv.value - tv.error_bar >= eta


class TestConditionalChisqIdentity:
    def test_certificate_chisq_matches_direct_enumeration(self):
        """The certificate's conditional chi-square is an exact identity.

        Both laws are conditioned on the capped-max event, whose support is
        finite, so the chi-square can be enumerated with no truncation at
        all; the closed form built from one-dimensional Poisson CDFs must
        agree to machine precision.
        """
        from itertools import product as iter_product

        for nu, eps, k, cap in [(1.0, 1.5, 3, 4), (0.6, 2.0, 4, 5), (2.5, 1.0, 2, 7)]:
            grid = list(iter_product(range(cap + 1), repeat=k))
            p0 = np.array([np.prod(scipy.stats.poisson.pmf(x, nu)) for x in grid])
            q_mix = np.zeros(len(grid))
            for j in range(k):
                lam = np.full(k, nu)
                lam[j] += eps
                q_mix += np.array(
                    [np.prod(scipy.stats.poisson.pmf(x, lam)) for x in grid]
                ) / k
            p0_cond = p0 / p0.sum()
            q_cond = q_mix / q_mix.sum()
            chi2_enum = float(np.sum((q_cond - p0_cond) ** 2 / p0_cond))
            cert = certified_spike_risk_bound(nu, eps, cap, k)
            assert cert.conditional_chisq == pytest.approx(chi2_enum, rel=1e-12)
