"""Tests for the exact divergence machinery and the bound evaluators."""

from __future__ import annotations

import itertools
import math
import warnings

import numpy as np
import pytest
import scipy.stats

import supgof.divergence as divergence
from supgof.divergence import (
    AtomBudgetError,
    FiniteProductDist,
    PmfTable,
    certified_spike_risk_bound,
    chi_square_enumerated,
    chi_square_poisson_products,
    condition_on_max_event,
    exact_bayes_risk,
    hellinger_distance,
    hypergeometric_overlap_log_pmf,
    multinomial_conditional_chisq_bound,
    poisson_conditional_chisq_bound,
    poisson_hellinger_closed_form,
    poisson_mixture,
    poisson_product_dist,
    truncated_poisson_pmf,
    tv_distance,
    tv_poisson_uniform_spike,
)


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
                assert divergence._poisson_logcdf(k, lam) == scipy.stats.poisson.logcdf(k, lam)

    def test_ppf_at_level_one_is_a_numeric_failure(self):
        """``1 - mass_tol`` rounds to 1 below about 5.5e-17: no finite table exists."""
        with pytest.raises(OverflowError):
            truncated_poisson_pmf(1.0, 1e-17)

    def test_logcdf_minus_inf_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert divergence._poisson_logcdf(0, 1e4) == -math.inf
            assert divergence._poisson_logcdf(-1, 1.0) == -math.inf
            # The same -inf inside the diagonal term of the conditional bounds.
            assert divergence._diagonal_mixture_term(1.0, 1.0, 1e3) == 0.0
        assert scipy.stats.poisson.logcdf(0, 1e4) == -math.inf

    @pytest.mark.parametrize("p", [0.0, 1e-12, 0.01, 0.37, 0.5, 0.99, 1.0 - 1e-12, 1.0])
    def test_binomial_pmf_matches_scipy_stats(self, p):
        rows = divergence._binom_rows(101, p)
        for r in (0, 1, 2, 7, 40, 100):
            want = scipy.stats.binom.pmf(np.arange(r + 1), r, p)
            np.testing.assert_allclose(rows[r, : r + 1], want, rtol=1e-12, atol=1e-300)
            assert not rows[r, r + 1 :].any()

    def test_binomial_degenerate_rows(self):
        """Exact zeros off the atom, as the spike DP needs at ``p_cond = 1``."""
        assert divergence._binom_rows(1, 0.3).tolist() == [[1.0]]
        assert divergence._binom_rows(6, 1.0)[5].tolist() == [0.0] * 5 + [1.0]
        assert divergence._binom_rows(6, 0.0)[5].tolist() == [1.0] + [0.0] * 5


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

    def test_min_len_padding(self):
        table = truncated_poisson_pmf(1.0, 1e-6, min_len=40)
        assert len(table) == 40


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

    def test_tv_below_hellinger_and_half_sqrt_chisq(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            a = rng.uniform(0.2, 4.0, size=2)
            b = rng.uniform(0.2, 4.0, size=2)
            pa, pb = poisson_product_dist(a), poisson_product_dist(b)
            tv = tv_distance(pa, pb).value
            assert tv <= hellinger_distance(pa, pb).value + 1e-10
            assert tv <= 0.5 * math.sqrt(chi_square_poisson_products(a, b)) + 1e-10

    def test_atom_budget(self):
        big = FiniteProductDist(tuple(PmfTable(np.full(500, 1 / 500), 0.0) for _ in range(3)))
        with pytest.raises(AtomBudgetError):
            tv_distance(big, big)


class TestChiSquare:
    def test_equal_rates_zero(self):
        assert chi_square_poisson_products([1.0, 2.0], [1.0, 2.0]) == 0.0

    def test_single_unit_shift(self):
        assert chi_square_poisson_products([2.0], [1.0]) == pytest.approx(math.e - 1.0, rel=1e-14)

    def test_matches_enumeration(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            p = int(rng.integers(1, 4))
            b = rng.uniform(0.3, 5.0, p)
            a = b + rng.uniform(-0.2, 0.5, p)
            a = np.clip(a, 0.01, None)
            closed = chi_square_poisson_products(a, b)
            qd = poisson_product_dist(a, 1e-13)
            pd = poisson_product_dist(b, 1e-13)
            lengths = [max(x, y) for x, y in zip(qd.shape, pd.shape)]
            qd = poisson_product_dist(a, 1e-13, lengths)
            pd = poisson_product_dist(b, 1e-13, lengths)
            enum = chi_square_enumerated(qd, pd)
            assert closed == pytest.approx(enum.value, rel=1e-8, abs=enum.error_bar
                                           + 1e-10)

    def test_zero_rate_handling(self):
        assert chi_square_poisson_products([0.0, 1.0], [0.0, 1.0]) == 0.0
        with pytest.raises(ZeroDivisionError):
            chi_square_poisson_products([1.0], [0.0])


class TestHellinger:
    def test_identical_zero(self):
        p = poisson_product_dist([1.0])
        assert hellinger_distance(p, p).value == 0.0

    def test_bounded_by_sqrt_two(self):
        p = poisson_product_dist([0.01])
        q = poisson_product_dist([30.0])
        res = hellinger_distance(p, q)
        assert res.value <= math.sqrt(2.0) + 1e-12

    def test_poisson_closed_form(self):
        """H(Poi(mu), Poi(mu+delta)) matches the exponential closed form."""
        for mu, delta in [(1.0, 0.5), (2.0, 2.0), (0.3, 0.1)]:
            p = poisson_product_dist([mu], 1e-14)
            q = poisson_product_dist([mu + delta], 1e-14)
            res = hellinger_distance(p, q)
            assert res.value == pytest.approx(
                poisson_hellinger_closed_form(mu, delta), abs=1e-7
            )


class TestConditionOnMaxEvent:
    def test_infinite_cap_is_identity(self):
        dist = poisson_product_dist([1.0, 2.0])
        cond, p_event = condition_on_max_event(dist, 0.0, math.inf)
        assert p_event == 1.0
        assert tv_distance(dist, cond).value == 0.0

    def test_event_probability_is_product_of_cdfs(self):
        dist = poisson_product_dist([1.0, 3.0], 1e-13)
        _cond, p_event = condition_on_max_event(dist, 1.0, 3.0)
        expected = scipy.stats.poisson.cdf(4, 1.0) * scipy.stats.poisson.cdf(4, 3.0)
        assert p_event == pytest.approx(expected, rel=1e-10)

    def test_conditional_tv_bound(self):
        """TV(P, P|E) <= 2 P(E^c) on capped-max events."""
        rng = np.random.default_rng(4)
        for _ in range(20):
            lams = rng.uniform(0.3, 4.0, size=int(rng.integers(1, 4)))
            dist = poisson_product_dist(lams, 1e-13)
            cap = float(rng.uniform(1.0, 8.0))
            cond, p_event = condition_on_max_event(dist, float(lams.max()), cap)
            tv = tv_distance(dist, cond)
            assert tv.value <= 2.0 * (1.0 - p_event) + tv.error_bar + 1e-10

    def test_empty_event_raises(self):
        dist = poisson_product_dist([1.0])
        with pytest.raises(ValueError):
            condition_on_max_event(dist, -5.0, 1.0)


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
        # gammaln at arguments ~1e6 leaves ~1e-9 relative precision.
        assert np.exp(log_pmf).sum() == pytest.approx(1.0, rel=1e-8)


class TestPoissonConditionalChisqBound:
    def test_zero_spike_at_most_one(self):
        """c=0: the mixture term is at most 1, so the bound is at most 1."""
        res = poisson_conditional_chisq_bound(1.0, 3.0, 0.0, 7)
        expected = (1 - 1 / 7) + (1 / 7) * scipy.stats.poisson.cdf(4, 1.0)
        assert res.value == pytest.approx(expected, rel=1e-12)
        assert res.value <= 1.0

    def test_degenerate_mixture_weight(self):
        """j*=1 keeps only the diagonal term."""
        mu, psi, c = 2.0, 4.0, 0.5
        res = poisson_conditional_chisq_bound(mu, psi, c, 1)
        rate = (mu + c * psi) ** 2 / mu
        expected = math.exp((c * psi) ** 2 / mu) * scipy.stats.poisson.cdf(
            math.floor(mu + psi), rate
        )
        assert res.value == pytest.approx(expected, rel=1e-12)

    def test_bennett_cancellation_dominates_exact(self):
        """The cancelled bound upper-bounds the exact term when c^2 psi > mu."""
        rng = np.random.default_rng(5)
        checked = 0
        for _ in range(200):
            mu = float(rng.uniform(0.2, 3.0))
            c = float(rng.uniform(0.3, 0.9))
            psi = float(rng.uniform(1.0, 40.0))
            if c * c * psi <= mu:
                continue
            res = poisson_conditional_chisq_bound(mu, psi, c, 5)
            assert res.bennett_bound is not None
            assert res.mixture_term <= res.bennett_bound * (1 + 1e-12)
            checked += 1
        assert checked > 50

    def test_bennett_bound_absent_below_threshold(self):
        res = poisson_conditional_chisq_bound(5.0, 1.0, 0.1, 3)
        assert res.bennett_bound is None


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
            mix = poisson_mixture(weights, rows, 1e-12)
            null = poisson_product_dist([nu] * k, 1e-12, mix.shape)
            dense = tv_distance(null, mix)
            fast = tv_poisson_uniform_spike(nu, eps, k)
            assert fast.value == pytest.approx(dense.value, abs=dense.error_bar + 1e-10)
            assert fast.error_bar == 0.0

    def test_zero_spike(self):
        assert tv_poisson_uniform_spike(1.0, 0.0, 5).value == 0.0

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

    def test_equal_sums_merge(self):
        """``z`` rounds to 1 and ``x_max`` is about 1000, so every path at a level has sum ``s``
        equal to its count; merged, the DP never holds more than 55 states (it held millions
        path by path).  The TV of a 1e-15 spike is 0 to double precision.
        """
        assert 1.0 + 1e-15 / 100.0 == 1.0
        got = tv_poisson_uniform_spike(100.0, 1e-15, 10, max_states=100)
        assert got.value == pytest.approx(0.0, abs=1e-12)

    def test_state_budget(self):
        with pytest.raises(AtomBudgetError):
            tv_poisson_uniform_spike(1.0, 3.0, 30, max_states=10)

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

    def test_event_probabilities(self):
        cert = certified_spike_risk_bound(1.0, 2.0, 6.0, 4)
        f = scipy.stats.poisson.cdf(6, 1.0)
        assert cert.p_null_event == pytest.approx(f**4, rel=1e-12)


class TestExactBayesRisk:
    def test_mixture_equal_null(self):
        null = poisson_product_dist([1.0, 1.0])
        mix = poisson_mixture([1.0], [[1.0, 1.0]])
        res = exact_bayes_risk(null, mix)
        assert res.value == pytest.approx(1.0, abs=1e-12)

    def test_two_point_risk_at_constant_separation(self):
        """Prop-style two-point instance: risk >= eta for c = (1-eta)^2."""
        eta = 0.5
        c = (1.0 - eta) ** 2
        null = poisson_product_dist([1.0, 1.0], 1e-12)
        mix = poisson_mixture([1.0], [[1.0 + c, 1.0]], 1e-12)
        lengths = [max(a, b) for a, b in zip(null.shape, mix.shape)]
        null = poisson_product_dist([1.0, 1.0], 1e-12, lengths)
        res = exact_bayes_risk(null, mix)
        assert res.value - res.error_bar >= eta


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
