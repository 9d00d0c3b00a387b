"""Tests for the exact risk routes and the sweep engine."""

from __future__ import annotations

import itertools
import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from scipy.special import gammaln, logsumexp, pdtrc
from scipy.stats import poisson

from supgof import risk as risk_module
from supgof.maxtest import AcceptanceBox, MultinomialTestConfig, PoissonTestConfig
from supgof.model import RateVector, SimplexVector
from supgof.priors import (
    MultinomialSimplexPrior,
    PoissonSpikePrior,
    certified_simplex_c,
    draw_multinomial_simplex_prior,
)
from supgof.rates import (
    multinomial_sharp_constant_epsilons,
    poisson_rate,
    sharp_constant_epsilon,
    sharp_constant_epsilons,
)
from supgof.risk import (
    _TRIM,
    _Poly,
    _cell_rows,
    _coefficient,
    _fixed_n_accept,
    _log_mean_subset_products,
    _pool_tree,
    _power,
    _tree_product,
    estimate_multinomial_risk,
    estimate_poisson_risk,
    sweep_multinomial_sharp_constant,
    sweep_sharp_constant,
)
from supgof.special import AtomBudgetError, h_inverse


class TestPoissonRisk:
    def test_determinism(self):
        mu = RateVector(np.ones(20))
        alt = mu.rates + np.eye(20)[0] * 5
        r1 = estimate_poisson_risk(mu, alt, 0.2, 500, 3)
        r2 = estimate_poisson_risk(mu, alt, 0.2, 500, 3)
        assert r1 == r2

    def test_null_alternative_total_near_one(self):
        """Testing the null against itself: Type I + Type II ~ 1."""
        mu = RateVector(np.ones(30))
        r = estimate_poisson_risk(mu, mu, 0.2, 4_000, 5)
        assert abs(r.total - 1.0) <= 4 * r.ci_halfwidth + 0.01

    def test_ci_scales_with_trials(self):
        mu = RateVector(np.ones(10))
        alt = mu.rates.copy()
        alt[0] += 4.0
        r1 = estimate_poisson_risk(mu, alt, 0.2, 1_000, 9)
        r2 = estimate_poisson_risk(mu, alt, 0.2, 4_000, 9)
        assert r2.ci_halfwidth <= r1.ci_halfwidth / 2 * 1.5
        assert r2.ci_halfwidth >= r1.ci_halfwidth / 2 / 1.5

    def test_monotone_in_separation(self):
        """Risk is nonincreasing in the spike magnitude, within CI."""
        for mu in (
            RateVector(np.ones(20)),
            RateVector(np.linspace(5.0, 1.0, 20)),
            RateVector(np.full(20, 0.3)),
        ):
            totals = []
            cis = []
            for bump in (1.0, 4.0, 10.0):
                alt = mu.rates.copy()
                alt[0] += bump
                r = estimate_poisson_risk(mu, alt, 0.2, 2_000, 13)
                totals.append(r.total)
                cis.append(r.ci_halfwidth)
            assert totals[1] <= totals[0] + cis[0] + cis[1]
            assert totals[2] <= totals[1] + cis[1] + cis[2]

    def test_prior_alternative_accepted(self):
        mu = RateVector(np.ones(15))
        prior = PoissonSpikePrior.build(mu, 2.0)
        r = estimate_poisson_risk(mu, prior, 0.2, 1_000, 1)
        assert 0.0 <= r.total <= 2.0

    def test_trial_floor(self):
        with pytest.raises(ValueError):
            estimate_poisson_risk(RateVector([1.0]), RateVector([2.0]), 0.2, 50, 0)


class TestMultinomialRisk:
    def test_determinism_and_poissonized_mode(self):
        q0 = SimplexVector(np.full(10, 0.1))
        alt = q0.probs.copy()
        alt[1] += 0.05
        alt[2] -= 0.05
        r1 = estimate_multinomial_risk(q0, 200, alt, 0.2, 500, 3)
        r2 = estimate_multinomial_risk(q0, 200, alt, 0.2, 500, 3)
        assert r1 == r2
        rp = estimate_multinomial_risk(q0, 200.5, alt, 0.2, 500, 3, poissonized=True)
        assert 0.0 <= rp.total <= 2.0

    def test_null_alternative_total_near_one(self):
        q0 = SimplexVector(np.full(10, 0.1))
        r = estimate_multinomial_risk(q0, 300, q0, 0.2, 4_000, 7)
        assert abs(r.total - 1.0) <= 4 * r.ci_halfwidth + 0.01

    def test_exact_n_required_without_poissonization(self):
        q0 = SimplexVector([0.5, 0.5])
        with pytest.raises(ValueError):
            estimate_multinomial_risk(q0, 10.5, q0, 0.2, 200, 0)

    def test_prior_alternative(self):
        q0 = SimplexVector(np.full(40, 1.0 / 40))
        prior = MultinomialSimplexPrior.build(q0, 60.0, certified_simplex_c(q0, 60.0))
        r = estimate_multinomial_risk(q0, 60, prior, 0.2, 500, 11)
        assert 0.0 <= r.total <= 2.0

    def test_prior_removing_its_floor_cell_samples(self):
        """Removal at the floor cell leaves rounding-level negative cells; both exact routes clip them."""
        q0, n = SimplexVector(np.full(40, 1.0 / 40)), 60.0
        base = MultinomialSimplexPrior.build(q0, n, certified_simplex_c(q0, n))
        floor = float(q0.probs[base.j_star])
        prior = MultinomialSimplexPrior.build(q0, n, (floor + 5e-16) * n * base.m / base.psi)
        assert draw_multinomial_simplex_prior(prior, 0, trials=10).min() < 0.0
        for poissonized in (False, True):
            r = estimate_multinomial_risk(q0, 60, prior, 0.2, 200, 12, poissonized=poissonized)
            assert 0.0 <= r.total <= 2.0


class TestSweeps:
    def test_poisson_sweep_monotone_in_xi(self):
        """Larger separation with the same threshold can only help."""
        mu = RateVector(np.ones(300))
        res = sweep_sharp_constant(mu, [0.5, 1.0, 2.0], math.log(300), 2_000, 17)
        totals = [r.total for r in res.risks]
        cis = [r.ci_halfwidth for r in res.risks]
        assert totals[1] <= totals[0] + cis[0] + cis[1]
        assert totals[2] <= totals[1] + cis[1] + cis[2]
        assert res.regime == "subpoissonian"

    def test_poisson_sweep_rows_schema(self):
        mu = RateVector(np.full(50, 2.0))
        res = sweep_sharp_constant(mu, [0.5, 2.0], math.log(50), 300, 23)
        rows = res.rows()
        assert [r["xi"] for r in rows] == [0.5, 2.0]
        assert all(
            set(row) == {"xi", "epsilon", "type1", "type2", "total", "ci", "trials", "seed", "regime"}
            for row in rows
        )

    def test_multinomial_sweep_m_clamp(self):
        """Whenever the sweep's prior removes mass, it spreads over >= 2 cells."""
        p = 300
        n = 2.0 * p * math.log(p)
        q0 = SimplexVector(np.full(p, 1.0 / p))
        for xi in (0.5, 1.0, 2.0):
            m = multinomial_sharp_constant_epsilons(q0, n, math.log(p), [xi])[3]
            assert m == 0 or m >= 2

    def test_multinomial_sweep_runs_and_orders(self):
        p = 200
        n = 5.0 * p * math.log(p)
        q0 = SimplexVector(np.full(p, 1.0 / p))
        res = sweep_multinomial_sharp_constant(
            q0, n, [0.5, 2.0], math.log(p), 500, 29, poissonized=True
        )
        totals = [r.total for r in res.risks]
        assert totals[1] <= totals[0]

    def test_multinomial_sweep_needs_a_cell_to_remove_from(self):
        """j* = 1 leaves m = 0: the add-eps alternative would leave the simplex."""
        with pytest.raises(ValueError, match="j\\* >= 2"):
            sweep_multinomial_sharp_constant(SimplexVector([0.6, 0.4]), 100, [1.0], 3.0, 100, 0)

    @pytest.mark.parametrize("trials", [0, -5])
    def test_multinomial_sweep_needs_a_trial(self, trials):
        q0 = SimplexVector([0.5, 0.3, 0.2])
        with pytest.raises(ValueError, match="trials"):
            sweep_multinomial_sharp_constant(q0, 100, [1.0], 3.0, trials, 0)

    @pytest.mark.parametrize("trials", [0, -5])
    def test_poisson_sweep_needs_a_trial(self, trials):
        """The Poisson sweep once ran on any ``trials``; it now checks as the multinomial one does."""
        with pytest.raises(ValueError, match="trials must be at least 1"):
            sweep_sharp_constant(RateVector([3.0, 2.0, 1.0]), [1.0], 3.0, trials, 0)

    @pytest.mark.parametrize("alpha_p", [math.inf, math.nan, 1.0])
    def test_alpha_must_be_finite_and_above_one(self, alpha_p):
        """NaN and +inf once passed ``alpha_p <= 1`` and failed inside ``h_inverse``."""
        with pytest.raises(ValueError, match="alpha_p"):
            sweep_sharp_constant(RateVector(np.ones(10)), [1.0], alpha_p, 200, 0)
        with pytest.raises(ValueError, match="alpha_p"):
            sweep_multinomial_sharp_constant(
                SimplexVector(np.full(10, 0.1)), 1_000, [1.0], alpha_p, 200, 0, poissonized=True
            )

    def test_grid_must_increase(self):
        mu = RateVector(np.ones(10))
        with pytest.raises(ValueError):
            sweep_sharp_constant(mu, [1.0, 1.0], 3.0, 200, 0)


def _poisson_cap(lam: float) -> int:
    """Smallest k with P_lam(X > k) below 1e-17."""
    k = math.ceil(lam)
    while pdtrc(k, lam) > 1e-17:
        k += 1
    return k


def _wilson_contains(hits: int, n: int, value: float, z: float) -> bool:
    """``value`` lies in the two-sided Wilson score interval of ``hits / n`` at ``z``."""
    p_hat = hits / n
    center = (p_hat + z * z / (2 * n)) / (1 + z * z / n)
    half = z * math.sqrt(p_hat * (1 - p_hat) / n + z * z / (4 * n * n)) / (1 + z * z / n)
    return abs(value - center) <= half


class TestExactPoissonSweep:
    XI = [0.5, 0.8, 1.0, 1.25, 2.0]

    def test_acceptance_box_integer_edges(self):
        """Counts exactly psi away from the center are outside the box."""
        centers = np.array([2.0, 3.0, 1.5, 0.3, 7.25, 1.0])
        psis = [1.0, 2.0, 1.5, 2.0, 0.75, 3.0]
        x = np.arange(0, 50)
        for center, psi in zip(centers, psis):
            box = AcceptanceBox.around(np.array([center]), psi, strict=True)
            lo, hi = box.lo, box.hi
            inside = x[np.abs(x - center) < psi]
            assert (lo[0], hi[0]) == (inside.min(), inside.max())

    def test_zero_probability_box_is_a_numeric_failure(self):
        """A rate of 1e300 collapses its box below the float spacing: no NaN risk."""
        with pytest.raises(FloatingPointError, match="coordinate 1"):
            sweep_sharp_constant(RateVector([1e300, 1.0]), [0.5], 3.0, 100, 0)

    @pytest.mark.parametrize(
        "rates",
        [[1.0, 1.0], [2.5, 2.5], [4.0, 3.0, 3.0], [6.3, 2.2, 1.0]],
        ids=["flat-1", "flat-2.5", "integral", "decaying"],
    )
    def test_matches_brute_force_enumeration(self, rates):
        """Exact sweep risk equals a sum of pmf products over all count vectors."""
        mu = RateVector(rates)
        res = sweep_sharp_constant(mu, self.XI, 3.0, 100, 0)
        lam = mu.rates
        for xi, eps, risk in zip(res.xi_grid, res.epsilons, res.risks):
            j_star = sharp_constant_epsilon(mu, 3.0, float(xi)).j_star
            caps = [_poisson_cap(v + eps) for v in lam]
            grids = np.meshgrid(*[np.arange(c + 1) for c in caps], indexing="ij")
            x = np.stack([g.ravel() for g in grids], axis=1)
            reject = np.abs(x - lam).max(axis=1) >= eps / xi
            type1 = np.prod(poisson.pmf(x, lam), axis=1)[reject].sum()
            type2 = np.mean(
                [
                    np.prod(poisson.pmf(x, lam + eps * np.eye(lam.size)[j]), axis=1)[~reject].sum()
                    for j in range(j_star)
                ]
            )
            assert abs(risk.type1 - type1) <= 1e-12
            assert abs(risk.type2 - type2) <= 1e-12
            assert (risk.trials, risk.ci_halfwidth, risk.seed) == (0, 0.0, 0)

    def test_inside_independent_monte_carlo_interval(self):
        """At p = 300 the exact risk lies in the z = 4 Wilson interval of 20,000 draws."""
        p, n, chunk = 300, 20_000, 2_000
        rng = np.random.default_rng(20_240_913)
        xi_grid = [0.5, 1.0, 2.0]
        for rates in (np.ones(p), 1.0 + 10.0 / np.sqrt(np.arange(1, p + 1))):
            mu = RateVector(rates)
            res = sweep_sharp_constant(mu, xi_grid, math.log(p), 100, 0)
            j_star = sharp_constant_epsilon(mu, math.log(p), 1.0).j_star
            rejects = np.zeros(len(xi_grid), dtype=int)
            accepts = np.zeros(len(xi_grid), dtype=int)
            for _ in range(n // chunk):
                dev = np.abs(rng.poisson(rates, size=(chunk, p)) - rates)
                js = rng.integers(0, j_star, size=chunk)
                rows = np.arange(chunk)
                for k, (xi, eps) in enumerate(zip(res.xi_grid, res.epsilons)):
                    psi = eps / xi
                    rejects[k] += np.count_nonzero(dev.max(axis=1) >= psi)
                    alt = dev.copy()
                    alt[rows, js] = np.abs(rng.poisson(rates[js] + eps) - rates[js])
                    accepts[k] += np.count_nonzero(alt.max(axis=1) < psi)
            for k, risk in enumerate(res.risks):
                assert _wilson_contains(int(rejects[k]), n, risk.type1, 4.0)
                assert _wilson_contains(int(accepts[k]), n, risk.type2, 4.0)


def _dense_sweep(rates: np.ndarray, xi_grid, alpha_p: float) -> list[tuple[float, float, float]]:
    """``(epsilon, type1, type2)`` per ``xi`` from every coordinate's own box: no runs.

    The objective is maximized over all ``j``; each box holds the integers
    ``x >= 0`` with ``|x - mu_j| < eps / xi``; Type I is ``1 - prod_j a_j``
    and Type II the mean over ``j <= j*`` of ``b_j prod_{i != j} a_i``.
    """
    js = np.arange(1, rates.size + 1, dtype=float)
    level = 1.0 + np.log(js) + math.log(alpha_p) + 2.0 * np.log1p(np.log(js))
    terms = rates * h_inverse(level / rates)
    j_star = int(np.argmax(terms)) + 1
    out = []
    for xi in xi_grid:
        eps = xi * float(terms.max())
        psi = eps / xi
        steps = np.array([-1.0, 0.0, 1.0])
        hi_cand = np.floor(rates + psi)[:, None] + steps
        lo_cand = np.ceil(rates - psi)[:, None] + steps
        hi = np.where(np.abs(hi_cand - rates[:, None]) < psi, hi_cand, -np.inf).max(axis=1)
        lo = np.maximum(np.where(np.abs(lo_cand - rates[:, None]) < psi, lo_cand, np.inf).min(axis=1), 0.0)
        log_a = np.log1p(-(poisson.cdf(lo - 1, rates) + poisson.sf(hi, rates)))
        lam = rates[:j_star] + eps
        b = poisson.cdf(hi[:j_star], lam) - poisson.cdf(lo[:j_star] - 1, lam)
        type2 = np.mean(b * np.exp(log_a.sum() - log_a[:j_star]))
        out.append((eps, -math.expm1(log_a.sum()), float(type2)))
    return out


def _random_step_nulls(count: int, seed: int) -> list[tuple[np.ndarray, np.ndarray]]:
    rng = np.random.default_rng(seed)
    nulls = []
    for _ in range(count):
        runs = int(rng.integers(1, 40))
        values = np.unique(1.0 + rng.exponential(rng.choice([0.5, 5.0, 50.0]), runs))[::-1]
        nulls.append((values, rng.integers(1, 10_000 // values.size + 1, values.size)))
    return nulls


# (values, counts) of the named step nulls, with alpha_p = 3.
_NAMED_STEP_NULLS = {
    "single-run": ([3.0], [5_000]),
    "all-distinct": (1.0 + 100.0 / np.sqrt(np.arange(1, 2_001)), np.ones(2_000, dtype=int)),
    # The inflated-log objective takes one float value at both run ends (j = 40 and j = 100).
    "tie": ([6.0, 4.910035678697799], [40, 60]),
    "j*-first-run": ([80.0, 1.0], [3, 500]),
    "j*-last-run": ([3.0, 2.9], [10, 2_000]),
}


class TestGroupedPoissonSweep:
    """The sweep over runs of equal rates against an independent dense product."""

    XI = [0.5, 0.8, 1.0, 1.25, 2.0]

    @pytest.mark.parametrize(
        "values, counts",
        list(_NAMED_STEP_NULLS.values()) + _random_step_nulls(30, 20_261_019),
        ids=list(_NAMED_STEP_NULLS) + [f"random-{k}" for k in range(30)],
    )
    def test_matches_the_dense_product(self, values, counts):
        mu = RateVector.from_runs(values, counts)
        assert mu.p <= 10_000
        res = sweep_sharp_constant(mu, self.XI, 3.0, 1, 0)
        for risk, eps, (eps_d, type1, type2) in zip(res.risks, res.epsilons, _dense_sweep(mu.rates, self.XI, 3.0)):
            np.testing.assert_allclose([eps, risk.type1, risk.type2], [eps_d, type1, type2], rtol=1e-12, atol=1e-15)
        assert res.regime == poisson_rate(mu).regime
        assert res.regime == sweep_sharp_constant(RateVector(mu.rates), [1.0], 3.0, 1, 0).regime

    def test_a_tie_between_run_ends_breaks_to_the_smaller_index(self):
        values, counts = _NAMED_STEP_NULLS["tie"]
        js = np.array([40.0, 100.0])
        level = 1.0 + np.log(js) + math.log(3.0) + 2.0 * np.log1p(np.log(js))
        terms = np.asarray(values) * h_inverse(level / np.asarray(values))
        assert terms[0] == terms[1]
        assert sharp_constant_epsilon(RateVector.from_runs(values, counts), 3.0, 1.0).j_star == 40

    @pytest.mark.parametrize("mu_of_p", [lambda p: 1.0, lambda p: (1.0 + math.log(p)) ** 2], ids=["sp", "sg"])
    def test_flat_run_of_1e15_against_mpmath(self, mu_of_p):
        """``type1 = 1 - a^p`` and ``type2 = b a^(p-1)``, the box masses summed at 40 digits."""
        p = 10**15
        rate = mu_of_p(p)
        xi_grid = [0.8, 1.0, 1.4]
        res = sweep_sharp_constant(RateVector.from_runs([rate], [p]), xi_grid, math.log(p), 1, 0)
        with mpmath.workdps(40):
            for xi, eps, risk in zip(xi_grid, res.epsilons, res.risks):
                psi = float(eps) / xi
                box = [x for x in range(max(0, math.floor(rate - psi) - 1), math.ceil(rate + psi) + 2)
                       if abs(x - rate) < psi]

                def mass(lam):
                    lam = mpmath.mpf(lam)
                    return mpmath.fsum(mpmath.exp(-lam + x * mpmath.log(lam) - mpmath.loggamma(x + 1)) for x in box)

                a, b = mass(rate), mass(rate + float(eps))
                assert risk.type1 == pytest.approx(float(1 - a**p), rel=1e-12)
                assert risk.type2 == pytest.approx(float(b * a ** (p - 1)), rel=1e-12)

    @pytest.mark.parametrize(
        "p, totals", [(10**4, [0.853, 0.117, 0.030]), (10**15, [0.964, 0.015, 0.0003])], ids=["1e4", "1e15"]
    )
    def test_subgaussian_flat_totals(self, p, totals):
        """The flat subgaussian null mu = (1 + ln p)^2 sharpens toward the xi = 1 transition."""
        mu = RateVector.from_runs([(1.0 + math.log(p)) ** 2], [p])
        res = sweep_sharp_constant(mu, [0.8, 1.25, 1.4], math.log(p), 1, 0)
        assert [r.total for r in res.risks] == pytest.approx(totals, abs=5e-4)

    def test_one_box_per_distinct_threshold(self, monkeypatch):
        """The threshold ``eps/xi`` is the xi-free level up to rounding: a box
        is built once per distinct threshold, not once per xi."""
        mu = RateVector.from_runs([4.0, 1.0], [10, 90])
        built = []
        box_around = AcceptanceBox.around

        def around(center, half_width, strict):
            built.append(half_width)
            return box_around(center, half_width, strict)

        monkeypatch.setattr(AcceptanceBox, "around", around)
        sweep_sharp_constant(mu, self.XI, math.log(mu.p), 1, 0)
        epsilons, _ = sharp_constant_epsilons(mu, math.log(mu.p), self.XI)
        distinct = set((epsilons / np.asarray(self.XI)).tolist())
        assert sorted(built) == sorted(distinct) and len(distinct) < len(self.XI)

    def test_paper_scale_sweep_holds_no_p_length_array(self):
        mu = RateVector.from_runs([1.0], [10**15])
        tracemalloc.start()
        try:
            sweep_sharp_constant(mu, self.XI, math.log(mu.p), 1, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        with pytest.raises(ValueError, match="DENSE_RATES_CAP"):
            mu.rates


class TestRelationMultinomialPoissonized:
    def test_poissonized_at_double_n_not_much_worse(self):
        """risk_PM(2n) - 2(1+c)/(c^2 n) <= risk_M(n) + CIs at c=1 (small scale)."""
        q0 = SimplexVector(np.full(20, 0.05))
        n, c = 200, 1.0
        alt = q0.probs.copy()
        alt[1] += 0.05
        alt[2:] -= 0.05 / 18
        r_m = estimate_multinomial_risk(q0, n, alt, 0.2, 2_000, 31)
        r_pm = estimate_multinomial_risk(
            q0, (1 + c) * n, alt, 0.2, 2_000, 31, poissonized=True
        )
        slack = 2 * (1 + c) / (c * c * n)
        assert r_pm.total - slack <= r_m.total + r_m.ci_halfwidth + r_pm.ci_halfwidth


class TestPhaseTransitionShape:
    def test_poisson_sweep_gap_both_regimes(self):
        """Sweep risk at xi=2 is below the xi=0.5 risk by at least 0.5."""
        p = 2_000
        for mu in (
            RateVector(np.ones(p)),
            RateVector(np.full(p, (1.0 + math.log(p)) ** 2)),
        ):
            res = sweep_sharp_constant(mu, [0.5, 2.0], math.log(p), 2_000, 37)
            low, high = res.risks[0].total, res.risks[1].total
            assert low - high >= 0.5

    def test_multinomial_exact_lower_bound_versus_high_xi_risk(self):
        """Exact flattened-TV lower bound at xi=0.5 sits far above xi=2 risks.

        The add-one/remove-m prior is flattened to a homoskedastic Poisson
        pair and its TV computed by exact enumeration (j*=5, 60 components).
        At xi=2 the same tiny instance is infeasible (the 4x perturbation
        leaves the simplex), so the ordering is read off against the sweep
        at the smallest feasible uniform configuration.
        """
        import itertools

        from supgof.divergence import poisson_mixture, poisson_product_dist, tv_distance

        p, n = 6, 6.0
        q0 = SimplexVector(np.full(p, 1.0 / p))
        (eps,), j_star, n_prime, m = multinomial_sharp_constant_epsilons(q0, n, math.log(p), [0.5])
        nu = n_prime / p
        spike, removal = n_prime * eps, n_prime * eps / m
        assert m >= 2 and removal <= nu
        rows = []
        for j in range(j_star):
            for subset in itertools.combinations([i for i in range(j_star) if i != j], m):
                row = np.full(j_star, nu)
                row[j] += spike
                row[list(subset)] -= removal
                rows.append(row)
        mix = poisson_mixture([1.0 / len(rows)] * len(rows), rows, 1e-9)
        null = poisson_product_dist([nu] * j_star, 1e-9, mix.shape)
        tv = tv_distance(null, mix)
        risk_lower_bound = 1.0 - tv.value - tv.error_bar
        assert risk_lower_bound >= 0.7  # measured 0.762, frozen with margin

        p_big = 1_000
        n_big = 10.0 * p_big * math.log(p_big)
        q_big = SimplexVector(np.full(p_big, 1.0 / p_big))
        high = sweep_multinomial_sharp_constant(
            q_big, n_big, [2.0], math.log(p_big), 1_000, 41, poissonized=True
        ).risks[0]
        assert high.total <= 0.1
        assert risk_lower_bound - high.total >= 0.5


def _count_grid(caps) -> np.ndarray:
    """Every count vector with ``x_j <= caps[j]``, one per row."""
    grids = np.meshgrid(*[np.arange(c + 1) for c in caps], indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=1)


def _mass(caps, lam) -> np.ndarray:
    """Product Poisson pmf at every row of ``_count_grid(caps)``, in the same order."""
    out = np.ones(1)
    for cap, rate in zip(caps, lam):
        out = np.multiply.outer(out, poisson.pmf(np.arange(cap + 1), rate)).ravel()
    return out


def _poisson_accepts(x, mu, cfg):
    """The max test's own comparison, row by row: accept when no deviation exceeds u_max."""
    return np.abs(x - mu.rates).max(axis=1) <= cfg.max_threshold


def _multinomial_accepts(x, q0, n, cfg):
    """The head-or-tail test's own comparisons: head strict, tail inclusive, zero cells at 0."""
    head = np.abs(x[:, 0] - n * q0.head) < cfg.head_threshold
    tail = np.abs(x[:, 1:] - n * q0.tail).max(axis=1, initial=0.0) <= cfg.max_tail_threshold
    zero = (x[:, 1:][:, q0.tail == 0.0] == 0).all(axis=1)
    return head & tail & zero


def _simplex_components(probs, j_star, m, spike, removal):
    """The add-one/remove-m prior as an explicit uniform mixture of probability rows."""
    rows = []
    for s in range(1, j_star + 1):
        others = [i for i in range(1, j_star + 1) if i != s]
        for subset in itertools.combinations(others, m):
            q = np.array(probs, dtype=float)
            q[s] += spike
            q[list(subset)] -= removal
            rows.append(np.clip(q, 0.0, None))
    return rows


class TestExactProductRisk:
    """Exact Poisson and Poissonized multinomial risk against enumeration and sampling."""

    @pytest.mark.parametrize("rates", [[1.0, 1.0], [2.5, 2.5], [4.0, 3.0, 3.0], [6.3, 2.2, 1.0]])
    @pytest.mark.parametrize("eta", [0.2, 0.5])
    def test_poisson_matches_brute_force_enumeration(self, rates, eta):
        mu = RateVector(rates)
        cfg = PoissonTestConfig.from_eta(mu, eta)
        prior = PoissonSpikePrior.build(mu, 1.5)
        lam = mu.rates.copy()
        lam[-1] += 3.0
        caps = [_poisson_cap(r + prior.spike + 3.0) for r in mu.rates]
        accept = _poisson_accepts(_count_grid(caps), mu, cfg)
        fixed = estimate_poisson_risk(mu, lam, eta, 100, 4)
        bayes = estimate_poisson_risk(mu, prior, eta, 100, 4)
        type1 = _mass(caps, mu.rates)[~accept].sum()
        spiked = [mu.rates + prior.spike * np.eye(mu.p)[j] for j in range(prior.j_star)]
        for risk, type2 in (
            (fixed, _mass(caps, lam)[accept].sum()),
            (bayes, np.mean([_mass(caps, row)[accept].sum() for row in spiked])),
        ):
            assert abs(risk.type1 - type1) <= 1e-12
            assert abs(risk.type2 - type2) <= 1e-12
            assert (risk.trials, risk.ci_halfwidth) == (0, 0.0) and risk.seed == 4

    @pytest.mark.parametrize(
        "probs, n, alt",
        [
            ([0.5, 0.3, 0.2], 12.0, [0.35, 0.45, 0.2]),
            ([0.6, 0.4, 0.0], 10.0, [0.5, 0.4, 0.1]),
            ([0.4, 0.3, 0.3], 9.5, [0.4, 0.3, 0.3]),
            ([0.7, 0.3], 7.0, [0.3, 0.7]),
        ],
        ids=["p3", "zero-cell", "fractional-n", "p2"],
    )
    def test_poissonized_fixed_alternative_matches_enumeration(self, probs, n, alt):
        q0 = SimplexVector(probs)
        cfg = MultinomialTestConfig.from_eta(q0, n, 0.2)
        caps = [_poisson_cap(n * max(a, b)) for a, b in zip(probs, alt)]
        accept = _multinomial_accepts(_count_grid(caps), q0, n, cfg)
        risk = estimate_multinomial_risk(q0, n, alt, 0.2, 100, 0, poissonized=True)
        assert abs(risk.type1 - _mass(caps, n * q0.probs)[~accept].sum()) <= 1e-12
        assert abs(risk.type2 - _mass(caps, n * np.asarray(alt))[accept].sum()) <= 1e-12
        assert (risk.trials, risk.ci_halfwidth) == (0, 0.0)

    @pytest.mark.parametrize(
        "probs, n, j_star, m, psi",
        [
            ([0.5, 0.3, 0.2], 12.0, 2, 1, 1.2),
            ([0.25, 0.25, 0.25, 0.25], 8.0, 3, 2, 4.0),  # removes a whole cell: d = P_0(box)
            ([0.4, 0.3, 0.2, 0.1], 10.0, 3, 2, 1.5),
            ([0.4, 0.3, 0.3], 10.0, 2, 0, 1.0),  # m = 0: every draw is the null
        ],
    )
    def test_poissonized_simplex_prior_matches_enumeration(self, probs, n, j_star, m, psi):
        q0 = SimplexVector(probs)
        prior = MultinomialSimplexPrior(q0, n, j_star, psi, m, 1.0)
        cfg = MultinomialTestConfig.from_eta(q0, n, 0.3)
        rows = (
            _simplex_components(probs, j_star, m, psi / n, psi / (n * m)) if m else [q0.probs]
        )
        caps = [_poisson_cap(n * max(col)) for col in zip(probs, *rows)]
        accept = _multinomial_accepts(_count_grid(caps), q0, n, cfg)
        risk = estimate_multinomial_risk(q0, n, prior, 0.3, 100, 0, poissonized=True)
        assert abs(risk.type1 - _mass(caps, n * q0.probs)[~accept].sum()) <= 1e-12
        type2 = np.mean([_mass(caps, n * row)[accept].sum() for row in rows])
        assert abs(risk.type2 - type2) <= 1e-12
        assert (risk.trials, risk.ci_halfwidth) == (0, 0.0)

    @pytest.mark.parametrize(
        "probs, n, xi_grid",
        [([0.4, 0.3, 0.3], 30.0, [0.5, 1.0, 2.0]), ([0.25] * 4, 6.0, [0.5, 1.0])],
    )
    def test_poissonized_sweep_matches_enumeration(self, probs, n, xi_grid):
        q0 = SimplexVector(probs)
        res = sweep_multinomial_sharp_constant(q0, n, xi_grid, 3.0, 100, 5, poissonized=True)
        epsilons, j_star, n_prime, m = multinomial_sharp_constant_epsilons(q0, n, 3.0, xi_grid)
        assert m >= 1
        for xi, eps, risk in zip(xi_grid, epsilons, res.risks):
            rows = _simplex_components(probs, j_star, m, eps, eps / m)
            caps = [_poisson_cap(n * max(col)) for col in zip(probs, *rows)]
            accept = np.abs(_count_grid(caps) - n * q0.probs).max(axis=1) < n_prime * eps / xi
            assert abs(risk.type1 - _mass(caps, n * q0.probs)[~accept].sum()) <= 1e-12
            type2 = np.mean([_mass(caps, n * row)[accept].sum() for row in rows])
            assert abs(risk.type2 - type2) <= 1e-12
            assert (risk.trials, risk.ci_halfwidth, risk.seed) == (0, 0.0, 5)

    def test_inside_independent_monte_carlo_interval(self):
        """At p = 60 every exact route lies in the z = 4 Wilson interval of 20,000 draws."""
        rng = np.random.default_rng(20_261_018)
        draws, p = 20_000, 60

        def check(exact, rates_rows, accepts):
            rows = rates_rows[rng.integers(0, len(rates_rows), size=draws)]
            hits = int(np.count_nonzero(accepts(rng.poisson(rows))))
            assert _wilson_contains(hits, draws, exact, 4.0)

        mu = RateVector(1.0 + 8.0 / np.sqrt(np.arange(1, p + 1)))
        cfg = PoissonTestConfig.from_eta(mu, 0.2)
        prior = PoissonSpikePrior.build(mu, 1.0)
        lam = mu.rates + 4.0 * (np.arange(p) == 7)

        def poisson_accepts(x):
            return _poisson_accepts(x, mu, cfg)

        check(1.0 - estimate_poisson_risk(mu, mu, 0.2, 100, 0).type1, mu.rates[None], poisson_accepts)
        check(estimate_poisson_risk(mu, lam, 0.2, 100, 0).type2, lam[None], poisson_accepts)
        spiked = mu.rates + prior.spike * np.eye(p)[: prior.j_star]
        check(estimate_poisson_risk(mu, prior, 0.2, 100, 0).type2, spiked, poisson_accepts)

        q0, n = SimplexVector(np.full(p, 1.0 / p)), 600.0
        mcfg = MultinomialTestConfig.from_eta(q0, n, 0.2)
        sprior = MultinomialSimplexPrior.build(q0, n, certified_simplex_c(q0, n))
        assert sprior.m >= 1

        def multinomial_accepts(x):
            return _multinomial_accepts(x, q0, n, mcfg)

        sampled = n * np.clip(draw_multinomial_simplex_prior(sprior, rng, trials=draws), 0.0, None)
        risk = estimate_multinomial_risk(q0, n, sprior, 0.2, 100, 0, poissonized=True)
        check(1.0 - risk.type1, n * q0.probs[None], multinomial_accepts)
        hits = int(np.count_nonzero(multinomial_accepts(rng.poisson(sampled))))
        assert _wilson_contains(hits, draws, risk.type2, 4.0)

    @pytest.mark.parametrize("k", [2, 3, 5, 7])
    def test_subset_products_match_direct_sum(self, k):
        """``e_m(r_{-s}) / C(k-1, m)`` against a sum over all m-subsets, with ratios up to e^700."""
        rng = np.random.default_rng(k)
        for log_r in (rng.uniform(-700.0, 700.0, k), np.r_[-np.inf, rng.uniform(-3.0, 3.0, k - 1)]):
            for m in range(1, k):
                want = []
                for s in range(k):
                    others = [i for i in range(k) if i != s]
                    sums = [log_r[list(c)].sum() for c in itertools.combinations(others, m)]
                    want.append(logsumexp(sums) - math.log(math.comb(k - 1, m)))
                got = _log_mean_subset_products(log_r, m)
                np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-12)


class TestZeroProbabilityPoolBox:
    """A pool box with zero float64 null probability is a numeric failure on every route."""

    @pytest.mark.parametrize("rate", [0.5, 2.5], ids=["below-zero-edge", "overlapping-tails"])
    def test_empty_box(self, rate):
        """A zero threshold leaves no count within it of the rate: the box is empty.

        The risk is assembled from the box as ``estimate_poisson_risk`` does,
        at a fixed alternative and under the spike prior.
        """
        mu = RateVector([rate])
        box = AcceptanceBox.around(mu.rates, 0.0, strict=False)
        assert box.hi[0] < box.lo[0]
        log_a = risk_module._box_log_mass(box, mu.rates)
        type2 = math.exp(float(risk_module._box_log_mass(box, np.array([4.0])).sum()))
        risk = risk_module._exact(float(log_a.sum()), type2, 0)
        assert (risk.type1, risk.type2) == (1.0, 0.0)
        spiked = risk_module._box_mass(box, mu.rates + PoissonSpikePrior.build(mu, 0.5).spike)
        with pytest.raises(FloatingPointError, match="coordinate 1 "):
            risk_module._leave_one_out_type2(log_a, spiked, slice(0, 1), mu.rates)

    def test_spike_prior_route(self):
        mu = RateVector([1e300, 1.0])
        with pytest.raises(FloatingPointError, match="coordinate 1 "):
            estimate_poisson_risk(mu, PoissonSpikePrior.build(mu, 0.5), 0.2, 100, 0)

    def test_simplex_prior_route(self):
        q0 = SimplexVector([0.5, 0.3, 0.2])
        prior = MultinomialSimplexPrior(q0, 1e300, 2, 1e299, 1, 1.0)
        with pytest.raises(FloatingPointError, match="coordinate 2 "):
            estimate_multinomial_risk(q0, 1e300, prior, 0.2, 100, 0, poissonized=True)

    def test_poissonized_sweep_route(self):
        q0 = SimplexVector([0.5, 0.3, 0.2])
        with pytest.raises(FloatingPointError, match="coordinate 2 .* at xi=1.0"):
            sweep_multinomial_sharp_constant(q0, 1e300, [1.0], 3.0, 100, 0, poissonized=True)


def _multinomial_table(n: int, p: int) -> np.ndarray:
    """Every count vector of ``p`` cells summing to ``n``, one per row (stars and bars)."""
    bars = np.array(list(itertools.combinations(range(n + p - 1), p - 1)), dtype=int).reshape(-1, p - 1)
    edges = np.c_[np.full(len(bars), -1), bars, np.full(len(bars), n + p - 1)]
    return np.diff(edges, axis=1) - 1


def _multinomial_mass(x: np.ndarray, n: int, q) -> np.ndarray:
    """``Multinomial(n, q)`` pmf at every row of ``x``."""
    with np.errstate(divide="ignore", invalid="ignore"):  # 0 * log(0) is masked out
        terms = np.where(x > 0, x * np.log(np.asarray(q, dtype=float)), 0.0)
    return np.exp(gammaln(n + 1) - gammaln(x + 1).sum(axis=1) + terms.sum(axis=1))


@pytest.mark.filterwarnings("error")
class TestExactFixedN:
    """The fixed-n multinomial risk by Poisson conditioning, against enumeration and sampling."""

    @pytest.mark.parametrize(
        "probs, n, alt",
        [
            ([0.5, 0.3, 0.2], 12, [0.35, 0.45, 0.2]),
            ([0.6, 0.4, 0.0], 10, [0.5, 0.4, 0.1]),
            ([0.7, 0.3], 7, [0.3, 0.7]),
            ([0.4, 0.3, 0.2, 0.1], 30, [0.3, 0.3, 0.3, 0.1]),
            ([0.25, 0.25, 0.25, 0.25], 20, [0.1, 0.4, 0.25, 0.25]),
        ],
        ids=["p3", "zero-cell", "p2", "p4-n30", "flat-p4"],
    )
    @pytest.mark.parametrize("eta", [0.2, 1.0])
    def test_fixed_alternative_matches_enumeration(self, probs, n, alt, eta):
        q0 = SimplexVector(probs)
        x = _multinomial_table(n, q0.p)
        accept = _multinomial_accepts(x, q0, n, MultinomialTestConfig.from_eta(q0, n, eta))
        risk = estimate_multinomial_risk(q0, n, alt, eta, 100, 6)
        assert abs(risk.type1 - _multinomial_mass(x, n, probs)[~accept].sum()) <= 1e-12
        assert abs(risk.type2 - _multinomial_mass(x, n, alt)[accept].sum()) <= 1e-12
        assert (risk.trials, risk.ci_halfwidth, risk.seed) == (0, 0.0, 6)

    @pytest.mark.parametrize(
        "probs, n, j_star, m, psi",
        [
            ([0.5, 0.3, 0.2], 12, 2, 1, 1.2),
            ([0.25, 0.25, 0.25, 0.25], 8, 3, 2, 4.0),  # flat pool, removes whole cells
            ([0.4, 0.3, 0.2, 0.1], 10, 3, 2, 1.5),
            ([0.4, 0.2, 0.2, 0.2], 24, 3, 1, 2.0),  # flat pool
            ([0.3, 0.3, 0.25, 0.15], 30, 3, 1, 3.0),
            ([0.4, 0.3, 0.3], 10, 2, 0, 1.0),  # m = 0: every draw is the null
        ],
    )
    def test_simplex_prior_matches_enumeration(self, probs, n, j_star, m, psi):
        q0 = SimplexVector(probs)
        prior = MultinomialSimplexPrior(q0, float(n), j_star, psi, m, 1.0)
        x = _multinomial_table(n, q0.p)
        accept = _multinomial_accepts(x, q0, n, MultinomialTestConfig.from_eta(q0, n, 0.3))
        rows = _simplex_components(probs, j_star, m, psi / n, psi / (n * m)) if m else [q0.probs]
        risk = estimate_multinomial_risk(q0, n, prior, 0.3, 100, 0)
        assert abs(risk.type1 - _multinomial_mass(x, n, probs)[~accept].sum()) <= 1e-12
        type2 = np.mean([_multinomial_mass(x, n, row)[accept].sum() for row in rows])
        assert abs(risk.type2 - type2) <= 1e-12
        assert (risk.trials, risk.ci_halfwidth) == (0, 0.0)

    @pytest.mark.parametrize("poissonized", [False, True])
    def test_prior_on_another_base(self, poissonized):
        """Type I comes from the null, Type II from the prior's own base in every cell."""
        q0, base, n = SimplexVector([0.5, 0.3, 0.2]), SimplexVector([0.4, 0.35, 0.25]), 12
        prior = MultinomialSimplexPrior(base, float(n), 2, 1.2, 1, 1.0)
        laws = [q0.probs, *_simplex_components(base.probs, 2, 1, 0.1, 0.1)]
        if poissonized:
            x = _count_grid([40] * 3)
            masses = [_mass([40] * 3, n * q) for q in laws]
        else:
            x = _multinomial_table(n, 3)
            masses = [_multinomial_mass(x, n, q) for q in laws]
        accept = _multinomial_accepts(x, q0, n, MultinomialTestConfig.from_eta(q0, n, 0.3))
        risk = estimate_multinomial_risk(q0, n, prior, 0.3, 100, 0, poissonized=poissonized)
        assert abs(risk.type1 - masses[0][~accept].sum()) <= 1e-12
        assert abs(risk.type2 - np.mean([mass[accept].sum() for mass in masses[1:]])) <= 1e-12

    @pytest.mark.parametrize(
        "probs, n, xi_grid",
        [
            ([0.4, 0.3, 0.3], 30, [0.5, 1.0, 2.0]),
            ([0.25] * 4, 20, [0.5, 1.0]),
            ([0.3, 0.3, 0.2, 0.2], 24, [0.7, 1.0, 1.5]),
        ],
    )
    def test_sweep_matches_enumeration(self, probs, n, xi_grid):
        q0 = SimplexVector(probs)
        res = sweep_multinomial_sharp_constant(q0, n, xi_grid, 3.0, 100, 5)
        epsilons, j_star, n_prime, m = multinomial_sharp_constant_epsilons(q0, n, 3.0, xi_grid)
        x = _multinomial_table(n, q0.p)
        for xi, eps, risk in zip(xi_grid, epsilons, res.risks):
            accept = np.abs(x - n * q0.probs).max(axis=1) < n_prime * eps / xi
            rows = _simplex_components(probs, j_star, m, eps, eps / m)
            assert abs(risk.type1 - _multinomial_mass(x, n, probs)[~accept].sum()) <= 1e-12
            type2 = np.mean([_multinomial_mass(x, n, row)[accept].sum() for row in rows])
            assert abs(risk.type2 - type2) <= 1e-12
            assert (risk.trials, risk.ci_halfwidth, risk.seed) == (0, 0.0, 5)

    def test_inside_numpy_multinomial_interval(self):
        """At p = 60 the exact fixed-n risks lie in the z = 4 Wilson interval of 20,000 numpy draws."""
        rng = np.random.default_rng(20_261_019)
        draws, p, n = 20_000, 60, 600
        for probs in (np.full(p, 1.0 / p), np.arange(1, p + 1) ** -0.5):
            q0 = SimplexVector(probs / probs.sum())
            cfg = MultinomialTestConfig.from_eta(q0, n, 0.2)
            alt = q0.probs.copy()
            alt[3] += 0.01
            alt[10:20] -= 0.001
            fixed = estimate_multinomial_risk(q0, n, alt, 0.2, 100, 0)
            prior = MultinomialSimplexPrior.build(q0, n, certified_simplex_c(q0, n))
            bayes = estimate_multinomial_risk(q0, n, prior, 0.2, 100, 0)
            assert prior.m >= 1 and bayes.trials == 0
            sampled = np.clip(draw_multinomial_simplex_prior(prior, rng, trials=draws), 0.0, None)
            for exact, x in (
                (1.0 - fixed.type1, rng.multinomial(n, q0.probs, size=draws)),
                (fixed.type2, rng.multinomial(n, alt, size=draws)),
                (bayes.type2, rng.multinomial(n, sampled)),
            ):
                hits = int(np.count_nonzero(_multinomial_accepts(x, q0, n, cfg)))
                assert _wilson_contains(hits, draws, exact, 4.0)

    def test_degenerate_simplex(self):
        """``q0 = (1, 0)`` puts all ``n`` counts in the head cell: acceptance is 0 or 1."""
        q0 = SimplexVector([1.0, 0.0])
        risk = estimate_multinomial_risk(q0, 7, q0, 0.2, 100, 0)
        assert abs(risk.type1) <= 1e-14 and abs(risk.type2 - 1.0) <= 1e-14
        assert estimate_multinomial_risk(q0, 7, [0.0, 1.0], 0.2, 100, 0).type2 == 0.0

    def test_counts_sum_to_n_exactly(self):
        """The conditioned law charges only count vectors summing to n."""
        lam = 100 * np.array([0.4, 0.3, 0.2, 0.1])
        everything = AcceptanceBox(np.zeros(4), np.full(4, 100.0))
        assert abs(_fixed_n_accept(everything, 100, lam) - 1.0) <= 1e-14
        assert _fixed_n_accept(AcceptanceBox(np.zeros(4), np.array([40.0, 30, 20, 9])), 100, lam) == 0.0
        assert _fixed_n_accept(AcceptanceBox(np.array([40.0, 30, 20, 11]), np.full(4, 100.0)), 100, lam) == 0.0

    @pytest.mark.parametrize("cells", [2, 3, 5, 6, 7])
    def test_pool_tree_matches_explicit_enumeration(self, cells):
        """The ``u v^m`` coefficient of the pool tree is the mean over every (spike, removal set)."""
        rng = np.random.default_rng(cells)
        t = 9
        a, b, d = (rng.uniform(0.0, 1.0, (cells, 4)) / 4.0 for _ in range(3))
        for m in range(1, cells):
            want = []
            for s in range(cells):
                others = [i for i in range(cells) if i != s]
                for subset in itertools.combinations(others, m):
                    poly = b[s]
                    for i in others:
                        poly = np.convolve(poly, d[i] if i in subset else a[i])
                    want.append(np.pad(poly, (0, 64))[: t + 1])
            got = _pool_tree(a, b, d, m, t)
            np.testing.assert_allclose(np.pad(got, (0, t + 1 - got.size)), np.mean(want, axis=0), rtol=0, atol=1e-15)

    def test_pool_past_the_cap_raises_before_building_rows(self, monkeypatch):
        """A pool of two distinct rates passes the distinct-cell checks, but its
        ``u v^m`` product would not: the cap raises before one row per pool
        cell is built."""
        p, n = 400, 400
        probs = np.r_[np.full(p // 8, 1.05), np.full(p - p // 8, 1.0)]
        q0 = SimplexVector(probs / probs.sum())
        prior = MultinomialSimplexPrior.build(q0, n, certified_simplex_c(q0, n))
        pool = q0.probs[1 : prior.j_star + 1]
        assert prior.m >= 1 and np.unique(pool).size == 2
        built = []
        cell_rows = risk_module._cell_rows
        monkeypatch.setattr(risk_module, "_cell_rows", lambda lam, *rest: built.append(lam.size) or cell_rows(lam, *rest))
        monkeypatch.setattr(risk_module, "_MAX_TERMS", 20_000)
        with pytest.raises(AtomBudgetError, match="pool-product level"):
            estimate_multinomial_risk(q0, n, prior, 0.2, 100, 0)
        assert built and max(built) <= 2

    def test_box_past_the_cap_raises(self, monkeypatch):
        q0 = SimplexVector([0.5, 0.3, 0.2])
        monkeypatch.setattr(risk_module, "_MAX_TERMS", 8)
        with pytest.raises(AtomBudgetError, match="over the cap of 8"):
            estimate_multinomial_risk(q0, 200, [0.4, 0.4, 0.2], 0.2, 100, 0)


def _dense(poly: _Poly, t: int) -> np.ndarray:
    """A windowed polynomial's coefficients at degrees ``0..t``."""
    out = np.zeros(t + 1)
    kept = poly.coeffs[: max(0, t + 1 - poly.offset)]
    out[poly.offset : poly.offset + kept.size] = kept
    return out


def _convolved(rows, t: int) -> np.ndarray:
    """The product of ``rows`` by ``np.convolve``, at degrees ``0..t``."""
    out = np.ones(1)
    for row in rows:
        out = np.convolve(out, row)
    return np.pad(out, (0, max(0, t + 1 - out.size)))[: t + 1]


def _random_rows(seed: int, wide: bool) -> tuple[np.ndarray, int]:
    """Box rows of 2 to 9 cells and a cut ``t`` near the product's mean; a
    wide box holds 12 standard deviations each side, so products' tails
    fall below ``_TRIM`` of their peaks and are trimmed."""
    rng = np.random.default_rng(seed)
    lam = rng.uniform(0.5, 60.0, int(rng.integers(2, 10)))
    half = (12.0 if wide else 3.0) * np.sqrt(lam) + 2.0
    lo, hi = np.maximum(np.ceil(lam - half), 0.0), np.floor(lam + half)
    t = int(np.clip(np.sum(lam - lo) + rng.normal() * np.sqrt(lam.sum()), 0, np.sum(hi - lo)))
    return _cell_rows(lam, lo, hi, t), t


class TestWindowedProducts:
    """Products kept on their mass windows against plain ``np.convolve``."""

    @pytest.mark.parametrize("wide", [False, True])
    @pytest.mark.parametrize("seed", range(8))
    def test_tree_product_matches_convolution(self, seed, wide):
        rows, t = _random_rows(seed, wide)
        got = _tree_product(rows, t)
        want = _convolved(rows, t)
        np.testing.assert_allclose(_dense(got, t), want, rtol=0, atol=1e-15)
        assert -1e-15 <= want.sum() - got.coeffs.sum() <= got.trimmed + 1e-15
        if wide:
            assert got.trimmed > 0.0 and got.coeffs.size < np.count_nonzero(want)

    @pytest.mark.parametrize("wide", [False, True])
    @pytest.mark.parametrize("seed", range(8))
    def test_power_and_coefficient_match_convolution(self, seed, wide):
        rows, t = _random_rows(seed, wide)
        count = int(np.random.default_rng(seed).integers(2, 30))
        t_power = int(round(count * np.dot(np.arange(rows.shape[1]), rows[0]) / rows[0].sum()))
        row = rows[0][: t_power + 1]
        power = _power(_Poly(0, row), count, t_power)
        np.testing.assert_allclose(_dense(power, t_power), _convolved([row] * count, t_power), rtol=0, atol=1e-15)
        x, y = _tree_product(rows[:-1], t), _power(_Poly(0, rows[-1]), 3, t)
        assert abs(_coefficient(x, y, t) - _convolved([*rows[:-1], *[rows[-1]] * 3], t)[t]) <= 1e-15

    @pytest.mark.parametrize("count", [10**3, 10**6])
    @pytest.mark.parametrize("lam, hi", [(5.0, 60.0), (40.0, 160.0)])
    def test_power_of_a_whole_poisson_row_against_mpmath(self, lam, hi, count):
        """A box that leaves out under 1e-40 of Poisson(lam) gives ``row^count``
        whose coefficient ``t`` is ``box_mass^count pmf_{Poisson(count lam)}(t)``.

        A window's loss is a deficit of mass spread over the middle of the
        product, counted once per copy of the factor, so the relative error is
        about ``trimmed``, which stays under ``_TRIM`` per copy; round-off
        adds about ``count eps``."""
        t = int(count * lam) + 7
        row = _cell_rows(np.array([lam]), np.array([0.0]), np.array([hi]), t)[0]
        power = _power(_Poly(0, row), count, t)
        got = _coefficient(power, _Poly(0, np.ones(1)), t)
        with mpmath.workdps(40):
            log_pmf = t * mpmath.log(count * lam) - count * lam - mpmath.loggamma(t + 1)
            want = float(mpmath.mpf(float(row.sum())) ** count * mpmath.exp(log_pmf))
        assert power.coeffs.size < 40 * math.sqrt(count * lam)
        assert power.trimmed <= count * _TRIM
        assert abs(got - want) <= (2.0 * power.trimmed + count * np.finfo(float).eps) * want

    def test_heterogeneous_fixed_n_sweep_peak_memory(self):
        """The fixed-n sweep on ``q_j ~ j^(-1/2)`` at p = 1e3, n = 1e5: 997
        distinct cells outside the pool, products of up to 58,338 terms
        uncut; traced at 5.8 MiB."""
        p, n = 1000, 100_000
        het = np.arange(1, p + 1.0) ** -0.5
        q0 = SimplexVector(het / het.sum())
        tracemalloc.start()
        try:
            sweep_multinomial_sharp_constant(q0, n, [0.5, 1.0, 2.0], math.log(p), 1, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 7 << 20
