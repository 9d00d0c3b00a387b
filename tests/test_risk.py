"""Tests for Monte Carlo risk estimation and the sweep engine."""

from __future__ import annotations

import math

import numpy as np
import pytest
from scipy.special import pdtrc
from scipy.stats import poisson

from supgof.model import RateVector, SimplexVector, rng_stream
from supgof.priors import (
    MultinomialSimplexPrior,
    PoissonSpikePrior,
    certified_simplex_c,
    draw_multinomial_simplex_prior,
)
from supgof.rates import sharp_constant_epsilon
from supgof.risk import (
    _acceptance_box,
    estimate_multinomial_risk,
    estimate_poisson_risk,
    sweep_multinomial_sharp_constant,
    sweep_sharp_constant,
    wilson_halfwidth,
)


class TestWilsonInterval:
    def test_halfwidth_shrinks_like_sqrt_n(self):
        h1 = wilson_halfwidth(0.3, 1_000)
        h2 = wilson_halfwidth(0.3, 4_000)
        assert h2 <= h1 / 1.8

    def test_coverage_on_synthetic_bernoulli(self):
        """Wilson 95% interval covers p=0.3 in at least 93% of meta-trials."""
        rng = rng_stream(77)
        n, p_true, meta = 400, 0.3, 1_000
        hits = 0
        draws = rng.binomial(n, p_true, size=meta)
        for k in draws:
            p_hat = k / n
            hw = wilson_halfwidth(p_hat, n)
            center = (p_hat + 1.959963984540054**2 / (2 * n)) / (1 + 1.959963984540054**2 / n)
            if abs(center - p_true) <= hw:
                hits += 1
        assert hits / meta >= 0.93


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
        """Removal at the floor cell leaves rounding-level negative cells; sampling clips them."""
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
        from supgof.rates import multinomial_sharp_constant_epsilon

        for xi in (0.5, 1.0, 2.0):
            out = multinomial_sharp_constant_epsilon(q0, n, math.log(p), xi)
            assert out.m == 0 or out.m >= 2

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
    p_hat = hits / n
    center = (p_hat + z * z / (2 * n)) / (1 + z * z / n)
    return abs(value - center) <= wilson_halfwidth(p_hat, n, z)


class TestExactPoissonSweep:
    XI = [0.5, 0.8, 1.0, 1.25, 2.0]

    def test_acceptance_box_integer_edges(self):
        """Counts exactly psi away from the center are outside the box."""
        centers = np.array([2.0, 3.0, 1.5, 0.3, 7.25, 1.0])
        psis = [1.0, 2.0, 1.5, 2.0, 0.75, 3.0]
        x = np.arange(0, 50)
        for center, psi in zip(centers, psis):
            lo, hi = _acceptance_box(np.array([center]), psi)
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
        from supgof.rates import multinomial_sharp_constant_epsilon

        p, n = 6, 6.0
        q0 = SimplexVector(np.full(p, 1.0 / p))
        eps, j_star, n_prime, m = multinomial_sharp_constant_epsilon(q0, n, math.log(p), 0.5)
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
