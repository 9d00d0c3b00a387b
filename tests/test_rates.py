"""Tests for the separation-rate profiles and regime diagnostics."""

from __future__ import annotations

import math

import numpy as np
import pytest

from supgof.model import RateVector, SimplexVector
from supgof.rates import (
    multinomial_rate,
    multinomial_regime,
    multinomial_sharp_constant_level,
    poisson_rate,
    prob_all_observed,
    sharp_constant_epsilon,
)
from supgof.risk import sweep_multinomial_sharp_constant
from supgof.special import gamma_rate, h_inverse


def brute_force_argmax(objective: np.ndarray) -> int:
    best, best_val = 1, -math.inf
    for j, val in enumerate(objective, start=1):
        if val > best_val:
            best, best_val = j, val
    return best


class TestPoissonRate:
    def test_single_coordinate(self):
        """mu=(1): epsilon_star = 1 + Gamma(1) = 2, j_star = 1."""
        profile = poisson_rate(RateVector([1.0]))
        assert profile.epsilon_star == pytest.approx(2.0, rel=1e-12)
        assert profile.j_star == 1

    def test_constant_rates_argmax_at_last_index(self):
        """For constant mu the objective increases in j, so j_star = p."""
        profile = poisson_rate(RateVector([4.0] * 100))
        js = np.arange(1, 101)
        oracle = brute_force_argmax(4.0 * np.array([h_inverse((1 + math.log(j)) / 4.0) for j in js]))
        assert profile.j_star == oracle == 100

    def test_argmax_consistency_on_random_nulls(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            p = int(rng.integers(2, 40))
            mu = RateVector(np.sort(rng.uniform(0.05, 20.0, p))[::-1])
            profile = poisson_rate(mu)
            assert profile.per_coordinate_terms[profile.j_star - 1] == profile.per_coordinate_terms.max()
            assert profile.j_star == brute_force_argmax(profile.per_coordinate_terms)
            assert profile.psi == profile.per_coordinate_terms.max()

    def test_constant_rate_tracks_logp_over_loglogp(self):
        """epsilon_star grows like log p/log log p for mu == 1, up to constants."""
        ratios = []
        for p in (100, 1_000, 10_000):
            eps = poisson_rate(RateVector(np.ones(p))).epsilon_star
            ratios.append(eps / (math.log(p) / math.log(math.log(p))))
        assert 0.8 <= min(ratios) and max(ratios) <= 4.0
        assert max(ratios) / min(ratios) <= 2.0

    def test_scale_monotonicity_subgaussian(self):
        """max_j mu_j Gamma(log(ej)/mu_j) grows when large rates grow."""
        rng = np.random.default_rng(3)
        p = 30
        base = np.sort(rng.uniform(1.0, 3.0, p))[::-1] + (1 + math.log(p))
        prev = -math.inf
        for t in np.linspace(1.0, 10.0, 12):
            mu = base * t
            js = np.arange(1, p + 1)
            val = np.max(mu * gamma_rate((1 + np.log(js)) / mu))
            assert val >= prev - 1e-12
            prev = val

    def test_regime_labels(self):
        assert poisson_rate(RateVector([100.0] * 10)).regime == "subgaussian"
        assert poisson_rate(RateVector([0.2] * 1000)).regime == "subpoissonian"


class TestMultinomialRate:
    def test_point_mass_null(self):
        """q0=(1): only the 1/n term survives."""
        profile = multinomial_rate(SimplexVector([1.0]), 20.0)
        assert profile.epsilon_star == pytest.approx(1.0 / 20.0, rel=1e-12)
        assert profile.m == 0

    def test_two_cells(self):
        """q0=(1/2,1/2), n=100: j_star=1 and m caps at j_star - 1 = 0."""
        profile = multinomial_rate(SimplexVector([0.5, 0.5]), 100.0)
        assert profile.j_star == 1
        assert profile.m == 0
        assert profile.psi == 0.0

    def test_uniform_null_matches_sqrt_rate_when_n_large(self):
        """Third term ~ sqrt(log p/(n p)) once n >= p log p."""
        for p in (50, 200, 1000):
            n = 3.0 * p * math.log(p)
            profile = multinomial_rate(SimplexVector(np.full(p, 1.0 / p)), n)
            third = profile.epsilon_star - 1.0 / n - math.sqrt((1 / p) * (1 - 1 / p) / n)
            ratio = third / math.sqrt(math.log(p) / (n * p))
            assert 0.5 <= ratio <= 2.5

    def test_zero_cells_contribute_zero(self):
        profile = multinomial_rate(SimplexVector([0.6, 0.4, 0.0, 0.0]), 50.0)
        assert profile.per_coordinate_terms[1] == 0.0
        assert profile.per_coordinate_terms[2] == 0.0
        assert np.isfinite(profile.epsilon_star)

    @pytest.mark.parametrize(
        "probs, n",
        [
            ([1.0], 20.0),
            ([0.5, 0.5], 100.0),
            ([0.6, 0.4, 0.0, 0.0], 50.0),
            ([1.0, 0.0, 0.0], 50.0),
            ([0.25] * 4, 3.0),
            ([0.3, 0.3, 0.2, 0.1, 0.1], 1e4),
        ],
    )
    def test_regime_on_run_ends_is_the_profile_regime(self, probs, n):
        """Zero cells, a head tied with the tail and a lone head included."""
        q0 = SimplexVector(probs)
        assert multinomial_regime(q0, n) == multinomial_rate(q0, n).regime

    def test_zero_cell_limit_monotone(self):
        """q * Gamma(log(ej)/(nq)) -> 0 monotonically as q -> 0 (small q)."""
        n, j = 40.0, 7
        qs = np.logspace(-1, -12, 60)
        vals = np.array([q * gamma_rate((1 + math.log(j)) / (n * q)) for q in qs])
        below = qs < 1e-2
        assert np.all(np.diff(vals[below]) < 0)
        # The decay is logarithmic in 1/q, so only check it keeps shrinking.
        assert vals[-1] < 0.5 * vals[below][0]


class TestProbAllObserved:
    def test_log2_rates(self):
        """mu_j = log 2 gives factors exactly 1/2."""
        mu = RateVector([math.log(2.0)] * 3)
        assert prob_all_observed(mu, 3) == pytest.approx(0.125, rel=1e-12)

    def test_large_rates(self):
        mu = RateVector([10.0, 10.0])
        assert prob_all_observed(mu, 2) == pytest.approx((1 - math.exp(-10.0)) ** 2, rel=1e-12)

    def test_in_unit_interval(self):
        mu = RateVector([5.0, 1.0, 0.1])
        for k in (1, 2, 3):
            assert 0.0 < prob_all_observed(mu, k) < 1.0
        with pytest.raises(ValueError):
            prob_all_observed(mu, 4)

    def test_subpoissonian_regime_misses_coordinates(self):
        """Small rates against a long head: some coordinate is unobserved whp."""
        p = 2000
        mu = RateVector(np.full(p, 0.3))
        profile = poisson_rate(mu)
        assert profile.j_star >= 1000
        assert mu.rates[profile.j_star - 1] <= 0.05 * (1 + math.log(profile.j_star))
        assert prob_all_observed(mu, profile.j_star) <= 0.1


class TestSharpConstantEpsilon:
    def test_single_coordinate_value(self):
        """mu=(1), alpha_p=e, xi=1: the inflated log is exactly 2."""
        out = sharp_constant_epsilon(RateVector([1.0]), math.e, 1.0)
        assert out.value == pytest.approx(h_inverse(2.0), rel=1e-12)
        assert out.j_star == 1

    def test_linear_in_xi(self):
        mu = RateVector(np.linspace(9.0, 1.0, 20))
        v1 = sharp_constant_epsilon(mu, 5.0, 1.0).value
        v2 = sharp_constant_epsilon(mu, 5.0, 2.0).value
        assert v2 == pytest.approx(2.0 * v1, rel=1e-12)

    def test_monotone_in_alpha(self):
        mu = RateVector(np.linspace(9.0, 1.0, 20))
        vals = [sharp_constant_epsilon(mu, a, 1.0).value for a in (2.0, 5.0, 50.0)]
        assert vals[0] <= vals[1] <= vals[2]

    def test_requires_rates_at_least_one(self):
        with pytest.raises(ValueError):
            sharp_constant_epsilon(RateVector([2.0, 0.5]), 5.0, 1.0)


class TestMultinomialSharpConstantEpsilon:
    def test_two_cells_single_term(self):
        q0 = SimplexVector([0.5, 0.5])
        level, _j_star, n_prime_out, _m = multinomial_sharp_constant_level(q0, 100.0, 5.0)
        n_prime = (1 + 100 ** (-1 / 3)) * 100
        v = 0.5 * 0.5
        expected = v * h_inverse(1.0 / (n_prime * v))
        assert level == pytest.approx(expected, rel=1e-12)
        assert n_prime_out == pytest.approx(n_prime, rel=1e-15)

    def test_linear_in_xi(self):
        """The sweep's separations are ``xi`` times the xi-free level."""
        q0 = SimplexVector(np.full(30, 1.0 / 30))
        level = multinomial_sharp_constant_level(q0, 500.0, 4.0)[0]
        res = sweep_multinomial_sharp_constant(q0, 500.0, [0.5, 1.5], 4.0, 1, 0, poissonized=True)
        assert res.epsilons.tolist() == [0.5 * level, 1.5 * level]

    def test_m_clamped_to_two_when_positive(self):
        q0 = SimplexVector(np.full(200, 1.0 / 200))
        m = multinomial_sharp_constant_level(q0, 5_000.0, 4.0)[3]
        assert m == 0 or m >= 2

    def test_requires_min_cell(self):
        with pytest.raises(ValueError):
            multinomial_sharp_constant_level(SimplexVector([0.999, 0.001]), 100.0, 4.0)
