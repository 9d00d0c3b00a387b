"""Tests for the lower-bound constructions and the flattening reduction."""

from __future__ import annotations

import math

import numpy as np
import pytest
import scipy.stats

from supgof import divergence
from supgof.divergence import (
    chi_square_poisson_products,
    poisson_product_dist,
    tv_distance,
    tv_poisson_uniform_spike,
)
from supgof.model import RateVector, SimplexVector, rng_stream
import supgof.priors as priors
from supgof.priors import (
    MultinomialSimplexPrior,
    PoissonSpikePrior,
    certified_poisson_spike_c,
    certified_simplex_c,
    draw_multinomial_simplex_prior,
    draw_poisson_spike,
    flatten_poisson_pair,
    multinomial_parametric_alternative,
    verify_flattening,
)
from supgof.rates import multinomial_rate, poisson_rate
from supgof.special import h_inverse


class TestPoissonTwoPoint:
    def test_tv_bounded_by_sqrt_c(self, monkeypatch):
        """Raising the largest rate by ``c`` moves the law by at most ``sqrt(c)`` in TV."""
        monkeypatch.setattr(divergence, "DEFAULT_MASS_TOL", 1e-13)
        mu = np.array([1.0, 1.0])
        for c in (0.05, 0.25, 0.8):
            shifted = mu + [c, 0.0]
            tv = tv_distance(poisson_product_dist(mu), poisson_product_dist(shifted))
            assert tv.value + tv.error_bar <= math.sqrt(c)


class TestPoissonSpikePrior:
    def test_psi_formula(self):
        mu = RateVector(np.ones(10))
        prior = PoissonSpikePrior.build(mu, 0.3, big_c=5.0)
        assert prior.j_star == poisson_rate(mu).j_star == 10
        assert prior.psi == pytest.approx(h_inverse(math.log(5.0 * 10)), rel=1e-12)

    def test_builds_on_runs_past_the_cap(self):
        """j* and the critical rate come from the runs, so a null of 1e12
        coordinates needs no dense rates; below the cap the runs and the
        cells give the same prior."""
        mu = RateVector.from_runs([50.0, 3.0, 1.0], [10**6, 10**9, 10**12])
        prior = PoissonSpikePrior.build(mu, 1.0)
        assert prior.j_star == 10**6
        assert prior.psi == 50.0 * h_inverse((1.0 + math.log(10**6)) / 50.0)
        small = RateVector.from_runs([5.0, 2.0, 0.5], [3, 40, 500])
        dense = RateVector(np.repeat(*small.runs))
        fields = lambda b: (b.j_star, b.psi, b.c, b.big_c)
        assert fields(PoissonSpikePrior.build(small, 0.7, 4.0)) == fields(PoissonSpikePrior.build(dense, 0.7, 4.0))

    @pytest.mark.parametrize("c", [1e308, math.inf])
    def test_infinite_spiked_rate_raises(self, c):
        with pytest.raises(ValueError, match="infinite"):
            PoissonSpikePrior.build(RateVector([3.0, 2.0, 1.0]), c)

    def test_draws_past_the_cap_are_refused_before_allocation(self):
        prior = PoissonSpikePrior.build(RateVector([3.0, 2.0, 1.0]), 1.0)
        with pytest.raises(ValueError, match=r"trials \(--trials\) x p = 1000000000000 x 3"):
            draw_poisson_spike(prior, 0, trials=10**12)

    @pytest.mark.parametrize("c", [math.nan, 0.0, -1.0])
    def test_nan_or_nonpositive_c_is_refused(self, c):
        """NaN once passed ``c <= 0`` and was reported as an infinite spiked rate."""
        with pytest.raises(ValueError, match="c must be positive"):
            PoissonSpikePrior.build(RateVector([3.0, 2.0, 1.0]), c)

    @pytest.mark.parametrize("trials", [0, -1])
    def test_draws_need_a_trial(self, trials):
        """``trials = 0`` once drew an empty array and ``-1`` failed inside numpy."""
        spike = PoissonSpikePrior.build(RateVector([3.0, 2.0, 1.0]), 0.5)
        simplex = MultinomialSimplexPrior.build(SimplexVector(np.full(12, 1.0 / 12)), 30.0, 1.0)
        with pytest.raises(ValueError, match="--trials"):
            draw_poisson_spike(spike, 0, trials=trials)
        with pytest.raises(ValueError, match="--trials"):
            draw_multinomial_simplex_prior(simplex, 0, trials=trials)

    @pytest.mark.parametrize("big_c", [math.nan, 2.0])
    def test_big_c_below_e_or_nan_names_the_option(self, big_c):
        with pytest.raises(ValueError, match="--big-c"):
            PoissonSpikePrior.build(RateVector([3.0, 2.0, 1.0]), 0.5, big_c)

    def test_singleton_support(self):
        """j*=1: the spike always lands on the only coordinate."""
        prior = PoissonSpikePrior.build(RateVector([1.0]), 0.5)
        draws = draw_poisson_spike(prior, 7, trials=100)
        assert np.all(draws[:, 0] == 1.0 + prior.spike)

    def test_spike_position_uniform(self):
        mu = RateVector(np.ones(10))
        prior = PoissonSpikePrior.build(mu, 0.4)
        draws = draw_poisson_spike(prior, 21, trials=100_000)
        positions = np.argmax(draws > 1.0, axis=1)
        freqs = np.bincount(positions, minlength=10) / 100_000
        assert np.all(np.abs(freqs - 0.1) <= 0.02)

    def test_sup_norm_separation_exact(self):
        mu = RateVector(np.linspace(4.0, 1.0, 12))
        prior = PoissonSpikePrior.build(mu, 0.7)
        draws = draw_poisson_spike(prior, 3, trials=1_000)
        deviations = np.abs(draws - mu.rates).max(axis=1)
        np.testing.assert_allclose(deviations, prior.spike, rtol=1e-12)

    def test_support_lemma_for_big_c_at_least_e(self):
        """||lambda - mu||_inf >= c * max_j mu_j h^{-1}(log(ej)/mu_j) when C >= e."""
        rng = np.random.default_rng(8)
        for _ in range(10):
            p = int(rng.integers(2, 30))
            mu = RateVector(np.sort(rng.uniform(0.2, 5.0, p))[::-1])
            c = float(rng.uniform(0.1, 1.0))
            big_c = float(rng.uniform(math.e, 20.0))
            prior = PoissonSpikePrior.build(mu, c, big_c)
            base_psi = poisson_rate(mu).psi
            assert prior.spike >= c * base_psi - 1e-12

    def test_determinism(self):
        prior = PoissonSpikePrior.build(RateVector(np.ones(5)), 0.3)
        a = draw_poisson_spike(prior, 42)
        b = draw_poisson_spike(prior, 42)
        np.testing.assert_array_equal(a, b)

    def test_certified_c_meets_eta(self):
        mu = RateVector(np.ones(8))
        c, risk = certified_poisson_spike_c(mu, 0.5)
        assert risk >= 0.5
        assert 0.0 < c <= 1.0

    @pytest.mark.parametrize("p", [8, 16, 32])
    @pytest.mark.parametrize("eta", [0.5, 0.9, 0.99])
    def test_certified_c_matches_a_loop_over_the_public_tv(self, p, eta):
        """Sharing level tables across the c-grid changes no bit of ``(c, risk)``.

        At eta = 0.99 the search walks the whole grid, and ``x_max`` grows to
        6, 10 and 15; at p = 8 no grid point certifies it.
        """
        mu = RateVector(np.ones(p))
        prior = PoissonSpikePrior.build(mu, 1.0)

        def naive():
            for c in np.linspace(1.0, 1.0 / priors._C_GRID, priors._C_GRID):
                risk = 1.0 - tv_poisson_uniform_spike(1.0, float(c) * prior.psi, prior.j_star).value
                if risk >= eta:
                    return float(c), risk
            return None

        want = naive()
        if want is None:
            with pytest.raises(ValueError, match="no grid point"):
                certified_poisson_spike_c(mu, eta)
        else:
            assert certified_poisson_spike_c(mu, eta) == want


class TestParametricAlternative:
    def test_zero_scale_returns_null(self):
        q0 = SimplexVector([0.5, 0.3, 0.2])
        np.testing.assert_array_equal(multinomial_parametric_alternative(q0, 50, 0.0), q0.probs)

    def test_example_values(self):
        q0 = SimplexVector([0.5, 0.5])
        q1 = multinomial_parametric_alternative(q0, 100.0, 1.0)
        np.testing.assert_allclose(q1, [0.45, 0.55], rtol=1e-12)

    def test_simplex_membership_and_separation(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            p = int(rng.integers(2, 8))
            raw = rng.uniform(0.1, 1.0, p)
            q0 = SimplexVector(np.sort(raw / raw.sum())[::-1])
            n, c = float(rng.integers(10, 200)), float(rng.uniform(0.1, 1.0))
            q1 = multinomial_parametric_alternative(q0, n, c)
            eps = min(q0.head, math.sqrt(q0.head * (1 - q0.head) / n))
            assert q1.min() >= -1e-15
            assert q1.sum() == pytest.approx(1.0, abs=1e-12)
            assert np.abs(q1 - q0.probs).max() == pytest.approx(c * eps, rel=1e-9)

    def test_chisq_bounded(self):
        """chi2(@Poi(n q1) || @Poi(n q0)) <= e^{c^2} - 1 by the closed form."""
        rng = np.random.default_rng(11)
        for _ in range(20):
            p = int(rng.integers(2, 6))
            raw = rng.uniform(0.1, 1.0, p)
            q0 = SimplexVector(np.sort(raw / raw.sum())[::-1])
            n, c = float(rng.integers(5, 100)), float(rng.uniform(0.05, 1.0))
            q1 = multinomial_parametric_alternative(q0, n, c)
            chi2 = chi_square_poisson_products(n * q1, n * q0.probs)
            assert chi2 <= math.exp(c * c) - 1.0 + 1e-12


class TestSimplexPrior:
    def _uniform_null(self, p=40, n=50.0):
        return SimplexVector(np.full(p, 1.0 / p)), n

    def test_one_category_is_refused_by_name(self):
        """A one-cell null once failed as an "inconsistent critical index"."""
        with pytest.raises(ValueError, match="need at least two categories"):
            MultinomialSimplexPrior.build(SimplexVector([1.0]), 50.0, 1.0)

    def test_m_zero_draws_are_null(self):
        q0 = SimplexVector([0.5, 0.5])
        prior = MultinomialSimplexPrior.build(q0, 100.0, 0.5)
        assert prior.m == 0
        draws = draw_multinomial_simplex_prior(prior, 1, trials=50)
        np.testing.assert_array_equal(draws, np.tile(q0.probs, (50, 1)))

    def test_draws_stay_on_simplex(self):
        q0, n = self._uniform_null()
        c = certified_simplex_c(q0, n)
        prior = MultinomialSimplexPrior.build(q0, n, c)
        assert prior.m >= 1
        draws = draw_multinomial_simplex_prior(prior, 2, trials=20_000)
        assert np.abs(draws.sum(axis=1) - 1.0).max() <= 1e-12
        assert draws.min() >= -1e-15

    def test_sup_norm_separation(self):
        q0, n = self._uniform_null()
        prior = MultinomialSimplexPrior.build(q0, n, certified_simplex_c(q0, n))
        draws = draw_multinomial_simplex_prior(prior, 3, trials=5_000)
        target = prior.c * prior.psi / prior.n
        np.testing.assert_allclose(np.abs(draws - q0.probs).max(axis=1), target, rtol=1e-9)

    def test_first_coordinate_never_perturbed(self):
        q0, n = self._uniform_null()
        prior = MultinomialSimplexPrior.build(q0, n, certified_simplex_c(q0, n))
        draws = draw_multinomial_simplex_prior(prior, 4, trials=5_000)
        np.testing.assert_array_equal(draws[:, 0], np.full(5_000, q0.probs[0]))

    def test_spike_and_subset_uniformity(self):
        """Chi-square GOF for the spike position and removal membership."""
        q0, n = self._uniform_null(p=12, n=30.0)
        prior = MultinomialSimplexPrior.build(q0, n, certified_simplex_c(q0, n))
        trials = 100_000
        draws = draw_multinomial_simplex_prior(prior, 5, trials=trials)
        add = prior.c * prior.psi / prior.n
        spike_pos = np.argmax(np.isclose(draws - q0.probs, add), axis=1)
        counts = np.bincount(spike_pos, minlength=q0.p)[1 : prior.j_star + 1]
        _stat, pvalue = scipy.stats.chisquare(counts)
        assert pvalue > 1e-4
        removal_mask = draws < q0.probs - 1e-15
        membership = removal_mask[:, 1 : prior.j_star + 1].sum(axis=0)
        _stat, pvalue = scipy.stats.chisquare(membership)
        assert pvalue > 1e-4

    def test_single_draw_matches_contract(self):
        q0, n = self._uniform_null(p=10, n=25.0)
        prior = MultinomialSimplexPrior.build(q0, n, certified_simplex_c(q0, n))
        draws = draw_multinomial_simplex_prior(prior, 6)
        assert draws.shape == (1, q0.p)
        q = draws[0]
        assert q.sum() == pytest.approx(1.0, abs=1e-12)
        assert (q < q0.probs - 1e-15).sum() == prior.m

    def test_oversized_c_rejected(self):
        q0, n = self._uniform_null()
        with pytest.raises(ValueError):
            MultinomialSimplexPrior.build(q0, n, 100.0)

    def test_builds_on_runs_past_the_cap(self):
        """j*, psi, m and the floor cell come from the runs, so a flat null
        of 1e15 cells needs no dense probabilities; below the cap the runs
        and the cells give the same prior and the same certified c."""
        q0, n = SimplexVector.from_runs([1e-15], [10**15]), 1.26e18
        c = certified_simplex_c(q0, n)
        prior = MultinomialSimplexPrior.build(q0, n, c)
        profile = multinomial_rate(q0, n)
        assert (prior.j_star, prior.psi, prior.m) == (profile.j_star, profile.psi, profile.m)
        assert (prior.j_star, prior.m) == (10**15 - 1, 1)
        assert c == 0.9 * 1 / h_inverse((1.0 + math.log(10**15 - 1)) / 1260.0)
        small = SimplexVector.from_runs([0.1, 0.02, 0.0015], [3, 20, 200])
        dense = SimplexVector(np.repeat(*small.runs))
        fields = lambda b: (b.j_star, b.psi, b.m, b.c)
        for n in (50.0, 1e3, 1e5):
            assert certified_simplex_c(small, n) == certified_simplex_c(dense, n)
            c = certified_simplex_c(dense, n)
            assert fields(MultinomialSimplexPrior.build(small, n, c)) == fields(MultinomialSimplexPrior.build(dense, n, c))


class TestFlattening:
    def test_point_mass_prior_both_sides_zero(self):
        mu = RateVector([2.0, 1.0])
        report = verify_flattening(mu, [(1.0, mu.rates)], 2, 1.0)
        assert report.lhs.value <= 1e-12
        assert report.rhs_head.value <= 1e-12
        assert report.ok

    def test_spike_prior_inequality(self):
        """TV(original pair) <= TV(flattened pair) for the spike prior."""
        mu = RateVector([2.0, 1.0])
        prior = PoissonSpikePrior.build(mu, 0.15)
        weights, rows = prior.components()
        report = verify_flattening(mu, list(zip(weights, rows)), 2, 1.0)
        assert report.lhs.value <= report.rhs_head.value + report.rhs_tail.value + 1e-9
        assert report.ok

    def test_k1_is_location_shift(self):
        """k=1 reduces the head pair to a one-coordinate location shift."""
        mu = RateVector([3.0, 1.0])
        prior = [(0.5, np.array([3.5, 1.0])), (0.5, np.array([4.0, 1.0]))]
        pair = flatten_poisson_pair(mu, prior, 1, 2.0)
        assert pair.null.p == 1
        assert pair.mixture.p == 1
        # Shifted means are 2.5 and 3.0: the original shift sizes survive.
        assert pair.mixture.rates.tolist() == [[2.5], [3.0]]

    def test_negative_shift_rejected(self):
        mu = RateVector([5.0, 1.0])
        prior = [(1.0, np.array([1.0, 1.0]))]  # xi_1 - omega_1 + 1 = -3
        with pytest.raises(ValueError):
            flatten_poisson_pair(mu, prior, 2, 1.0)

    def test_dependent_head_tail_rejected(self):
        mu = RateVector([1.0, 1.0])
        prior = [(0.5, np.array([2.0, 2.0])), (0.5, np.array([1.0, 1.0]))]
        with pytest.raises(ValueError):
            flatten_poisson_pair(mu, prior, 1, 1.0)

    def test_randomized_small_instances(self):
        """Flattening inequality on random product-form priors."""
        rng = np.random.default_rng(12)
        for _ in range(25):
            p = int(rng.integers(1, 4))
            omega = np.sort(rng.uniform(0.1, 3.0, p))[::-1]
            k = int(rng.integers(1, min(p, 2) + 1))
            underline = float(rng.uniform(0.0, omega[k - 1]))
            n_head, n_tail = int(rng.integers(1, 3)), int(rng.integers(1, 3))
            heads = [
                np.concatenate([omega[:k] - underline + rng.uniform(0.0, 1.5, k), omega[k:]])
                for _ in range(n_head)
            ]
            tails = [np.concatenate([omega[:k], rng.uniform(0.0, 3.0, p - k)]) for _ in range(n_tail)]
            wh = rng.dirichlet(np.ones(n_head))
            wt = rng.dirichlet(np.ones(n_tail))
            prior = []
            for i, hrow in enumerate(heads):
                for j, trow in enumerate(tails):
                    row = np.concatenate([hrow[:k], trow[k:]])
                    prior.append((float(wh[i] * wt[j]), row))
            report = verify_flattening(omega, prior, k, underline)
            assert report.ok, report.to_dict()
