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

from supgof import divergence
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
    multinomial_rate,
    multinomial_sharp_constant_level,
    poisson_rate,
    sharp_constant_epsilon,
)
from supgof.risk import (
    _TAIL,
    _Bounds,
    _bounds,
    _cell_rows,
    _choose_grid,
    _FixedN,
    _Grid,
    _invert,
    _ladders,
    _log_mean_subset_products,
    _log_spectra,
    _PoissonCells,
    _pool_tree,
    _weighted,
    _worst_draw,
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
        """Testing the null against itself: Type I + Type II = 1, exactly up to round-off."""
        mu = RateVector(np.ones(30))
        r = estimate_poisson_risk(mu, mu, 0.2, 4_000, 5)
        assert abs(r.total - 1.0) <= 1e-12

    def test_ci_scales_with_trials(self):
        """The route is exact: the trial count changes no error rate, and no
        trial is drawn, so the ``ci`` is 0 at every count."""
        mu = RateVector(np.ones(10))
        alt = mu.rates.copy()
        alt[0] += 4.0
        r1 = estimate_poisson_risk(mu, alt, 0.2, 1_000, 9)
        r2 = estimate_poisson_risk(mu, alt, 0.2, 4_000, 9)
        assert (r1.type1, r1.type2) == (r2.type1, r2.type2)
        assert r1.ci_halfwidth == r2.ci_halfwidth == 0.0
        assert r1.trials == r2.trials == 0

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
        assert abs(r.total - 1.0) <= 1e-12

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
        m = multinomial_sharp_constant_level(q0, n, math.log(p))[3]
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
        level, j_star = sharp_constant_epsilon(mu, 3.0, 1.0)
        run_values, run_counts = mu.runs
        law = _PoissonCells(AcceptanceBox.around(run_values, level, strict=True), run_values, run_counts, j_star=j_star)
        spikes = [xi * level for xi in self.XI]  # the spike prior of scale xi on the level
        assert _each_of_the_batch(law, spikes) == [risk.type2 for risk in res.risks]
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
        level = sharp_constant_epsilon(mu, math.log(mu.p), 1.0).value
        distinct = {xi * level / xi for xi in self.XI}
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


def _dense_log_mean_subset_products(log_r: np.ndarray, m: int) -> np.ndarray:
    """``log(e_m(r_{-s}) / C(k - 1, m))`` for each of ``k`` single ratios, by
    prefix and suffix tables of ``log e_l`` over the cells: the dense routine
    the runs form replaced, kept here as its oracle."""
    k = log_r.size
    suf = np.full((k, m + 1), -np.inf)
    suf[:, 0] = 0.0
    for l in range(1, m + 1):
        suf[:-1, l] = np.logaddexp.accumulate((log_r[1:] + suf[1:, l - 1])[::-1])[::-1]
    pre = np.zeros(k)
    total = suf[:, m].copy()
    for l in range(1, m + 1):
        pre = np.r_[-np.inf, np.logaddexp.accumulate(log_r[:-1] + pre[:-1])]
        total = np.logaddexp(total, pre + suf[:, m - l])
    return total - math.log(math.comb(k - 1, m))


def _dense_multinomial_sweep(probs: np.ndarray, n: float, xi_grid, alpha_p: float) -> list[tuple[float, float, float]]:
    """``(epsilon, type1, type2)`` per ``xi`` of the Poissonized multinomial
    sweep from every cell's own box and the dense leave-one-out average: no runs.

    The two objectives are maximized over every tail index ``j``; Type I is
    ``1 - prod_j a_j`` and Type II the mean over the spiked cell ``s`` of
    ``b_s prod_{i != s} a_i`` times the mean removal product.
    """
    n_prime = (1.0 + n ** (-1.0 / 3.0)) * n
    tail = probs[1:]
    js = np.arange(1, tail.size + 1, dtype=float)
    v = tail * (1.0 - tail)
    level = float(np.max(v * h_inverse((1.0 + np.log(js)) / (n_prime * v))))
    inflated = 1.0 + np.log(js) + math.log(alpha_p) + 2.0 * np.log1p(np.log(js))
    j_star = int(np.argmax(v * h_inverse(inflated / (n_prime * v)))) + 1
    m = min(max(2, math.ceil(h_inverse((1.0 + math.log(j_star)) / (n_prime * tail[j_star - 1])))), j_star - 1)
    pool = slice(1, j_star + 1)
    out = []
    for xi in xi_grid:
        eps = xi * level
        box = AcceptanceBox.around(n * probs, n_prime * eps / xi, strict=True)
        log_a = risk_module._box_log_mass(box, n * probs)
        b = risk_module._box_mass(box[pool], n * (probs[pool] + eps))
        log_d = risk_module._box_log_mass(box[pool], n * np.clip(probs[pool] - eps / m, 0.0, None))
        log_w = _dense_log_mean_subset_products(log_d - log_a[pool], m)
        type2 = np.mean(b * np.exp(log_a.sum() - log_a[pool] + log_w))
        out.append((eps, -math.expm1(log_a.sum()), float(type2)))
    return out


def _random_simplex_step_nulls(count: int, seed: int, p_max: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """``(values, counts)`` of step nulls on the simplex with at most ``p_max``
    cells; in every third the head ties with the first tail run."""
    rng = np.random.default_rng(seed)
    nulls = []
    for i in range(count):
        values = np.unique(rng.uniform(0.2, 5.0, int(rng.integers(1, 30))))[::-1]
        counts = rng.integers(1, p_max // values.size + 1, values.size)
        if i % 3 == 0:
            counts[0] = max(counts[0], 2)
        if counts.sum() < 3:
            counts[-1] += 2
        nulls.append((values / (counts @ values), counts))
    return nulls


def _whole_table_worst_draw(base, spiked, reduced, counts, m) -> np.ndarray:
    """``_worst_draw`` with every column in one table: the reference for its blocks."""
    lift = reduced - base
    order = np.argsort(-lift, axis=0, kind="stable")
    taken, ranked = counts[order], np.take_along_axis(lift, order, axis=0)
    ahead = np.cumsum(taken, axis=0) - taken
    top, more = (np.sum(np.clip(k - ahead, 0, taken) * ranked, axis=0) for k in (m, m + 1))
    return counts @ base + np.max(spiked - base + np.minimum(top, more - lift), axis=0)


def _each_of_the_batch(law, masses) -> list[float]:
    """``law.bayes`` on the batch ``masses``, checked against each mass as a
    batch of one, bit for bit."""
    batch = law.bayes(masses)
    assert batch == [law.bayes([mass])[0] for mass in masses]
    return batch


def _on_simplex_n(values: np.ndarray, counts: np.ndarray) -> float:
    """A sample size at which the smallest cell's mean is ``4 log^2(e p)``, so
    the sweep's alternatives stay on the simplex for ``xi <= 2``."""
    return 4.0 * (1.0 + math.log(counts.sum())) ** 2 / values[-1]


class TestGroupedMultinomialSweep:
    """The multinomial sweeps over runs of equal cells against dense cells."""

    XI = [0.5, 1.0, 2.0]

    @pytest.mark.parametrize("values, counts", _random_simplex_step_nulls(24, 20_261_020, 10_000))
    def test_poissonized_matches_the_dense_sweep(self, values, counts):
        q0 = SimplexVector.from_runs(values, counts)
        assert q0.p <= 10_000
        n = _on_simplex_n(values, counts)
        res = sweep_multinomial_sharp_constant(q0, n, self.XI, 3.0, 1, 0, poissonized=True)
        dense = _dense_multinomial_sweep(q0.probs, n, self.XI, 3.0)
        for risk, eps, (eps_d, type1, type2) in zip(res.risks, res.epsilons, dense):
            np.testing.assert_allclose([eps, risk.type1, risk.type2], [eps_d, type1, type2], rtol=1e-12, atol=1e-15)
        assert res.regime == multinomial_rate(q0, n).regime

    @pytest.mark.parametrize("values, counts", _random_simplex_step_nulls(6, 20_261_021, 600))
    def test_fixed_n_matches_the_dense_cells(self, values, counts):
        """Every box, product and pool of the sweep over runs against the same
        sweep handed one run per cell."""
        q0 = SimplexVector.from_runs(values, counts)
        n = float(math.ceil(_on_simplex_n(values, counts)))
        res = sweep_multinomial_sharp_constant(q0, n, self.XI, 3.0, 1, 0)
        level, j_star, n_prime, m, _ = multinomial_sharp_constant_level(q0, n, 3.0)
        probs = q0.probs
        ones = np.ones(probs.size, dtype=np.int64)
        box = AcceptanceBox.around(n * probs, n_prime * level, strict=True)
        state = _FixedN(box, n, probs, ones, n * float(probs.sum()), j_star, m)
        for risk, type2 in zip(res.risks, _each_of_the_batch(state, [n * eps for eps in res.epsilons])):
            np.testing.assert_allclose([risk.type1, risk.type2], [1.0 - state.accept, type2], rtol=1e-12, atol=1e-15)

    @pytest.mark.parametrize("values, counts", _random_simplex_step_nulls(12, 20_261_022, 10_000))
    def test_simplex_prior_type2_over_runs(self, values, counts):
        """The prior's Poissonized Type II on the runs of its base, each run one
        box, against the same base as one run per cell and the dense oracle."""
        q0 = SimplexVector.from_runs(values, counts)
        n = _on_simplex_n(values, counts)
        prior = MultinomialSimplexPrior.build(q0, n, certified_simplex_c(q0, n))
        box = MultinomialTestConfig.from_eta(q0, n, 0.2).acceptance_box(q0, n)
        run_values, run_counts = q0.runs
        run_box = box[np.cumsum(run_counts) - 1]
        # The prior's mass c psi at scales c, c / 2 and c / 4, on its pool.
        masses = [prior.c / k * prior.psi for k in (1, 2, 4)]
        assert prior.m >= 1  # some cell gives up the added mass
        drawn = (1, prior.j_star, prior.m)
        runs = _each_of_the_batch(_PoissonCells(run_box, run_values, run_counts, n, *drawn), masses)[0]
        dense_law = _PoissonCells(box, q0.probs, np.ones(q0.p, dtype=np.int64), n, *drawn)
        dense = _each_of_the_batch(dense_law, masses)[0]
        log_a = dense_law.log_a
        assert runs == pytest.approx(dense, rel=1e-12)
        pool = slice(1, prior.j_star + 1)
        shift = prior.c * prior.psi / prior.n
        b = risk_module._box_mass(box[pool], n * (q0.probs[pool] + shift))
        log_d = risk_module._box_log_mass(box[pool], n * np.clip(q0.probs[pool] - shift / prior.m, 0.0, None))
        log_w = _dense_log_mean_subset_products(log_d - log_a[pool], prior.m)
        assert runs == pytest.approx(np.mean(b * np.exp(log_a.sum() - log_a[pool] + log_w)), rel=1e-12)

    @pytest.mark.parametrize("cells", [3, 5, 8])
    def test_subset_products_over_runs_match_direct_sum(self, cells):
        """Runs of equal ratios against every ``m``-subset of their cells, written out."""
        rng = np.random.default_rng(cells)
        counts = rng.integers(1, 4, cells)
        log_r = np.r_[-np.inf, rng.uniform(-30.0, 30.0, cells - 1)]
        dense = np.repeat(log_r, counts)
        starts = np.cumsum(counts) - counts
        for m in range(1, int(counts.sum())):
            want = []
            for s in starts:
                others = [i for i in range(dense.size) if i != s]
                sums = [dense[list(c)].sum() for c in itertools.combinations(others, m)]
                want.append(logsumexp(sums) - math.log(math.comb(dense.size - 1, m)))
            got = _log_mean_subset_products(log_r, m, counts)
            np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-12)

    def test_flat_run_of_1e15_against_mpmath(self):
        """``type1 = 1 - a^p`` and ``type2 = b c^m a^(p-1-m)``, the box masses
        summed at 40 digits; the sweep holds no p-length array, and fixed-n,
        which needs the dense cells, names the cap."""
        p = 10**15
        n = p * (1.0 + math.log(p)) ** 2
        q0 = SimplexVector.from_runs([1.0 / p], [p])
        xi_grid = [0.8, 1.0, 1.4]
        tracemalloc.start()
        try:
            res = sweep_multinomial_sharp_constant(q0, n, xi_grid, math.log(p), 1, 0, poissonized=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        _, _, n_prime, m, _ = multinomial_sharp_constant_level(q0, n, math.log(p))
        lam = n * (1.0 / p)
        with mpmath.workdps(40):
            for xi, eps, risk in zip(xi_grid, res.epsilons, res.risks):
                psi = n_prime * float(eps) / xi
                near = range(max(0, math.floor(lam - psi) - 1), math.ceil(lam + psi) + 2)
                box = [x for x in near if abs(x - lam) < psi]

                def mass(rate):
                    rate = mpmath.mpf(rate)
                    return mpmath.fsum(mpmath.exp(-rate + x * mpmath.log(rate) - mpmath.loggamma(x + 1)) for x in box)

                shift = n * float(eps) / n
                a = mass(lam)
                b = mass(n * (1.0 / p + shift))
                c = mass(n * (1.0 / p - n * float(eps) / (n * m)))
                assert risk.type1 == pytest.approx(float(1 - a**p), rel=1e-12)
                assert risk.type2 == pytest.approx(float(b * c**m * a ** (p - 1 - m)), rel=1e-12)
        with pytest.raises(ValueError, match="DENSE_RATES_CAP"):
            sweep_multinomial_sharp_constant(q0, n, xi_grid, math.log(p), 1, 0)

    @pytest.mark.parametrize(
        "null, rows",
        [
            (
                "flat",
                [(0.031870061390900206, 0.9416450112440565), (0.031870061390900206, 0.5054768014186554),
                 (0.031870061390900206, 0.00021825566618266295)],
            ),
            (
                "het",
                [(0.3571612182703504, 0.5382026209463571), (0.3571612182703504, 0.279111096338737),
                 (0.3571612182703504, 0.007934638082373303)],
            ),
        ],
    )
    def test_fixed_n_rows_are_bit_identical_to_the_dense_grouping(self, null, rows, monkeypatch):
        """The benchmark's nulls at p = 1e3, n = 1e5: the sweep over runs gives
        the rows pinned here; the same sweep on the dense cells, one run per
        cell, gives them bit for bit; and each lies within its stated error of
        a long-double convolution of the same rows."""
        p, n = 1000, 100_000
        het = np.arange(1, p + 1.0) ** -0.5
        q0 = SimplexVector(np.full(p, 1.0 / p) if null == "flat" else het / het.sum())
        res = sweep_multinomial_sharp_constant(q0, n, [0.5, 1.0, 2.0], math.log(p), 1, 0)
        assert [(r.type1, r.type2) for r in res.risks] == rows
        grids = _recorded_grids(monkeypatch)
        law, _, j_star, m = _sweep_law(q0, n)
        cells = law.outside + law.pool
        point = _poisson_point(n, law.total)
        lo_rows = _lo_rows(law.rows)
        outside = _long_double_product((row, count) for row, count in zip(lo_rows, law.outside) if count)
        pool = np.flatnonzero(law.pool)
        for eps, risk in zip(res.epsilons, res.risks):
            assert (1.0 - law.accept, law.bayes([n * eps])[0]) == (risk.type1, risk.type2)
            q = law.values[pool]
            b, d = (_lo_rows(_cell_rows(n * rates, law.lo[pool], law.hi[pool], law.t)) for rates in (q + eps, q - eps / m))
            if pool.size == 1:  # one law for every draw
                draws = [[(lo_rows[pool[0]], int(law.pool[pool[0]]) - 1 - m), (b[0], 1), (d[0], m)]]
            else:
                draws = [
                    [(b[s], 1)] + [(d[i] if i in removed else lo_rows[pool[i]], 1) for i in range(pool.size) if i != s]
                    for s in range(pool.size)
                    for removed in itertools.combinations([i for i in range(pool.size) if i != s], m)
                ]
            type2 = np.mean([_coefficient(_long_double_product(draw, outside), law.t) for draw in draws])
            assert abs(risk.type2 - type2 / point) <= _stated(grids[-1], cells, law.rows.width, point)
        type1 = 1.0 - _coefficient(_long_double_product(((lo_rows[g], law.pool[g]) for g in pool), outside), law.t) / point
        assert abs(res.risks[0].type1 - type1) <= _stated(grids[0], cells, law.rows.width, point)


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

    def test_multinomial_exact_lower_bound_versus_high_xi_risk(self, monkeypatch):
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
        level, j_star, n_prime, m, _ = multinomial_sharp_constant_level(q0, n, math.log(p))
        eps = 0.5 * level
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
        monkeypatch.setattr(divergence, "DEFAULT_MASS_TOL", 1e-9)
        mix = poisson_mixture([1.0 / len(rows)] * len(rows), rows)
        null = poisson_product_dist([nu] * j_star)
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


def _multinomial_accept(box, n, lam) -> float:
    """``P(X in box)`` for ``X ~ Multinomial(n, lam / sum lam)``: the fixed-n law with no pool."""
    return _FixedN(box, n, lam / n, np.ones(lam.size, dtype=np.int64), float(lam.sum())).accept


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
        "rates, other",
        [([2.0, 1.0], [2.6, 0.7]), ([4.0, 3.0, 3.0], [3.5, 3.4, 2.0]), ([6.3, 2.2, 1.0], [6.3, 2.2, 1.8])],
    )
    def test_spike_prior_on_another_base(self, rates, other):
        """Type I comes from the null, Type II from the prior's own base in every cell."""
        mu, base = RateVector(rates), RateVector(other)
        cfg = PoissonTestConfig.from_eta(mu, 0.3)
        prior = PoissonSpikePrior.build(base, 1.5)
        caps = [_poisson_cap(max(r, b) + prior.spike + 3.0) for r, b in zip(mu.rates, base.rates)]
        accept = _poisson_accepts(_count_grid(caps), mu, cfg)

        def bayes(rates):
            spiked = [rates + prior.spike * np.eye(mu.p)[j] for j in range(prior.j_star)]
            return np.mean([_mass(caps, row)[accept].sum() for row in spiked])

        risk = estimate_poisson_risk(mu, prior, 0.3, 100, 0)
        assert abs(risk.type1 - _mass(caps, mu.rates)[~accept].sum()) <= 1e-12
        assert abs(risk.type2 - bayes(base.rates)) <= 1e-12
        assert abs(risk.type2 - bayes(mu.rates)) > 1e-6  # the null's cells would not do

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
        level, j_star, n_prime, m, _ = multinomial_sharp_constant_level(q0, n, 3.0)
        assert m >= 1
        for xi, eps, risk in zip(xi_grid, res.epsilons, res.risks):
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

        sampled = n * np.clip(draw_multinomial_simplex_prior(sprior, 20_261_018, trials=draws), 0.0, None)
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
                got = _log_mean_subset_products(log_r, m, np.ones(k, dtype=np.int64))
                np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-12)


class TestZeroProbabilityPoolBox:
    """A pool box with zero float64 null probability is a numeric failure on every route."""

    @pytest.mark.parametrize("rate", [0.5, 2.5], ids=["below-zero-edge", "overlapping-tails"])
    def test_empty_box(self, rate):
        """A zero threshold leaves no count within it of the rate: the box is empty.

        The risk is assembled from the box through the Poisson law, as
        ``estimate_poisson_risk`` does, at a fixed alternative and under the
        spike prior.
        """
        mu = RateVector([rate])
        box = AcceptanceBox.around(mu.rates, 0.0, strict=False)
        assert box.hi[0] < box.lo[0]
        ones = np.ones(1, dtype=np.int64)
        prior = PoissonSpikePrior.build(mu, 0.5)
        null = _PoissonCells(box, mu.rates, ones, j_star=prior.j_star)
        risk = null.risk(_PoissonCells(box, np.array([4.0]), ones).accept, 0)
        assert (risk.type1, risk.type2) == (1.0, 0.0)
        with pytest.raises(FloatingPointError, match="coordinate 1 "):
            null.bayes([prior.spike])

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
        level, j_star, n_prime, m, _ = multinomial_sharp_constant_level(q0, n, 3.0)
        x = _multinomial_table(n, q0.p)
        for xi, eps, risk in zip(xi_grid, res.epsilons, res.risks):
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
            sampled = np.clip(draw_multinomial_simplex_prior(prior, 20_261_019, trials=draws), 0.0, None)
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
        assert abs(_multinomial_accept(everything, 100, lam) - 1.0) <= 1e-14
        assert _multinomial_accept(AcceptanceBox(np.zeros(4), np.array([40.0, 30, 20, 9])), 100, lam) == 0.0
        assert _multinomial_accept(AcceptanceBox(np.array([40.0, 30, 20, 11]), np.full(4, 100.0)), 100, lam) == 0.0

    @pytest.mark.parametrize("seed", range(8))
    def test_groups_are_the_unique_order(self, seed):
        """One stable sort groups unsorted cells with tied rates and tied boxes
        as ``np.unique(..., axis=0)`` does: the same order and the same merged
        counts, so the fixed-n acceptance does not depend on the cells' order."""
        rng = np.random.default_rng(20_261_020 + seed)
        size = 40
        lam = rng.choice([0.5, 2.0, 2.5, 4.0], size)
        lo = rng.choice([0.0, 1.0, 2.0], size)
        hi = lo + rng.choice([3.0, 6.0], size)
        counts = rng.integers(1, 4, size)
        cells, inverse = np.unique(np.column_stack([lam, lo, hi]), axis=0, return_inverse=True)
        want = (*cells.T, np.bincount(inverse.ravel(), weights=counts).astype(np.int64))
        got = risk_module._groups(lam, lo, hi, counts)
        assert len(got) == 4 and got[3].dtype == np.int64
        for g, w in zip(got, want):
            np.testing.assert_array_equal(g, w)
        assert counts.size > cells.shape[0]  # some cells merged
        n = int(lam.sum())
        accept = _multinomial_accept(AcceptanceBox(lo, hi), n, lam)
        assert 0.0 < accept < 1.0
        in_unique_order = np.lexsort((hi, lo, lam))
        for order in (in_unique_order, in_unique_order[::-1], rng.permutation(size)):
            assert _multinomial_accept(AcceptanceBox(lo[order], hi[order]), n, lam[order]) == accept

    @pytest.mark.parametrize("cells", [2, 3, 5, 6, 7])
    def test_pool_tree_matches_explicit_enumeration(self, cells):
        """The ``u v^m`` coefficient of the pool tree is the mean over every (spike, removal set)."""
        rng = np.random.default_rng(cells)
        t = 9
        a, b, d = (rng.uniform(0.0, 1.0, (cells, 4)) / 4.0 for _ in range(3))
        grid = _Grid(32, 16)  # every frequency of a length past the degree, 3 cells: no aliasing
        a_f, b_f, d_f = (np.exp(real + 1j * phase) for real, phase in (_log_spectra(x, 0, grid) for x in (a, b, d)))
        for m in range(1, cells):
            want = []
            for s in range(cells):
                others = [i for i in range(cells) if i != s]
                for subset in itertools.combinations(others, m):
                    poly = b[s]
                    for i in others:
                        poly = np.convolve(poly, d[i] if i in subset else a[i])
                    want.append(np.pad(poly, (0, 64))[: t + 1])
            mean = _pool_tree(a_f, b_f, d_f, m)
            got = _invert(grid, np.arange(t + 1), np.log(np.abs(mean)), np.angle(mean))
            np.testing.assert_allclose(got, np.mean(want, axis=0), rtol=0, atol=1e-15)

    def test_worst_draw_is_the_largest_draw(self, monkeypatch):
        """``_worst_draw`` is, per column, the largest sum over every (spike,
        removal set) of the pool's cells, written out; taken in blocks of
        columns it is the whole table's, bit for bit; and on a non-flat pool
        of 282 cells every draw's grid is the null's."""
        rng = np.random.default_rng(20_261_028)
        for _ in range(20):
            counts = rng.integers(1, 4, int(rng.integers(1, 5)))
            base, spiked, reduced = (rng.normal(size=(counts.size, 3)) for _ in range(3))
            cells = np.repeat(np.arange(counts.size), counts)
            for m in range(1, cells.size):
                draws = []
                for s in range(cells.size):
                    others = [i for i in range(cells.size) if i != s]
                    for removed in itertools.combinations(others, m):
                        kept = [cells[i] for i in others if i not in removed]
                        draws.append(spiked[cells[s]] + reduced[cells[list(removed)]].sum(0) + base[kept].sum(0))
                got = _worst_draw(base, spiked, reduced, counts, m)
                np.testing.assert_allclose(got, np.max(draws, axis=0), rtol=1e-12, atol=1e-12)
        for rows, cols in ((3_000, 62), (40_000, 5)):  # three blocks, and two past 2^16 entries each
            counts = rng.integers(1, 4, rows)
            base, spiked, reduced = (rng.normal(size=(rows, cols)) for _ in range(3))
            m = int(rng.integers(1, counts.sum()))
            want = _whole_table_worst_draw(base, spiked, reduced, counts, m)
            assert np.array_equal(_worst_draw(base, spiked, reduced, counts, m), want)
        grids = _recorded_grids(monkeypatch)
        p, n = 500, 30
        q = np.arange(1, p + 1.0) ** -0.5
        q0 = SimplexVector(q / q.sum())
        prior = MultinomialSimplexPrior.build(q0, n, certified_simplex_c(q0, n))
        assert (prior.j_star, prior.m) == (282, 53)
        estimate_multinomial_risk(q0, n, prior, 0.2, 100, 0)
        assert len(grids) == 2 and grids[0] == grids[1]

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

    def test_one_type1_per_null(self):
        """On 40 seeded designs (p 3 to 60, n 50 to 2,000) the null's Type I is
        one number, bit for bit: against itself, under a simplex prior on it
        (which factors its cells into a pool and the rest), and on every row
        of the fixed-n sweep, against the same box on the dense cells with no
        pool.  Every route takes ``Lambda = n sum(q)`` and one product over
        every (probability, box) group, on a grid chosen from the null alone."""
        rng = np.random.default_rng(20_261_028)
        swept = 0
        for _ in range(40):
            p, n = int(rng.integers(3, 61)), int(rng.integers(50, 2001))
            q0 = SimplexVector(np.sort(rng.dirichlet(np.full(p, 4.0)))[::-1])
            fixed = estimate_multinomial_risk(q0, n, q0, 0.2, 100, 0)
            prior = MultinomialSimplexPrior.build(q0, n, certified_simplex_c(q0, n))
            assert estimate_multinomial_risk(q0, n, prior, 0.2, 100, 0).type1 == fixed.type1
            try:
                res = sweep_multinomial_sharp_constant(q0, n, [0.5, 1.0, 2.0], 3.0, 1, 0)
            except ValueError:  # outside the sweep's setup: a cell below 1/n, or an alternative off the simplex
                continue
            swept += 1
            level, _, n_prime, _, _ = multinomial_sharp_constant_level(q0, n, 3.0)
            box = AcceptanceBox.around(n * q0.probs, n_prime * level, strict=True)
            alone = _FixedN(box, n, q0.probs, np.ones(p, dtype=np.int64), n * float(q0.probs.sum()))
            assert {risk.type1 for risk in res.risks} == {1.0 - alone.accept}
        assert swept >= 5, swept

    def test_box_past_the_cap_raises(self, monkeypatch):
        q0 = SimplexVector([0.5, 0.3, 0.2])
        monkeypatch.setattr(risk_module, "_MAX_TERMS", 8)
        with pytest.raises(AtomBudgetError, match="over the cap of 8"):
            estimate_multinomial_risk(q0, 200, [0.4, 0.4, 0.2], 0.2, 100, 0)


def _recorded_grids(monkeypatch) -> list:
    """Every grid ``_FixedN`` chooses from here on, in order."""
    grids = []
    choose = risk_module._choose_grid

    def record(*args, **kw):
        grids.append(choose(*args, **kw))
        return grids[-1]

    monkeypatch.setattr(risk_module, "_choose_grid", record)
    return grids


def _lo_rows(rows) -> list[np.ndarray]:
    """Each row of a :class:`_Rows` as plain coefficients of ``z^0..z^width`` from its ``lo``."""
    starts = rows.left - rows.mode
    return [rows.table[g, start : start + width + 1] for g, (start, width) in enumerate(zip(starts, rows.width))]


def _convolved(rows, t: int) -> np.ndarray:
    """The product of ``rows`` by ``np.convolve``, at degrees ``0..t``."""
    out = np.ones(1)
    for row in rows:
        out = np.convolve(out, row)
    return np.pad(out, (0, max(0, t + 1 - out.size)))[: t + 1]


def _spectral(rows, counts, degrees):
    """Coefficients ``degrees`` (from the rows' ``lo``) of ``prod_g R_g^(counts[g])``,
    each on the fixed-n grid chosen for it, ``Phi(0)``, and the last grid."""
    counts = np.asarray(counts)
    sigma = math.sqrt(max(float(counts @ rows.var), 1.0))
    theta, phi = _ladders(sigma, int(rows.width.max()))
    law = _Bounds(*_weighted(counts, *_bounds(rows, theta, phi)))
    got = []
    for degree in np.atleast_1d(degrees).tolist():
        grid = _choose_grid(law, degree, theta, phi, math.ceil(6.0 * sigma + 8.0))
        real, phase = _weighted(counts, *_log_spectra(rows.table, rows.left, grid))
        got.append(_invert(grid, degree - int(law.centre), real, phase))
    return np.array(got), math.exp(real[0]), grid


def _random_cells(seed: int, wide: bool):
    """Rates and boxes of 2 to 9 cells and a cut ``t`` near the product's
    mean; a wide box holds 12 standard deviations each side, so the
    product's spectrum falls below ``_TAIL`` long before the Nyquist
    frequency."""
    rng = np.random.default_rng(seed)
    lam = rng.uniform(0.5, 60.0, int(rng.integers(2, 10)))
    half = (12.0 if wide else 3.0) * np.sqrt(lam) + 2.0
    lo, hi = np.maximum(np.ceil(lam - half), 0.0), np.floor(lam + half)
    t = int(np.clip(np.sum(lam - lo) + rng.normal() * np.sqrt(lam.sum()), 0, np.sum(hi - lo)))
    return lam, lo, hi, t


def _long_double_product(factors, start=None) -> tuple[np.ndarray, int]:
    """``start`` (a product made here, or 1) times ``prod row^count`` over
    ``(row, count)`` factors, by direct convolution in long double (powers by
    repeated squaring), each product cut to its coefficients above 1e-30 of
    its largest: the coefficients and the degree of the first."""

    def cut(x, offset):
        kept = np.flatnonzero(x > 1e-30 * x.max())
        return x[kept[0] : kept[-1] + 1], offset + int(kept[0])

    out, offset = (np.ones(1, dtype=np.longdouble), 0) if start is None else start
    for row, count in factors:
        base, base_offset = cut(np.asarray(row, dtype=np.longdouble), 0)
        while count:
            if count & 1:
                out, offset = cut(np.convolve(out, base), offset + base_offset)
            count >>= 1
            if count:
                base, base_offset = cut(np.convolve(base, base), 2 * base_offset)
    return out, offset


def _coefficient(product: tuple[np.ndarray, int], t: int) -> float:
    coeffs, offset = product
    return float(coeffs[t - offset]) if 0 <= t - offset < coeffs.size else 0.0


def _poisson_point(n: int, rate: float) -> float:
    """``P(Poisson(rate) = n)`` at 40 digits (``scipy.stats.poisson.pmf`` errs
    by 2e-10 relative at n = 1e5)."""
    with mpmath.workdps(40):
        return float(mpmath.exp(n * mpmath.log(rate) - rate - mpmath.loggamma(n + 1)))


def _stated(grid: _Grid, counts, widths, point: float) -> float:
    """``_FixedN``'s stated error of a probability from its grid and rows:
    ``(2 _TAIL + (2 K + 1) / N sum_g c_g (W_g + 2) eps) / P(Poisson(Lambda) = n)``."""
    spread = (2 * grid.top + 1) / grid.size * float(np.asarray(counts) @ (np.asarray(widths) + 2.0))
    return (2.0 * _TAIL + spread * np.finfo(float).eps) / point


def _sweep_law(q0: SimplexVector, n: float):
    """The fixed-n law the sweep builds on the dense cells, with its prior's ``j*`` and ``m``, and the box."""
    p = q0.p
    level, j_star, n_prime, m, _ = multinomial_sharp_constant_level(q0, n, math.log(p))
    probs = q0.probs
    box = AcceptanceBox.around(n * probs, n_prime * level, strict=True)
    law = _FixedN(box, n, probs, np.ones(p, dtype=np.int64), n * float(probs.sum()), j_star, m)
    return law, level, j_star, m


class TestWindowedProducts:
    """Products kept on their window of significant frequencies, against
    plain ``np.convolve``, 40-digit mpmath and long double."""

    @pytest.mark.parametrize("wide", [False, True])
    @pytest.mark.parametrize("seed", range(8))
    def test_tree_product_matches_convolution(self, seed, wide):
        lam, lo, hi, t = _random_cells(seed, wide)
        rows = _cell_rows(lam, lo, hi, t)
        ones = np.ones(rows.lam.size, dtype=np.int64)
        got, whole, grid = _spectral(rows, ones, np.arange(t + 1))
        np.testing.assert_allclose(got, _convolved(_lo_rows(rows), t), rtol=0, atol=1e-15)
        full = _convolved(_lo_rows(rows), int(rows.width.sum()))
        assert abs(whole - full.sum()) <= 1e-15
        if wide:  # the grid keeps a few frequencies of a length below the product's
            assert grid.top < grid.size // 2 and grid.size < np.count_nonzero(full)

    @pytest.mark.parametrize("wide", [False, True])
    @pytest.mark.parametrize("seed", range(8))
    def test_power_and_coefficient_match_convolution(self, seed, wide):
        lam, lo, hi, t = _random_cells(seed, wide)
        rows = _cell_rows(lam, lo, hi, t)
        count = int(np.random.default_rng(seed).integers(2, 30))
        first = _lo_rows(rows)[0]
        t_power = int(round(count * np.dot(np.arange(first.size), first) / first.sum()))
        one = _cell_rows(lam[:1], lo[:1], hi[:1], t_power)
        first = _lo_rows(one)[0]
        got = _spectral(one, [count], np.arange(t_power + 1))[0]
        np.testing.assert_allclose(got, _convolved([first] * count, t_power), rtol=0, atol=1e-15)
        counts = np.r_[np.ones(rows.lam.size - 1, dtype=np.int64), 3]
        got = _spectral(rows, counts, [t])[0]
        want = _convolved([*_lo_rows(rows)[:-1], *[_lo_rows(rows)[-1]] * 3], t)[t]
        assert abs(got[0] - want) <= 1e-15

    @pytest.mark.parametrize("count", [10**3, 10**6])
    @pytest.mark.parametrize("lam, hi", [(5.0, 60.0), (40.0, 160.0)])
    def test_power_of_a_whole_poisson_row_against_mpmath(self, lam, hi, count):
        """A box that leaves out under 1e-40 of Poisson(lam) gives ``row^count``
        whose coefficient ``t`` is ``box_mass^count pmf_{Poisson(count lam)}(t)``.

        The row's log spectrum is taken about its mode, so ``count log R``
        keeps its relative accuracy: the error stays within ``count eps``, and
        under 1e-10 at count 1e6."""
        t = int(count * lam) + 7
        rows = _cell_rows(np.array([lam]), np.array([0.0]), np.array([hi]), t)
        got, _, grid = _spectral(rows, [count], [t])
        with mpmath.workdps(40):
            log_pmf = t * mpmath.log(count * lam) - count * lam - mpmath.loggamma(t + 1)
            want = float(mpmath.mpf(float(rows.table.sum())) ** count * mpmath.exp(log_pmf))
        assert grid.size < 40 * math.sqrt(count * lam) and grid.top < 40
        assert abs(got[0] - want) <= count * np.finfo(float).eps * want
        if count == 10**6:
            assert abs(got[0] - want) <= 1e-10 * want

    @pytest.mark.parametrize("seed", range(6))
    def test_every_frequency_kept_with_few_cells(self, seed):
        """With p <= 3 the truncation bound cannot reach ``_TAIL``, so the grid
        keeps every frequency; a grid longer than the product is exact, the
        Nyquist frequency of an even length counted once."""
        rng = np.random.default_rng(20_261_028 + seed)
        cells = 2 + seed % 2
        probs = np.sort(rng.dirichlet(np.ones(cells)))[::-1]
        n = int(rng.integers(8, 40))
        q0 = SimplexVector(probs)
        box = MultinomialTestConfig.from_eta(q0, n, 0.2).acceptance_box(q0, n)
        law = _FixedN(box, n, q0.probs, np.ones(cells, dtype=np.int64), n * float(q0.probs.sum()))
        assert law.grid.top == law.grid.size // 2
        x = _multinomial_table(n, cells)
        accept = _multinomial_accepts(x, q0, n, MultinomialTestConfig.from_eta(q0, n, 0.2))
        assert abs(law.accept - _multinomial_mass(x, n, q0.probs)[accept].sum()) <= 1e-12
        rows = law.rows
        degree = int(rows.width.sum())
        want = _convolved(_lo_rows(rows), degree)
        real, phase = _weighted(np.ones(rows.lam.size, dtype=np.int64), *_log_spectra(rows.table, rows.left, _Grid(1, 0)))
        for size in (degree + 1, degree + 2):  # one odd and one even length
            grid = _Grid(size, size // 2)
            spectra = _weighted(np.ones(rows.lam.size, dtype=np.int64), *_log_spectra(rows.table, rows.left, grid))
            got = _invert(grid, np.arange(degree + 1) - int(rows.mode.sum()), *spectra)
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-15)
        assert real[0] == pytest.approx(math.log(want.sum()), abs=1e-15)

    def test_heterogeneous_fixed_n_sweep_peak_memory(self):
        """The fixed-n sweep on ``q_j ~ j^(-1/2)`` at p = 1e3, n = 1e5: 997
        distinct cells outside the pool, each row of up to 122 entries about
        its mode; traced at 2.6 MiB."""
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

    def test_flat_benchmark_sweep_grid_is_short(self, monkeypatch):
        """Every grid of the flat p = 1e3, n = 1e5 fixed-n sweep, the null's
        and each draw's, has at most 8,192 points: each law's bound is its own,
        not its worst cell's."""
        grids = _recorded_grids(monkeypatch)
        p, n = 1000, 100_000
        sweep_multinomial_sharp_constant(SimplexVector(np.full(p, 1.0 / p)), n, [0.5, 1.0, 2.0], math.log(p), 1, 0)
        assert len(grids) == 4
        assert max(grid.size for grid in grids) <= 8192
        assert max(grid.top for grid in grids) < 40

    @pytest.mark.parametrize("null", ["flat", "het", "seeded-0", "seeded-1"])
    def test_error_within_the_stated_bound(self, null, monkeypatch):
        """At p = 200, n = 2e4 the sweep's Type I, and on a flat pool each
        draw's Type II, lie within the stated error of a long-double
        convolution of the same rows."""
        p, n = 200, 20_000
        if null == "flat":
            probs = np.full(p, 1.0 / p)
        elif null == "het":
            probs = np.arange(1, p + 1.0) ** -0.5
        else:
            probs = np.sort(np.random.default_rng(20_261_028 + int(null[-1])).uniform(0.5, 2.0, p))[::-1]
        q0 = SimplexVector(probs / probs.sum())
        grids = _recorded_grids(monkeypatch)
        law, level, j_star, m = _sweep_law(q0, n)
        rows, cells = law.rows, law.outside + law.pool
        point = _poisson_point(n, law.total)
        oracle = _coefficient(_long_double_product(zip(_lo_rows(rows), cells)), law.t) / point
        assert abs(law.accept - oracle) <= _stated(law.grid, cells, rows.width, point)
        if null != "flat":
            return
        type2 = law.bayes([n * level])[0]
        shift = n * level / n
        q = law.values[law.pool > 0]
        b, d = (_cell_rows(n * rate, law.lo[:1], law.hi[:1], law.t) for rate in (q + shift, q - shift / m))
        rest = p - 2 - m  # the head is outside the pool; one spiked, m reduced
        factors = [(_lo_rows(rows)[0], rest + 1), (_lo_rows(b)[0], 1), (_lo_rows(d)[0], m)]
        oracle = _coefficient(_long_double_product(factors), law.t) / point
        assert abs(type2 - oracle) <= _stated(grids[-1], [p], rows.width, point)


def _benchmark_law(null: str):
    """The fixed-n sweep's law on the benchmark's flat or het null (p = 1e3,
    n = 1e5) and its masses ``n eps`` at xi = 0.5, 1 and 2."""
    p, n = 1000, 100_000
    het = np.arange(1, p + 1.0) ** -0.5
    q0 = SimplexVector(np.full(p, 1.0 / p) if null == "flat" else het / het.sum())
    law, level, _, _ = _sweep_law(q0, n)
    return law, [n * xi * level for xi in (0.5, 1.0, 2.0)]


def _counted(monkeypatch, name: str) -> list:
    """Call ``risk.<name>`` through a wrapper that records each call's positional arguments."""
    calls = []
    kernel = getattr(risk_module, name)
    monkeypatch.setattr(risk_module, name, lambda *args: calls.append(args) or kernel(*args))
    return calls


class TestOneFixedNPass:
    """``_FixedN.bayes`` takes every mass of a sweep in one pass: the masses
    share the worst-draw table, each grid's pool tree and the point
    probability, and each mass's value is its own, bit for bit."""

    def test_one_pool_tree_and_one_point_per_sweep(self, monkeypatch):
        """On the benchmark's het null (a pool of 3 groups) the sweep of three
        masses evaluates ``P(Poisson(Lambda) = n)`` once, building the law, and
        multiplies one pool tree holding the three masses' frequencies."""
        points, trees = _counted(monkeypatch, "_point"), _counted(monkeypatch, "_pool_tree")
        law, masses = _benchmark_law("het")
        assert len(points) == 1
        type2 = law.bayes(masses)
        assert len(points) == 1 and len(trees) == 1
        assert trees[0][0].shape[1] == 3 * (law.grid.top + 1)
        assert type2 == [0.5382026209463571, 0.279111096338737, 0.007934638082373303]

    @pytest.mark.parametrize("null", ["flat", "het"])
    def test_a_mass_on_a_grid_of_its_own(self, null, monkeypatch):
        """A ``_choose_grid`` that sends the second mass's draws to a grid twice
        as long leaves the other two masses' values as they were, bit for bit;
        the batch still equals each mass alone, and the moved mass stays within
        1e-12 of its value on the null's grid."""
        law, masses = _benchmark_law(null)
        plain = law.bayes(masses)
        seen = []
        choose = risk_module._choose_grid
        monkeypatch.setattr(risk_module, "_choose_grid", lambda law, *rest: seen.append(law.logs) or choose(law, *rest))
        law.bayes(masses[1:2])
        (own,) = seen

        def choose_own(draw, *rest):
            grid = choose(draw, *rest)
            return _Grid(2 * grid.size, min(grid.size, 2 * grid.top)) if np.array_equal(draw.logs, own) else grid

        monkeypatch.setattr(risk_module, "_choose_grid", choose_own)
        trees, inverted = _counted(monkeypatch, "_pool_tree"), _counted(monkeypatch, "_invert")
        moved = _each_of_the_batch(law, masses)
        assert [args[0].size for args in inverted[:3]].count(2 * law.grid.size) == 1
        assert len(trees) == (0 if null == "flat" else 2 + 3)  # the batch's two grids, then each mass alone
        assert [moved[0], moved[2]] == [plain[0], plain[2]]
        assert moved[1] == pytest.approx(plain[1], rel=0, abs=1e-12)

    @pytest.mark.parametrize("null", ["flat", "het"])
    def test_batches_split_by_the_block(self, null, monkeypatch):
        """With ``_BATCH`` patched small enough to split three masses into
        batches of two and one, and of one each, every value is the whole
        batch's, bit for bit."""
        law, masses = _benchmark_law(null)
        whole = law.bayes(masses)
        pool = np.flatnonzero(law.pool)
        per_mass = 2 * pool.size * (law.bounds.logs.shape[1] + law.rows.table.shape[1])
        for block in (2 * per_mass, 1):
            monkeypatch.setattr(risk_module, "_BATCH", block)
            assert _each_of_the_batch(law, masses) == whole

    def test_no_tree_holds_more_than_the_block(self, monkeypatch):
        """On the het null's pool no tree call holds more terms than the block
        or one mass's tree: a block below one mass's tree gives a tree per
        mass, and a large one a tree for all three."""
        law, masses = _benchmark_law("het")
        whole = law.bayes(masses)
        cells = int(law.pool.sum())
        one = risk_module._pool_tree_terms(cells, law.m, law.grid.top + 1)
        for block, calls in ((one - 1, 3), (one, 3), (1 << 18, 1)):
            monkeypatch.setattr(risk_module, "_BATCH", block)
            trees = _counted(monkeypatch, "_pool_tree")
            assert law.bayes(masses) == whole
            held = [risk_module._pool_tree_terms(cells, law.m, args[0].shape[1]) for args in trees]
            assert len(trees) == calls and max(held) <= max(block, one)
            monkeypatch.undo()
