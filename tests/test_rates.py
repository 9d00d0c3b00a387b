"""Tests for the separation-rate profiles and regime diagnostics."""

from __future__ import annotations

import math

import numpy as np
import pytest

import supgof.rates as rates
from supgof.maxtest import PoissonTestConfig
from supgof.model import RateVector, SimplexVector
from supgof.rates import (
    RateProfile,
    multinomial_rate,
    multinomial_sharp_constant_level,
    poisson_rate,
    prob_all_observed,
    sharp_constant_epsilon,
)
from supgof.risk import sweep_multinomial_sharp_constant, sweep_sharp_constant
from supgof.special import SolverError, gamma_rate, h_inverse


def brute_force_argmax(objective: np.ndarray) -> int:
    best, best_val = 1, -math.inf
    for j, val in enumerate(objective, start=1):
        if val > best_val:
            best, best_val = j, val
    return best


def _regime(log_ej: float, mean: float) -> str:
    ratio = log_ej / mean
    return "subgaussian" if ratio < 1.0 else "subpoissonian" if ratio > 1.0 else "boundary"


def _assert_run_ends_match_cells(run_end: RateProfile, cells: RateProfile, counts, cell_terms, expected):
    """The profile on run ends equals the one over the cells, each a run of
    one, bit for bit, and that one is ``expected(j*)``, the ``(j*, psi, m,
    epsilon_star, regime)`` computed here from ``cell_terms``, the
    objective at every cell, with ``j*`` its first maximizer.  No positive
    cell inside a run reaches its run-end term: such a tie would move the
    cell-by-cell argmax off the run end."""
    fields = lambda prof: (prof.j_star, prof.psi, prof.m, prof.epsilon_star, prof.regime)
    assert fields(run_end) == fields(cells)
    ends = np.cumsum(counts)
    np.testing.assert_array_equal(run_end.per_coordinate_terms, cells.per_coordinate_terms[ends - 1])
    np.testing.assert_array_equal(cells.per_coordinate_terms, cell_terms)
    assert fields(cells) == expected(brute_force_argmax(cell_terms) if np.any(cell_terms > 0) else 1)
    end_terms = np.repeat(cell_terms[ends - 1], counts)
    inside = np.ones(cell_terms.size, dtype=bool)
    inside[ends - 1] = False
    inside &= cell_terms > 0
    assert np.all(cell_terms[inside] < end_terms[inside])


def _check_poisson_runs(mu: RateVector) -> None:
    values, counts = mu.runs
    rates = np.repeat(values, counts)
    args = (1.0 + np.log(np.arange(1, rates.size + 1, dtype=float))) / rates
    cell_terms = rates * h_inverse(args)
    epsilon_star = 1.0 + float(np.max(rates * gamma_rate(args)))
    expected = lambda j: (j, cell_terms[j - 1], 0, epsilon_star, _regime(1.0 + math.log(j), rates[j - 1]))
    cells = poisson_rate(RateVector.from_runs(rates, np.ones(rates.size)))
    _assert_run_ends_match_cells(poisson_rate(mu), cells, counts, cell_terms, expected)


def _check_multinomial_runs(q0: SimplexVector, n: float) -> None:
    values, counts = q0.runs
    probs = np.repeat(values, counts)
    head, tail = probs[0], probs[1:]
    cell_h, gammas = np.zeros(tail.size), np.zeros(tail.size)
    pos = tail > 0.0
    args = (1.0 + np.log(np.arange(1, tail.size + 1, dtype=float)[pos])) / (n * tail[pos])
    cell_h[pos] = h_inverse(args)
    gammas[pos] = tail[pos] * gamma_rate(args)
    cell_terms = n * tail * cell_h
    epsilon_star = 1.0 / n + math.sqrt(head * (1.0 - head) / n) + float(gammas.max(initial=0.0))

    def expected(j):
        if not np.any(pos):
            return 1, 0.0, 0, epsilon_star, "boundary"
        m = min(math.ceil(cell_h[j - 1]), j - 1)
        psi = cell_terms[j - 1] if m >= 1 else 0.0
        return j, psi, m, epsilon_star, _regime(1.0 + math.log(j), n * tail[j - 1])

    cells = multinomial_rate(SimplexVector.from_runs(probs, np.ones(probs.size)), n)
    _assert_run_ends_match_cells(multinomial_rate(q0, n), cells, counts[1:], cell_terms, expected)


class TestRunEndProfile:
    """Seeded step nulls below the dense cap, with rates from 1e-3 to 1e12."""

    @staticmethod
    def _step_values(rng, runs: int, low: float, high: float) -> np.ndarray:
        values = np.sort(10.0 ** rng.uniform(low, high, runs))[::-1]
        if runs > 1 and rng.random() < 0.3:  # a run tied with the next one
            values[1] = values[0]
        return values

    def test_poisson_step_nulls(self):
        rng = np.random.default_rng(20261020)
        for _ in range(150):
            runs = int(rng.integers(1, 9))
            counts = rng.integers(1, 3000, runs)
            if rng.random() < 0.2:
                counts[0] = 1  # a lone head
            _check_poisson_runs(RateVector.from_runs(self._step_values(rng, runs, -3, 12), counts))
        _check_poisson_runs(RateVector([0.5]))  # p = 1

    def test_poisson_step_nulls_up_to_a_million_cells(self):
        """The longer the run, the closer its last cells' terms: p = 1e6 is
        as close as the cap allows in a unit test."""
        rng = np.random.default_rng(20261021)
        for high in (12, 0):
            counts = rng.multinomial(10**6 - 4, np.full(4, 0.25)) + 1
            _check_poisson_runs(RateVector.from_runs(self._step_values(rng, 4, -3, high), counts))
        _check_poisson_runs(RateVector.from_runs([1e12, 1.0, 1e-3], [1, 10**6 - 2, 1]))

    def test_multinomial_step_nulls(self):
        rng = np.random.default_rng(20261022)
        for _ in range(150):
            runs = int(rng.integers(1, 7))
            weights = self._step_values(rng, runs, -4, 0)
            counts = rng.integers(1, 2000, runs)
            if rng.random() < 0.3:
                counts[0] = 1  # a lone head, else the head ties with its run
            if rng.random() < 0.25:  # a run of zero cells
                weights, counts = np.r_[weights, 0.0], np.r_[counts, rng.integers(1, 50)]
            n = float(10.0 ** rng.uniform(0, 15))
            _check_multinomial_runs(SimplexVector.from_runs(weights / float(counts @ weights), counts), n)

    def test_multinomial_step_null_up_to_a_million_cells(self):
        counts = np.array([1, 10, 999_979, 10])
        q0 = SimplexVector.from_runs(np.array([0.5, 0.01, 0.4 / 999_979, 0.0]), counts)
        for n in (1e3, 1e9, 1e15):
            _check_multinomial_runs(q0, n)

    def test_inconsistent_profile_is_refused(self):
        with pytest.raises(ValueError, match="j_star must attain"):
            RateProfile(1, 1.0, 0, 2.0, "boundary", np.array([1.0, 2.0]))


def _full_peaks(values, counts, level, scale: float = 1.0) -> list[tuple]:
    """``(term, j*, g*, h at g*)`` of every level by the full evaluation:
    every run end in one ``h_inverse`` call, the first maximizer by a scan."""
    ends = np.cumsum(counts, dtype=float)
    with np.errstate(over="ignore", divide="ignore"):
        args = level(ends) / (scale * values)
    h = np.atleast_2d(h_inverse(args))
    out = []
    for hs in h:
        terms = values * hs
        g = int(np.flatnonzero(terms == terms.max())[0])
        out.append((float(terms[g]), int(ends[g]), g, float(hs[g])))
    return out


def _searched_peaks(values, counts, level, scale: float = 1.0) -> list[tuple]:
    found = rates._peak_on_run_ends(values, counts, level, scale)
    return [tuple(peak) for peak in (found if isinstance(found, list) else [found])]


_ALPHA_P = math.log(1e4)
# The rate levels that callers search: Poisson log(e j), the max test's
# calibration log(C' j^2) and the multinomial sharp-constant pair, stacked.
_PEAK_LEVELS = {
    "poisson": (rates._log_ej, lambda n: 1.0),
    "calibration": (lambda js: math.log(12.5) + 2.0 * np.log(js), lambda n: 1.0),
    "stacked": (lambda js: np.stack([rates._log_ej(js), rates._inflated_log(js, _ALPHA_P)]), lambda n: 1.3 * n),
    # Flat past j = 40: equal values in runs ending past it tie.
    "capped": (lambda js: np.minimum(rates._log_ej(js), 1.0 + math.log(40.0)), lambda n: 1.0),
}


class TestPeakSearch:
    """The blocked peak search equals the full evaluation bit for bit."""

    CUT = rates._ONE_BLOCK_RUNS

    @staticmethod
    def _null(rng, runs: int):
        kind = rng.integers(4)
        if kind == 0:  # decaying, the peak inside
            values = 1.0 + 10.0 ** rng.uniform(0, 3) / np.sqrt(np.arange(1, runs + 1))
        elif kind == 1:  # a few distinct values, so tied neighbours
            values = np.sort(rng.choice(10.0 ** rng.uniform(-3, 6, 4), runs))[::-1]
        elif kind == 2:  # flat
            values = np.full(runs, 10.0 ** rng.uniform(-2, 4))
        else:
            values = np.sort(10.0 ** rng.uniform(-3, 12, runs))[::-1]
        counts = np.ones(runs, dtype=np.int64) if rng.random() < 0.4 else rng.integers(1, 10**6, runs)
        return values, counts

    def test_equals_the_full_evaluation(self):
        rng = np.random.default_rng(20261027)
        sizes = [1, 2, 3, 50, self.CUT - 1, self.CUT, self.CUT + 1, 2 * self.CUT + 7, 5000]
        for case in range(320):
            runs = sizes[case % len(sizes)] if case < 3 * len(sizes) else int(rng.integers(1, 5000))
            values, counts = self._null(rng, runs)
            for level, scale in _PEAK_LEVELS.values():
                n = float(10.0 ** rng.uniform(0, 6))
                assert _searched_peaks(values, counts, level, scale(n)) == _full_peaks(values, counts, level, scale(n))

    def test_flat_objective_keeps_every_block_and_takes_the_first_run(self):
        """Equal values and a constant level give equal terms in every run."""
        values, counts = np.full(3 * self.CUT, 2.5), np.ones(3 * self.CUT, dtype=np.int64)
        level = lambda js: np.full(js.shape, 3.0)
        peak = rates._peak_on_run_ends(values, counts, level)
        assert tuple(peak) == _full_peaks(values, counts, level)[0]
        assert (peak.j_star, peak.g) == (1, 0)

    def test_a_million_runs_evaluates_few(self, monkeypatch):
        """On the decaying null at 1e6 runs the search evaluates at most 5 %
        of the run ends, and its peak is the full evaluation's."""
        p = 10**6
        values, counts = 1.0 + 100.0 / np.sqrt(np.arange(1, p + 1)), np.ones(p, dtype=np.int64)
        level = lambda js: rates._inflated_log(js, math.log(p))
        seen = []

        def counted(y):
            seen.append(np.size(y))
            return h_inverse(y)

        monkeypatch.setattr(rates, "h_inverse", counted)
        peak = rates._peak_on_run_ends(values, counts, level)
        assert len(seen) == 2 and sum(seen) <= 0.05 * p
        mu = RateVector(values)
        seen.clear()
        assert sharp_constant_epsilon(mu, math.log(p), 1.0) == (peak.term, peak.j_star)
        PoissonTestConfig.from_eta(mu, 0.1)
        assert sum(seen) <= 0.1 * p
        monkeypatch.setattr(rates, "h_inverse", h_inverse)
        assert tuple(peak) == _full_peaks(values, counts, level)[0]

    @pytest.mark.parametrize("runs", [50, 3 * rates._ONE_BLOCK_RUNS])
    @pytest.mark.parametrize("last", [0.0, 5e-324])
    def test_zero_or_underflowed_value_fails_at_the_same_y(self, runs, last):
        """A zero or underflowed value inside a block makes an infinite
        argument: the search fails as the full evaluation does, at the same y."""
        values = np.r_[np.linspace(9.0, 1.0, runs - runs // 3), np.full(runs // 3, last)]
        counts = np.ones(runs, dtype=np.int64)
        with pytest.raises(SolverError) as full:
            _full_peaks(values, counts, rates._log_ej)
        with pytest.raises(SolverError) as searched:
            rates._peak_on_run_ends(values, counts, rates._log_ej)
        assert str(searched.value) == str(full.value) == "h_inverse missed its tolerance at y=inf"
        if last:
            with pytest.raises(SolverError, match="y=inf"):
                PoissonTestConfig.from_eta(RateVector(values), 0.1)

    def test_sweeps_past_the_cut_over_give_the_full_evaluations_rows(self, monkeypatch):
        """With one block the search is the full evaluation: the sweeps' rows
        past the cut-over are the same either way."""
        p = 4 * self.CUT
        mu = RateVector(1.0 + 100.0 / np.sqrt(np.arange(1, p + 1)))
        weights = 1.0 / np.arange(1, p + 1) ** 0.3
        q0 = SimplexVector(weights / weights.sum())
        jobs = [
            lambda: sweep_sharp_constant(mu, [0.5, 1.0, 2.0], math.log(p), 1, 7).rows(),
            lambda: sweep_multinomial_sharp_constant(q0, 1e7, [0.5, 1.0, 2.0], math.log(p), 1, 7, True).rows(),
            lambda: sweep_multinomial_sharp_constant(q0, 1e7, [0.5, 2.0], math.log(p), 1, 7).rows(),
        ]
        searched = [job() for job in jobs]
        monkeypatch.setattr(rates, "_ONE_BLOCK_RUNS", 10**9)
        assert searched == [job() for job in jobs]

    @staticmethod
    def _decaying(rng, runs: int):
        """Distinct decaying values of at least 1 and seeded counts: a sharp-constant null."""
        values = 1.0 + 10.0 ** rng.uniform(0, 3) / np.arange(1, runs + 1) ** rng.uniform(0.2, 1.0)
        return values, rng.integers(1, 1_000, runs)

    @pytest.mark.parametrize("runs", [1, 40, rates._ONE_BLOCK_RUNS - 1, rates._ONE_BLOCK_RUNS, 3 * rates._ONE_BLOCK_RUNS])
    def test_stacked_sharp_constant_peaks_equal_the_separate_searches(self, runs):
        """The sweeps' one search gives what a search per objective gives, bit
        for bit: the inflated-log peak, the plain-log :func:`_poisson_peak`,
        and on the multinomial side the level, ``j*``, ``m`` and the regime."""
        rng = np.random.default_rng(20261029 + runs)
        for _ in range(4):
            values, counts = self._decaying(rng, runs)
            alpha_p = float(rng.uniform(1.5, 30.0))
            mu = RateVector.from_runs(values, counts)
            inflated, plain = rates._sharp_constant_peaks(mu, alpha_p)
            assert inflated == rates._peak_on_run_ends(values, counts, lambda js: rates._inflated_log(js, alpha_p))
            assert plain == rates._poisson_peak(values, counts)
            assert tuple(inflated) == _full_peaks(values, counts, lambda js: rates._inflated_log(js, alpha_p))[0]
            weights = np.r_[2.0 * values[0], values]
            run_counts = np.r_[1, counts]
            q0 = SimplexVector.from_runs(weights / (run_counts @ weights), run_counts)
            n = float(2.0 / q0.runs[0][-1])
            level, j_star, n_prime, m, regime = multinomial_sharp_constant_level(q0, n, alpha_p)
            tail = q0.runs[0][1:]
            pair = lambda js: np.stack([rates._log_ej(js), rates._inflated_log(js, alpha_p)])
            plain_peak, inflated_peak = rates._peak_on_run_ends(tail * (1.0 - tail), counts, pair, n_prime)
            assert (level, j_star) == (plain_peak.term, inflated_peak.j_star)
            m_raw = math.ceil(h_inverse((1.0 + math.log(j_star)) / (n_prime * float(tail[inflated_peak.g]))))
            assert m == min(max(2, m_raw), j_star - 1)
            assert regime == rates._multinomial_peak(*q0.runs, n).regime

    @pytest.mark.parametrize("runs, poisson, multinomial", [(300, 1, 2), (3 * rates._ONE_BLOCK_RUNS, 2, 3)])
    def test_sweeps_count_their_h_inverse_calls(self, monkeypatch, runs, poisson, multinomial):
        """A Poisson sweep makes one peak search, one ``h_inverse`` call with
        one block and two past it; a multinomial sweep adds the scalar ``m``.
        With one block the sweeps evaluate their two and three stacked rows at
        every run end, and ``sharp_constant_epsilon``, which searches the
        inflated row alone, at every run end once; past it the search's first
        call takes each block's two corners once per row."""
        rng = np.random.default_rng(20261030)
        values, counts = self._decaying(rng, runs)
        mu = RateVector.from_runs(values, counts)
        weights = np.r_[2.0 * values[0], values]
        q0 = SimplexVector.from_runs(weights / (np.r_[1, counts] @ weights), np.r_[1, counts])
        n = 4.0 * (1.0 + math.log(q0.p)) ** 2 / q0.runs[0][-1]
        calls = []

        def counted(y):
            calls.append(np.size(y))
            return h_inverse(y)

        monkeypatch.setattr(rates, "h_inverse", counted)
        sweep_sharp_constant(mu, [0.5, 1.0, 2.0], math.log(mu.p), 1, 0)
        swept = calls.copy()
        assert len(swept) == poisson
        calls.clear()
        sharp_constant_epsilon(mu, math.log(mu.p), 1.0)
        assert len(calls) == poisson and 2 * calls[0] == swept[0]
        if poisson == 1:
            assert (swept, calls) == ([2 * runs], [runs])
        calls.clear()
        sweep_multinomial_sharp_constant(q0, n, [0.5, 1.0, 2.0], math.log(q0.p), 1, 0, poissonized=True)
        assert len(calls) == multinomial
        if poisson == 1:
            assert calls == [3 * runs, 1]


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
        """One term per tail run: the run of zero cells gives zero, and so
        does each zero cell when every cell is a run of its own."""
        profile = multinomial_rate(SimplexVector([0.6, 0.4, 0.0, 0.0]), 50.0)
        assert profile.per_coordinate_terms[1] == 0.0
        assert profile.per_coordinate_terms.size == 2
        assert np.isfinite(profile.epsilon_star)
        cells = multinomial_rate(SimplexVector.from_runs([0.6, 0.4, 0.0, 0.0], [1, 1, 1, 1]), 50.0)
        assert cells.per_coordinate_terms[1] == 0.0
        assert cells.per_coordinate_terms[2] == 0.0

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
        """The whole profile on run ends, regime included, is the
        cell-by-cell one: zero cells, a head tied with the tail and a lone
        head included."""
        _check_multinomial_runs(SimplexVector(probs), n)

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
        level, _j_star, n_prime_out, _m, _ = multinomial_sharp_constant_level(q0, 100.0, 5.0)
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
