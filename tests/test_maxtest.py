"""Tests for the decision procedures and their calibration."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import poisson

from supgof.maxtest import (
    AcceptanceBox,
    MultinomialTestConfig,
    PoissonTestConfig,
    calibrate_k2,
    calibrate_poisson,
    _max_test,
    head_k1,
    multinomial_combined_test,
    poisson_max_test,
)
from supgof.model import CountVector, RateVector, SimplexVector, rng_stream
from supgof.risk import estimate_poisson_risk
from supgof.special import h_inverse


def _block_test(x, q0, n, cfg, cells: slice, threshold: float):
    """``_max_test`` on one block of the multinomial test, its cells alone."""
    counts = np.asarray(x.counts if isinstance(x, CountVector) else x)[..., cells]
    box = cfg.acceptance_box(q0, n)[cells]
    return _max_test(counts, n * q0.probs[cells], box, [(0, counts.shape[-1], threshold)])


def _head_block_test(x, q0, n, cfg):
    """The head block: reject when ``|x_1 - n q0(1)|`` reaches ``head_threshold``."""
    return _block_test(x, q0, n, cfg, slice(0, 1), cfg.head_threshold)


def _tail_block_test(x, q0, n, cfg):
    """The tail block: the max test over categories ``2..p``."""
    return _block_test(x, q0, n, cfg, slice(1, q0.p), cfg.max_tail_threshold)


class TestCalibration:
    def test_c_prime_formula(self):
        assert calibrate_poisson(1.0) == pytest.approx(2.0 * math.pi**2 / 3.0, rel=1e-14)
        assert calibrate_poisson(0.25) == pytest.approx(2.0 * calibrate_poisson(0.5), rel=1e-14)

    def test_c_prime_union_bound_partial_sum(self):
        """sum_{j<=1e6} 2/(C' j^2) <= eta/2 for the returned constant."""
        js = np.arange(1, 1_000_001, dtype=float)
        for eta in (0.1, 0.2, 0.5):
            c_prime = calibrate_poisson(eta)
            assert np.sum(2.0 / (c_prime * js**2)) <= eta / 2.0

    def test_c_prime_is_smallest(self):
        """Shrinking C' by 1% overshoots the full-series budget."""
        eta = 0.2
        c_prime = 0.99 * calibrate_poisson(eta)
        # Full series: sum 2/(C'j^2) = pi^2/(3 C').
        assert math.pi**2 / (3.0 * c_prime) > eta / 2.0

    def test_k2_series_and_clamp(self):
        js = np.arange(2, 1_000_001, dtype=float)
        for eta in (0.1, 0.3):
            k2 = calibrate_k2(eta)
            assert k2 >= math.e
            assert np.sum(2.0 / (k2 * (js - 1) ** 2)) <= eta / 4.0
        # The series constant 4 pi^2/(3 eta) exceeds e for every eta <= 1,
        # so the >= e clamp never binds in the legal range.
        assert calibrate_k2(1.0) == pytest.approx(4.0 * math.pi**2 / 3.0, rel=1e-14)

    def test_k1(self):
        assert head_k1(0.25) == pytest.approx(4.0, rel=1e-14)


class TestPoissonMaxTest:
    def test_threshold_formula_recompute(self):
        """The half-width is the largest per-coordinate threshold
        ``mu_j h^{-1}(log(C' j^2)/mu_j)``: bit for bit against the formula
        in the code's arithmetic, and to 1e-10 relative against ``log(C' j^2)``,
        on distinct rates and on runs of equal ones."""
        for rates in (np.linspace(7.0, 0.3, 25), np.repeat([7.0, 2.0, 0.3], [5, 10, 10])):
            mu = RateVector(rates)
            cfg = PoissonTestConfig.from_eta(mu, 0.2)
            js = np.arange(1, mu.p + 1, dtype=float)
            c_prime = calibrate_poisson(0.2)
            per_coordinate = rates * h_inverse((math.log(c_prime) + 2.0 * np.log(js)) / rates)
            assert cfg.max_threshold == per_coordinate.max()
            textbook = max(r * h_inverse(math.log(c_prime * j * j) / r) for j, r in enumerate(rates, 1))
            assert cfg.max_threshold == pytest.approx(textbook, rel=1e-10)

    def test_null_rounded_accepts(self):
        """x = round(mu) deviates by < 1/2, below any threshold for mu >= 1."""
        mu = RateVector([2.7, 1.9, 1.2])
        cfg = PoissonTestConfig.from_eta(mu, 0.5)
        assert cfg.max_threshold > 0.5
        decision = poisson_max_test(CountVector(np.round(mu.rates).astype(int)), mu, cfg)
        assert not decision.reject

    def test_big_spike_rejects(self):
        mu = RateVector([1.0] * 100)
        cfg = PoissonTestConfig.from_eta(mu, 0.01)
        x = np.ones(100, dtype=int)
        x[0] += 50
        decision = poisson_max_test(CountVector(x), mu, cfg)
        assert decision.reject
        assert decision.statistic == pytest.approx(50.0)
        assert decision.threshold < 50.0

    def test_null_monte_carlo_level(self):
        """Type I at eta=0.1 stays below the eta/2 guarantee (3 sigma slack)."""
        mu = RateVector(np.ones(100))
        cfg = PoissonTestConfig.from_eta(mu, 0.1)
        draws = rng_stream(31).poisson(mu.rates, size=(10_000, mu.p))
        stats = np.abs(draws - mu.rates).max(axis=1)
        rate = float(np.mean(stats > cfg.max_threshold))
        assert rate <= 0.05 + 3.0 * math.sqrt(0.05 * 0.95 / 10_000)

    def test_length_mismatch(self):
        mu = RateVector([1.0, 1.0])
        cfg = PoissonTestConfig.from_eta(mu, 0.1)
        with pytest.raises(ValueError):
            poisson_max_test(CountVector([1, 1, 1]), mu, cfg)


class TestMultinomialHeadTest:
    def test_exact_null_accepts(self):
        q0 = SimplexVector([0.6, 0.4])
        cfg = MultinomialTestConfig.from_eta(q0, 10, 0.2)
        decision = _head_block_test(CountVector([6, 4]), q0, 10, cfg)
        assert not decision.reject and decision.statistic == 0.0

    def test_threshold_formula(self):
        q0 = SimplexVector([0.3, 0.25, 0.25, 0.2])
        n = 200.0
        cfg = MultinomialTestConfig.from_null(q0, n, k1=4.0, k2=30.0)
        assert cfg.head_threshold == pytest.approx(4.0 * (1 + math.sqrt(n * 0.3 * 0.7)), rel=1e-12)
        v = n * q0.tail * (1.0 - q0.tail)
        per_coordinate = v * h_inverse((math.log(30.0) + 2.0 * np.log(np.arange(1.0, 4.0))) / v)
        assert cfg.max_tail_threshold == per_coordinate.max()
        textbook = max(v[j - 2] * h_inverse(math.log(30.0 * (j - 1) ** 2) / v[j - 2]) for j in range(2, 5))
        assert cfg.max_tail_threshold == pytest.approx(textbook, rel=1e-10)

    def test_null_monte_carlo_level(self):
        """Chebyshev guarantee: head Type I <= eta/4 = 0.05 at eta=0.2."""
        q0 = SimplexVector([0.1] * 10)
        cfg = MultinomialTestConfig.from_eta(q0, 500, 0.2)
        draws = rng_stream(17).multinomial(500, q0.probs, size=10_000)
        stats = np.abs(draws[:, 0] - 500 * 0.1)
        rate = float(np.mean(stats >= cfg.head_threshold))
        assert rate <= 0.05 + 3.0 * math.sqrt(0.05 * 0.95 / 10_000)


class TestMultinomialTailTest:
    def test_exact_null_accepts(self):
        q0 = SimplexVector([0.5, 0.3, 0.2])
        cfg = MultinomialTestConfig.from_eta(q0, 60, 0.2)
        decision = _tail_block_test(CountVector([30, 18, 12]), q0, 60, cfg)
        assert not decision.reject

    def test_big_tail_perturbation_rejects(self):
        """Uniform on 2, x2 + n/2 exceeds the tail threshold at eta=0.1."""
        q0 = SimplexVector([0.5, 0.5])
        n = 100
        cfg = MultinomialTestConfig.from_eta(q0, n, 0.1)
        assert cfg.max_tail_threshold < 50.0
        decision = _tail_block_test(CountVector([50, 100]), q0, n, cfg)
        assert decision.reject

    def test_null_monte_carlo_level(self):
        """Bennett union bound: tail Type I <= eta/4 (3 sigma slack)."""
        q0 = SimplexVector([0.1] * 10)
        cfg = MultinomialTestConfig.from_eta(q0, 500, 0.2)
        draws = rng_stream(23).multinomial(500, q0.probs, size=10_000)
        stats = np.abs(draws[:, 1:] - 500 * q0.tail).max(axis=1)
        rate = float(np.mean(stats > cfg.max_tail_threshold))
        assert rate <= 0.05 + 3.0 * math.sqrt(0.05 * 0.95 / 10_000)

    def test_zero_cell_guard(self):
        """A count in a null-zero cell is infinite evidence and rejects."""
        q0 = SimplexVector([1.0, 0.0])
        cfg = MultinomialTestConfig.from_eta(q0, 7, 0.2)
        assert _tail_block_test(CountVector([6, 1]), q0, 7, cfg).reject
        assert not _tail_block_test(CountVector([7, 0]), q0, 7, cfg).reject

    def test_degenerate_cells_excluded_from_max(self):
        """A zero cell has no variance and no threshold: the half-width is the
        formula over the other tail cells, and 0 when none is left."""
        q0 = SimplexVector([0.6, 0.4, 0.0])
        cfg = MultinomialTestConfig.from_eta(q0, 50, 0.2)
        v = 50 * 0.4 * (1.0 - 0.4)
        assert cfg.max_tail_threshold == v * h_inverse((math.log(calibrate_k2(0.2)) + 2.0 * math.log(1.0)) / v)
        assert MultinomialTestConfig.from_eta(SimplexVector([1.0, 0.0, 0.0]), 50, 0.2).max_tail_threshold == 0.0


class TestConfigValidation:
    """A NaN constant or half-width is refused: with a NaN threshold no
    comparison holds, so the test would never reject."""

    @pytest.mark.parametrize("c_prime, threshold", [(math.nan, 1.0), (2.0, math.nan), (0.5, 1.0), (2.0, -1.0)])
    def test_poisson(self, c_prime, threshold):
        """A bad ``C'`` is refused by ``from_null``, a bad half-width by the constructor."""
        with pytest.raises(ValueError, match="max_threshold" if c_prime >= 1.0 else "c_prime"):
            PoissonTestConfig(threshold)
            PoissonTestConfig.from_null(RateVector([3.0, 2.0, 1.0]), c_prime)

    @pytest.mark.parametrize("field", range(4))
    def test_multinomial(self, field):
        """``K1`` and ``K2`` are refused by ``from_null``, a half-width by the constructor."""
        args = [1.0, math.e, 2.0, 2.0]
        args[field] = math.nan
        with pytest.raises(ValueError, match=("k1", "k2", "head_threshold", "max_tail_threshold")[field]):
            MultinomialTestConfig(*args[2:])
            MultinomialTestConfig.from_null(SimplexVector([0.5, 0.3, 0.2]), 60, *args[:2])

    def test_nan_k1_from_null(self):
        with pytest.raises(ValueError, match="k1"):
            MultinomialTestConfig.from_null(SimplexVector([0.5, 0.3, 0.2]), 60, k1=math.nan, k2=30.0)

    @pytest.mark.parametrize("c_prime", [math.nan, 0.5])
    def test_poisson_constant_from_null(self, c_prime):
        """Refused with the constructor's message, before ``log(C')`` reaches ``h^{-1}``."""
        with pytest.raises(ValueError, match=r"c_prime must be >= 1, got (nan|0\.5)"):
            PoissonTestConfig.from_null(RateVector([3.0, 2.0, 1.0]), c_prime)

    def test_nan_k2_from_null(self):
        with pytest.raises(ValueError, match="k2 must be >= e, got nan"):
            MultinomialTestConfig.from_null(SimplexVector([0.5, 0.3, 0.2]), 60, k1=2.0, k2=math.nan)


class TestRunsNulls:
    """A config takes its half-width on the null's run ends, so a null given
    as runs builds one at any ``p``, its dense values never formed."""

    def test_poisson_past_the_dense_cap(self):
        values, counts = np.array([50.0, 3.0, 1.0]), [10**6, 10**9, 10**12]
        mu = RateVector.from_runs(values, counts)
        cfg = PoissonTestConfig.from_eta(mu, 0.1)
        ends = np.cumsum(counts, dtype=float)
        assert cfg.max_threshold == (values * h_inverse((math.log(calibrate_poisson(0.1)) + 2.0 * np.log(ends)) / values)).max()
        assert cfg.max_threshold == 66.2323934498642
        with pytest.raises(ValueError, match="DENSE_RATES_CAP"):
            mu.rates

    def test_multinomial_past_the_dense_cap(self):
        values, counts, n = np.array([0.4, 0.4e-12, 0.2e-12]), [1, 10**12, 10**12], 1e13
        q0 = SimplexVector.from_runs(values, counts)
        cfg = MultinomialTestConfig.from_eta(q0, n, 0.1)
        v = n * values[1:] * (1.0 - values[1:])
        ends = np.cumsum(counts[1:], dtype=float)
        assert cfg.max_tail_threshold == (v * h_inverse((math.log(calibrate_k2(0.1)) + 2.0 * np.log(ends)) / v)).max()
        assert cfg.head_threshold == head_k1(0.1) * (1.0 + math.sqrt(n * 0.4 * 0.6))
        with pytest.raises(ValueError, match="DENSE_RATES_CAP"):
            q0.probs

    def test_scalar_is_the_dense_maximum(self):
        """On seeded dense and step nulls the half-widths equal the maximum of
        the per-coordinate thresholds over every coordinate, bit for bit."""
        rng = np.random.default_rng(11)
        for trial in range(60):
            p = int(rng.integers(1, 60))
            if trial % 2:
                rates = np.repeat(np.sort(rng.uniform(0.05, 80.0, 4))[::-1], rng.integers(1, 15, 4))
            else:
                rates = np.sort(rng.uniform(0.05, 80.0, p))[::-1]
            mu = RateVector(rates)
            cfg = PoissonTestConfig.from_eta(mu, 0.2)
            js = np.arange(1, mu.p + 1, dtype=float)
            assert cfg.max_threshold == (rates * h_inverse((math.log(calibrate_poisson(0.2)) + 2.0 * np.log(js)) / rates)).max()
            q0 = SimplexVector(np.r_[rates, np.zeros(trial % 3)] / rates.sum())
            n = float(rng.integers(10, 10**5))
            mcfg = MultinomialTestConfig.from_eta(q0, n, 0.2)
            v = n * q0.tail * (1.0 - q0.tail)
            active = v > 0.0
            js = np.arange(1, q0.p, dtype=float)[active]
            tail = v[active] * h_inverse((math.log(calibrate_k2(0.2)) + 2.0 * np.log(js)) / v[active])
            assert mcfg.max_tail_threshold == tail.max(initial=0.0)


class TestCombinedTest:
    def test_disjunction(self):
        q0 = SimplexVector([0.5, 0.3, 0.2])
        n = 100
        cfg = MultinomialTestConfig.from_eta(q0, n, 0.2)
        null_x = CountVector([50, 30, 20])
        assert not multinomial_combined_test(null_x, q0, n, cfg).reject
        head_x = CountVector([95, 3, 2])
        assert _head_block_test(head_x, q0, n, cfg).reject
        assert multinomial_combined_test(head_x, q0, n, cfg).reject
        tail_x = CountVector([50, 0, 50])
        assert _tail_block_test(tail_x, q0, n, cfg).reject
        assert multinomial_combined_test(tail_x, q0, n, cfg).reject

    @pytest.mark.parametrize(
        "decide", [_head_block_test, _tail_block_test, multinomial_combined_test]
    )
    @pytest.mark.parametrize("bad_n", [0, -100.0, math.nan])
    def test_invalid_sample_size_raises(self, decide, bad_n):
        """The decision and the boxes of its blocks validate n as a sample
        size, like the config builders."""
        q0 = SimplexVector([0.5, 0.3, 0.2])
        cfg = MultinomialTestConfig.from_eta(q0, 100, 0.2)
        with pytest.raises(ValueError, match="sample size"):
            decide(CountVector([50, 30, 20]), q0, bad_n, cfg)

    def test_monotone_in_deviation(self):
        """Growing every |x_j - n q(j)| never flips reject into accept."""
        q0 = SimplexVector([0.4, 0.3, 0.3])
        n = 90
        cfg = MultinomialTestConfig.from_eta(q0, n, 0.2)
        center = n * q0.probs
        rng = rng_stream(5)
        for _ in range(50):
            direction = np.where(rng.random(3) < 0.5, -1.0, 1.0)
            scales = np.sort(rng.uniform(0.0, 30.0, 4))
            previous = False
            for s in scales:
                x = np.clip(np.round(center + direction * s * np.array([1.0, 0.8, 1.2])), 0, None)
                decision = multinomial_combined_test(x.astype(int), q0, n, cfg)
                assert decision.reject or not previous
                previous = decision.reject

    def test_empirical_union_bound(self):
        """Combined Type I is at most the sum of the parts' Type I rates."""
        q0 = SimplexVector([0.3, 0.25, 0.25, 0.2])
        n = 200
        cfg = MultinomialTestConfig.from_eta(q0, n, 0.2)
        draws = rng_stream(29).multinomial(n, q0.probs, size=5_000)
        head = np.abs(draws[:, 0] - n * q0.head) >= cfg.head_threshold
        tail = np.abs(draws[:, 1:] - n * q0.tail).max(axis=1) > cfg.max_tail_threshold
        combined = np.array(
            [multinomial_combined_test(row, q0, n, cfg).reject for row in draws[:500]]
        )
        assert combined.mean() <= head[:500].mean() + tail[:500].mean() + 1e-12


def _reference_poisson(row, mu, cfg):
    """Row-at-a-time reference for the Poisson max test."""
    stat = max(abs(int(c) - r) for c, r in zip(row, mu.rates))
    return stat > cfg.max_threshold, stat, cfg.max_threshold


def _reference_combined(row, q0, n, cfg):
    """Row-at-a-time reference for the head-or-tail test, head winning ties."""
    head_stat = abs(int(row[0]) - n * q0.head)
    head = (head_stat >= cfg.head_threshold, head_stat, cfg.head_threshold)
    tail_thr = cfg.max_tail_threshold
    tail_cells = list(zip((int(c) for c in row[1:]), q0.tail))
    if not tail_cells:
        tail = (False, 0.0, 0.0)
    elif any(c > 0 for c, q in tail_cells if q == 0.0):
        tail = (True, math.inf, tail_thr)
    else:
        tail_stat = max(abs(c - n * q) for c, q in tail_cells)
        tail = (tail_stat > tail_thr, tail_stat, tail_thr)
    head_ratio = head[1] / max(head[2], 1e-300)
    tail_ratio = tail[1] / max(tail[2], 1e-300)
    winner = head if head_ratio >= tail_ratio else tail
    return head[0] or tail[0], winner[1], winner[2]


def _assert_batch_matches(decision, expected):
    reject, stat, thr = (np.asarray(v) for v in zip(*expected))
    assert decision.reject.dtype == bool
    np.testing.assert_array_equal(decision.reject, reject)
    np.testing.assert_array_equal(decision.statistic, stat)
    np.testing.assert_array_equal(decision.threshold, thr)


class TestBatchKernel:
    """A (rows, p) table is decided row by row, exactly as one vector at a time."""

    def test_poisson_random_tables(self):
        rng = rng_stream(41)
        for p in (1, 2, 7, 40):
            mu = RateVector(np.sort(rng.uniform(0.2, 30.0, p))[::-1])
            cfg = PoissonTestConfig.from_eta(mu, 0.1)
            table = rng.poisson(mu.rates * rng.uniform(0.2, 3.0, (200, 1)))
            decision = poisson_max_test(table, mu, cfg)
            _assert_batch_matches(decision, [_reference_poisson(row, mu, cfg) for row in table])
            for row, rej, stat in zip(table[:20], decision.reject, decision.statistic):
                single = poisson_max_test(row, mu, cfg)
                assert (single.reject, single.statistic) == (rej, stat)

    def test_multinomial_random_tables_with_zero_cells(self):
        rng = rng_stream(43)
        for p, zeros in ((1, 0), (2, 0), (2, 1), (6, 2), (30, 5)):
            q = np.sort(rng.uniform(0.5, 2.0, p))[::-1]
            q[p - zeros:] = 0.0
            q0 = SimplexVector(q / q.sum())
            n = int(rng.integers(20, 400))
            cfg = MultinomialTestConfig.from_eta(q0, n, 0.2)
            alt = q0.probs * rng.uniform(0.3, 2.0, (300, p)) + 0.02 * (rng.random((300, p)) < 0.05)
            table = rng.multinomial(n, alt / alt.sum(axis=1, keepdims=True))
            decision = multinomial_combined_test(table, q0, n, cfg)
            _assert_batch_matches(decision, [_reference_combined(row, q0, n, cfg) for row in table])
            for i, row in enumerate(table[:20]):
                single = multinomial_combined_test(row, q0, n, cfg)
                batch_row = (decision.reject[i], decision.statistic[i], decision.threshold[i])
                assert (single.reject, single.statistic, single.threshold) == batch_row

    def test_zero_cell_guard_in_a_table(self):
        q0 = SimplexVector([0.6, 0.4, 0.0])
        cfg = MultinomialTestConfig.from_eta(q0, 10, 0.2)
        decision = _tail_block_test(np.array([[6, 4, 0], [6, 3, 1], [5, 5, 0]]), q0, 10, cfg)
        assert decision.reject.tolist() == [False, True, False]
        assert decision.statistic[1] == math.inf
        assert np.all(decision.threshold == cfg.max_tail_threshold)

    def test_single_category(self):
        q0 = SimplexVector([1.0])
        cfg = MultinomialTestConfig.from_eta(q0, 5, 0.2)
        tail = _tail_block_test(np.array([[5], [5]]), q0, 5, cfg)
        assert tail.reject.tolist() == [False, False]
        assert tail.statistic.tolist() == [0.0, 0.0] and tail.threshold.tolist() == [0.0, 0.0]
        single = multinomial_combined_test(CountVector([5]), q0, 5, cfg)
        assert (single.reject, single.statistic, single.threshold) == (False, 0.0, cfg.head_threshold)

    def test_head_wins_exceedance_ties(self):
        """Equal exceedance ratios report the head's statistic and threshold."""
        q0 = SimplexVector([0.5, 0.25, 0.25])
        cfg = MultinomialTestConfig(2.0, 4.0)
        table = np.array([[11, 3, 6], [10, 9, 1]])  # ratios 1/2 vs 2/4, then 0/2 vs 4/4
        decision = multinomial_combined_test(table, q0, 20, cfg)
        assert decision.statistic.tolist() == [1.0, 4.0]
        assert decision.threshold.tolist() == [2.0, 4.0]
        _assert_batch_matches(decision, [_reference_combined(row, q0, 20, cfg) for row in table])

    def test_integral_threshold_edges(self):
        """Counts exactly on a threshold: the max tests accept, the head test rejects."""
        mu = RateVector([3.0, 3.0])
        pcfg = PoissonTestConfig(2.0)
        decision = poisson_max_test(np.array([[5, 3], [6, 3], [1, 3], [0, 3]]), mu, pcfg)
        assert decision.reject.tolist() == [False, True, False, True]
        q0 = SimplexVector([0.5, 0.25, 0.25])
        mcfg = MultinomialTestConfig(2.0, 2.0)
        table = np.array([[12, 4, 4], [11, 4, 5], [10, 7, 3], [10, 8, 2]])
        assert _head_block_test(table, q0, 20, mcfg).reject.tolist() == [True, False, False, False]
        assert _tail_block_test(table, q0, 20, mcfg).reject.tolist() == [False, False, False, True]
        _assert_batch_matches(
            multinomial_combined_test(table, q0, 20, mcfg),
            [_reference_combined(row, q0, 20, mcfg) for row in table],
        )

    def test_single_vector_gives_scalars(self):
        mu = RateVector([2.0, 1.0])
        decision = poisson_max_test(CountVector([2, 9]), mu, PoissonTestConfig.from_eta(mu, 0.1))
        assert type(decision.reject) is bool and decision.label == "reject"
        assert type(decision.statistic) is float and type(decision.threshold) is float

    def test_table_labels_and_width_check(self):
        mu = RateVector([2.0, 1.0])
        cfg = PoissonTestConfig.from_eta(mu, 0.1)
        assert poisson_max_test(np.array([[2, 1], [2, 40]]), mu, cfg).label.tolist() == ["accept", "reject"]
        with pytest.raises(ValueError):
            poisson_max_test(np.zeros((3, 3), dtype=int), mu, cfg)


class TestExactCalibration:
    """Theorem-1 calibration, checked exactly: the Type I error of the
    calibrated Poisson max test is at most eta/2."""

    NULLS = {
        "flat-1": np.ones(100),
        "flat-0.1": np.full(1_000, 0.1),
        "decaying": 1.0 + 100.0 / np.sqrt(np.arange(1, 10_001)),
        "flat-1e4": np.full(50, 1e4),
        "flat-1e-3": np.full(10, 1e-3),
    }

    @pytest.mark.parametrize("name", list(NULLS))
    def test_type1_at_most_half_eta(self, name):
        mu = RateVector(self.NULLS[name])
        for eta in (0.05, 0.1, 0.2, 0.5, 1.0):
            u = PoissonTestConfig.from_eta(mu, eta).max_threshold
            # Independent tail sums: reject when X > mu + u or X < mu - u.
            tails = poisson.sf(np.floor(mu.rates + u), mu.rates) + poisson.cdf(
                np.ceil(mu.rates - u) - 1.0, mu.rates
            )
            want = -math.expm1(np.log1p(-tails).sum())
            got = estimate_poisson_risk(mu, mu, eta, 100, 0).type1
            assert abs(got - want) <= 1e-12
            assert got <= eta / 2.0


_SETTINGS = settings(max_examples=200, derandomize=True, deadline=None, database=None)
# Half-widths and offsets on a half-integer grid, so counts land exactly on the edges.
_HALF_STEPS = st.integers(0, 12).map(lambda k: k / 2.0)
_OFFSETS = st.integers(-8, 8).map(lambda k: k / 2.0)


class TestBoxDecisions:
    """Box decisions equal a row-at-a-time ``|x - center|`` reference."""

    @_SETTINGS
    @example(center=[3.0, 0.0, 2.5], half_width=2.0, strict=True)
    @given(
        center=st.lists(st.integers(0, 40).map(lambda k: k / 4.0), min_size=1, max_size=5),
        half_width=_HALF_STEPS,
        strict=st.booleans(),
    )
    def test_box_membership(self, center, half_width, strict):
        box = AcceptanceBox.around(np.array(center), half_width, strict)
        for j, c in enumerate(center):
            x = np.arange(0, 30)
            dev = np.abs(x - c)
            inside = x[dev < half_width] if strict else x[dev <= half_width]
            members = x[(x >= box.lo[j]) & (x <= box.hi[j])]
            np.testing.assert_array_equal(members, inside)

    @_SETTINGS
    @given(
        rates=st.lists(st.integers(1, 20).map(lambda k: k / 2.0), min_size=1, max_size=5),
        half_width=_HALF_STEPS,
        offsets=st.lists(st.lists(_OFFSETS, min_size=5, max_size=5), min_size=1, max_size=12),
    )
    def test_poisson_tables(self, rates, half_width, offsets):
        mu = RateVector(sorted(rates, reverse=True))
        cfg = PoissonTestConfig(half_width)
        table = np.clip(np.floor(mu.rates + np.array(offsets)[:, : mu.p]), 0, None).astype(np.int64)
        _assert_batch_matches(
            poisson_max_test(table, mu, cfg), [_reference_poisson(row, mu, cfg) for row in table]
        )

    @_SETTINGS
    @example(  # a head/tail exceedance tie, a count on the tail edge, a count in a zero cell
        cuts=[32, 48], zeros=1, head=2.0, tail=4.0, offsets=[[1, 2, 0, 0, 0, 0, 0], [0, -4, 0, 1.5, 0, 0, 0]]
    )
    @given(
        cuts=st.lists(st.integers(1, 63), max_size=4, unique=True),
        zeros=st.integers(0, 2),
        head=_HALF_STEPS.map(lambda h: h + 0.5),
        tail=_HALF_STEPS,
        offsets=st.lists(st.lists(_OFFSETS, min_size=7, max_size=7), min_size=1, max_size=12),
    )
    def test_multinomial_tables(self, cuts, zeros, head, tail, offsets):
        """Cells ``k/64``, so every center ``n q`` is an exact integer; zero
        cells, head/tail exceedance ties and counts on the edges all occur."""
        n = 64
        counts = np.diff(np.r_[0, sorted(cuts), n])
        q0 = SimplexVector(np.r_[np.sort(counts)[::-1], np.zeros(zeros)] / n)
        active = q0.tail > 0.0
        cfg = MultinomialTestConfig(head, tail if active.any() else 0.0)
        center = n * q0.probs
        table = np.clip(center + np.array(offsets)[:, : q0.p], 0, None).astype(np.int64)
        table[:, 1:][:, ~active] = np.abs(np.array(offsets)[:, 1 : q0.p][:, ~active]) > 1.0
        _assert_batch_matches(
            multinomial_combined_test(table, q0, n, cfg),
            [_reference_combined(row, q0, n, cfg) for row in table],
        )
        head_ref = np.abs(table[:, 0] - center[0]) >= head
        tail_dev = np.abs(table[:, 1:] - center[1:]).max(axis=1, initial=0.0)
        tail_ref = (tail_dev > cfg.max_tail_threshold) | (table[:, 1:][:, ~active] > 0).any(axis=1)
        np.testing.assert_array_equal(_head_block_test(table, q0, n, cfg).reject, head_ref)
        np.testing.assert_array_equal(_tail_block_test(table, q0, n, cfg).reject, tail_ref)
