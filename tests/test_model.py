"""Tests for the containers and the exact samplers."""

from __future__ import annotations

import math

import numpy as np
import pytest
import scipy.stats

from supgof.divergence import poisson_product_dist
from supgof.model import (
    CountVector,
    RateVector,
    SampleSize,
    SimplexVector,
    read_counts_csv,
    rng_stream,
    sample_multinomial,
    sample_poisson_product,
    sample_poissonized_multinomial,
    sample_size_value,
)


class TestContainers:
    def test_rate_vector_requires_sorted_positive(self):
        RateVector([3.0, 2.0, 2.0, 0.5])
        with pytest.raises(ValueError):
            RateVector([1.0, 2.0])
        with pytest.raises(ValueError):
            RateVector([1.0, 0.0])
        with pytest.raises(ValueError):
            RateVector([math.inf, 1.0])

    def test_rate_vector_from_unsorted_remembers_permutation(self):
        rv, perm = RateVector.from_unsorted([0.5, 3.0, 1.0])
        np.testing.assert_allclose(rv.rates, [3.0, 1.0, 0.5])
        np.testing.assert_array_equal(perm, [1, 2, 0])

    def test_simplex_vector_validation(self):
        SimplexVector([0.5, 0.3, 0.2, 0.0])
        with pytest.raises(ValueError):
            SimplexVector([0.2, 0.5, 0.3])
        with pytest.raises(ValueError):
            SimplexVector([0.6, 0.5])
        with pytest.raises(ValueError):
            SimplexVector([0.5, 0.5 + 1e-9])

    def test_zero_multinomial_cells_allowed_zero_poisson_rejected(self):
        """The multinomial null may have empty cells; the Poisson null may not."""
        q = SimplexVector([1.0, 0.0])
        assert q.tail[0] == 0.0
        with pytest.raises(ValueError):
            RateVector([1.0, 0.0])

    def test_count_vector(self):
        cv = CountVector([0, 3, 2])
        assert cv.counts.dtype == np.int64
        with pytest.raises(ValueError):
            CountVector([-1, 0])
        with pytest.raises(ValueError):
            CountVector([0.5, 1.0])

    def test_sample_size(self):
        assert SampleSize(2.5).n == 2.5
        assert SampleSize(4).as_integer() == 4
        with pytest.raises(ValueError):
            SampleSize(0.0)
        with pytest.raises(ValueError):
            SampleSize(2.5).as_integer()

    def test_sample_size_value(self):
        assert sample_size_value(SampleSize(4)) == 4.0
        assert type(sample_size_value(SampleSize(4))) is float
        assert sample_size_value(2.5) == 2.5
        for bad in (0, -3.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                sample_size_value(bad)

    def test_containers_immutable(self):
        rv = RateVector([2.0, 1.0])
        with pytest.raises(ValueError):
            rv.rates[0] = 5.0


class TestRngStreams:
    def test_deterministic_and_distinct(self):
        a = rng_stream(42, 1).poisson(3.0, size=10)
        b = rng_stream(42, 1).poisson(3.0, size=10)
        c = rng_stream(42, 2).poisson(3.0, size=10)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)


class TestPoissonProductSampler:
    def test_zero_rates_give_zero_counts(self):
        x = sample_poisson_product([0.0, 0.0, 0.0], 1)
        np.testing.assert_array_equal(x.counts, [0, 0, 0])

    def test_determinism(self):
        x1 = sample_poisson_product([1.0, 2.0], 7)
        x2 = sample_poisson_product([1.0, 2.0], 7)
        np.testing.assert_array_equal(x1.counts, x2.counts)

    def test_mean_matches_clt_band(self):
        """Sample mean of Poisson(5) over 1e5 draws within 5 +/- 4*sqrt(5/1e5)."""
        draws = sample_poisson_product([5.0], 3, trials=100_000)
        assert abs(draws.mean() - 5.0) <= 4.0 * math.sqrt(5.0 / 100_000)

    def test_rejects_bad_rates(self):
        with pytest.raises(ValueError):
            sample_poisson_product([-1.0], 0)
        with pytest.raises(ValueError):
            sample_poisson_product([float("nan")], 0)


class TestMultinomialSampler:
    def test_n_zero(self):
        x = sample_multinomial(0, SimplexVector([0.6, 0.4]), 0)
        np.testing.assert_array_equal(x.counts, [0, 0])

    def test_degenerate_simplex(self):
        x = sample_multinomial(7, SimplexVector([1.0, 0.0]), 0)
        np.testing.assert_array_equal(x.counts, [7, 0])

    def test_counts_sum_to_n_exactly(self):
        q = SimplexVector([0.4, 0.3, 0.2, 0.1])
        draws = sample_multinomial(100, q, 5, trials=10_000)
        assert np.all(draws.sum(axis=1) == 100)

    def test_marginal_mean_band(self):
        """Uniform on 4, n=100: each marginal mean 25 +/- 5*sqrt(18.75/1e5)."""
        q = SimplexVector([0.25] * 4)
        draws = sample_multinomial(100, q, 11, trials=100_000)
        band = 5.0 * math.sqrt(18.75 / 100_000)
        assert np.all(np.abs(draws.mean(axis=0) - 25.0) <= band)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            sample_multinomial(2.5, SimplexVector([1.0]), 0)
        with pytest.raises(ValueError):
            sample_multinomial(3, [0.7, 0.7], 0)


class TestPoissonizedSampler:
    def test_marginal_poisson_mean(self):
        """q=(1), n=3: the count is marginally Poisson(3)."""
        draws = sample_poissonized_multinomial(3.0, SimplexVector([1.0]), 2, trials=100_000)
        assert abs(draws.mean() - 3.0) <= 4.0 * math.sqrt(3.0 / 100_000)

    def test_coordinate_pmf_matches_poisson(self):
        """q=(1/2,1/2), n=2: coordinate 1 is Poisson(1); chi-square GOF test."""
        draws = sample_poissonized_multinomial(2.0, SimplexVector([0.5, 0.5]), 4, trials=100_000)
        x1 = draws[:, 0]
        kmax = 8
        observed = np.bincount(np.minimum(x1, kmax), minlength=kmax + 1)
        expected = scipy.stats.poisson.pmf(np.arange(kmax), 1.0)
        expected = np.append(expected, scipy.stats.poisson.sf(kmax - 1, 1.0)) * x1.size
        stat, pvalue = scipy.stats.chisquare(observed, expected)
        assert pvalue > 1e-4

    def test_coordinates_uncorrelated(self):
        draws = sample_poissonized_multinomial(2.0, SimplexVector([0.5, 0.5]), 9, trials=100_000)
        corr = np.corrcoef(draws[:, 0], draws[:, 1])[0, 1]
        assert abs(corr) <= 0.02

    def test_real_valued_n_allowed(self):
        draws = sample_poissonized_multinomial(2.5, SimplexVector([0.5, 0.5]), 1, trials=100)
        assert draws.shape == (100, 2)

    def test_poissonization_identity_in_tv(self):
        """Empirical joint law matches the exact product-Poisson law in TV."""
        q = SimplexVector([0.5, 0.5])
        draws = sample_poissonized_multinomial(2.0, q, 13, trials=1_000_000)
        exact = poisson_product_dist([1.0, 1.0], 1e-12)
        shape = exact.shape
        clipped = np.minimum(draws, np.array(shape) - 1)
        joint = np.zeros(shape)
        np.add.at(joint, (clipped[:, 0], clipped[:, 1]), 1.0)
        joint /= draws.shape[0]
        tv = 0.5 * np.abs(joint - exact.dense(shape)).sum()
        assert tv <= 0.01


class TestCsvIngestion:
    def test_reads_with_and_without_header(self, tmp_path):
        f1 = tmp_path / "raw.csv"
        f1.write_text("1,2,3\n4,5,6\n")
        np.testing.assert_array_equal(read_counts_csv(f1), [[1, 2, 3], [4, 5, 6]])
        f2 = tmp_path / "hdr.csv"
        f2.write_text("a,b,c\n1,2,3\n")
        np.testing.assert_array_equal(read_counts_csv(f2), [[1, 2, 3]])

    def test_rejects_ragged_and_negative(self, tmp_path):
        f = tmp_path / "bad.csv"
        f.write_text("1,2\n3\n")
        with pytest.raises(ValueError):
            read_counts_csv(f)
        f.write_text("1,-2\n")
        with pytest.raises(ValueError):
            read_counts_csv(f)

    def test_expected_width_enforced(self, tmp_path):
        f = tmp_path / "w.csv"
        f.write_text("1,2\n")
        with pytest.raises(ValueError):
            read_counts_csv(f, p_expected=3)


class TestSamplerDeterminism:
    def test_all_samplers_deterministic_given_seed(self):
        q = SimplexVector([0.5, 0.3, 0.2])
        pairs = [
            (sample_poisson_product([1.0, 2.0], 5).counts, sample_poisson_product([1.0, 2.0], 5).counts),
            (sample_multinomial(30, q, 5).counts, sample_multinomial(30, q, 5).counts),
            (
                sample_poissonized_multinomial(30.0, q, 5).counts,
                sample_poissonized_multinomial(30.0, q, 5).counts,
            ),
        ]
        for a, b in pairs:
            np.testing.assert_array_equal(a, b)
