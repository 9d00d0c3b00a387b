"""Tests for the containers, the random streams and the CSV reader."""

from __future__ import annotations

import math

import numpy as np
import pytest

from supgof.model import (
    CountVector,
    RateVector,
    SimplexVector,
    as_probability_vector,
    read_counts_csv,
    rng_stream,
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

    def test_sample_size_value(self):
        assert sample_size_value(4) == 4.0
        assert type(sample_size_value(4)) is float
        assert sample_size_value(2.5) == 2.5
        for bad in (0, -3.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                sample_size_value(bad)

    def test_as_probability_vector_needs_unit_sum(self):
        with pytest.raises(ValueError):
            as_probability_vector([0.7, 0.7])

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

    @pytest.mark.parametrize("first", ["1.5,2,3", "inf,2,3", "nan,2,3", "1e400,2,3"])
    def test_numeric_first_row_is_data_not_header(self, tmp_path, first):
        """Only a first row with a non-numeric cell is a header; a bad numeric one is an error."""
        f = tmp_path / "first.csv"
        f.write_text(f"{first}\n1,1,1\n")
        with pytest.raises(ValueError, match="CSV row 1"):
            read_counts_csv(f)

    @pytest.mark.parametrize("cell", ["inf", "1e400", "9223372036854775808", "-1e19"])
    def test_out_of_range_count_names_its_row(self, tmp_path, cell):
        f = tmp_path / "big.csv"
        f.write_text(f"1,2\n{cell},3\n")
        with pytest.raises(ValueError, match="CSV row 2"):
            read_counts_csv(f)
