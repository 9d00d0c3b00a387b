"""Tests for the containers, the random streams and the CSV reader."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import supgof.model as model
from supgof.model import (
    DENSE_RATES_CAP,
    MAX_P,
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


class TestRateRuns:
    def test_runs_of_dense_rates(self):
        values, counts = RateVector([5.0, 3.0, 3.0, 1.0, 1.0, 1.0]).runs
        assert (values.tolist(), counts.tolist()) == ([5.0, 3.0, 1.0], [1, 2, 3])
        distinct = RateVector([3.0, 2.0, 1.0])
        assert distinct.runs[0] is distinct.rates  # no second p-length float array

    def test_from_runs_expands_on_demand(self):
        mu = RateVector.from_runs([5.0, 3.0, 1.0], [1, 2.0, 3])
        assert mu.p == 6 and type(mu.p) is int
        assert mu.rates.tolist() == [5.0, 3.0, 3.0, 1.0, 1.0, 1.0]
        with pytest.raises(ValueError):
            mu.rates[0] = 1.0
        with pytest.raises(ValueError):
            mu.runs[1][0] = 4

    @pytest.mark.parametrize(
        "values, counts",
        [
            ([1.0, 2.0], [1, 1]),
            ([1.0, 0.0], [1, 1]),
            ([math.nan], [1]),
            ([], []),
            ([1.0], [True]),
            ([1.0], [1.5]),
            ([1.0], [0]),
            ([1.0], [-2]),
            ([1.0], [math.nan]),
            ([1.0], [math.inf]),
            ([1.0], ["3"]),
            ([1.0], [1, 1]),
            ([1.0], [2**53 + 1]),
            ([2.0, 1.0], [2**53, 1]),
            ([1.0] * 3, [2**62] * 3),
        ],
        ids=lambda v: repr(v)[:20],
    )
    def test_from_runs_validation(self, values, counts):
        with pytest.raises(ValueError):
            RateVector.from_runs(values, counts)

    def test_p_reaches_max_p(self):
        assert RateVector.from_runs([1.0], [MAX_P]).p == MAX_P
        assert RateVector.from_runs([1.0], [float(MAX_P)]).p == MAX_P

    def test_dense_view_is_capped(self):
        mu = RateVector.from_runs([2.0, 1.0], [DENSE_RATES_CAP, 1])
        assert mu.p == DENSE_RATES_CAP + 1
        with pytest.raises(ValueError, match=f"DENSE_RATES_CAP = {DENSE_RATES_CAP}"):
            mu.rates


class TestSimplexRuns:
    def test_runs_of_dense_probs_split_off_the_head(self):
        q = SimplexVector([0.25, 0.25, 0.25, 0.25])
        assert q._runs is None  # a dense null builds its runs on first use only
        values, counts = q.runs
        assert (values.tolist(), counts.tolist()) == ([0.25, 0.25], [1, 3])
        values, counts = SimplexVector([0.4, 0.2, 0.2, 0.1, 0.1]).runs
        assert (values.tolist(), counts.tolist()) == ([0.4, 0.2, 0.1], [1, 2, 2])
        distinct = SimplexVector([0.5, 0.3, 0.2])
        assert distinct.runs[0] is distinct.probs
        assert SimplexVector([1.0]).runs[1].tolist() == [1]

    def test_from_runs_splits_the_head_and_expands_on_demand(self):
        q = SimplexVector.from_runs([0.2, 0.1], [3, 4.0])
        assert q.p == 7 and type(q.p) is int
        assert (q.runs[0].tolist(), q.runs[1].tolist()) == ([0.2, 0.2, 0.1], [1, 2, 4])
        assert q.head == 0.2 and q._dense is None
        assert q.probs.tolist() == [0.2] * 3 + [0.1] * 4
        assert q.tail.tolist() == [0.2] * 2 + [0.1] * 4
        with pytest.raises(ValueError):
            q.probs[0] = 1.0
        with pytest.raises(ValueError):
            q.runs[1][0] = 4

    @pytest.mark.parametrize(
        "values, counts",
        [
            ([0.25], [3]),  # sums to 0.75
            ([0.25], [5]),
            ([0.2, 0.4], [1, 2]),
            ([1.5, -0.25], [1, 2]),
            ([0.5], [2.5]),
            ([0.5], [True]),
            ([0.5], [0, 2]),
            ([math.nan], [1]),
        ],
        ids=lambda v: repr(v)[:20],
    )
    def test_from_runs_validation(self, values, counts):
        with pytest.raises(ValueError):
            SimplexVector.from_runs(values, counts)

    def test_sum_is_checked_over_the_runs(self):
        p = 10**15
        assert SimplexVector.from_runs([1.0 / p], [p]).p == p
        with pytest.raises(ValueError, match="sum to 1"):
            SimplexVector.from_runs([1.0 / p], [p - 10**4])

    def test_dense_view_is_capped(self):
        q = SimplexVector.from_runs([0.5, 0.5 / DENSE_RATES_CAP], [1, DENSE_RATES_CAP])
        with pytest.raises(ValueError, match=f"DENSE_RATES_CAP = {DENSE_RATES_CAP}"):
            q.probs
        with pytest.raises(ValueError, match="DENSE_RATES_CAP"):
            q.tail


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
        np.testing.assert_array_equal(read_counts_csv(f1, p_expected=3), [[1, 2, 3], [4, 5, 6]])
        f2 = tmp_path / "hdr.csv"
        f2.write_text("a,b,c\n1,2,3\n")
        np.testing.assert_array_equal(read_counts_csv(f2, p_expected=3), [[1, 2, 3]])

    def test_rejects_ragged_and_negative(self, tmp_path):
        f = tmp_path / "bad.csv"
        f.write_text("1,2\n3\n")
        with pytest.raises(ValueError, match="ragged"):
            read_counts_csv(f, p_expected=2)
        f.write_text("1,-2\n")
        with pytest.raises(ValueError, match="nonnegative"):
            read_counts_csv(f, p_expected=2)

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
            read_counts_csv(f, p_expected=3)

    @pytest.mark.parametrize("cell", ["inf", "1e400", "9223372036854775808", "-1e19"])
    def test_out_of_range_count_names_its_row(self, tmp_path, cell):
        f = tmp_path / "big.csv"
        f.write_text(f"1,2\n{cell},3\n")
        with pytest.raises(ValueError, match="CSV row 2"):
            read_counts_csv(f, p_expected=2)

    @pytest.mark.parametrize("count", [9_007_199_254_740_993, 9_223_372_036_854_775_807])
    def test_integer_cells_read_exactly(self, tmp_path, count):
        """2^53 + 1 and the largest int64 survive: a float detour rounds the first
        and pushes the second out of range."""
        f = tmp_path / "exact.csv"
        f.write_text(f"c1,c2\n{count},0\n")
        table = read_counts_csv(f, p_expected=2)
        assert table.dtype == np.int64
        assert int(table[0, 0]) == count

    def test_integral_float_spellings_still_read(self, tmp_path):
        f = tmp_path / "floats.csv"
        f.write_text("3.0,1e3,+4,-0.0\n")
        np.testing.assert_array_equal(read_counts_csv(f, p_expected=4), [[3, 1000, 4, 0]])

    def test_numpy_reader_matches_the_cell_reader(self, tmp_path):
        """On random CSV text the table, or the error, is the cell-by-cell
        reader's: numpy reads only what that reader would read the same way."""
        cell = st.one_of(
            st.integers(-5, 10**6).map(str),
            st.integers(2**62, 2**64).map(str),
            st.sampled_from(["", " ", " 7 ", "+4", "-0", "3.0", "1e3", "1.5", "nan", "inf", "a", '"1"', "0x1", "1_0", "\t2"]),
        )
        line = st.lists(cell, min_size=1, max_size=4).map(",".join)
        table = st.tuples(st.lists(line, max_size=5), st.sampled_from(["\n", "\r\n", "\r"]), st.booleans()).map(
            lambda t: t[1].join(t[0]) + (t[1] if t[2] else "")
        )
        text = st.one_of(table, st.text(alphabet='0123456789,.-+e "a\n\r\t', max_size=40))
        path = tmp_path / "counts.csv"

        def outcome(p_expected):
            try:
                arr = read_counts_csv(path, p_expected)
            except (OSError, ValueError) as exc:
                return type(exc), str(exc)
            assert arr.dtype == np.int64
            return arr.shape, arr.tolist()

        @settings(max_examples=400, derandomize=True, deadline=None, database=None)
        @given(text=text, p_expected=st.integers(1, 4))
        def run(text, p_expected):
            path.write_bytes(text.encode())
            fast = outcome(p_expected)
            taken.append(model._read_plain_table(path) is not None)
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(model, "_read_plain_table", lambda path: None)
                assert fast == outcome(p_expected)

        taken = []
        run()
        assert 0 < sum(taken) < len(taken)  # both readers were reached

    def test_plain_rows_are_read_by_numpy(self, tmp_path, monkeypatch):
        """A header line then plain integer rows take the one-call path: only
        the first line is parsed cell by cell, to tell a header."""
        f = tmp_path / "plain.csv"
        f.write_text("a,b\n1,2\r\n3,4\n5,6\n")
        parsed = []
        parse_row = model._parse_row
        monkeypatch.setattr(model, "_parse_row", lambda row, lineno: parsed.append(lineno) or parse_row(row, lineno))
        np.testing.assert_array_equal(read_counts_csv(f, p_expected=2), [[1, 2], [3, 4], [5, 6]])
        assert parsed == [0]
