"""Tests for the deviation exponent, its inverse, and the tail bounds."""

from __future__ import annotations

import math
import warnings

import mpmath
import numpy as np
import pytest
import scipy.special
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

import supgof.special as special
from supgof.special import (
    SolverError,
    bennett_upper_tail_bound,
    gamma_rate,
    h,
    h_inverse,
)

# Equivalence constants measured once on dev grids and frozen (see the
# corresponding tests for the grids).  The ratios are smooth, so a modest
# widening of the measured range is future-proof against grid changes.
HINV_OVER_GAMMA_LO = 1.41
HINV_OVER_GAMMA_HI = 2.40

# Relative accuracy required of h and h_inverse against 50-digit references:
# a few ulps, which an absolute-only tolerance near 0 would not give.
REL_ACCURACY = 1e-14


def _h_mp(x: float) -> mpmath.mpf:
    x = mpmath.mpf(x)
    return (1 + x) * mpmath.log1p(x) - x


def _h_inverse_mp(y: float) -> mpmath.mpf:
    """h^{-1}(y) = exp(1 + W((y-1)/e)) - 1 on the principal branch."""
    y = mpmath.mpf(y)
    return mpmath.expm1(1 + mpmath.lambertw((y - 1) / mpmath.e))


def _max_relative_error(values, points, oracle) -> float:
    with mpmath.workdps(50):
        return max(
            float(abs(mpmath.mpf(float(v)) / oracle(float(t)) - 1)) for v, t in zip(values, points)
        )


class TestH:
    def test_exact_anchor_values(self):
        """h(0)=0, h(-1)=1, h(e-1)=1, h(1)=2ln2-1."""
        assert h(0.0) == 0.0
        assert h(-1.0) == 1.0
        assert h(math.e - 1.0) == pytest.approx(1.0, rel=1e-14)
        assert h(1.0) == pytest.approx(2.0 * math.log(2.0) - 1.0, rel=1e-14)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            h(-1.0000001)
        with pytest.raises(ValueError):
            h(float("nan"))

    def test_nonnegative_and_increasing(self):
        """h >= 0 on the domain and strictly increasing on [0, inf)."""
        xs = np.concatenate([np.linspace(-1.0, 0.0, 101), np.logspace(-8, 8, 200)])
        vals = h(xs)
        assert np.all(vals >= 0.0)
        pos = np.sort(np.unique(np.logspace(-6, 6, 300)))
        assert np.all(np.diff(h(pos)) > 0.0)

    def test_series_branch_matches_formula(self):
        """The small-|x| series agrees with the direct formula where both are stable."""
        xs = np.linspace(1e-5, 1e-3, 50)
        direct = (1.0 + xs) * np.log1p(xs) - xs
        np.testing.assert_allclose(h(xs), direct, rtol=1e-10)

    def test_relative_accuracy_against_mpmath(self):
        """Few-ulp relative accuracy, also just above the series cutoff, where h cancels."""
        xs = np.logspace(-8, 1, 300)
        assert _max_relative_error(h(xs), xs, _h_mp) <= REL_ACCURACY

    def test_scalar_is_batch_of_one(self):
        xs = np.array([-1.0, -0.3, 0.0, 1e-3, 0.05, 2.0])
        out = h(xs)
        for x, v in zip(xs, out):
            assert type(h(float(x))) is float
            assert h(float(x)) == v


class TestHInverse:
    def test_anchor_values(self):
        assert h_inverse(0.0) == 0.0
        assert h_inverse(1.0) == pytest.approx(math.e - 1.0, rel=1e-12)
        assert h_inverse(2.0 * math.log(2.0) - 1.0) == pytest.approx(1.0, rel=1e-12)

    def test_round_trip(self):
        """|h(h_inverse(y)) - y| <= 1e-12 * max(y, 1) across 16 decades."""
        ys = np.logspace(-8, 8, 1000)
        err = np.abs(h(h_inverse(ys)) - ys) / np.maximum(ys, 1.0)
        assert err.max() <= 1e-12

    def test_monotone(self):
        ys = np.sort(np.random.default_rng(7).uniform(0.0, 1e6, size=500))
        xs = h_inverse(ys)
        assert np.all(np.diff(xs) >= 0.0)

    def test_large_target_converges(self):
        """No numeric failure up to the contractual 1e12."""
        x = h_inverse(1e12)
        assert h(x) == pytest.approx(1e12, rel=1e-12)

    def test_small_y_asymptotics(self):
        """h_inverse(y)/sqrt(2y) -> 1; within 1% for y <= 1e-4."""
        ys = np.logspace(-8, -4, 100)
        ratio = h_inverse(ys) / np.sqrt(2.0 * ys)
        assert ratio.min() >= 0.99 and ratio.max() <= 1.01

    def test_gamma_equivalence_frozen_constants(self):
        """c * gamma_rate(y) <= h_inverse(y) <= C * gamma_rate(y) on [1e-6, 1e6]."""
        ys = np.logspace(-6, 6, 2001)
        ratio = h_inverse(ys) / gamma_rate(ys)
        assert ratio.min() >= HINV_OVER_GAMMA_LO
        assert ratio.max() <= HINV_OVER_GAMMA_HI

    def test_domain_error(self):
        with pytest.raises(ValueError):
            h_inverse(-1e-9)
        with pytest.raises(ValueError):
            h_inverse(float("nan"))
        with pytest.raises(ValueError):
            h_inverse(np.array([1.0, float("nan")]))
        with pytest.raises(ValueError):
            h_inverse(np.array([[1.0, 2.0], [-3.0, 4.0]]))

    def test_relative_accuracy_against_mpmath(self):
        """Relative (not only absolute) accuracy from 1e-15 to 1e15."""
        ys = np.logspace(-15, 15, 301)
        assert _max_relative_error(h_inverse(ys), ys, _h_inverse_mp) <= REL_ACCURACY

    def test_shape_contract(self):
        """A scalar is a batch of one returning a float; arrays keep their shape."""
        assert type(h_inverse(2.0)) is float
        assert type(h_inverse(np.float64(2.0))) is float
        assert type(h_inverse(np.array(2.0))) is float
        assert type(h_inverse(3)) is float
        assert h_inverse(np.array(2.0)) == h_inverse(np.array([2.0]))[0]
        assert h_inverse(np.empty(0)).shape == (0,)
        assert h_inverse(np.empty((0, 4))).shape == (0, 4)
        grid = np.logspace(-3, 3, 12).reshape(3, 4)
        out = h_inverse(grid)
        assert out.shape == (3, 4)
        np.testing.assert_array_equal(out.ravel(), h_inverse(grid.ravel()))
        zeros = h_inverse(np.array([0.0, 1e-300, 0.0]))
        assert zeros[0] == 0.0 and zeros[2] == 0.0 and zeros[1] > 0.0

    def test_monotone_dense_grid(self):
        """Strictly increasing on a dense grid, across the seed switch at y = 1e-3
        and the Lambert W seed switch at y = 1 + e z, z = -0.25."""
        y_switch = 1.0 + math.e * special._LAMBERTW_SERIES_CUTOFF
        ys = np.unique(
            np.concatenate(
                [
                    np.linspace(0.0, 5e-3, 20001),
                    np.logspace(-2.3, 12, 20001),
                    y_switch + np.linspace(-1e-6, 1e-6, 2001),
                ]
            )
        )
        assert np.any(ys < y_switch) and np.any(ys > y_switch)
        assert np.all(np.diff(h_inverse(ys)) > 0.0)

    def test_missed_tolerance_raises(self, monkeypatch):
        """The output check is live: an unattainable tolerance or y = inf raises."""
        with monkeypatch.context() as m:
            m.setattr(special, "_REL_TOL", 1e-30)
            with pytest.raises(SolverError):
                h_inverse(np.logspace(-3, 3, 50))
        with pytest.raises(SolverError):
            h_inverse(np.array([1.0, math.inf]))

    def test_infinite_target_raises_without_warning(self):
        """y = inf fails the tolerance check, as a SolverError and not as a
        RuntimeWarning from the Lambert W seed (inf / inf there)."""
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(SolverError):
                h_inverse(math.inf)
            with pytest.raises(SolverError):
                h_inverse(np.array([0.5, 1.0, math.inf]))
        assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []

    @given(st.floats(min_value=1e-10, max_value=1e10))
    @settings(max_examples=200, deadline=None)
    def test_round_trip_property(self, y):
        x = h_inverse(y)
        assert x >= 0.0
        assert abs(h(x) - y) <= 1e-12 * max(y, 1.0)


class TestLambertW:
    """The numpy principal-branch W that seeds h_inverse, against
    ``scipy.special.lambertw`` (the oracle here only)."""

    def test_matches_scipy_from_branch_point_to_1e300(self):
        """Within 8 ulps relative, plus ``4 eps / sqrt(1 + e z)`` near -1/e:
        there ``1 + e z`` is rounded to an absolute eps, and W moves by that
        over ``sqrt(2 (1 + e z))``."""
        cutoff = special._LAMBERTW_SERIES_CUTOFF
        z = np.concatenate(
            [
                -1.0 / math.e + np.logspace(-12, math.log10(1.0 / math.e + cutoff), 2000),
                cutoff + np.linspace(-1e-2, 1e-2, 2001),
                -np.logspace(-300, math.log10(-cutoff), 1000),
                [0.0],
                np.logspace(-300, 300, 3000),
            ]
        )
        assert np.any(z < cutoff) and np.any(z >= cutoff)
        eps = np.finfo(float).eps
        w = special._lambertw(z)
        ref = scipy.special.lambertw(z).real
        tol = 8.0 * eps * np.abs(ref) + 4.0 * eps / np.sqrt(1.0 + math.e * z)
        worst = np.argmax(np.abs(w - ref) / tol)
        assert abs(w[worst] - ref[worst]) <= tol[worst], f"z={z[worst]!r}: {w[worst]!r} vs {ref[worst]!r}"

    def test_exact_anchors(self):
        """W(0) = 0, W(e) = 1 and W(-log(2)/2) = -log 2, on either side of the seed switch."""
        w = special._lambertw(np.array([0.0, math.e, -0.5 * math.log(2.0)]))  # w e^w = z
        assert w[0] == 0.0
        assert w[1] == pytest.approx(1.0, rel=4e-16)
        assert w[2] == pytest.approx(-math.log(2.0), rel=4e-16)


class TestGammaRate:
    def test_anchor_values(self):
        assert gamma_rate(1.0) == 1.0
        assert gamma_rate(0.25) == 0.5
        assert gamma_rate(math.e) == pytest.approx(math.e / 2.0, rel=1e-14)

    def test_continuity_at_one(self):
        eps = 1e-12
        assert gamma_rate(1.0 - eps) == pytest.approx(gamma_rate(1.0 + eps), abs=1e-11)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            gamma_rate(-0.1)


class TestBennettBounds:
    def test_upper_tail_anchors(self):
        assert bennett_upper_tail_bound(1.0, 0.0) == pytest.approx(1.0)
        assert bennett_upper_tail_bound(1.0, math.e - 1.0) == pytest.approx(math.exp(-1.0), rel=1e-14)
        assert bennett_upper_tail_bound(2.0, 1.0) == pytest.approx(
            math.exp(-2.0 * (2.0 * math.log(2.0) - 1.0)), rel=1e-14
        )

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            bennett_upper_tail_bound(0.0, 1.0)
        with pytest.raises(ValueError):
            bennett_upper_tail_bound(1.0, -0.5)

    def test_dominates_exact_poisson_tail(self):
        """exp(-rho*h(u)) upper-bounds the exact Poisson upper tail."""
        for rho in (0.5, 1.0, 5.0, 20.0):
            us = np.linspace(0.0, 5.0, 26)
            thresholds = rho * (1.0 + us)
            exact = scipy.stats.poisson.sf(np.ceil(thresholds) - 1.0, rho)
            assert np.all(exact <= bennett_upper_tail_bound(rho, us) + 1e-12)
