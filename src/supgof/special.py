"""Special functions behind Poisson tail control.

This module implements the deviation-exponent function ``h`` together with
its inverse on the nonnegative half-line, the piecewise rate surrogate
``gamma_rate``, and the Bennett upper-tail bound built from ``h``.  Each
function is one vectorized body: a scalar is a batch of one and returns a
float.  ``h_inverse`` is the closed form through the principal Lambert W
(a few numpy lines: a seed, then Halley steps) followed by a fixed number of
Newton steps.  The module imports numpy only, so the CLI's ``rate`` and
``test`` never load scipy.  Everything here is a pure function of its inputs
and safe for concurrent use.

Conventions
-----------
* ``h(x) = (1+x)*log(1+x) - x`` for ``x > -1`` with the boundary value
  ``h(-1) = 1``; natural logarithms throughout.
* ``h_inverse`` inverts the restriction of ``h`` to ``[0, inf)`` only.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "SolverError",
    "AtomBudgetError",
    "h",
    "h_inverse",
    "gamma_rate",
    "bennett_upper_tail_bound",
]


class SolverError(RuntimeError):
    """An inversion missed its stated tolerance."""


class AtomBudgetError(RuntimeError):
    """An exact computation would exceed its size budget (atoms, states, terms)."""


# Below this |x| the direct formula for h loses digits to cancellation (its
# relative error grows like eps/x), so h is summed from its alternating series
# sum_{k>=2} (-1)^k x^k / (k(k-1)); fifteen terms are exact to double
# precision up to the cutoff.
_H_SERIES_CUTOFF = 0.05
# Series coefficients of x^16 down to x^2, the order np.polyval expects.
_H_SERIES = np.array([(-1.0) ** k / (k * (k - 1)) for k in range(16, 1, -1)])


def _h(x: np.ndarray) -> np.ndarray:
    """``h`` on a float array in ``(-1, inf)``; :func:`h` adds the boundary value ``h(-1) = 1``."""
    out = (1.0 + x) * np.log1p(x) - x
    small = np.abs(x) < _H_SERIES_CUTOFF
    if small.any():  # np.polyval costs tens of µs even on an empty array
        xs = x[small]
        out[small] = xs * xs * np.polyval(_H_SERIES, xs)
    return out


def h(x):
    """Deviation exponent ``(1+x)log(1+x) - x`` with ``h(-1) = 1``.

    Accepts scalars or arrays; nonnegative everywhere on the domain and
    strictly increasing on ``[0, inf)``.
    """
    arr = np.asarray(x, dtype=float)
    bad = np.isnan(arr) | (arr < -1.0)
    if bad.any():
        raise ValueError(f"h is defined on [-1, inf), got {float(arr[bad][0])!r}")
    xv = np.atleast_1d(arr)
    with np.errstate(divide="ignore", invalid="ignore"):  # log1p(-1) = -inf, inf - inf
        out = _h(xv)
    out[xv == -1.0] = 1.0
    return float(out[0]) if arr.ndim == 0 else out


def gamma_rate(x):
    """Piecewise rate surrogate: ``sqrt(x)`` for ``x <= 1``, ``x/log(e x)`` above.

    Continuous at 1 (both branches equal 1) and equivalent to ``h_inverse``
    up to universal constants.  Scalars return a float, arrays keep their
    shape.
    """
    arr = np.asarray(x, dtype=float)
    bad = np.isnan(arr) | (arr < 0.0)
    if bad.any():
        raise ValueError(f"gamma_rate is defined on [0, inf), got {float(arr[bad][0])!r}")
    out = np.where(arr <= 1.0, np.sqrt(arr), arr / (1.0 + np.log(np.maximum(arr, 1.0))))
    return float(out) if arr.ndim == 0 else out


# Below this z (1 + e z = 0.32) the branch-point series seeds Halley better
# than Winitzki's approximation: at the switch they miss W by 5e-3 and 1.3e-2,
# and Winitzki's misses by at most 3.6 % relative above it.  Halley converges
# cubically, so two steps bring either seed to within a few ulps.
_LAMBERTW_SERIES_CUTOFF = -0.25
_HALLEY_STEPS = 2


def _lambertw(z: np.ndarray) -> np.ndarray:
    """Principal-branch Lambert W on a float array with ``z >= -1/e``.

    Seeds with Winitzki's approximation ``L (1 - log(1 + L)/(2 + L))``,
    ``L = log(1 + z)``, and near ``-1/e`` with the branch-point series
    ``-1 + p - p^2/3 + 11 p^3/72 - 43 p^4/540 + 769 p^5/17280``,
    ``p = sqrt(2 (1 + e z))``; then takes Halley steps on ``w e^w = z``
    divided by ``e^w``, so a huge ``z`` cannot overflow.  An infinite ``z``
    gives NaN.
    """
    log1p_z = np.log1p(z)
    with np.errstate(invalid="ignore"):  # inf / inf at z = inf
        w = log1p_z * (1.0 - np.log1p(log1p_z) / (2.0 + log1p_z))
    near = z < _LAMBERTW_SERIES_CUTOFF
    if near.any():
        p = np.sqrt(2.0 * (1.0 + math.e * z[near]))
        series = 11.0 / 72.0 + p * (-43.0 / 540.0 + p * (769.0 / 17280.0))
        w[near] = -1.0 + p * (1.0 + p * (-1.0 / 3.0 + p * series))
    for _ in range(_HALLEY_STEPS):
        g = w - z * np.exp(-w)
        w = w - g / (w + 1.0 - (w + 2.0) * g / (2.0 * w + 2.0))
    return w


# Below this y the inverse series seeds Newton better than Lambert W, whose
# argument (y-1)/e then sits next to the branch point -1/e.
_H_INVERSE_SERIES_CUTOFF = 1e-3
# Quadratic convergence from either seed reaches double precision in three steps.
_NEWTON_STEPS = 3
# Accuracy contract checked on every output, relative to max(y, 1): an
# absolute tolerance for small targets and a relative one for large targets.
_REL_TOL = 1e-12


def h_inverse(y):
    """Inverse of ``h`` restricted to ``[0, inf)``.

    Uses ``h^{-1}(y) = exp(1 + W((y-1)/e)) - 1`` with the numpy Lambert W of
    :func:`_lambertw` (the inverse series ``s(1 + s/6 + s^2/72)``,
    ``s = sqrt(2y)``, for small ``y``), polished by Newton steps on ``h``;
    accurate in relative terms at every scale and exact at 0.  Scalars return a float, arrays keep their
    shape.  Raises :class:`SolverError` unless every output meets
    ``|h(x) - y| <= 1e-12 * max(y, 1)``.
    """
    arr = np.asarray(y, dtype=float)
    bad = np.isnan(arr) | (arr < 0.0)
    if bad.any():
        raise ValueError(f"h_inverse is defined on [0, inf), got {float(arr[bad][0])!r}")
    yv = np.atleast_1d(arr)
    x = np.empty_like(yv)
    small = yv < _H_INVERSE_SERIES_CUTOFF
    s = np.sqrt(2.0 * yv[small])
    x[small] = s * (1.0 + s / 6.0 + s * s / 72.0)
    x[~small] = np.expm1(1.0 + _lambertw((yv[~small] - 1.0) / math.e))
    for _ in range(_NEWTON_STEPS):
        # h'(x) = log1p(x); x = 0 only when y = 0, where the root is exact.
        step = np.divide(_h(x) - yv, np.log1p(x), out=np.zeros(x.shape), where=x > 0.0)
        x = np.maximum(x - step, 0.0)
    missed = ~(np.abs(_h(x) - yv) <= _REL_TOL * np.maximum(yv, 1.0))
    if missed.any():
        raise SolverError(f"h_inverse missed its tolerance at y={float(yv[missed][0])!r}")
    return float(x[0]) if arr.ndim == 0 else x


def bennett_upper_tail_bound(rho, u):
    """Poisson upper-tail bound ``exp(-rho*h(u))`` on ``P{Poisson(rho) >= rho(1+u)}``."""
    rho_arr = np.asarray(rho, dtype=float)
    u_arr = np.asarray(u, dtype=float)
    if (~np.isfinite(rho_arr) | (rho_arr <= 0.0)).any():
        raise ValueError("rho must be positive and finite")
    if (np.isnan(u_arr) | (u_arr < 0.0)).any():
        raise ValueError("u must be nonnegative")
    out = np.exp(-rho_arr * h(u_arr))
    return float(out) if np.ndim(rho) == 0 and np.ndim(u) == 0 else out
