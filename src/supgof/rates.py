"""Local separation rates, critical index, perturbation size, and regimes.

All logarithms are natural; ``log(e j)`` is computed as ``1 + log(j)``.  The
argmax index ``j_star`` is 1-based and ties break to the smallest index.
The ``regime`` label compares ``log(e j*)`` against the critical coordinate's
mean and is advisory metadata only; no decision procedure branches on it.

Every objective here is computed on the runs of equal values of the null
(``runs`` of :class:`~supgof.model.RateVector` and
:class:`~supgof.model.SimplexVector`, the multinomial head a run of its
own): inside a run the value is fixed and the level grows with ``j``, so
each objective, and the surrogate behind ``epsilon_star``, peaks at a run
end.  Only run ends are evaluated (:func:`_on_run_ends`), in O(#runs), and a
null of any ``p`` given as runs needs no dense array.  A null given one
value per coordinate has a run per stretch of equal values.

Most callers need only an objective's peak (``j_star``, ``psi``, ``m``, the
regime, a level or a half-width): :func:`_peak_on_run_ends` bounds blocks of
runs and evaluates only those that can hold it.  Only :func:`poisson_rate`
and :func:`multinomial_rate` evaluate every run end, for their terms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .model import RateVector, SimplexVector, sample_size_value
from .special import gamma_rate, h_inverse

__all__ = [
    "RateProfile",
    "poisson_rate",
    "multinomial_rate",
    "prob_all_observed",
    "sharp_constant_epsilon",
    "multinomial_sharp_constant_level",
    "SharpConstantEpsilon",
]


@dataclass(frozen=True)
class RateProfile:
    """Derived local quantities attached to a null.

    ``per_coordinate_terms`` holds the rate objective at the end of each run
    of the null (of the tail, for the multinomial model): one term per cell
    when every cell is a run of its own.  Its largest value is the one at
    ``j_star``, which is ``psi`` unless the multinomial ``m`` is 0.
    """

    j_star: int
    psi: float
    m: int
    epsilon_star: float
    regime: str
    per_coordinate_terms: np.ndarray

    def __post_init__(self):
        terms = np.asarray(self.per_coordinate_terms, dtype=float)
        object.__setattr__(self, "per_coordinate_terms", terms)
        terms.setflags(write=False)
        if terms.size and self.psi != terms.max() and not (self.m == 0 and self.psi == 0.0):
            raise ValueError("j_star must attain the maximum of per_coordinate_terms, which is psi")

    def to_dict(self) -> dict:
        return {
            "epsilon_star": self.epsilon_star,
            "j_star": self.j_star,
            "psi": self.psi,
            "m": self.m,
            "regime": self.regime,
            "terms": self.per_coordinate_terms.tolist(),
        }


def _log_ej(j: np.ndarray) -> np.ndarray:
    return 1.0 + np.log(j)

def _regime_label(log_ej_star: float, mean_at_jstar: float) -> str:
    ratio = log_ej_star / mean_at_jstar
    if ratio < 1.0:
        return "subgaussian"
    if ratio > 1.0:
        return "subpoissonian"
    return "boundary"


def _on_run_ends(values, ends, level, scale: float = 1.0):
    """``(args, h)`` at the run ends ``ends`` of runs of values ``values``:
    ``args = level(ends) / (scale values)`` and ``h = h^{-1}(args)``, in one
    ``h_inverse`` call, which levels stacked by ``level`` (shape ``(k,
    #runs)``) share.  An infinite argument fails ``h_inverse``'s check."""
    with np.errstate(over="ignore", divide="ignore"):  # n * q may underflow to 0
        args = level(ends) / (scale * values)
    return args, h_inverse(args)


class _Peak(NamedTuple):
    """The largest run-end term ``values_g h^{-1}(level(j*) / (scale values_g))``,
    its index ``j_star``, the run ``g`` that ends there and ``h``, the
    ``h^{-1}`` value at ``g``."""

    term: float
    j_star: int
    g: int
    h: float


# Below this many runs the peak search is one block: every run end in one
# h^{-1} call.  Above it the two calls over about sqrt(#runs) blocks cost less.
_ONE_BLOCK_RUNS = 2048
# A block is kept when its bound reaches (1 - _PEAK_SLACK) times the best
# lower bound: 100 times the relative accuracy of h^{-1} (1e-14, checked in
# the special-function tests), so no block that holds the peak is dropped.
_PEAK_SLACK = 1e-12


def _peak_on_run_ends(values, counts, level, scale: float | np.ndarray = 1.0):
    """The :class:`_Peak` of ``values_g h^{-1}(level(j) / (scale values_g))``
    over the run ends ``j`` of ``(values, counts)``, or a list of peaks, one
    per level, when ``level`` stacks levels (shape ``(k, #runs)``); a
    stacked row may carry its own ``values`` row and ``scale`` (shapes ``(k,
    #runs)`` and ``(k, 1)``).  Ties between runs break to the smallest index.

    ``h`` is convex and increasing on ``[0, inf)`` with ``h(0) = 0``, so
    ``v h^{-1}(c / v)`` does not decrease in ``v`` or in ``c >= 0``; along
    the runs ``values`` does not increase and ``level`` grows, so no run of
    a block ``[a, b]`` of runs has a term above its corner bound
    ``values_a h^{-1}(level(end_b) / (scale values_a))``.  One ``h^{-1}``
    call gives each block's bound and its last run's term; a second call
    evaluates only the blocks whose bound reaches the best of those terms
    (less ``_PEAK_SLACK``).  With fewer than ``_ONE_BLOCK_RUNS`` runs there
    is one block, and one call.  The peak is the full evaluation's, bit
    for bit: each run's term is computed the same way in either, and the
    same :func:`_argmax_peaks` takes it.
    """
    ends = np.cumsum(counts, dtype=float)
    runs = counts.size
    width = runs if runs < _ONE_BLOCK_RUNS else math.isqrt(runs)
    if width == runs:
        idx = np.arange(runs)
    else:
        starts = np.arange(0, runs, width)
        lasts = np.minimum(starts + width, runs) - 1
        corners = np.concatenate([values[..., starts], values[..., lasts]], axis=-1)
        _, h = _on_run_ends(corners, np.r_[ends[lasts], ends[lasts]], level, scale)
        bound, lower = np.split(corners * h, 2, axis=-1)
        keep = bound >= (1.0 - _PEAK_SLACK) * lower.max(axis=-1, keepdims=True)
        kept = starts[np.any(keep.reshape(-1, starts.size), axis=0)]
        idx = (kept[:, None] + np.arange(width)).ravel()
        idx = idx[idx < runs]
    _, h = _on_run_ends(values[..., idx], ends[idx], level, scale)
    return _argmax_peaks(values[..., idx] * h, h, ends, idx)


def _argmax_peaks(terms, h, ends, idx):
    """The :class:`_Peak` of the run-end ``terms``, with their ``h^{-1}``
    values ``h``, at the runs ``idx`` (ascending; an array or a ``range``)
    ending at ``ends[idx]``: the first maximizer, or one per row when
    ``terms`` stacks levels."""
    best = np.argmax(terms, axis=-1)
    peaks = [
        _Peak(float(t[i]), int(ends[idx[i]]), int(idx[i]), float(hs[i]))
        for t, hs, i in zip(np.atleast_2d(terms), np.atleast_2d(h), np.atleast_1d(best))
    ]
    return peaks if terms.ndim == 2 else peaks[0]


class _RatePeak(NamedTuple):
    """The scalar fields of a :class:`RateProfile` but ``epsilon_star``, and
    ``value``, the null's value at ``j_star`` (in count units ``n q`` for the
    multinomial model)."""

    j_star: int
    psi: float
    m: int
    regime: str
    value: float


def _poisson_peak(values, counts, peak: _Peak | None = None) -> _RatePeak:
    """The peak of :func:`poisson_rate`'s objective on the runs ``(values,
    counts)``, from its :func:`_peak_on_run_ends` ``peak`` if already found."""
    term, j_star, g, _ = _peak_on_run_ends(values, counts, _log_ej) if peak is None else peak
    value = float(values[g])
    return _RatePeak(j_star, term, 0, _regime_label(1.0 + math.log(j_star), value), value)


def _multinomial_peak(values, counts, n: float, peak: _Peak | None = None) -> _RatePeak:
    """The peak of :func:`multinomial_rate`'s objective on the runs ``(values,
    counts)``, the head a run of its own, from its :func:`_peak_on_run_ends`
    ``peak`` on the nonzero tail's counts ``n q`` if already found."""
    n_val = sample_size_value(n)
    tail, counts = values[1:], counts[1:]
    k = np.count_nonzero(tail)  # the zero cells, if any, are the last runs
    if k == 0:
        return _RatePeak(1, 0.0, 0, "boundary", 0.0)
    mus = n_val * tail[:k]
    term, j_star, g, h = _peak_on_run_ends(mus, counts[:k], _log_ej) if peak is None else peak
    m = min(math.ceil(h), j_star - 1)
    value = float(mus[g])
    return _RatePeak(j_star, term if m >= 1 else 0.0, m, _regime_label(1.0 + math.log(j_star), value), value)


def poisson_rate(mu: RateVector) -> RateProfile:
    """Local sup-norm separation profile for the Poisson-product model.

    ``epsilon_star = 1 + max_j mu_j * Gamma(log(ej)/mu_j)`` and the argmax
    objective defining ``j_star`` and ``psi`` uses the exact inverse
    ``h_inverse`` in place of the surrogate; both on the run ends of ``mu``.
    """
    return _poisson_profile(*mu.runs)


def _poisson_profile(values, counts) -> RateProfile:
    """:func:`poisson_rate` of the null with runs ``(values, counts)``: one
    ``h^{-1}`` at every run end gives the terms and the peak."""
    args, h = _on_run_ends(values, np.cumsum(counts, dtype=float), _log_ej)
    epsilon_star = 1.0 + float(np.max(values * gamma_rate(args)))
    terms = values * h
    # The run ends again, rather than held through gamma_rate: holding them
    # adds 1.4 MB to the peak RSS of `supgof rate` at 1e5 runs.
    ends = np.cumsum(counts, dtype=float)
    peak = _poisson_peak(values, counts, _argmax_peaks(terms, h, ends, range(values.size)))
    return RateProfile(peak.j_star, peak.psi, 0, epsilon_star, peak.regime, terms)


def multinomial_rate(q0: SimplexVector, n: float) -> RateProfile:
    """Local sup-norm separation profile for the multinomial model.

    The third rate term ranges over the null with its largest cell removed
    (1-based index j over categories ``2..p``); zero cells contribute zero.
    The mass-removal count ``m = min(ceil(h^{-1}(log(e j*)/mu*)), j* - 1)``
    and ``psi = mu* h^{-1}(log(e j*)/mu*)`` (count units, zero when ``m``
    is zero) share the peak's ``h^{-1}`` value at ``mu* = n q0^{-max}(j*)``,
    all on the run ends of ``q0``.
    """
    return _multinomial_profile(*q0.runs, n)


def _multinomial_profile(values, counts, n: float) -> RateProfile:
    """:func:`multinomial_rate` of the null with runs ``(values, counts)``,
    the head a run of its own."""
    n_val = sample_size_value(n)
    head, tail = float(values[0]), values[1:]
    parametric = 1.0 / n_val + math.sqrt(head * (1.0 - head) / n_val)
    terms, epsilon_star, found = np.zeros(tail.size), parametric, None
    k = np.count_nonzero(tail)  # the zero cells contribute zero
    if k:
        mus = n_val * tail[:k]
        ends = np.cumsum(counts[1 : k + 1], dtype=float)
        args, h = _on_run_ends(mus, ends, _log_ej)
        epsilon_star = parametric + float(np.max(tail[:k] * gamma_rate(args)))
        terms[:k] = mus * h
        found = _argmax_peaks(terms[:k], h, ends, range(k))
    peak = _multinomial_peak(values, counts, n_val, found)
    return RateProfile(peak.j_star, peak.psi, peak.m, epsilon_star, peak.regime, terms)


def prob_all_observed(mu: RateVector, k: int) -> float:
    """Exact null probability that the first ``k`` coordinates are all >= 1."""
    if not 1 <= k <= mu.p:
        raise ValueError(f"k must lie in [1, {mu.p}], got {k!r}")
    return float(np.exp(np.sum(np.log1p(-np.exp(-mu.rates[:k])))))


class SharpConstantEpsilon(NamedTuple):
    """Inflated-log separation level and its critical index."""

    value: float
    j_star: int


def _inflated_log(js: np.ndarray, alpha_p: float) -> np.ndarray:
    # log(e * j * alpha_p * log^2(e j))
    return 1.0 + np.log(js) + math.log(alpha_p) + 2.0 * np.log1p(np.log(js))


def _check_alpha_p(alpha_p: float) -> None:
    if not 1.0 < alpha_p < math.inf:  # NaN included
        raise ValueError(f"alpha_p must lie in (1, inf), got {alpha_p!r}")


def _check_xi(xi: float) -> None:
    if not 0.0 < xi < math.inf:  # NaN included
        raise ValueError(f"xi must be positive and finite, got {float(xi)!r}")


def _sharp_constant_runs(mu: RateVector) -> tuple[np.ndarray, np.ndarray]:
    """The runs of ``mu``, whose rates the sharp-constant setup assumes >= 1."""
    values, counts = mu.runs
    if values[-1] < 1.0:
        raise ValueError("the sharp-constant setup assumes all rates >= 1")
    return values, counts


def sharp_constant_epsilon(
    mu: RateVector, alpha_p: float, xi: float
) -> SharpConstantEpsilon:
    """Poisson sharp-constant separation ``xi * max_j mu_j h^{-1}(L_j / mu_j)``.

    ``L_j`` carries the slowly diverging ``alpha_p log^2(e j)`` inflation; the
    standing assumption of the asymptotic setup requires all rates >= 1.
    The ``xi``-free objective and its critical index come from one peak
    search of that objective alone on the run ends of ``mu``, in O(#runs).
    """
    _check_alpha_p(alpha_p)
    _check_xi(xi)
    level, j_star, _, _ = _peak_on_run_ends(*_sharp_constant_runs(mu), lambda js: _inflated_log(js, alpha_p))
    value = float(xi) * level
    if not math.isfinite(value):
        raise OverflowError(f"the separation xi * {level!r} overflows at xi = {float(xi)!r}")
    return SharpConstantEpsilon(value, j_star)


def _sharp_constant_peaks(mu: RateVector, alpha_p: float) -> tuple[_Peak, _RatePeak]:
    """The peak of :func:`sharp_constant_epsilon`'s inflated-log objective
    (``alpha_p`` already checked), and the :func:`_poisson_peak` of the plain
    one, which gives the regime: both from one search's ``h_inverse`` calls."""
    values, counts = _sharp_constant_runs(mu)
    inflated, plain = _peak_on_run_ends(values, counts, lambda js: np.stack([_inflated_log(js, alpha_p), _log_ej(js)]))
    return inflated, _poisson_peak(values, counts, plain)


def multinomial_sharp_constant_level(
    q0: SimplexVector, n: float, alpha_p: float
) -> tuple[float, int, float, int, str]:
    """Multinomial sharp-constant level, the separation at ``xi = 1``:
    ``(level, j*, n', m, regime)`` at sample size ``n' = (1+n^{-1/3})n``.

    The level uses the plain ``log(e j)`` while the critical index is the
    argmax of the inflated-log objective; both use the variance form
    ``q(1-q)`` of the tail cells.  The mass-removal count ``m`` is clamped
    to at least 2 whenever it is positive.  ``regime`` is the null's
    advisory label (:func:`_multinomial_peak`, on the counts ``n q``).  The
    three objectives, the critical index and ``m`` are computed on the run
    ends of the tail only, so in O(#runs), and the objectives share one peak
    search's ``h_inverse`` calls (:func:`_peak_on_run_ends`).
    """
    _check_alpha_p(alpha_p)
    n_val = sample_size_value(n)
    values, counts = q0.runs
    if values[-1] < 1.0 / n_val:
        raise ValueError("the sharp-constant setup assumes q0(p) >= 1/n")
    n_prime = (1.0 + n_val ** (-1.0 / 3.0)) * n_val
    tail = values[1:]
    if tail.size == 0:
        raise ValueError("need at least two categories")
    v = tail * (1.0 - tail)
    # Every tail cell is at least 1/n, so the regime's runs are the tail's.
    plain, (_, j_star, g, _), regime = _peak_on_run_ends(
        np.stack([v, v, n_val * tail]),
        counts[1:],
        lambda js: np.stack([_log_ej(js), _inflated_log(js, alpha_p), _log_ej(js)]),
        np.array([[n_prime], [n_prime], [1.0]]),
    )
    mu_star = n_prime * float(tail[g])
    m_raw = max(2, math.ceil(h_inverse((1.0 + math.log(j_star)) / mu_star)))
    m = min(m_raw, j_star - 1)
    return plain.term, j_star, n_prime, m, _multinomial_peak(values, counts, n_val, regime).regime
