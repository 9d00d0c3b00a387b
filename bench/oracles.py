"""Independent oracles for every benchmark result.  No supgof code is used here.

* ``h^{-1}`` by the Lambert-W route ``x = exp(1 + W((y-1)/e)) - 1`` with one
  Newton step; the program's values are compared within its stated contract
  ``|h(x) - y| <= 1e-12 max(y, 1)``, converted to a tolerance on ``x``.
* Poisson sweep and Poissonized multinomial: exact risk as products of 1-D
  Poisson CDFs (``scipy.special.pdtr``) over the acceptance box.
* Fixed-n multinomial: numpy ``Generator.multinomial`` Monte Carlo on a seed
  disjoint from the program's streams.
* Spike TV: enumeration over level counts of the sufficient statistic for
  ``k <= ENUM_MAX_K``, Monte Carlo of ``E0[(1 - L)+]`` above.
* Flattening: dense enumeration with this module's own truncation.
* Certificates: the closed form evaluated in mpmath at 30 digits.
* CLI decisions: recomputed from thresholds computed here.

A Monte Carlo result passes when the exact oracle lies in its Wilson interval
at ``Z``, widened to the exact Clopper-Pearson interval where that is wider,
so a correct run fails with probability below ``ALPHA`` per check.  An exact
result (CI 0) must match to ``EXACT_TOL``.  Two Monte Carlo estimates pass
Fisher's exact test at ``ALPHA``.  Each check returns a list of failure messages.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import mpmath
import numpy as np
from scipy.special import betaincinv, gammaln, lambertw, pdtr, pdtrc

Z = 6.0
ALPHA = 2e-9  # two-sided level matching Z = 6
EXACT_TOL = 1e-9
ENUM_MAX_K = 32
TV_MC_SAMPLES = 100_000
MULTINOMIAL_MC_TRIALS = 1_000
HINV_CONTRACT = 1e-12
CERT_ULP_GROWTH = 8


# --- special functions ---------------------------------------------------------

def h(x):
    x = np.asarray(x, dtype=float)
    return (1.0 + x) * np.log1p(x) - x


def h_inv(y):
    """Inverse of h on [0, inf) via the principal Lambert W branch."""
    y = np.asarray(y, dtype=float)
    x = np.expm1(1.0 + lambertw((y - 1.0) / math.e).real)
    x = np.maximum(x, 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        step = np.where(x > 0, (h(x) - y) / np.log1p(x), 0.0)
    return np.where(y == 0, 0.0, np.maximum(x - step, 0.0))


def hinv_tol(y, x):
    """Allowed |x_program - x| under the program's contract, with 2x slack."""
    y, x = np.asarray(y, dtype=float), np.asarray(x, dtype=float)
    with np.errstate(divide="ignore"):
        slope = np.where(x > 0, 1.0 / np.log1p(x), np.inf)
    return 2.0 * HINV_CONTRACT * np.maximum(y, 1.0) * slope + 1e-14 * x


def gamma_rate(y):
    y = np.asarray(y, dtype=float)
    return np.where(y <= 1.0, np.sqrt(y), y / (1.0 + np.log(np.maximum(y, 1.0))))


# --- statistics ----------------------------------------------------------------

def interval(p_hat: float, n: int) -> tuple[float, float]:
    """Wilson interval at ``Z``, widened to the exact Clopper-Pearson interval at
    level ``ALPHA`` where that is wider (Wilson under-covers at small counts)."""
    denom = 1.0 + Z * Z / n
    center = (p_hat + Z * Z / (2 * n)) / denom
    half = Z * math.sqrt(p_hat * (1 - p_hat) / n + Z * Z / (4 * n * n)) / denom
    k = round(p_hat * n)
    cp_lo = betaincinv(k, n - k + 1, ALPHA / 2) if k > 0 else 0.0
    cp_hi = betaincinv(k + 1, n - k, 1 - ALPHA / 2) if k < n else 1.0
    return min(center - half, cp_lo), max(center + half, cp_hi)


def fisher_p(k1: int, n1: int, k2: int, n2: int) -> float:
    """Two-sided p-value of Fisher's exact test that k1/n1 and k2/n2 share one rate."""
    big_k, big_n = k1 + k2, n1 + n2
    ks = np.arange(max(0, big_k - n2), min(big_k, n1) + 1)
    log_pmf = (
        gammaln(n1 + 1) - gammaln(ks + 1) - gammaln(n1 - ks + 1)
        + gammaln(n2 + 1) - gammaln(big_k - ks + 1) - gammaln(n2 - big_k + ks + 1)
        - gammaln(big_n + 1) + gammaln(big_k + 1) + gammaln(big_n - big_k + 1)
    )
    pmf = np.exp(log_pmf)
    observed = pmf[ks == k1][0]
    return float(min(1.0, pmf[pmf <= observed * (1 + 1e-7)].sum()))


def check_rate(label: str, value: float, trials: int, exact_ci: bool, oracle: float) -> list[str]:
    """Program estimate (MC or exact) against an exact oracle value."""
    if exact_ci:
        ok = abs(value - oracle) <= EXACT_TOL
    else:
        lo, hi = interval(value, trials)
        ok = lo - EXACT_TOL <= oracle <= hi + EXACT_TOL
    return [] if ok else [f"{label}: program {value!r} vs exact oracle {oracle!r} (trials {trials})"]


def check_rate_mc(label: str, value: float, trials: int, exact_ci: bool, hits: int, n: int) -> list[str]:
    """Program estimate against a Monte Carlo oracle of ``hits/n``."""
    if exact_ci:
        lo, hi = interval(hits / n, n)
        ok = lo - EXACT_TOL <= value <= hi + EXACT_TOL
    else:
        ok = fisher_p(round(value * trials), trials, hits, n) >= ALPHA
    return [] if ok else [f"{label}: program {value!r} vs Monte Carlo oracle {hits / n!r} ({n} trials)"]


def _close(label: str, got: float, want: float, tol: float) -> list[str]:
    return [] if abs(got - want) <= tol else [f"{label}: {got!r} vs oracle {want!r} (tol {tol:.3g})"]


# --- acceptance boxes and exact product risk ----------------------------------

def accept_box(center, thr):
    """Integer bounds [lo, hi] of {x : |x - center| < thr}, with the float test the tests use."""
    center = np.asarray(center, dtype=float)
    hi = np.floor(center + thr)
    hi = np.where(np.abs(hi - center) < thr, hi, hi - 1)
    hi = np.where(np.abs(hi + 1 - center) < thr, hi + 1, hi)
    lo = np.ceil(center - thr)
    lo = np.where(np.abs(lo - center) < thr, lo, lo + 1)
    lo = np.where(np.abs(lo - 1 - center) < thr, lo - 1, lo)
    return np.maximum(lo, 0), hi


def poisson_box_prob(lam, lo, hi):
    lam = np.asarray(lam, dtype=float)
    upper = np.where(hi >= 0, pdtr(np.maximum(hi, 0), lam), 0.0)
    lower = np.where(lo >= 1, pdtr(np.maximum(lo - 1, 0), lam), 0.0)
    return np.where(hi >= lo, upper - lower, 0.0)


# --- Poisson sweep --------------------------------------------------------------

def inflated_log(js, alpha):
    return 1.0 + np.log(js) + math.log(alpha) + 2.0 * np.log1p(np.log(js))


def poisson_sharp_eps(mu: np.ndarray, alpha: float, xi: float) -> tuple[float, int, float]:
    js = np.arange(1, mu.size + 1, dtype=float)
    y = inflated_log(js, alpha) / mu
    x = h_inv(y)
    terms = mu * x
    j = int(np.argmax(terms))
    return xi * float(terms[j]), j + 1, xi * float(mu[j] * hinv_tol(y[j], x[j]))


def poisson_sweep_exact(mu: np.ndarray, eps: float, psi: float, j_star: int) -> tuple[float, float]:
    """Exact (type I, type II) of the sweep test under the uniform spike on 1..j*."""
    lo, hi = accept_box(mu, psi)
    a = poisson_box_prob(mu, lo, hi)
    b = poisson_box_prob(mu[:j_star] + eps, lo[:j_star], hi[:j_star])
    log_a = np.log(a)
    type1 = -math.expm1(float(log_a.sum()))
    accept_alt = np.exp(log_a.sum() - log_a[:j_star]) * b
    return type1, float(accept_alt.mean())


def check_sweep_poisson(out: dict, mu: np.ndarray, alpha: float) -> list[str]:
    fails = []
    for row in out["rows"]:
        xi, eps = row["xi"], row["epsilon"]
        eps_o, j_star, tol = poisson_sharp_eps(mu, alpha, xi)
        fails += _close(f"xi={xi} epsilon", eps, eps_o, tol + 1e-12 * eps_o)
        t1, t2 = poisson_sweep_exact(mu, eps, eps / xi, j_star)
        exact = row["ci"] == 0.0
        fails += check_rate(f"xi={xi} type1", row["type1"], row["trials"], exact, t1)
        fails += check_rate(f"xi={xi} type2", row["type2"], row["trials"], exact, t2)
    return fails


# --- multinomial sweep ------------------------------------------------------------

def multinomial_sharp(q0: np.ndarray, n: float, alpha: float, xi: float):
    n_prime = (1.0 + n ** (-1.0 / 3.0)) * n
    tail = q0[1:]
    js = np.arange(1, tail.size + 1, dtype=float)
    v = tail * (1.0 - tail)
    y = (1.0 + np.log(js)) / (n_prime * v)
    x = h_inv(y)
    value_terms = v * x
    j_star = int(np.argmax(v * h_inv(inflated_log(js, alpha) / (n_prime * v)))) + 1
    mu_star = n_prime * float(tail[j_star - 1])
    m = min(max(2, math.ceil(float(h_inv((1.0 + math.log(j_star)) / mu_star)))), j_star - 1)
    jv = int(np.argmax(value_terms))
    tol = xi * float(v[jv] * hinv_tol(y[jv], x[jv]))
    return xi * float(value_terms[jv]), j_star, n_prime, m, tol


def _alt_rows(q0, eps, j_star, m, size, rng):
    """Draws of the add-one/remove-m alternative (spike in 2..j*+1, removal among the rest)."""
    q = np.tile(q0, (size, 1))
    for r in range(size):
        spike = int(rng.integers(1, j_star + 1))
        pool = np.setdiff1d(np.arange(1, j_star + 1), [spike])
        q[r, rng.choice(pool, size=m, replace=False)] -= eps / m
        q[r, spike] += eps
    return q


def check_sweep_multinomial(out: dict, q0: np.ndarray, n: float, alpha: float,
                            poissonized: bool, rng: np.random.Generator) -> list[str]:
    fails = []
    center = n * q0
    flat = bool(np.all(q0 == q0[0]))
    for row in out["rows"]:
        xi, eps = row["xi"], row["epsilon"]
        eps_o, j_star, n_prime, m, tol = multinomial_sharp(q0, n, alpha, xi)
        fails += _close(f"xi={xi} epsilon", eps, eps_o, tol + 1e-12 * eps_o)
        thr = n_prime * eps / xi
        exact = row["ci"] == 0.0
        if poissonized:
            if not flat:
                raise ValueError("the exact Poissonized oracle covers flat nulls only")
            lo, hi = accept_box(center[:1], thr)
            a = float(poisson_box_prob(center[:1], lo, hi)[0])
            b = float(poisson_box_prob([n * (q0[0] + eps)], lo, hi)[0])
            c = float(poisson_box_prob([n * (q0[0] - eps / m)], lo, hi)[0])
            p = q0.size
            t1 = -math.expm1(p * math.log(a))
            t2 = math.exp((p - 1 - m) * math.log(a) + math.log(b) + m * math.log(c)) if b > 0 and c > 0 else 0.0
            fails += check_rate(f"xi={xi} type1", row["type1"], row["trials"], exact, t1)
            fails += check_rate(f"xi={xi} type2", row["type2"], row["trials"], exact, t2)
            continue
        k = MULTINOMIAL_MC_TRIALS
        x = rng.multinomial(int(n), q0, size=k)
        rejects = int(np.count_nonzero(np.abs(x - center).max(axis=1) >= thr))
        if flat:  # every alternative is a permutation of one vector
            q_alt = _alt_rows(q0, eps, j_star, m, 1, rng)[0]
            x = rng.multinomial(int(n), q_alt, size=k)
        else:
            x = rng.multinomial(int(n), _alt_rows(q0, eps, j_star, m, k, rng))
        accepts = int(np.count_nonzero(np.abs(x - center).max(axis=1) < thr))
        fails += check_rate_mc(f"xi={xi} type1", row["type1"], row["trials"], exact, rejects, k)
        fails += check_rate_mc(f"xi={xi} type2", row["type2"], row["trials"], exact, accepts, k)
    return fails


# --- exact bounds -------------------------------------------------------------------

def poisson_pmf(ks, lam):
    ks = np.asarray(ks, dtype=float)
    if lam == 0:
        return (ks == 0).astype(float)
    return np.exp(ks * math.log(lam) - lam - gammaln(ks + 1))


def tv_spike_enumerated(nu: float, eps: float, k: int) -> float:
    """E0[(1 - L)+] summed over the counts of coordinates at each level x."""
    z = 1.0 + eps / nu
    t0 = k * math.exp(eps)  # L < 1  <=>  sum_j z^{X_j} < t0
    top = int(math.floor(math.log(t0) / math.log(z)))
    values = z ** np.arange(top + 1)
    log_pmf = np.log(poisson_pmf(np.arange(top + 1), nu))
    log_kfact = math.lgamma(k + 1)
    total = 0.0

    def walk(level: int, left: int, s: float, logw: float) -> None:
        nonlocal total
        if level == 0:
            t = s + left
            if t < t0:
                total += math.exp(log_kfact + logw + left * log_pmf[0] - math.lgamma(left + 1)) * (1.0 - t / t0)
            return
        for c in range(left + 1):
            s_new = s + c * values[level]
            if s_new + (left - c) >= t0:
                break
            walk(level - 1, left - c, s_new, logw + c * log_pmf[level] - math.lgamma(c + 1))

    walk(top, k, 0.0, 0.0)
    return total


def tv_spike_mc(nu: float, eps: float, k: int, rng: np.random.Generator) -> tuple[float, float]:
    z_log = math.log1p(eps / nu)
    vals = []
    for _ in range(TV_MC_SAMPLES // 20_000):
        x = rng.poisson(nu, size=(20_000, k))
        big_l = np.exp(x * z_log - eps).mean(axis=1)
        vals.append(np.maximum(0.0, 1.0 - big_l))
    v = np.concatenate(vals)
    return float(v.mean()), float(v.std(ddof=1) / math.sqrt(v.size))


def spike_tv(nu, eps, k, rng) -> tuple[float, float]:
    """(TV, tolerance) by enumeration or Monte Carlo."""
    if k <= ENUM_MAX_K:
        return tv_spike_enumerated(nu, eps, k), EXACT_TOL
    mean, se = tv_spike_mc(nu, eps, k, rng)
    return mean, Z * se + EXACT_TOL


def check_tv_spike(out: dict, p: int, rng) -> list[str]:
    eps_o, j_star, tol = poisson_sharp_eps(np.ones(p), math.log(p), 0.5)
    fails = _close("epsilon", out["eps"], eps_o, tol + 1e-12 * eps_o)
    if out["k"] != j_star:
        fails.append(f"j*: {out['k']} vs oracle {j_star}")
    tv, tv_tol = spike_tv(out["nu"], out["eps"], out["k"], rng)
    return fails + _close("tv", out["tv"], tv, tv_tol + out["error_bar"])


def spike_prior(mu: np.ndarray, big_c: float = math.e) -> tuple[int, float]:
    """(j*, psi) of the uniform spike prior on a Poisson null."""
    js = np.arange(1, mu.size + 1, dtype=float)
    j_star = int(np.argmax(mu * h_inv((1.0 + np.log(js)) / mu))) + 1
    mu_star = float(mu[j_star - 1])
    return j_star, mu_star * float(h_inv((math.log(big_c) + math.log(j_star)) / mu_star))


def check_certified_c(out: dict, eta: float, grid: int = 40) -> list[str]:
    p, c, risk = out["p"], out["c"], out["risk"]
    j_star, psi = spike_prior(np.ones(p))
    cs = np.linspace(1.0, 1.0 / grid, grid)
    where = np.flatnonzero(np.abs(cs - c) < 1e-12)
    if where.size != 1:
        return [f"c={c!r} is not on the {grid}-point grid"]
    fails = _close("certified risk", risk, 1.0 - tv_spike_enumerated(1.0, c * psi, j_star), 1e-8)
    if risk < eta:
        fails.append(f"certified risk {risk!r} below eta {eta}")
    if where[0] > 0:
        risk_up = 1.0 - tv_spike_enumerated(1.0, cs[where[0] - 1] * psi, j_star)
        if risk_up >= eta + 1e-8:
            fails.append(f"a larger c={cs[where[0] - 1]!r} also certifies (risk {risk_up!r})")
    return fails


def _product_pmf(lams, lengths) -> np.ndarray:
    out = np.ones(())
    for lam, size in zip(lams, lengths):
        out = np.multiply.outer(out, poisson_pmf(np.arange(size), float(lam)))
    return out


def _dense_tv(null_rates, rows, weights) -> float:
    lams = np.vstack([null_rates, rows])
    lengths = [1 + int(np.max([_support(l) for l in col])) for col in lams.T]
    diff = _product_pmf(null_rates, lengths)
    for w, row in zip(weights, rows):
        diff = diff - w * _product_pmf(row, lengths)
    return 0.5 * float(np.abs(diff).sum())


def _support(lam: float, tail: float = 1e-14) -> int:
    k = int(lam + 3 * math.sqrt(lam) + 3)
    while pdtrc(k, lam) > tail:
        k += 1
    return k


def check_flattening(out: dict, c: float) -> list[str]:
    mu = np.asarray(out["rates"])
    j_star, psi = spike_prior(mu)
    fails = [] if out["k"] == j_star else [f"k: {out['k']} vs oracle {j_star}"]
    fails += _close("spike", out["spike"], c * psi, 1e-9 * c * psi + 1e-12)
    k = j_star
    rows = np.tile(mu, (j_star, 1))
    rows[np.arange(j_star), np.arange(j_star)] += c * psi
    weights = np.full(j_star, 1.0 / j_star)
    lhs = _dense_tv(mu, rows, weights)
    under = mu[k - 1]
    head = _dense_tv(np.full(k, under), rows[:, :k] - mu[:k] + under, weights)
    tail = 0.0 if k == mu.size else _dense_tv(mu[k:], rows[:, k:], weights)
    bar = out["lhs_error_bar"] + out["rhs_error_bar"] + 1e-9
    fails += _close("lhs_tv", out["lhs_tv"], lhs, bar)
    fails += _close("rhs_head_tv", out["rhs_head_tv"], head, bar)
    fails += _close("rhs_tail_tv", out["rhs_tail_tv"], tail, bar)
    if lhs > head + tail + 1e-9 or out["ok"] is not True:
        fails.append(f"flattening inequality: lhs {lhs!r} vs rhs {head + tail!r}, program ok={out['ok']}")
    return fails


def certificate_mp(nu: float, eps: float, cap: float, j_star: int) -> tuple[float, float]:
    """(risk lower bound, TV bound) of the conditional second-moment certificate."""
    with mpmath.workdps(30):
        kcap = math.floor(cap)
        cdf = lambda lam: mpmath.gammainc(kcap + 1, mpmath.mpf(lam), mpmath.inf, regularized=True)
        nu_m, eps_m = mpmath.mpf(nu), mpmath.mpf(eps)
        f_null, f_spike, f_sq = cdf(nu_m), cdf(nu_m + eps_m), cdf((nu_m + eps_m) ** 2 / nu_m)
        p0 = f_null ** j_star
        ppi = f_null ** (j_star - 1) * f_spike
        pref = p0 / ppi ** 2
        off = 0 if j_star == 1 else (1 - mpmath.mpf(1) / j_star) * pref * f_null ** (j_star - 2) * f_spike ** 2
        diag = pref * mpmath.e ** (eps_m ** 2 / nu_m) * f_null ** (j_star - 1) * f_sq / j_star
        chisq = max(mpmath.mpf(0), off + diag - 1)
        tv = mpmath.sqrt(chisq) / 2 + 2 * (1 - p0) + 2 * (1 - ppi)
        return float(max(0, 1 - tv)), float(min(1, tv))


def check_certificate(out: dict) -> list[str]:
    p = out["p"]
    mu_val = (1.0 + math.log(p)) ** 2
    arg = 1.0 + math.log(p) + math.log(math.log(p)) + 2.0 * math.log1p(math.log(p))
    y = arg / mu_val
    x = float(h_inv(y))
    fails = _close("eps", out["eps"], 0.5 * mu_val * x, 0.5 * mu_val * float(hinv_tol(y, x)))
    risk, tv = certificate_mp(out["nu"], out["eps"], out["cap"], p)
    # P0(E) = F^j*: a float64 evaluation of the closed form loses ~j* ulps.
    tol = EXACT_TOL + CERT_ULP_GROWTH * p * np.finfo(float).eps
    fails += _close("risk_lower_bound", out["risk_lower_bound"], risk, tol)
    return fails + _close("tv_upper_bound", out["tv_upper_bound"], tv, tol)


# --- CLI ---------------------------------------------------------------------------

def _read_table(path: str) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1, dtype=np.int64, ndmin=2)


def _decision_fails(label, lines, stats, thrs, rejects, tol) -> list[str]:
    fails = []
    if len(lines) != len(stats):
        return [f"{label}: {len(lines)} output rows for {len(stats)} data rows"]
    for i, (line, stat, thr, rej) in enumerate(zip(lines, stats, thrs, rejects)):
        rec = json.loads(line)
        if abs(stat - thr) <= tol[i]:
            continue  # too close to the threshold to call
        if (rec["decision"] == "reject") != bool(rej):
            fails.append(f"{label} row {i}: decision {rec['decision']} (stat {stat!r}, threshold {thr!r})")
        elif abs(rec["statistic"] - stat) > 1e-9 * max(1.0, stat) or abs(rec["threshold"] - thr) > tol[i]:
            fails.append(f"{label} row {i}: reported {rec['statistic']!r}/{rec['threshold']!r}, oracle {stat!r}/{thr!r}")
    return fails


def check_cli_poisson(out_text: str, null_path: str, data_path: str, eta: float) -> list[str]:
    mu = np.asarray(json.loads(Path(null_path).read_text())["rates"])
    x = _read_table(data_path)
    js = np.arange(1, mu.size + 1, dtype=float)
    y = (math.log(2.0 * math.pi ** 2 / (3.0 * eta)) + 2.0 * np.log(js)) / mu
    xs = h_inv(y)
    j = int(np.argmax(mu * xs))
    thr = float(mu[j] * xs[j])
    tol = float(mu[j] * hinv_tol(y[j], xs[j])) + 1e-12 * thr
    stats = np.abs(x - mu).max(axis=1)
    n = len(stats)
    return _decision_fails("poisson", out_text.splitlines(), stats, [thr] * n, stats > thr, [tol] * n)


def check_cli_multinomial(out_text: str, null_path: str, data_path: str, eta: float) -> list[str]:
    spec = json.loads(Path(null_path).read_text())
    q, n = np.asarray(spec["probs"]), float(spec["n"])
    x = _read_table(data_path)
    if np.any(x.sum(axis=1) != int(n)):
        return ["multinomial input rows do not sum to n"]
    head_thr = (eta / 4.0) ** -0.5 * (1.0 + math.sqrt(n * q[0] * (1.0 - q[0])))
    v = n * q[1:] * (1.0 - q[1:])
    y = (math.log(max(math.e, 4.0 * math.pi ** 2 / (3.0 * eta))) + 2.0 * np.log(np.arange(1, v.size + 1))) / v
    xs = h_inv(y)
    j = int(np.argmax(v * xs))
    tail_thr = float(v[j] * xs[j])
    tail_tol = float(v[j] * hinv_tol(y[j], xs[j])) + 1e-12 * tail_thr
    head_stat = np.abs(x[:, 0] - n * q[0])
    tail_stat = np.abs(x[:, 1:] - n * q[1:]).max(axis=1)
    reject = (head_stat >= head_thr) | (tail_stat > tail_thr)
    head_wins = head_stat / head_thr >= tail_stat / tail_thr
    stats = np.where(head_wins, head_stat, tail_stat)
    thrs = np.where(head_wins, head_thr, tail_thr)
    # A row is ambiguous when either sub-test or the winner choice is within tolerance.
    near = (np.abs(head_stat - head_thr) <= 1e-9 * head_thr) | (np.abs(tail_stat - tail_thr) <= tail_tol)
    near |= np.abs(head_stat / head_thr - tail_stat / tail_thr) <= 1e-9
    tol = np.where(near, np.inf, np.where(head_wins, 1e-12 * head_thr, tail_tol))
    return _decision_fails("multinomial", out_text.splitlines(), stats, thrs, reject, tol)


def check_cli_rate(out_text: str, null_path: str) -> list[str]:
    mu = np.asarray(json.loads(Path(null_path).read_text())["rates"])
    prof = json.loads(out_text)
    js = np.arange(1, mu.size + 1, dtype=float)
    y = (1.0 + np.log(js)) / mu
    xs = h_inv(y)
    terms, tol = mu * xs, mu * hinv_tol(y, xs) + 1e-13 * mu * xs
    got = np.asarray(prof["terms"])
    fails = []
    if got.shape != terms.shape:
        return [f"rate: {got.size} terms for p={mu.size}"]
    bad = np.flatnonzero(np.abs(got - terms) > tol)
    if bad.size:
        fails.append(f"rate: {bad.size} terms off, first j={bad[0] + 1}: {got[bad[0]]!r} vs {terms[bad[0]]!r}")
    j = prof["j_star"] - 1
    if terms[j] < terms.max() - tol[j] - tol[int(np.argmax(terms))]:
        fails.append(f"rate: j_star={j + 1} does not maximise the terms")
    fails += _close("rate psi", prof["psi"], terms[j], tol[j])
    fails += _close("rate epsilon_star", prof["epsilon_star"], 1.0 + float(np.max(mu * gamma_rate(y))), 1e-12 * prof["epsilon_star"])
    if prof["m"] != 0:
        fails.append(f"rate: m={prof['m']} for a Poisson null")
    return fails
