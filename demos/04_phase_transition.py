"""The xi = 1 phase transition, desk scale: ordering instead of limits.

At separation xi times the critical level, the theory predicts vanishing
risk for xi > 1 and risk tending to 1 for xi < 1, in both the subgaussian
and subpoissonian regimes.  The limits are asymptotic; what is reproducible
at desk scale is the ordering, shown here two ways:

* exact risk of the implemented threshold test across a xi grid;
* exact lower bounds on the best achievable risk at xi = 0.5 (flattened
  spike-pair TV via the sufficient statistic, and the conditional
  chi-square certificate that works at any dimension).

A flat null is one run of equal rates, so the exact sweep also runs at
paper scale, p = 1e6 to 1e15, in O(1) per xi; so does the Poissonized
multinomial sweep on a flat null given as runs.  There the subgaussian risk
sharpens toward the xi = 1 transition (0.964 at xi = 0.8 and 0.015 at
xi = 1.25 by p = 1e15); the subpoissonian one, whose boxes have integer
edges, sharpens slowly.  The exact lower bounds climb toward 1 only slowly
too: the flattened TV bound stays near 0.58-0.64 for the j* this
enumeration reaches, and the certificate reads about 0.825 at p = 1e6,
0.954 at 1e9, 0.989 at 1e12 and 0.998 at 1e15.  The multinomial curve,
with n = p log^2(e p), sharpens the same way: 0.854 at xi = 0.8 and 0.142
at xi = 1.25 by p = 1e6, 0.946 and 0.043 by p = 1e15.
"""

import math

import numpy as np

from supgof.divergence import certified_spike_risk_bound, tv_poisson_uniform_spike
from supgof.model import RateVector, SimplexVector
from supgof.rates import sharp_constant_epsilon
from supgof.risk import sweep_multinomial_sharp_constant, sweep_sharp_constant
from supgof.special import h_inverse

P = 10_000
ALPHA = math.log(P)
GRID = [0.5, 0.8, 1.0, 1.25, 2.0]

for label, mu in [
    ("subpoissonian (mu = 1)", RateVector(np.ones(P))),
    (f"subgaussian (mu = log^2(e p) = {(1 + math.log(P)) ** 2:.1f})",
     RateVector(np.full(P, (1.0 + math.log(P)) ** 2))),
]:
    print(f"=== {label}, p = {P} ===")
    # The Poisson sweep is exact: it draws nothing, so trials and seed are unused.
    sweep = sweep_sharp_constant(mu, GRID, ALPHA, trials=1, seed=0)
    for row in sweep.rows():
        print(
            f"  xi = {row['xi']:4.2f}: eps = {row['epsilon']:8.3f}  "
            f"exact risk = {row['total']:.4f}"
        )
    print()

print("=== Exact lower bounds at xi = 0.5, subpoissonian family ===")
print("(flattened spike-pair TV, exact; grows toward 1 like O(1/log j*))")
for p in (12, 30, 100):
    eps, j_star = sharp_constant_epsilon(RateVector(np.ones(p)), math.log(p), 0.5)
    tv = tv_poisson_uniform_spike(1.0, eps, j_star)
    print(f"  j* = {j_star:4d}: Bayes risk >= {1 - tv.value:.4f}")

print()
print("=== Paper scale: exact risk at xi = " + ", ".join(f"{xi:g}" for xi in GRID) + " ===")
print("(flat nulls given as one run; the certificate bounds the best")
print(" achievable subgaussian risk at xi = 0.5 from below)")

for p in (10**6, 10**9, 10**12, 10**15):
    mu_val = (1.0 + math.log(p)) ** 2
    curves = []
    for rate in (1.0, mu_val):
        sweep = sweep_sharp_constant(RateVector.from_runs([rate], [p]), GRID, math.log(p), trials=1, seed=0)
        curves.append(" ".join(f"{r.total:.4f}" for r in sweep.risks))
    # Constant rates: the inflated-log objective peaks at j = p.
    arg = 1.0 + math.log(p) + math.log(math.log(p)) + 2.0 * math.log1p(math.log(p))
    eps = 0.5 * mu_val * h_inverse(arg / mu_val)
    cert = certified_spike_risk_bound(mu_val, eps, mu_val + 2.0 * eps, p)
    print(f"  p = 1e{round(math.log10(p)):<2}  subpoissonian {curves[0]}  subgaussian {curves[1]}")
    print(f"           certified subgaussian Bayes risk >= {cert.risk_lower_bound:.4f}")

print()
print("=== Paper scale, multinomial: exact Poissonized risk at xi = " + ", ".join(f"{xi:g}" for xi in GRID) + " ===")
print("(flat nulls q0 = 1/p given as runs, n = p log^2(e p): each cell's mean")
print(" n/p = log^2(e p) keeps every alternative of the grid on the simplex)")
for p in (10**6, 10**9, 10**12, 10**15):
    n = p * (1.0 + math.log(p)) ** 2
    q0 = SimplexVector.from_runs([1.0 / p], [p])
    sweep = sweep_multinomial_sharp_constant(q0, n, GRID, math.log(p), trials=1, seed=0, poissonized=True)
    print(f"  p = 1e{round(math.log10(p)):<2}  n = {n:.3g}  {' '.join(f'{r.total:.4f}' for r in sweep.risks)}")
