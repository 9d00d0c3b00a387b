"""Local separation rates: how the null's decay profile sets the difficulty.

The sup-norm separation rate is local: it is a functional of the null
itself, driven by the critical index j* where the per-coordinate objective
mu_j * h^{-1}(log(ej)/mu_j) peaks.  This script profiles a few nulls and
shows the two regimes:

* large rates (subgaussian): the rate behaves like sqrt(mu_{j*} log j*),
  the Gaussian-maximum scaling;
* small rates (subpoissonian): the rate behaves like log p / log log p,
  the Poisson-maximum scaling, and some head coordinates are typically
  never observed at all.
"""

import math

import numpy as np

from supgof.model import RateVector, SimplexVector
from supgof.rates import multinomial_rate, poisson_rate, prob_all_observed

print("=== Poisson nulls ===")
for label, rates in [
    ("flat mu=1, p=1000   ", np.ones(1000)),
    ("flat mu=50, p=1000  ", np.full(1000, 50.0)),
    ("power decay j^-1/2  ", np.arange(1, 1001) ** -0.5 * 30),
    ("two blocks 40 / 0.4 ", np.concatenate([np.full(50, 40.0), np.full(950, 0.4)])),
]:
    mu = RateVector(rates)
    prof = poisson_rate(mu)
    print(
        f"{label} eps* = {prof.epsilon_star:7.3f}  j* = {prof.j_star:4d}  "
        f"psi = {prof.psi:6.3f}  regime = {prof.regime}"
    )

print()
print("=== Maximum-of-Poissons intuition: eps* ~ log p/log log p at mu == 1 ===")
for p in (100, 1_000, 10_000, 100_000):
    prof = poisson_rate(RateVector(np.ones(p)))
    ref = math.log(p) / math.log(math.log(p))
    print(f"p = {p:6d}: eps* = {prof.epsilon_star:6.3f}  log p/log log p = {ref:6.3f}")

print()
print("=== Paper scale: nulls given as runs, profiled on the run ends (no dense array) ===")
for p in (10**6, 10**9, 10**12, 10**15):
    for label, mu in [
        ("flat mu=1          ", RateVector.from_runs([1.0], [p])),
        ("two blocks 40 / 0.4", RateVector.from_runs([40.0, 0.4], [p // 20, p - p // 20])),
    ]:
        prof = poisson_rate(mu)
        print(
            f"p = 1e{round(math.log10(p)):<2d} {label} eps* = {prof.epsilon_star:7.3f}  "
            f"j* = {prof.j_star:.3e}  psi = {prof.psi:6.3f}  regime = {prof.regime}"
        )

print()
print("=== Unobserved head coordinates in the subpoissonian regime ===")
mu = RateVector(np.full(3000, 0.3))
prof = poisson_rate(mu)
print(
    f"mu = 0.3, p = 3000: P(all of the first j* = {prof.j_star} coordinates observed) = "
    f"{prob_all_observed(mu, prof.j_star):.2e}"
)

print()
print("=== Multinomial nulls: the simplex changes the head's contribution ===")
for label, probs, n in [
    ("uniform p=100, n=2000  ", np.full(100, 0.01), 2000.0),
    ("uniform p=100, n=200   ", np.full(100, 0.01), 200.0),
    ("point mass + dust      ", np.r_[0.901, np.full(99, 0.001)], 2000.0),
]:
    q0 = SimplexVector(probs)
    prof = multinomial_rate(q0, n)
    print(
        f"{label} eps* = {prof.epsilon_star:8.5f}  j* = {prof.j_star:3d}  "
        f"m = {prof.m}  regime = {prof.regime}"
    )
